import importlib.util
import json
from pathlib import Path

import cpdq_lab.cli as cli
from cpdq_lab import (Grid1D, PistonConfig, Potential, _csv, natural_units,
                      quantum)

TOOL = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
spec = importlib.util.spec_from_file_location("tracer", TOOL)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def scenario(tmp_path, name, kind, params):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"kind": kind, "params": params}))
    return path


def test_tracer_finds_every_traced_name(tmp_path):
    # the benchmark's tracer looks up each traced function by name and
    # reads some of their arguments; a renamed or deleted one breaks it
    traj = scenario(tmp_path, "traj", "trajectory", {
        "potential": {"kind": "harmonic"}, "q0": 1.0, "p0": 0.0,
        "dt": 1e-3, "n_steps": 1000})
    n = 64
    tise = scenario(tmp_path, "tise", "tise", {
        "potential": {"kind": "harmonic"},
        "grid": {"x_min": -5.0, "x_max": 5.0, "n": n}, "n_states": 2})
    piston_params = {"l0": 1.0, "v0": 1.0, "u": 0.01, "l_end": 2.0}
    piston = scenario(tmp_path, "piston", "piston", piston_params)
    well = scenario(tmp_path, "well", "variational", {
        "potential": {"kind": "infinite_well"},
        "grid": {"x_min": 0.0, "x_max": 1.0, "n": 256}})
    consts = natural_units()
    psi = quantum.solve_tise(Potential("harmonic"), Grid1D(-5.0, 5.0, n), 1,
                             consts).states[0]
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run_scenario(traj, tmp_path / "traj_out")[1] == 0
        assert cli.run_scenario(tise, tmp_path / "tise_out")[1] == 0
        assert cli.run_scenario(piston, tmp_path / "piston_out")[1] == 0
        report, code = cli.run_scenario(well, tmp_path / "well_out")
        assert code == 0
        quantum.fisher_metrics(psi)
    finally:
        t.uninstall()
    _, counts = t.take()
    assert counts["dynamics.steps"] == 1000
    assert counts["quantum.eigen_dim"] == (n - 2) + (256 - 2)
    assert counts["thermo.events"] == PistonConfig(**piston_params).n_events
    checks = {c["name"]: c["value"] for c in report["checks"]}
    assert counts["quantum.descent_iters"] == checks["iterations"] > 0
    assert counts["quantum.fisher_points"] == n
    assert counts["core.eval_potential_calls"] > 0


def test_tracer_counts_the_descent_at_a_slow_length(tmp_path):
    # N + 1 = 499 is prime, so the descent applies its propagator by
    # convolution and only the energy's DST-I reaches scipy.fft.dst; the
    # benchmark refuses a traced quantum workload that counts no DST
    cfg = scenario(tmp_path, "slow", "variational", {
        "potential": {"kind": "harmonic"},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 500}})
    report, code = cli.run_scenario(cfg, tmp_path / "plain_out")
    assert code == 0
    t = tracer.Tracer()
    try:
        t.install()
        traced, code = cli.run_scenario(cfg, tmp_path / "traced_out")
        assert code == 0
    finally:
        t.uninstall()
    _, counts = t.take()
    iterations = {c["name"]: c["value"] for c in report["checks"]}["iterations"]
    assert traced["checks"] == report["checks"]
    assert counts["quantum.dst_transforms"] > 0
    assert counts["quantum.descent_iters"] == iterations > 0


def test_tracer_counts_a_split_csv_write_once(tmp_path, monkeypatch):
    # series.csv (62,833 rows of 8 columns) is formatted in two halves by
    # two processes; the child leaves by os._exit, so it adds no span and
    # no count to the ones the parent records
    monkeypatch.setattr(_csv, "_usable_cpus", lambda: 2)
    path = Path(cli.__file__).parent / "scenarios" / "harmonic_pzie.json"
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run_scenario(path, tmp_path / "out")[1] == 0
    finally:
        t.uninstall()
    spans, counts = t.take()
    assert [name for name, *_ in spans].count("cli.write_csv") == 1
    assert counts["cli.csv_floats"] == 502_664
    assert counts["cli.csv_bytes"] \
        == (tmp_path / "out" / "series.csv").stat().st_size


def test_wkb_run_samples_the_potential_once(tmp_path):
    # validation samples V and V' on the grid for the run; the Bohm
    # report's eigensolve samples V once more.  The run builds one profile
    # and recovers the force from it once, through the public functions.
    path = Path(cli.__file__).parent / "scenarios" / "wkb_harmonic_e10.json"
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run_scenario(path, tmp_path / "out")[1] == 0
    finally:
        t.uninstall()
    spans, counts = t.take()
    assert counts["core.eval_potential_calls"] == 2
    names = [name for name, *_ in spans]
    assert names.count("quantum.local_wkb_profile") == 1
    assert names.count("quantum.appendix_a_consistency") == 1


def test_variational_run_samples_the_potential_twice(tmp_path):
    # validation samples V on the grid, and the descent reads that sample;
    # the reference eigensolve samples V once more
    path = Path(cli.__file__).parent / "scenarios" / "variational_harmonic.json"
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run_scenario(path, tmp_path / "out")[1] == 0
    finally:
        t.uninstall()
    spans, counts = t.take()
    assert counts["core.eval_potential_calls"] == 2
    names = [name for name, *_ in spans]
    assert names.count("quantum.variational_ground_state") == 1
    assert names.count("quantum.solve_tise") == 1
