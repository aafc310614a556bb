import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdq_lab import acceptance, cli


SCENARIOS = Path(str(resources.files("cpdq_lab") / "scenarios"))


def scenario_path(name: str) -> Path:
    return SCENARIOS / name


def run(name, out):
    return cli.main(["run", str(scenario_path(name)), "--out", str(out)])


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


# every bundled scenario but the negative fixture and the suite kind,
# which TestSuite covers
RUNNABLE_SCENARIOS = sorted(
    p.name for p in SCENARIOS.glob("*.json")
    if p.name != "bad_schema.json"
    and json.loads(p.read_text())["kind"] != "suite")

TISE_WELL = {"potential": {"kind": "infinite_well"},
             "grid": {"x_min": 0.0, "x_max": 1.0, "n": 200}}
HARMONIC = {"potential": {"kind": "harmonic"},
            "grid": {"x_min": -10.0, "x_max": 10.0, "n": 2000}}
# reaches past the default width-1 well of TISE_WELL
WELL_OVERRUN = {"x_min": 0.0, "x_max": 2.0, "n": 200}


class TestValidation:
    def test_unknown_top_level_key_named(self, tmp_path, capsys):
        code = run("bad_schema.json", tmp_path)
        assert code == cli.EXIT_SCHEMA
        assert "paramters" in capsys.readouterr().err

    def test_unknown_param_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "bounds",
            "params": {"energy": 1.0, "theta": 1.0, "extra_knob": 2}}))
        code = cli.main(["run", str(bad), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA
        assert "extra_knob" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = cli.main(["run", str(bad), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA

    def test_missing_file(self, tmp_path):
        code = cli.main(["run", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_SCHEMA

    def test_regime_needs_one_source(self, tmp_path):
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps({"kind": "regime", "params": {}}))
        assert cli.main(["run", str(bad)]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("kind,params,named", [
        ("tise", dict(TISE_WELL, n_states=1,
                      expected_energies=[4.93, 19.7]), "expected_energies"),
        ("tise", dict(TISE_WELL, n_states=1,
                      expected_energies=[0.0]), "expected_energies"),
        ("piston", {"v0": 1.0, "u": 0.1, "l_end": 2.0}, "l0 and v0"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": 0.1, "l_end": 0.5}, "l_end"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": -0.5, "t_end": 10.0},
         "t_end < l0/|u|"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": 0.5, "mode": "sudden_jump",
                    "scan": {"ratios": [0.01, 0.1]}}, "'u', 'mode'"),
        ("piston", {"l0": 1.0, "v0": 1.0, "mode": "sudden_jump", "l_end": 2.0,
                    "t_jump": 5.0, "t_end": 3.0}, "t_jump < t_end"),
        ("piston", {"l0": 1.0, "v0": 1.0, "t_end": 1.5},
         "second right-wall collision"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": -0.5, "t_end": 1.99999999},
         "10000000"),
        ("tise", dict(TISE_WELL, n_states=1,
                      grid={"x_min": 1.0, "x_max": -1.0, "n": 200}),
         "x_max must exceed x_min"),
        ("piston", {"l0": 1, "v0": 1, "scan": {"ratios": [1e-9, 0.1]}},
         "piston scan: more than 10000000"),
        ("variational", dict(HARMONIC, max_iters=1), "minimum of 2"),
        ("tise", dict(TISE_WELL, n_states=1, grid=WELL_OVERRUN),
         "grid: grid must lie inside the well"),
        ("variational", dict(TISE_WELL, grid=WELL_OVERRUN),
         "grid: grid must lie inside the well"),
        ("wkb", dict(TISE_WELL, energy=1.0, grid=WELL_OVERRUN),
         "grid: grid must lie inside the well"),
        ("tise", {"potential": {"kind": "harmonic"},
                  "grid": {"x_min": -5.0, "x_max": 5.0, "n": 64},
                  "n_states": 63}, "n_states exceeds interior grid dimension"),
        ("trajectory", {"potential": {"kind": "infinite_well", "width": 1.0},
                        "q0": 2.0, "p0": 1.0, "dt": 0.01, "n_steps": 10},
         "q0 lies outside the potential's domain"),
    ], ids=["tise_too_many_energies", "tise_zero_energy", "piston_no_l0",
            "piston_l_end_unreachable", "piston_collapsing_box",
            "piston_scan_with_run_keys", "piston_jump_after_end",
            "piston_one_right_hit", "piston_near_closure", "grid_reversed",
            "piston_scan_event_cap", "variational_one_application",
            "tise_grid_past_well", "variational_grid_past_well",
            "wkb_grid_past_well", "tise_n_states_past_grid",
            "trajectory_q0_outside_well"])
    def test_config_error_exits_2(self, tmp_path, capsys, monkeypatch, kind,
                                  params, named):
        def never(*args, **kwargs):
            raise AssertionError("computed a rejected config")
        for name in ("solve_tise", "piston_simulate", "adiabatic_scan",
                     "variational_ground_state", "local_wkb_profile",
                     "integrate_hamilton"):
            monkeypatch.setattr(cli, name, never)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": kind, "params": params}))
        out = tmp_path / "o"
        assert cli.main(["run", str(bad), "--out", str(out)]) \
            == cli.EXIT_SCHEMA
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"kind": "piston", "params": {"l0": NaN, "v0": 1, "u": 0.01, '
        '"l_end": 2}}',
        '{"kind": "trajectory", "params": {"potential": {"kind": '
        '"harmonic"}, "q0": 1, "p0": 0, "dt": NaN, "n_steps": 10}}',
        '{"kind": "dispersion", "params": {"k": Infinity, "m0": 1}}',
        '{"kind": "bounds", "params": {"energy": 1e999, "theta": 300}}',
    ], ids=["nan_l0", "nan_dt", "infinite_k", "overflowing_energy"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["run", str(bad), "--out", str(out)]) \
            == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cannot parse" in err
        assert not out.exists()

    def test_well_grid_within_slack_runs(self, tmp_path):
        # 1e-13 past the wall is inside the 1e-12 slack of Potential.contains
        path = tmp_path / "slack.json"
        path.write_text(json.dumps({"kind": "wkb", "params": dict(
            TISE_WELL, energy=10.0,
            grid={"x_min": 0.0, "x_max": 1.0000000000001, "n": 64})}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_OK


def strict_csv(path: Path, header: list[str]) -> None:
    """Every line ends in a newline, the first is the header, and every
    other has one float-parsable field per header column."""
    lines = path.read_text().splitlines(keepends=True)
    assert all(line.endswith("\n") for line in lines)
    assert lines[0] == ",".join(header) + "\n"
    for line in lines[1:]:
        fields = line[:-1].split(",")
        assert len(fields) == len(header)
        for field in fields:
            float(field)


class TestRun:
    @pytest.mark.parametrize("name", RUNNABLE_SCENARIOS)
    def test_bundled_scenarios_pass(self, tmp_path, monkeypatch, name):
        headers = {}
        write_csv = cli.write_csv

        def recording(path, header, columns):
            headers[Path(path).name] = header
            write_csv(path, header, columns)
        monkeypatch.setattr(cli, "write_csv", recording)
        out = tmp_path / "out"
        assert run(name, out) == cli.EXIT_OK
        report = strict_json(out / "report.json")
        assert all(c["pass"] for c in report["checks"])
        assert report["artifacts"]
        for artifact in report["artifacts"]:
            assert (out / artifact).exists()
            if artifact.endswith(".json"):
                strict_json(out / artifact)
            else:
                strict_csv(out / artifact, headers[artifact])

    def test_harmonic_pzie_scenario(self, tmp_path):
        assert run("harmonic_pzie.json", tmp_path / "out") == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert "pzie_cumulative_bits" in names
        assert (tmp_path / "out" / "series.csv").exists()

    def test_check_failure_exits_3(self, tmp_path):
        cfg = json.loads(scenario_path("harmonic_pzie.json").read_text())
        cfg["params"]["energy_drift_tol"] = 1e-300
        cfg["params"]["n_steps"] = 5000
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CHECK

    def test_computation_error_exits_1(self, tmp_path):
        cfg = {"kind": "wkb", "params": {
            "potential": {"kind": "harmonic"},
            "energy": -5.0,
            "grid": {"x_min": -1.0, "x_max": 1.0, "n": 128}}}
        path = tmp_path / "err.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_COMPUTE

    def test_solver_failure_payload_exits_1(self, tmp_path, capsys):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps({"kind": "variational", "params": dict(
            HARMONIC, max_iters=3, tol=1e-16)}))
        out = tmp_path / "o"
        assert cli.main(["run", str(path), "--out", str(out)]) \
            == cli.EXIT_COMPUTE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "ConvergenceError" in err and "iterations=3" in err
        assert math.isfinite(float(re.search(r"energy=(\S+)", err)[1]))
        assert not (out / "report.json").exists()

    def test_report_deterministic(self, tmp_path):
        run("piston_sudden_jump.json", tmp_path / "a")
        run("piston_sudden_jump.json", tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() \
            == (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "events.csv").read_bytes() \
            == (tmp_path / "b" / "events.csv").read_bytes()

    def test_timing_outside_report(self, tmp_path):
        run("bounds_si_1joule.json", tmp_path / "out")
        report = (tmp_path / "out" / "report.json").read_text()
        assert "elapsed" not in report
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert timing["elapsed_s"] >= 0.0


def old_csv_rows(columns) -> str:
    """The per-row formula write_csv replaced, kept as its reference."""
    return "".join(",".join("%.17g" % float(x) for x in row) + "\n"
                   for row in zip(*columns))


B = cli._CSV_BLOCK_ROWS
# nan, infinities, signed zeros, the smallest and the largest subnormal,
# and the largest finite doubles
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
               -2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308]


class TestWriteCsv:
    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.sampled_from([0, 1, B - 1, B, B + 1]),
           pools=st.lists(st.one_of(
               st.lists(st.floats(), min_size=1, max_size=8),
               st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                        max_size=8)), min_size=1, max_size=4),
           shift=st.integers(0, 16))
    def test_bytes_match_per_row_formula(self, tmp_path_factory, n_rows,
                                         pools, shift):
        # each column cycles through its drawn values; the first also
        # walks every edge float, and each column starts at its own offset
        pools[0] = pools[0] + EDGE_FLOATS
        columns = [np.roll(np.resize(np.array(pool), n_rows), shift * k)
                   for k, pool in enumerate(pools)]
        header = [f"c{k}" for k in range(len(columns))]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        cli.write_csv(path, header, columns)
        expected = ",".join(header) + "\n" + old_csv_rows(columns)
        assert path.read_bytes() == expected.encode()

    def test_ragged_columns_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match="ragged.csv"):
            cli.write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_ragged_artifact_exits_1(self, tmp_path, monkeypatch, capsys):
        def ragged(params, consts):
            return [], {"t.csv": (["a", "b"], [np.zeros(3), np.zeros(2)])}
        monkeypatch.setitem(cli.KINDS, "bounds",
                            (cli.KINDS["bounds"][0], ragged))
        code = run("bounds_si_1joule.json", tmp_path / "out")
        assert code == cli.EXIT_COMPUTE
        assert "columns differ in length" in capsys.readouterr().err


def tighten(monkeypatch, name):
    """Patch criterion `name` so that its first upper bound on a nonzero
    value becomes 0 (a zero value meets any such bound)."""
    def tightened(func):
        def run():
            checks = func()
            k = next(k for k, c in enumerate(checks)
                     if c.comparator == "<=" and c.value > 0.0)
            checks[k] = dataclasses.replace(checks[k], tolerance=0.0)
            return checks
        return run
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (n, tags, tightened(func) if n == name else func)
        for n, tags, func in acceptance.CRITERIA])


class TestSuite:
    def test_filtered_suite_passes(self, tmp_path, capsys):
        code = cli.main(["suite", "--filter", "thermo",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "thermo/sudden_doubling_dS_err" in out
        report = json.loads((tmp_path / "acceptance_report.json").read_text())
        assert {c["name"] for crit in report["criteria"]
                for c in crit["checks"]}

    def test_unknown_filter(self, capsys):
        assert cli.main(["suite", "--filter", "nonsense"]) == cli.EXIT_SCHEMA

    def test_suite_report_deterministic(self, tmp_path, capsys):
        for side in ("a", "b"):
            assert cli.main(["suite", "--out", str(tmp_path / side)]) \
                == cli.EXIT_OK
        report = (tmp_path / "a" / "acceptance_report.json").read_bytes()
        assert report \
            == (tmp_path / "b" / "acceptance_report.json").read_bytes()
        rows = {c["name"]: c for crit in json.loads(report)["criteria"]
                for c in crit["checks"]}
        timing = json.loads((tmp_path / "a" / "timing.json").read_text())
        assert sorted(timing["wall_clock_checks"]) \
            == ["eigensolver/runtime_s", "stationarity/runtime_s"]
        for name, seconds in timing["wall_clock_checks"].items():
            assert "value" not in rows[name] and rows[name]["pass"] is True
            assert 0.0 < seconds <= rows[name]["tolerance"]
        assert len(timing["criterion_s"]) == 12
        assert all(s > 0.0 for s in timing["criterion_s"].values())

    def test_runtime_bound_still_gates(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "_runtime", lambda name, seconds,
                            bound: acceptance.Check(name, 2.0 * bound, bound,
                                                    wall_clock=True))
        code = cli.main(["suite", "--filter", "variational",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CHECK
        report = json.loads((tmp_path / "acceptance_report.json").read_text())
        rows = {c["name"]: c for crit in report["criteria"]
                for c in crit["checks"]}
        assert rows["stationarity/runtime_s"]["pass"] is False
        assert "value" not in rows["stationarity/runtime_s"]

    def test_tightened_stationarity_fails(self, monkeypatch, capsys):
        tighten(monkeypatch, "1_stationarity")
        code = cli.main(["suite", "--filter", "variational"])
        assert code == cli.EXIT_CHECK

    def test_tightened_suite_fails(self, monkeypatch, capsys):
        tighten(monkeypatch, "7_thermo_bridge")
        code = cli.main(["suite", "--filter", "thermo"])
        assert code == cli.EXIT_CHECK
        out = capsys.readouterr().out
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert len(failing) == 1


def test_schema_subcommand_prints_valid_json(capsys):
    assert cli.main(["schema"]) == cli.EXIT_OK
    schema = json.loads(capsys.readouterr().out)
    assert schema["properties"]["kind"]["enum"]


# Run in a fresh interpreter: which scipy modules are loaded after importing
# the package, and again after running the scenario named in argv.
SCIPY_PROBE = """
import contextlib, io, json, sys
import cpdq_lab, cpdq_lab.cli

def loaded():
    return [m for m in ("scipy.linalg", "scipy.fft") if m in sys.modules]

seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    _, code = cpdq_lab.cli.run_scenario(sys.argv[1], sys.argv[2])
print(json.dumps([code, seen + [loaded()]]))
"""


@pytest.mark.parametrize("name,loads", [
    ("piston_scan.json", []),
    ("harmonic_pzie.json", []),
    ("tise_infinite_well.json", ["scipy.linalg"]),
])
def test_scipy_loads_only_with_its_solvers(tmp_path, name, loads):
    """Kinds that call no scipy solver start and run without scipy; the
    tise run shows the probe sees the import when it happens."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(scenario_path(name)),
         str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, (after_import, after_run) = json.loads(proc.stdout)
    assert code == cli.EXIT_OK
    assert after_import == []
    assert after_run == loads


# Schema fuzz: configs the schema admits, bounded so that no run is slow
# (n_steps <= 2000, grid n <= 256, scan ratios >= 1e-3, |u| <= v0/2).
def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_POTENTIALS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("free")}),
    st.fixed_dictionaries({"kind": st.just("linear"), "f0": _finite(-5, 5)}),
    st.fixed_dictionaries({"kind": st.just("harmonic"),
                           "m": _finite(0.2, 5), "omega": _finite(0.2, 5)}),
    st.fixed_dictionaries({"kind": st.just("infinite_well"),
                           "width": _finite(0.2, 5)}),
    st.fixed_dictionaries({"kind": st.just("soft_well"),
                           "v0": _finite(0.2, 50), "a": _finite(0.2, 3)}))


@st.composite
def _grid_for(draw, potential):
    if potential["kind"] == "infinite_well" and draw(st.booleans()):
        lo, hi = 0.0, potential["width"]
    else:
        lo = draw(_finite(-8, 8))
        hi = lo + draw(_finite(0.5, 16))
    return {"x_min": lo, "x_max": hi, "n": draw(st.integers(64, 256))}


@st.composite
def _trajectory(draw):
    return {"potential": draw(_POTENTIALS), "q0": draw(_finite(-3, 3)),
            "p0": draw(_finite(-3, 3)), "dt": draw(_finite(1e-3, 0.2)),
            "n_steps": draw(st.integers(4, 2000)),
            **draw(st.fixed_dictionaries({}, optional={
                "energy_drift_tol": _POSITIVE, "pzie_tol_bits": _POSITIVE}))}


@st.composite
def _tise(draw):
    potential = draw(_POTENTIALS)
    grid = draw(_grid_for(potential))
    n_states = draw(st.integers(1, 6))
    return {"potential": potential, "grid": grid, "n_states": n_states,
            **draw(st.fixed_dictionaries({}, optional={
                "expected_energies": st.lists(_finite(-100, 100),
                                              max_size=n_states),
                "energy_rel_tol": _POSITIVE}))}


@st.composite
def _piston(draw):
    v0 = draw(_finite(0.2, 4))
    params = {"l0": draw(_finite(0.5, 4)), "v0": v0,
              **draw(st.fixed_dictionaries({}, optional={
                  "m": _finite(0.2, 5)}))}
    if draw(st.booleans()):
        params["scan"] = draw(st.fixed_dictionaries(
            {"ratios": st.lists(_finite(1e-3, 0.99), min_size=2, max_size=4)},
            optional={"expansion": _finite(1.01, 4)}))
        return params
    if draw(st.booleans()):
        return {**params, "mode": "sudden_jump", **draw(st.fixed_dictionaries(
            {}, optional={"l_end": _finite(0.5, 8), "t_end": _finite(0.1, 20),
                          "t_jump": _finite(0.1, 20)}))}
    ratio = draw(st.one_of(st.just(0.0), _finite(1e-3, 0.5),
                           _finite(-0.5, -1e-3)))
    return {**params, "u": ratio * v0, **draw(st.fixed_dictionaries(
        {}, optional={"l_end": _finite(0.2, 4), "t_end": _finite(0.1, 20)}))}


def _config(kind, params):
    return st.fixed_dictionaries(
        {"kind": st.just(kind), "params": params},
        optional={"units": st.sampled_from(["natural", "si"])})


_CONFIGS = st.one_of(
    _config("bounds", st.fixed_dictionaries(
        {"energy": _POSITIVE, "theta": _POSITIVE})),
    _config("dispersion", st.fixed_dictionaries(
        {"k": _finite(-1e300, 1e300), "m0": _finite(0, 1e300)},
        optional={"c": _POSITIVE, "f": _POSITIVE})),
    _config("regime", st.fixed_dictionaries(
        {"metrics": st.fixed_dictionaries({
            key: _finite(0, 1e300) for key in
            ("mean_abs_d_i", "max_step_d_i_q", "max_step_d_i_p")})},
        optional={"thresholds": st.lists(_POSITIVE, min_size=2,
                                         max_size=2)})),
    _config("piston", _piston()),
    _config("trajectory", _trajectory()),
    _config("tise", _tise()))


@pytest.mark.filterwarnings("ignore::cpdq_lab.quantum.UnboundStateWarning")
@settings(max_examples=150, deadline=None)
@given(cfg=_CONFIGS)
def test_admitted_configs_end_cleanly(tmp_path_factory, cfg):
    """Every admitted config ends in exit 0-3; an error exit (1 or 2)
    writes one stderr line, a finished run none (exit 3 reports its
    failing checks on stdout); every file written is strict JSON or CSV."""
    cli._check_schema(cli.SCHEMA, cfg)
    cli._check_schema(cli.KINDS[cfg["kind"]][0], cfg["params"])
    base = tmp_path_factory.mktemp("fuzz")
    path, out = base / "cfg.json", base / "out"
    path.write_text(json.dumps(cfg, allow_nan=False))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_COMPUTE, cli.EXIT_SCHEMA,
                    cli.EXIT_CHECK)
    lines = err.getvalue().splitlines()
    assert len(lines) == (1 if code in (cli.EXIT_COMPUTE, cli.EXIT_SCHEMA)
                          else 0), lines
    for artifact in out.glob("*") if out.exists() else ():
        if artifact.suffix == ".json":
            strict_json(artifact)
        else:
            header = artifact.read_text().split("\n", 1)[0].split(",")
            strict_csv(artifact, header)
