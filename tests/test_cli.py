import json
from importlib import resources
from pathlib import Path

import pytest

from cpdq_lab import cli


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
    ], ids=["tise_too_many_energies", "tise_zero_energy", "piston_no_l0",
            "piston_l_end_unreachable", "piston_collapsing_box",
            "piston_scan_with_run_keys", "piston_jump_after_end",
            "piston_one_right_hit", "piston_near_closure", "grid_reversed"])
    def test_config_error_exits_2(self, tmp_path, capsys, monkeypatch, kind,
                                  params, named):
        def never(*args, **kwargs):
            raise AssertionError("computed a rejected config")
        for name in ("solve_tise", "piston_simulate", "adiabatic_scan"):
            monkeypatch.setattr(cli, name, never)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": kind, "params": params}))
        out = tmp_path / "o"
        assert cli.main(["run", str(bad), "--out", str(out)]) \
            == cli.EXIT_SCHEMA
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    @pytest.mark.parametrize("name", RUNNABLE_SCENARIOS)
    def test_bundled_scenarios_pass(self, tmp_path, name):
        out = tmp_path / "out"
        assert run(name, out) == cli.EXIT_OK
        report = strict_json(out / "report.json")
        assert all(c["pass"] for c in report["checks"])
        assert report["artifacts"]
        for artifact in report["artifacts"]:
            assert (out / artifact).exists()
            if artifact.endswith(".json"):
                strict_json(out / artifact)

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

    def test_tightened_suite_fails(self, capsys):
        code = cli.main(["suite", "--filter", "thermo",
                         "--tighten", "7_thermo_bridge"])
        assert code == cli.EXIT_CHECK
        out = capsys.readouterr().out
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert len(failing) == 1


def test_schema_subcommand_prints_valid_json(capsys):
    assert cli.main(["schema"]) == cli.EXIT_OK
    schema = json.loads(capsys.readouterr().out)
    assert schema["properties"]["kind"]["enum"]
