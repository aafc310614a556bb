import hashlib
import importlib.util
import json
from pathlib import Path

from cpdq_lab import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "outputs_digest.py"
spec = importlib.util.spec_from_file_location("outputs_digest", TOOL)
outputs_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs_digest)


def test_digest_of_one_scenario(tmp_path):
    rel = (outputs_digest.SCENARIOS / "dispersion_rest.json").as_posix()
    out = tmp_path / "out"
    got = outputs_digest.run_digest(ROOT, ["run", rel, "--out", str(out)],
                                    out)
    assert got["exit"] == 0
    assert got["stderr"] == hashlib.sha256(b"").hexdigest()
    assert sorted(got["artifacts"]) == ["dispersion.json", "report.json"]
    report = (out / "report.json").read_bytes()
    assert got["artifacts"]["report.json"] == hashlib.sha256(report).hexdigest()
    assert json.loads(report)["scenario"]["kind"] == "dispersion"


def test_wall_clock_masked():
    # %13.6g pads 0.051159 one column wider than 0.0516247
    rows = ["stationarity/runtime_s      0.0516247  <=           1  pass\n",
            "stationarity/runtime_s       0.051159  <=           1  pass\n"]
    for row in rows:
        table = row + ("stationarity/max_dl          1e-09  <=       1e-06  pass\n"
                       "# 12 criteria, 0 failing checks, 0.8s\n")
        assert outputs_digest.mask_wall_clock(table) == (
            "stationarity/runtime_s *  <=           1  pass\n"
            "stationarity/max_dl          1e-09  <=       1e-06  pass\n"
            "# 12 criteria, 0 failing checks, *s\n")


def test_diff_names_what_differs(tmp_path, capsys):
    run = {"exit": 0, "stdout": "s", "stderr": "e",
           "artifacts": {"report.json": "r", "series.csv": "c"}}
    a = {"schema": {**run, "artifacts": {}}, "x.json": run}
    b = {"schema": {**run, "artifacts": {}},
         "x.json": {**run, "exit": 3,
                    "artifacts": {"report.json": "r", "series.csv": "d",
                                  "extra.csv": "z"}},
         "y.json": run}
    assert outputs_digest.differences(a, a) == []
    assert outputs_digest.differences(a, b) == [
        "x.json artifacts/extra.csv: None != z",
        "x.json artifacts/series.csv: c != d",
        "x.json exit: 0 != 3",
        "y.json artifacts/report.json: None != r",
        "y.json artifacts/series.csv: None != c",
        "y.json exit: None != 0",
        "y.json stderr: None != e",
        "y.json stdout: None != s"]
    paths = []
    for name, digest in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digest))
    assert outputs_digest.main(["--diff", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == "no differences\n"
    assert outputs_digest.main(["--diff", *map(str, paths)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "x.json artifacts/series.csv: c != d" and len(out) == 8
    assert outputs_digest.main(["--diff", str(paths[0])]) == 2
    assert "--diff A.json B.json" in capsys.readouterr().err


def test_digest_holds_the_params_schemas(monkeypatch):
    # no scenarios: the digest holds the two schema runs alone
    monkeypatch.setattr(outputs_digest, "SCENARIOS", Path("no-scenarios"))
    monkeypatch.setattr(outputs_digest, "EDGE", {})
    runs = outputs_digest.digest(ROOT)
    assert sorted(runs) == ["params_schemas", "schema"]
    dump = json.dumps({k: v[0] for k, v in cli.KINDS.items()}) + "\n"
    assert runs["params_schemas"] == {
        "exit": 0, "stdout": hashlib.sha256(dump.encode()).hexdigest(),
        "stderr": hashlib.sha256(b"").hexdigest(), "artifacts": {}}


def test_digest_runs_the_edge_configs(monkeypatch):
    # each runs from edge/<name>.json, so its message is the same line on
    # every checkout and in every temporary directory
    monkeypatch.setattr(outputs_digest, "SCENARIOS", Path("no-scenarios"))
    names = ["grid_past_tiny_well", "q0_outside_well", "tise_well_f_1e-81",
             "wkb_k_squared"]
    monkeypatch.setattr(outputs_digest, "EDGE",
                        {k: outputs_digest.EDGE[k] for k in names})
    runs = outputs_digest.digest(ROOT)
    assert sorted(runs) == [f"edge/{k}.json" for k in names] + [
        "params_schemas", "schema"]
    for name, message in (
            # the grid spans 1.8e8 widths of the well
            ("grid_past_tiny_well", b"grid: grid must lie inside the well"),
            ("q0_outside_well", b"q0 lies outside the potential's domain"),
            # 2 f^2/mass = 2e-320: (E - V)/(2 f^2/mass) overflows
            ("wkb_k_squared", b"wkb: k^2 = (E - V)/(2 f^2/mass) is not "
                              b"positive and finite on the grid")):
        line = (b"error: invalid scenario edge/" + name.encode()
                + b".json: " + message + b"\n")
        assert runs[f"edge/{name}.json"] == {
            "exit": 2, "stderr": hashlib.sha256(line).hexdigest(),
            "stdout": hashlib.sha256(b"").hexdigest(), "artifacts": {}}
    well = runs["edge/tise_well_f_1e-81.json"]
    assert well["exit"] == 0
    assert sorted(well["artifacts"]) == ["energies.csv", "report.json",
                                         "states.csv"]

