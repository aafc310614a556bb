import hashlib
import importlib.util
import json
from pathlib import Path

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
