import importlib.util
import json
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def write_run(root: Path, seed: int, trace: int, metrics: dict, mtime: int):
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"wave_solvers-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "workload": "wave_solvers", "seed": seed, "correct": True,
        "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
    os.utime(path, (mtime, mtime))


def test_pairs_runs_by_seed_and_counts_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src").mkdir(parents=True)
    (change / "src").mkdir(parents=True)
    (change / "src" / "m.py").write_text("x = 1\n")
    for seed, (p_pass, c_pass) in enumerate([(0.9, 0.3), (0.8, 0.85)]):
        # seed 0 runs the parent first, seed 1 the change
        p_time, c_time = (100, 200) if seed == 0 else (400, 300)
        write_run(parent, seed, 0, {"setup_s": 0.7, "pass_s": p_pass,
                                    "peak_rss_mb": 74.0}, p_time)
        write_run(change, seed, 0, {"setup_s": 0.7, "pass_s": c_pass,
                                    "peak_rss_mb": 74.0}, c_time)
    write_run(parent, 5, 1, {"quantum.dst_transforms": 4130}, 500)
    write_run(change, 5, 1, {"quantum.dst_transforms": 285}, 600)
    write_run(change, 9, 0, {"pass_s": 0.1}, 700)

    bench = bench_json.assemble(parent, change)
    wave = bench["workloads"]["wave_solvers"]
    assert [(p["seed"], p["first"]) for p in wave["pairs"]] \
        == [(0, "parent"), (1, "change")]
    assert wave["summary"]["pass_s"]["change_lower"] == 1
    assert wave["summary"]["pass_s"]["pairs"] == 2
    assert wave["summary"]["peak_rss_mb"]["change_lower"] == 0
    assert wave["traced"][0]["change"]["metrics"] \
        == {"quantum.dst_transforms": 285}
    assert bench["unpaired"] == ["wave_solvers-seed9-trace0"]
    assert bench["seeds"] == [0, 1, 5]
    assert bench["parent"]["src_sha256"] != bench["change"]["src_sha256"]
    assert wave["summary"]["pass_s"]["verdict"] == "within"
    assert wave["summary"]["pass_s"]["bound"] == 0.2


def test_compare_against_bound():
    # medians 1.0 -> 1.1: worse beyond a 5 % bound, within a 20 % one
    parent, change = [0.99, 1.0, 1.01], [1.09, 1.1, 1.11]
    assert bench_json.compare(parent, change, 0.05)["verdict"] == "worse"
    assert bench_json.compare(parent, change, 0.2)["verdict"] == "within"
    assert bench_json.compare(parent, change, 0.2)["relative"] \
        == (1.1 - 1.0) / 1.0
    # a parent spread wider than the bound leaves a small move unresolved,
    # unless every change run reads lower than every parent run
    wide = [0.6, 1.0, 1.4]
    assert bench_json.compare(wide, [0.9, 1.0, 1.1], 0.2)["verdict"] \
        == "unresolved"
    assert bench_json.compare(wide, [0.3, 0.4, 0.5], 0.2)["verdict"] \
        == "within"
