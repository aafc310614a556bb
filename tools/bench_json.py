#!/usr/bin/env python3
"""Assemble a committed BENCH_*.json from two perfbench result sets.

perfbench writes one detail file per run to
`<checkout>/.perfbench/results/<workload>-seed<n>-trace<t>.json`.  Run the
benchmark on the same seeds in a checkout of the parent and in a checkout
of the change, then

    python3 tools/bench_json.py --parent PARENT_DIR --change CHANGE_DIR \\
        --out BENCH_<n>.json

pairs the runs by workload, seed and trace flag, and writes both sides'
identity (commit and a digest of the source tree measured), the Python,
numpy and scipy versions, every pair's end-to-end metrics, their medians
and quartiles with the change's win count and a verdict against the
metric's bound in BENCHMARK.json, and the traced per-layer metrics.
Which side of a pair ran first is read from the order in which the two
result files were written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def identity(root: Path) -> dict:
    """Commit of a checkout (suffixed -dirty if src/ differs from it) and
    the sha256 of every file under its src/, by sorted relative path."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and "__pycache__" not in rel and "_out/" not in rel:
            digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    git = ["git", "-C", str(root)]
    try:
        commit = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                                capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                               check=True, capture_output=True,
                               text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = None, ""
    if commit and dirty:
        commit += "-dirty"
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def load(root: Path) -> dict:
    """(workload, seed, trace) -> (detail dict, file mtime)."""
    runs = {}
    for path in sorted((root / ".perfbench" / "results").glob("*.json")):
        detail = json.loads(path.read_text())
        trace = int(path.stem.rsplit("-trace", 1)[1])
        runs[detail["workload"], detail["seed"], trace] = (
            detail, path.stat().st_mtime)
    return runs


def outcome(detail: dict) -> dict:
    metrics = {k: v["value"] for k, v in detail["metrics"].items()}
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], bound: float) -> dict:
    """Both sides' spreads, and the change's median against the parent's as
    a share of the parent's median, for a metric where lower is better; a
    bound is such a share too, as perfbench/README.md compares spreads with
    bounds.

    "worse" where the change is higher by more than the bound;
    "unresolved" where the parent's quartile distance is wider than the
    bound, unless every change run is below every parent run; else
    "within".
    """
    p, c = spread(parent), spread(change)
    relative = (c["median"] - p["median"]) / p["median"]
    width = (p["q3"] - p["q1"]) / p["median"]
    if relative > bound:
        word = "worse"
    elif width > bound and max(change) >= min(parent):
        word = "unresolved"
    else:
        word = "within"
    return {"parent": p, "change": c, "bound": bound, "relative": relative,
            "parent_spread": width, "verdict": word}


def summary(pairs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in END_TO_END:
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs if name in p["parent"]["metrics"]]
        if not both:
            continue
        parent, change = zip(*both)
        out[name] = {"change_lower": sum(c < p for p, c in both),
                     "pairs": len(both),
                     **compare(list(parent), list(change), bounds[name])}
    return out


def assemble(parent_root: Path, change_root: Path) -> dict:
    parent, change = load(parent_root), load(change_root)
    bounds = {m["name"]: m["bound"] for m
              in json.loads(BENCHMARK.read_text())["end_to_end"]}
    workloads: dict[str, dict] = {}
    for key in sorted(parent.keys() & change.keys()):
        workload, seed, trace = key
        (p_detail, p_time), (c_detail, c_time) = parent[key], change[key]
        entry = workloads.setdefault(workload, {"pairs": [], "traced": []})
        entry["pairs" if trace == 0 else "traced"].append({
            "seed": seed, "first": "parent" if p_time < c_time else "change",
            "parent": outcome(p_detail), "change": outcome(c_detail)})
    for entry in workloads.values():
        entry["summary"] = summary(entry["pairs"], bounds)
    return {
        "parent": identity(parent_root),
        "change": identity(change_root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "seeds": sorted({seed for _, seed, _ in parent.keys() & change.keys()}),
        "unpaired": sorted(f"{w}-seed{s}-trace{t}" for w, s, t
                           in parent.keys() ^ change.keys()),
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout the parent's runs were made in")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout the change's runs were made in")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = assemble(args.parent, args.change)
    if not bench["workloads"]:
        print("error: no run appears in both result sets", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
