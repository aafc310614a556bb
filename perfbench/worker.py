"""One run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

A warm-up pass runs every scenario once; its outputs are the reference
outputs and are checked against independent references after the timed
passes.  Timed passes then repeat the same scenarios, one after another,
through `cli.run_scenario`, until SECONDS have passed.  Every timed pass
must exit 0 and reproduce the reference outputs byte for byte.  With
TRACE=1, traced and untraced passes alternate.  The result goes to
WORKDIR/result.json; peak memory is read before the checks run, so their
arrays do not count.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.SRC))

import cpdq_lab.cli as cli  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402


def run_op(cfg_path: Path, out: Path):
    start = time.perf_counter()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            _, code = cli.run_scenario(cfg_path, out)
    except Exception as exc:  # a crash is one failed operation
        print(f"{cfg_path.stem}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = None
    return time.perf_counter() - start, code


def run_pass(cfgs: dict, root: Path, units: dict):
    """Run every scenario once, with reference-kernel runs around each."""
    shutil.rmtree(root, ignore_errors=True)
    paced, codes, walls = pace.Paced(), {}, {}
    for name, path in cfgs.items():
        paced.reference(units[name])
        walls[name], codes[name] = run_op(path, root / name)
        paced.wall += walls[name]
    paced.reference(units[name])
    return paced, codes, walls


def threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("Threads:"))


def main() -> None:
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workdir = Path(workdir)
    scen = workloads.scenarios(workload, seed)
    (workdir / "configs").mkdir(parents=True, exist_ok=True)
    cfgs = {}
    for name, cfg in scen.items():
        cfgs[name] = workdir / "configs" / f"{name}.json"
        cfgs[name].write_text(json.dumps(cfg, indent=1))

    ref_root, pass_root = workdir / "ref", workdir / "pass"
    _, ref_codes, walls = run_pass(cfgs, ref_root, dict.fromkeys(cfgs, 1))
    units = {name: pace.units_for(w) for name, w in walls.items()}
    ref_digest = {name: checks.digest(ref_root / name) for name in cfgs
                  if ref_codes[name] == 0}

    trc = tracer.Tracer() if trace else None
    plain, traced, layers, spans = [], [], [], []
    failed = dict.fromkeys(cfgs, 0)
    mismatched = set()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        began = time.perf_counter()
        tracing = trace and i % 2 == 1
        if tracing:
            trc.install()
        try:
            paced, codes, _ = run_pass(cfgs, pass_root, units)
        finally:
            if tracing:
                trc.uninstall()
        for name, code in codes.items():
            if code != 0:
                failed[name] += 1
            elif (name in ref_digest
                  and checks.digest(pass_root / name) != ref_digest[name]):
                failed[name] += 1
                mismatched.add(name)
        if tracing:
            pass_spans, counts = trc.take()
            scale = paced.seconds / paced.wall
            times = {k: v * scale for k, v in tracer.self_times(pass_spans).items()}
            layers.append({"times": times, "counts": counts,
                           "spans": len(pass_spans)})
            spans.append(pass_spans)
            traced.append(paced.seconds)
        else:
            plain.append({"seconds": paced.seconds, "wall": paced.wall,
                          "ref_unit_s": paced.ref_wall / paced.ref_units})
        i += 1
        step = (time.perf_counter() - began) * (2 if trace else 1)
        if (not trace or i % 2 == 0) and deadline - time.perf_counter() < step / 2:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    n_threads = threads()

    problems = [f"{name}: outputs differ between passes"
                for name in sorted(mismatched)]
    wrong = bool(mismatched)
    attempts = 1 + i
    for name, cfg in scen.items():
        if ref_codes[name] != 0:
            failed[name] += 1
            problems.append(f"{name}: exit code {ref_codes[name]} in the "
                            "warm-up pass")
            continue
        found = checks.check(cfg, ref_root / name)
        if found:
            wrong = True
            problems += [f"{name}: {p}" for p in found]
            failed[name] = attempts  # every pass reproduced these outputs
    result = {
        "workload": workload, "seed": seed,
        "attempted": attempts * len(cfgs), "failed": sum(failed.values()),
        "wrong_outputs": wrong,
        "problems": problems, "passes": plain, "traced": traced,
        "layers": layers, "peak_rss_mb": peak_rss_mb, "threads": n_threads,
    }
    (workdir / "result.json").write_text(json.dumps(result))
    if trace:
        (workdir / "spans.json").write_text(json.dumps(spans))


if __name__ == "__main__":
    main()
