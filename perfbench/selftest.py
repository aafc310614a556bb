"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

For every workload: a clean run has no failed operation; an artifact
corrupted in the warm-up pass fails the independent checks and counts
every operation of that scenario as failed; an artifact corrupted in one
timed pass counts one failed operation.  A traced run that loses a layer's
work counter must be refused, and the benchmark must refuse to run
without the program's source.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import workloads
import worker  # puts the program on sys.path
import run
import tracer

import cpdq_lab.cli as cli

# artifact -> column to corrupt, in order of preference
CORRUPT = {"series.csv": 1, "events.csv": 1, "scan.csv": 2, "states.csv": 3,
           "ground_state.csv": 1, "profile.csv": 1}
WORK = workloads.ROOT / ".perfbench" / "selftest"


def corrupt(out: Path) -> None:
    """Shift one finite value by about 1e-6, or fail an acceptance row."""
    suite = out / "acceptance_report.json"
    if suite.exists():
        rep = json.loads(suite.read_text())
        rep["criteria"][3]["checks"][0]["pass"] = False
        suite.write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        return
    name = next(n for n in CORRUPT if (out / n).exists())
    lines = (out / name).read_text().splitlines()
    col = CORRUPT[name]
    finite = [i for i, line in enumerate(lines[1:], 1)
              if line.split(",")[col] not in ("nan", "inf", "-inf")]
    row = finite[len(finite) // 2]
    fields = lines[row].split(",")
    fields[col] = "%.17g" % (float(fields[col]) * (1 + 1e-6) + 1e-6)
    lines[row] = ",".join(fields)
    (out / name).write_text("\n".join(lines) + "\n")


def run_worker(workload: str, target: str | None = None, call: int = 0,
               trace: bool = False) -> dict:
    """worker.main() in this process; corrupt `target` on its `call`-th run."""
    real, calls = cli.run_scenario, Counter()

    def run_scenario(cfg_path, out):
        result = real(cfg_path, out)
        calls[Path(cfg_path).stem] += 1
        if Path(cfg_path).stem == target and calls[target] == call:
            corrupt(Path(out))
        return result

    work = WORK / f"{workload}-{target}-{call}"
    shutil.rmtree(work, ignore_errors=True)
    sys.argv = ["worker.py", workload, "0", "0.01", "1" if trace else "0",
                str(work)]
    cli.run_scenario = run_scenario
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            worker.main()
    finally:
        cli.run_scenario = real
    res = json.loads((work / "result.json").read_text())
    shutil.rmtree(work)
    return res


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    for workload in workloads.NAMES:
        names = list(workloads.scenarios(workload, 0))
        clean = run_worker(workload)
        expect(clean["failed"] == 0 and not clean["wrong_outputs"],
               f"{workload}: clean run, 0 of {clean['attempted']} failed")
        rounds = clean["attempted"] // len(names)
        for target in names:
            if workload == "piston_events" and target not in ("scan", "slow_seeded"):
                continue  # one scan and one single run cover the piston checks
            bad = run_worker(workload, target, call=1)
            runs = bad["attempted"] // len(names)
            expect(bad["wrong_outputs"] and bad["failed"] == runs,
                   f"{workload}/{target}: corrupted reference output fails "
                   f"all {runs} runs of it")
        bad = run_worker(workload, names[0], call=2)
        expect(bad["wrong_outputs"] and bad["failed"] == 1,
               f"{workload}/{names[0]}: output differing in one timed pass "
               f"fails that operation ({rounds} rounds clean)")

    res = run_worker("wave_solvers", trace=True)
    metrics = run.layer_metrics(res)
    expect(not run.zero_work("wave_solvers", metrics), "wave_solvers: traced "
           f"run counts {metrics['quantum.dst_transforms']:.0f} transforms")
    counted, tracer._transform = tracer._transform, lambda c, a, r: None
    try:
        lost = run.layer_metrics(run_worker("wave_solvers", trace=True))
    finally:
        tracer._transform = counted
    expect(run.zero_work("wave_solvers", lost) == ["quantum.dst_transforms"],
           "wave_solvers: a traced run that counts no transforms is refused")

    with tempfile.TemporaryDirectory(dir=WORK.parent) as bare:
        shutil.copytree(Path(__file__).parent, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "piston_events",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "a checkout without the program's source exits "
               f"{proc.returncode} and prints no result")

    print(f"{len(failures)} failing self-test case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
