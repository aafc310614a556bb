"""Benchmark of the cpdq-lab scenario runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics (setup_s, pass_s, peak_rss_mb); --trace 1 gives the per-layer
metrics of a traced run.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import tracer
import workloads

HERE = Path(__file__).resolve().parent
OUT = workloads.ROOT / ".perfbench"
COLD_RUNS = 5
IMPORT_RUNS = 3
DEADLINE_S = 170.0

# layers a workload must exercise; zero work there means the trace missed it
EXPECTED_WORK = {
    "trajectory_csv": ["dynamics.steps", "cli.csv_floats", "info.ledger_points",
                       "core.eval_potential_calls"],
    "piston_events": ["thermo.events", "cli.csv_floats", "info.ledger_points"],
    "wave_solvers": ["quantum.dst_transforms", "quantum.descent_iters",
                     "quantum.eigen_dim", "cli.csv_floats",
                     "core.eval_potential_calls"],
    "acceptance_gate": ["dynamics.steps", "thermo.events",
                        "quantum.dst_transforms", "quantum.descent_iters",
                        "quantum.eigen_dim", "quantum.fisher_points",
                        "info.ledger_points", "core.eval_potential_calls",
                        "variational.special_variation_s",
                        "variational.first_order_dL_s", "variational.action_s"],
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "us_per_" in name:
        return "us"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CPDQ_LAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Bench:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.env = child_env()
        self.work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = self.failed = 0

    def child(self, cmd: list, capture: bool = False):
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        return subprocess.run(
            [sys.executable] + cmd, env=self.env, cwd=workloads.ROOT,
            timeout=max(remaining, 1.0), text=True,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
            stderr=subprocess.PIPE if capture else None)

    def paced_child(self, cmd: list, capture: bool = False):
        paced = pace.Paced()
        units = pace.units_for(0.5)
        paced.reference(units)
        start = time.perf_counter()
        proc = self.child(cmd, capture)
        paced.wall = time.perf_counter() - start
        paced.reference(units)
        return paced, proc

    def setup_s(self) -> float:
        """Median cold start: fresh interpreter, import, one small scenario."""
        cfg = self.work / "minimal.json"
        cfg.write_text(json.dumps(workloads.MINIMAL[self.args.workload]))
        cmd = [str(HERE / "cold.py"), str(cfg), str(self.work / "minimal")]
        # untimed first start: compiles bytecode and fills the file cache
        runs = [(None, self.child(cmd))]
        runs += [self.paced_child(cmd) for _ in range(COLD_RUNS)]
        self.attempted += len(runs)
        for _, proc in runs:
            if proc.returncode != 0:
                self.failed += 1
                print(f"{self.args.workload}: set-up scenario exited "
                      f"{proc.returncode}", file=sys.stderr)
        return statistics.median(paced.seconds for paced, _ in runs[1:])

    def import_profile(self) -> dict:
        """`import cpdq_lab.cli` in fresh interpreters, with -X importtime."""
        cmd = ["-X", "importtime", str(HERE / "cold.py"), "--import"]
        times, modules, parts = [], set(), {}
        for _ in range(IMPORT_RUNS):
            paced, proc = self.paced_child(cmd, capture=True)
            if proc.returncode != 0:
                raise RuntimeError(f"import failed:\n{proc.stderr[-2000:]}")
            scale = paced.seconds / paced.wall
            got = json.loads(proc.stdout.splitlines()[-1])
            times.append(got["import_s"] * scale)
            modules.add(got["modules"])
            cumulative = {}
            for line in proc.stderr.splitlines():
                fields = line.removeprefix("import time:").split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
            for pkg in ("scipy.linalg", "scipy.fft", "jsonschema"):
                key = f"cli.import.{pkg.replace('.', '_')}_s"
                parts.setdefault(key, []).append(cumulative.get(pkg, 0.0) * scale)
        if len(modules) != 1:
            raise RuntimeError(f"module count varies between imports: {modules}")
        out = {"cli.import_s": statistics.median(times),
               "cli.import_modules": modules.pop()}
        out.update({k: statistics.median(v) for k, v in parts.items()})
        return out

    def worker(self) -> dict:
        a = self.args
        proc = self.child([str(HERE / "worker.py"), a.workload, str(a.seed),
                           str(a.seconds), str(a.trace), str(self.work)])
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        res = json.loads((self.work / "result.json").read_text())
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        for problem in res["problems"]:
            print(f"{a.workload}: {problem}", file=sys.stderr)
        return res


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics from the traced passes of one worker run."""
    traced = res["layers"]
    counts = {}
    for name in tracer.COUNTS:
        seen = {layer["counts"].get(name, 0) for layer in traced}
        if len(seen) != 1:
            raise RuntimeError(f"{name} differs between passes: {sorted(seen)}")
        counts[name] = seen.pop()
    m = {name: statistics.median(layer["times"][name] for layer in traced)
         for name in traced[0]["times"]}
    m.update(counts)
    m["cli.csv_mb"] = m.pop("cli.csv_bytes") / 1e6

    def per(time_s, work):
        return 1e6 * m[time_s] / m[work] if m[work] else 0.0
    m["cli.csv_us_per_float"] = per("cli.write_csv_s", "cli.csv_floats")
    m["dynamics.us_per_step"] = per("dynamics.integrate_s", "dynamics.steps")
    m["thermo.us_per_event"] = per("thermo.simulate_s", "thermo.events")
    m["quantum.us_per_iter"] = per("quantum.descent_s", "quantum.descent_iters")
    plain = statistics.median(p["seconds"] for p in res["passes"])
    m["trace.pass_s"] = statistics.median(res["traced"])
    m["trace.untraced_pass_s"] = plain
    m["trace.overhead_s"] = m["trace.pass_s"] - plain
    m["trace.passes"] = len(traced)
    m["trace.spans_per_pass"] = traced[0]["spans"]
    m["bench.threads"] = res["threads"]
    m["bench.ref_unit_s"] = statistics.median(p["ref_unit_s"] for p in res["passes"])
    return m


def zero_work(workload: str, metrics: dict) -> list[str]:
    """Layers the workload must exercise that report no work."""
    names = EXPECTED_WORK[workload] + ["cli.validate_s",
                                       "cli.run_scenario_self_s"]
    if workload == "acceptance_gate":
        names += [f"acceptance.{c}_s" for c in tracer.CRITERIA]
    return [n for n in names if not metrics.get(n)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (workloads.SRC / "cpdq_lab" / "cli.py").is_file():
        print(f"error: no program source at {workloads.SRC}; run from the root "
              "of a cpdq-lab checkout", file=sys.stderr)
        return 2

    bench = Bench(args)
    shutil.rmtree(bench.work, ignore_errors=True)  # left by a killed run
    bench.work.mkdir(parents=True)
    try:
        if args.trace:
            metrics = bench.import_profile()
            res = bench.worker()
            metrics.update(layer_metrics(res))
            missing = zero_work(args.workload, metrics)
            if missing:
                print(f"error: {args.workload} reports no work in "
                      f"{', '.join(missing)}", file=sys.stderr)
                return 1
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            shutil.copy(bench.work / "spans.json",
                        OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
        else:
            setup = bench.setup_s()
            res = bench.worker()
            metrics = {
                "setup_s": setup,
                "pass_s": statistics.median(p["seconds"] for p in res["passes"]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    result = {"correct": not res["wrong_outputs"], "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    detail = dict(result, seed=args.seed, workload=args.workload,
                  passes=res["passes"], traced=res["traced"])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
