#!/usr/bin/env python3
"""Fingerprint every bundled scenario's outputs in one checkout.

    python3 tools/outputs_digest.py CHECKOUT_ROOT > digest.json
    python3 tools/outputs_digest.py --diff A.json B.json

The first form runs each `src/cpdq_lab/scenarios/*.json` of the checkout,
each config of the fixed EDGE table (configs at the edge of what the models
hold, written to `edge/<name>.json` in a temporary directory and run from
there, so that messages quoting the path match between checkouts),
`cpdq-lab schema`, and a dump of every kind's params schema in its own key
order (`params_schemas`), in a fresh interpreter with that checkout's `src/`
on the path, and prints JSON with, per run, the exit code, the sha256 of
stdout and of stderr, and the sha256 of every artifact except
`timing.json`.  Scenarios are named by their path relative to the root,
so messages that quote the path match between checkouts.  The suite's
printed wall-clock values (the `runtime_s` rows and the trailing total
seconds) are masked before hashing.  Run it on two checkouts, then
compare the two files with the second form: it prints one line per run
and entry that differs (an artifact's name, exit, stdout or stderr) and
exits 1 if any does, so a change that alters an output is named.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = Path("src") / "cpdq_lab" / "scenarios"
CLI = ("-m", "cpdq_lab.cli")
# without sort_keys, so that a change in property order shows
PARAMS_SCHEMAS = ("-c", "import json; from cpdq_lab import cli; "
                  "print(json.dumps({k: v[0] for k, v in cli.KINDS.items()}))")

_WELL = {"x_min": 0, "x_max": 1, "n": 2000}
_LINEAR_MAX = {"kind": "linear", "f0": 1e308}


def _tise_well(f: float) -> dict:
    """A 3-state infinite-well tise run whose operator's entries scale as
    f^2: from f = 1e-81 to 1e78 they leave LAPACK's range."""
    return {"kind": "tise", "constants": {"f": f}, "params": {
        "potential": {"kind": "infinite_well"}, "grid": _WELL, "n_states": 3}}


# name -> config: one per exit-2 rule of the problem models, then the runs
# that end at the wkb E - V and k^2 and the eigensolver's range
EDGE = {
    "q0_outside_well": {"kind": "trajectory", "params": {
        "potential": {"kind": "infinite_well"}, "q0": 2, "p0": 1,
        "dt": 0.01, "n_steps": 10}},
    "unstable_step": {"kind": "trajectory", "params": {
        "potential": {"kind": "harmonic", "omega": 2}, "q0": 1, "p0": 0,
        "dt": 1, "n_steps": 10}},
    "overflow_at_q0": {"kind": "trajectory", "params": {
        "potential": {"kind": "soft_well", "a": 1e-3}, "q0": 0.4, "p0": 0,
        "dt": 0.01, "n_steps": 10}},
    "grid_past_well": {"kind": "variational", "params": {
        "potential": {"kind": "infinite_well"},
        "grid": {"x_min": 0, "x_max": 2, "n": 200}}},
    "grid_past_tiny_well": {"kind": "tise", "params": {
        "potential": {"kind": "infinite_well", "width": 1e-20},
        "grid": {"x_min": -9e-13, "x_max": 9e-13, "n": 200}, "n_states": 2}},
    "overflow_on_grid": {"kind": "tise", "params": {
        "potential": {"kind": "harmonic", "omega": 1e200}, "n_states": 1,
        "grid": {"x_min": -4, "x_max": 4, "n": 100}}},
    "spacing_square": {"kind": "tise", "params": {
        "potential": {"kind": "harmonic"}, "n_states": 1,
        "grid": {"x_min": 0, "x_max": 1e-170, "n": 64}}},
    "kinetic_coefficient": {"kind": "wkb", "constants": {"f": 1e154},
                            "params": {"potential": {"kind": "harmonic"},
                                       "energy": 10, "grid": _WELL}},
    "kinetic_over_spacing": {"kind": "variational", "constants": {"f": 1e153},
                             "params": {"potential": {"kind": "harmonic"},
                                        "grid": _WELL}},
    "wkb_e_minus_v": {"kind": "wkb", "params": {
        "potential": _LINEAR_MAX, "energy": 1e308,
        "grid": {"x_min": -1, "x_max": 1, "n": 64}}},
    "wkb_e_minus_v_below": {"kind": "wkb", "params": {
        "potential": _LINEAR_MAX, "energy": -1e308,
        "grid": {"x_min": -1, "x_max": 1, "n": 64}}},
    "wkb_k_squared": {"kind": "wkb", "constants": {"f": 1e-160}, "params": {
        "potential": {"kind": "harmonic"}, "energy": 10,
        "grid": {"x_min": -4.2, "x_max": 4.2, "n": 841}}},
    "wkb_bohm_spacing": {"kind": "wkb", "params": {
        "potential": {"kind": "linear"}, "energy": 1,
        "grid": {"x_min": -1e-170, "x_max": 1e-170, "n": 64},
        "with_bohm_report": True}},
    **{f"tise_well_f_{f:g}": _tise_well(f) for f in (1e-81, 3.5e73, 2e73,
                                                      1e78)},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mask_wall_clock(text: str) -> str:
    """The suite table with its wall-clock numbers, and the padding that
    right-aligns them, replaced by ` *`."""
    text = re.sub(r"^(\S*runtime_s) +\S+", r"\1 *", text, flags=re.M)
    return re.sub(r"(failing checks, )[0-9.]+s$", r"\1*s", text, flags=re.M)


def run_digest(root: Path, args: list[str], out: Path | None = None,
               command: tuple[str, ...] = CLI, cwd: Path | None = None) -> dict:
    """Exit code and sha256 of stdout, stderr and each artifact in `out`
    of `python *command *args` (by default `cpdq-lab *args`) run from
    `cwd`, by default `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, *command, *args], cwd=cwd or root,
                          env=env, capture_output=True, timeout=600)
    artifacts = {}
    if out is not None and out.exists():
        artifacts = {p.name: _sha256(p.read_bytes())
                     for p in sorted(out.iterdir()) if p.name != "timing.json"}
    return {"exit": proc.returncode,
            "stdout": _sha256(mask_wall_clock(proc.stdout.decode()).encode()),
            "stderr": _sha256(proc.stderr),
            "artifacts": artifacts}


def digest(root: Path) -> dict:
    root = root.resolve()
    runs = {"schema": run_digest(root, ["schema"]),
            "params_schemas": run_digest(root, [], command=PARAMS_SCHEMAS)}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((root / SCENARIOS).glob("*.json")):
            out = Path(tmp) / path.stem
            rel = (SCENARIOS / path.name).as_posix()
            runs[rel] = run_digest(root, ["run", rel, "--out", str(out)], out)
        (Path(tmp) / "edge").mkdir()
        for name, cfg in EDGE.items():
            rel = f"edge/{name}.json"
            (Path(tmp) / rel).write_text(json.dumps(cfg))
            out = Path(tmp) / "edge" / name
            runs[rel] = run_digest(root, ["run", rel, "--out", str(out)], out,
                                   cwd=Path(tmp))
    return runs


def differences(a: dict, b: dict) -> list[str]:
    """`run entry: A-value != B-value` for each entry of each run that the
    two digests hold differently; a missing run or artifact reads None."""
    lines = []
    for run in sorted(a.keys() | b.keys()):
        ra, rb = a.get(run, {}), b.get(run, {})
        entries = {key: (ra.get(key), rb.get(key))
                   for key in ra.keys() | rb.keys() if key != "artifacts"}
        arts_a, arts_b = ra.get("artifacts", {}), rb.get("artifacts", {})
        entries.update({f"artifacts/{name}": (arts_a.get(name),
                                              arts_b.get(name))
                        for name in arts_a.keys() | arts_b.keys()})
        lines += [f"{run} {key}: {va} != {vb}"
                  for key, (va, vb) in sorted(entries.items()) if va != vb]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        a, b = (json.loads(Path(name).read_text()) for name in argv[1:])
        lines = differences(a, b)
        print("\n".join(lines) if lines else "no differences")
        return 1 if lines else 0
    if len(argv) != 1 or argv[0].startswith("-"):
        usage = __doc__.strip().splitlines()[2:4]
        print("usage:\n" + "\n".join(usage), file=sys.stderr)
        return 2
    print(json.dumps(digest(Path(argv[0])), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
