#!/usr/bin/env python3
"""Fingerprint every bundled scenario's outputs in one checkout.

    python3 tools/outputs_digest.py CHECKOUT_ROOT > digest.json

runs each `src/cpdq_lab/scenarios/*.json` of the checkout, and
`cpdq-lab schema`, in a fresh interpreter with that checkout's `src/` on
the path, and prints JSON with, per run, the exit code, the sha256 of
stdout and of stderr, and the sha256 of every artifact except
`timing.json`.  Scenarios are named by their path relative to the root,
so messages that quote the path match between checkouts.  The suite's
printed wall-clock values (the `runtime_s` rows and the trailing total
seconds) are masked before hashing.  Run it on two checkouts and diff
the two outputs to check that a change leaves every output byte-identical.
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mask_wall_clock(text: str) -> str:
    """The suite table with its wall-clock numbers, and the padding that
    right-aligns them, replaced by ` *`."""
    text = re.sub(r"^(\S*runtime_s) +\S+", r"\1 *", text, flags=re.M)
    return re.sub(r"(failing checks, )[0-9.]+s$", r"\1*s", text, flags=re.M)


def run_digest(root: Path, args: list[str], out: Path | None = None) -> dict:
    """Exit code and sha256 of stdout, stderr and each artifact in `out`
    of `cpdq-lab *args` run from `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "cpdq_lab.cli", *args],
                          cwd=root, env=env, capture_output=True, timeout=600)
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
    runs = {"schema": run_digest(root, ["schema"])}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((root / SCENARIOS).glob("*.json")):
            out = Path(tmp) / path.stem
            rel = (SCENARIOS / path.name).as_posix()
            runs[rel] = run_digest(root, ["run", rel, "--out", str(out)], out)
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    print(json.dumps(digest(Path(argv[0])), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
