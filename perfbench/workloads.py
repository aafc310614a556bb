"""The four workloads: seeded scenario configs and minimal set-up scenarios.

The seed varies physical parameters only.  Step counts, grid sizes, scan
ratios and expansion factors are fixed, so every seed asks the program for
the same amount of work.  Where the work of a solver depends on the physics
(the imaginary-time descent stops on an energy-change rule), the seed moves
along a scaling family that leaves the spectrum, and with it the iteration
count, unchanged: x -> a*x, f -> a*f, omega -> omega/a.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "cpdq_lab" / "scenarios"

NAMES = ("trajectory_csv", "piston_events", "wave_solvers", "acceptance_gate")

# Ratios u/v0 of the piston wall-speed scan; the slowest wall takes about
# 50k collision events.
SCAN_RATIOS = [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2]


def bundled(name: str) -> dict:
    return json.loads((BUNDLED / f"{name}.json").read_text())


def _natural(kind: str, params: dict, f: float | None = None) -> dict:
    cfg = {"kind": kind, "units": "natural", "params": params}
    if f is not None:
        cfg["constants"] = {"f": f}
    return cfg


def _trajectory(rng: random.Random) -> dict:
    width = rng.uniform(0.5, 2.0)
    return {
        "harmonic_pzie": bundled("harmonic_pzie"),
        # v0 <= 1 and a >= 1 keep the leapfrog energy drift (about
        # (omega*dt)^2/8 with omega^2 = 2*v0/a^2) below the default 1e-6.
        "soft_well": _natural("trajectory", {
            "potential": {"kind": "soft_well", "v0": rng.uniform(0.8, 1.0),
                          "a": rng.uniform(1.0, 1.2)},
            "q0": rng.uniform(-0.5, 0.5), "p0": rng.uniform(0.3, 0.8),
            "dt": 0.001, "n_steps": 62832}),
        "infinite_well": _natural("trajectory", {
            "potential": {"kind": "infinite_well", "width": width},
            "q0": width * rng.uniform(0.1, 0.9),
            "p0": rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 5.0),
            "dt": 0.001, "n_steps": 62832}),
    }


def _piston(rng: random.Random) -> dict:
    l0, v0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    jl0, jv0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    return {
        "scan": _natural("piston", {
            "l0": l0, "v0": v0,
            "scan": {"ratios": SCAN_RATIOS, "expansion": 2.0}}),
        "slow_doubling": bundled("piston_slow_doubling"),
        "sudden_jump": bundled("piston_sudden_jump"),
        "slow_seeded": _natural("piston", {
            "l0": l0, "v0": v0, "u": 1e-3 * v0, "l_end": 2.0 * l0}),
        "jump_seeded": _natural("piston", {
            "l0": jl0, "v0": jv0, "mode": "sudden_jump",
            "l_end": jl0 * rng.uniform(1.5, 3.0)}),
    }


def _wave(rng: random.Random) -> dict:
    a = rng.uniform(0.8, 1.25)
    width = rng.uniform(0.5, 2.0)
    return {
        "tise_infinite_well": bundled("tise_infinite_well"),
        "tise_harmonic": bundled("tise_harmonic"),
        "variational_harmonic": bundled("variational_harmonic"),
        "wkb_harmonic_e10": bundled("wkb_harmonic_e10"),
        # n = 2001: the DST-I length 1999 transforms through an FFT of
        # length 4000, a fast size; the bundled n = 2000 grids use 3998.
        "variational_fast_len": _natural("variational", {
            "potential": {"kind": "harmonic", "m": 1.0, "omega": 1.0 / a},
            "grid": {"x_min": -10.0 * a, "x_max": 10.0 * a, "n": 2001}},
            f=0.5 * a),
        "variational_well": _natural("variational", {
            "potential": {"kind": "infinite_well", "width": width},
            "grid": {"x_min": 0.0, "x_max": width, "n": 2001}},
            f=0.5 * width),
        "tise_well": _natural("tise", {
            "potential": {"kind": "infinite_well", "width": width},
            "grid": {"x_min": 0.0, "x_max": width, "n": 2001},
            "n_states": 3}, f=0.5 * width),
        "wkb_linear": _natural("wkb", {
            "potential": {"kind": "linear", "f0": rng.uniform(0.8, 1.2)},
            "energy": rng.uniform(4.0, 6.0),
            "grid": {"x_min": -4.5, "x_max": 5.0, "n": 9501}}),
    }


def _gate(rng: random.Random) -> dict:
    # The acceptance fixtures are pinned in the program; the seed has no
    # effect here.
    return {"suite": {"kind": "suite", "params": {}}}


_BUILDERS = {"trajectory_csv": _trajectory, "piston_events": _piston,
             "wave_solvers": _wave, "acceptance_gate": _gate}


def scenarios(workload: str, seed: int) -> dict:
    """Scenario configs of one pass, by name, in the order they run."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# One small scenario of each workload's kind: what a user pays to start
# the CLI cold and get a first result.
MINIMAL = {
    "trajectory_csv": _natural("trajectory", {
        "potential": {"kind": "harmonic"}, "q0": 1.0, "p0": 0.0,
        "dt": 0.001, "n_steps": 1000}),
    "piston_events": _natural("piston", {
        "l0": 1.0, "v0": 1.0, "scan": {"ratios": [0.1, 0.3]}}),
    "wave_solvers": _natural("variational", {
        "potential": {"kind": "infinite_well", "width": 1.0},
        "grid": {"x_min": 0.0, "x_max": 1.0, "n": 256}}),
    "acceptance_gate": {"kind": "suite", "params": {"filter": "info"}},
}
