"""Symplectic trajectory generation plus uncertainty-band diagnostics.

Leapfrog (velocity Verlet) is deliberate: the product invariant and the
thermo module's adiabatic checks are phase-space-area statements, and a
symplectic scheme keeps the measured drifts honest.  Infinite-well walls
are resolved by exact folding of the free drift inside a step, not by
position clamping, so wall energy is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Constants, DomainError, Potential, PotentialKind, delta_q_series, eval_potential, tderiv
from .variational import Trajectory


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 4:
            raise ValueError("need at least 4 steps")


@dataclass(frozen=True)
class TrajectoryRecord:
    """A trajectory with attached energy and uncertainty-band series.

    f_series[i] = |p[i]| * delta_q_series[i] wherever the gap mask is
    clear; by construction of delta_q = f/|p| this equals the configured
    f up to round-off, which cpdq_diagnostics verifies.
    """

    traj: Trajectory
    energy_t: np.ndarray
    energy_v: np.ndarray
    energy_e: np.ndarray
    delta_q_series: np.ndarray
    f_series: np.ndarray
    gap_mask: np.ndarray

    @classmethod
    def from_trajectory(cls, traj: Trajectory) -> "TrajectoryRecord":
        consts = traj.consts
        kinetic = traj.p**2 / (2.0 * consts.mass)
        potential, _, _ = eval_potential(traj.pot, traj.q)
        dq, gap = delta_q_series(traj.p, consts)
        f_series = np.abs(traj.p) * dq
        return cls(traj=traj, energy_t=kinetic, energy_v=potential,
                   energy_e=kinetic + potential, delta_q_series=dq,
                   f_series=f_series, gap_mask=gap)


def _scalar_force(pot: Potential):
    """Pure-float force closure; keeps the step loop free of array overhead."""
    if pot.kind is PotentialKind.LINEAR:
        f0 = pot.f0
        return lambda q: f0
    if pot.kind is PotentialKind.HARMONIC:
        k = pot.m * pot.omega**2
        return lambda q: -k * q
    if pot.kind is PotentialKind.SOFT_WELL:
        v0, a = pot.v0, pot.a
        return lambda q: -2.0 * v0 * math.tanh(q / a) / (a * math.cosh(q / a) ** 2)
    return lambda q: 0.0


def _fold_into_well(q: float, width: float) -> tuple[float, int]:
    """Reflect a free-drift endpoint back into [0, width].

    Returns the folded position and the reflection parity (+1/-1 momentum
    sign factor).  Exact for any number of wall crossings in one step.
    """
    period = 2.0 * width
    y = q % period
    if y <= width:
        return y, 1
    return period - y, -1


def integrate_hamilton(pot: Potential, q0: float, p0: float,
                       cfg: IntegratorConfig, consts: Constants) -> TrajectoryRecord:
    """Velocity-Verlet integration of qdot = p/m, pdot = -V'(q)."""
    if not bool(pot.contains(q0)):
        raise DomainError("initial position outside potential domain")
    m = consts.mass
    n = cfg.n_steps
    dt = cfg.dt
    t = np.arange(n + 1) * dt
    q = np.empty(n + 1)
    p = np.empty(n + 1)
    q[0], p[0] = q0, p0

    if pot.kind is PotentialKind.INFINITE_WELL:
        # zero force inside: pure drift with exact wall reflections
        width = pot.width
        qi, pi = q0, p0
        for i in range(n):
            qi, sign = _fold_into_well(qi + dt * pi / m, width)
            pi = sign * pi
            q[i + 1], p[i + 1] = qi, pi
    else:
        force = _scalar_force(pot)
        lo, hi = pot.domain()
        bounded = math.isfinite(lo) or math.isfinite(hi)
        qi, pi = q0, p0
        fi = force(qi)
        for i in range(n):
            ph = pi + 0.5 * dt * fi
            qi = qi + dt * ph / m
            if bounded and not lo <= qi <= hi:
                raise DomainError(f"step {i + 1} left the domain",
                                  last_valid_index=i)
            fi = force(qi)
            pi = ph + 0.5 * dt * fi
            q[i + 1], p[i + 1] = qi, pi

    traj = Trajectory(t=t, q=q, p=p, dt=dt, pot=pot, consts=consts)
    return TrajectoryRecord.from_trajectory(traj)


def cpdq_diagnostics(rec: TrajectoryRecord) -> float:
    """Max relative drift of the measured product |p|*delta_q from f.

    A self-consistency check: away from masked turning points the drift
    is round-off only.
    """
    ok = ~rec.gap_mask
    if not np.any(ok):
        raise ValueError("record is fully masked; no defined uncertainty band")
    f = rec.traj.consts.f
    return float((np.abs(rec.f_series[ok] - f) / f).max())


def newton_uncertainty_residual(rec: TrajectoryRecord) -> np.ndarray:
    """Defect of the uncertainty form of Newton's law.

    residual = pdot + p*qdot*(d ln delta_q / dq), with the logarithmic
    slope taken from the sampled delta_q series against the sampled q
    series by divided differences -- not from the analytic inverse of p --
    so the check is not circular.  NaN where the band is masked or where
    qdot vanishes (turning points).
    """
    traj = rec.traj
    ok = ~rec.gap_mask
    if np.count_nonzero(ok) < 5:
        raise ValueError("need at least 5 unmasked samples")
    dt = traj.dt
    with np.errstate(invalid="ignore", divide="ignore"):
        log_dq = np.log(rec.delta_q_series)
        dlog = tderiv(log_dq, dt)
        dqdt = tderiv(traj.q, dt)
        slope = np.where(np.abs(dqdt) > 0, dlog / dqdt, np.nan)
        res = tderiv(traj.p, dt) + traj.p * (traj.p / traj.consts.mass) * slope
    return res


def energy_budget(rec: TrajectoryRecord):
    """Per-step work-energy residual dT + dV and the relative energy drift."""
    d_kin = np.diff(rec.energy_t)
    d_pot = np.diff(rec.energy_v)
    residual = d_kin + d_pot
    e0 = rec.energy_e[0]
    scale = abs(e0) if e0 != 0 else 1.0
    drift = float(np.max(np.abs(rec.energy_e - e0)) / scale)
    return residual, drift
