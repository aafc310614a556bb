"""Symplectic trajectory generation plus uncertainty-band diagnostics.

Leapfrog (velocity Verlet) is deliberate: the product invariant and the
thermo module's adiabatic checks are phase-space-area statements, and a
symplectic scheme keeps the measured drifts honest.  Where the force is
linear in q the n-step recurrence has a closed form, evaluated for every
sample at once: exact under a constant force (free, linear), a rotation in
phase space for the harmonic well, and free drift folded into the walls
for the infinite well, so wall energy is exact.  Only the soft well is
stepped one leapfrog step at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._schema import _POSITIVE, check_fields
from .core import (
    MAX_SIZE,
    Constants,
    DomainError,
    ModelViolationError,
    Potential,
    PotentialKind,
    finite_potential,
    tderiv,
)
from .variational import Trajectory


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = field(metadata=_POSITIVE)
    n_steps: int = field(metadata={"type": "integer", "minimum": 4,
                                   "maximum": MAX_SIZE})

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrajectoryProblem:
    """Hamilton's equations from (V, q0, p0), to integrate by leapfrog.

    Checks that q0 lies in V's domain (DomainError), that V and V' are
    finite at q0 (ValueError), and that a harmonic step is stable
    (ModelViolationError): it rotates phase space by theta, sin(theta/2) =
    sqrt(a)/2 with a = k dt^2/m, and from a = 4 on the recurrence grows.
    """

    potential: Potential
    q0: float
    p0: float
    integrator: IntegratorConfig
    consts: Constants

    def __post_init__(self):
        pot, dt = self.potential, self.integrator.dt
        if not bool(pot.contains(self.q0)):
            raise DomainError("q0 lies outside the potential's domain")
        # omega*omega: a float product past the range is inf, not an error
        if pot.kind is PotentialKind.HARMONIC and not pot.m * (
                pot.omega * pot.omega) * dt * dt / self.consts.mass < 4.0:
            raise ModelViolationError("trajectory: harmonic leapfrog step is "
                                      "unstable: k*dt^2/mass must be below 4")
        finite_potential(pot, self.q0, "at q0")


def _harmonic(pot: Potential, q0: float, p0: float, n: int, dt: float,
              m: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of n leapfrog steps in V = k q^2/2.

    One step is the map A = [[cos theta, dt/m], [-k dt (1 - a/4), cos theta]]
    with a = k dt^2/m and cos theta = 1 - a/2, so
    A^j = cos(j theta) I + (sin(j theta)/sin theta) (A - cos(theta) I),
    whose second matrix has a zero diagonal.  theta = 2 asin(sqrt(a)/2) is
    taken by atan2 from the sine and cosine of theta/2, and sin theta as
    their doubled product: both keep their relative accuracy at small a,
    where acos(1 - a/2) would lose it, and near a = 4, where asin and the
    sine of a theta near pi would.
    """
    k = pot.m * pot.omega**2
    a = k * dt * dt / m
    sin_half, cos_half = math.sqrt(a) / 2.0, math.sqrt(1.0 - a / 4.0)
    theta = 2.0 * math.atan2(sin_half, cos_half)
    sin_theta = 2.0 * sin_half * cos_half
    phase = np.arange(n + 1, dtype=float)
    phase *= theta
    sin_j = np.sin(phase)
    cos_j = np.cos(phase, out=phase)
    q = cos_j * q0
    q += sin_j * (dt / m / sin_theta * p0)
    sin_j *= -k * dt * (1.0 - a / 4.0) / sin_theta * q0
    p = np.multiply(cos_j, p0, out=cos_j)
    p += sin_j
    return q, p


def _constant_force(f0: float, q0: float, p0: float, t: np.ndarray,
                    m: float) -> tuple[np.ndarray, np.ndarray]:
    """Leapfrog under a constant force f0, which it integrates exactly:
    p_j = p0 + t_j f0 and q_j = q0 + t_j p0/m + f0 t_j^2/(2m)."""
    q = t * (0.5 * f0 / m)
    q += p0 / m
    q *= t
    q += q0
    p = t * f0
    p += p0
    return q, p


def _infinite_well(width: float, q0: float, p0: float, t: np.ndarray,
                   m: float) -> tuple[np.ndarray, np.ndarray]:
    """Free drift q0 + t_j p0/m folded into [0, width], momentum by parity.

    A sample landing exactly on a wall keeps its incoming momentum: moving
    right, the drift reaches the left wall at y = 0 from the far side of
    the period 2*width; moving left, it reaches the right wall at
    y = width from above.
    """
    period = 2.0 * width
    q = t * (p0 / m)
    q += q0
    np.mod(q, period, out=q)
    over = q > width
    p = np.where(over | (q == (0.0 if p0 > 0 else width)), -p0, p0)
    np.subtract(period, q, out=q, where=over)
    q[0], p[0] = q0, p0  # as given, even on a wall or within its slack
    return q, p


def _soft_well(pot: Potential, q0: float, p0: float, n: int, dt: float,
               m: float) -> tuple[np.ndarray, np.ndarray]:
    """Leapfrog in V = v0 tanh^2(q/a), one Python step at a time.

    The force -V'(q) = c tanh(y) / (a cosh(y)^2), y = q/a, c = -2 v0, is
    written inline and each step is stored through a memoryview of the
    output arrays: no call and no numpy item assignment per step.  Every
    float operation, in its order, is that of the plain step
    p_h = p + (dt/2) F(q), q' = q + dt p_h / m, p' = p_h + (dt/2) F(q'), so
    q and p are the bits a loop calling a force function would store
    (tests/test_dynamics.py holds such a loop).  A cosh(q/a)**2 past the
    double range raises OverflowError.
    """
    a, c, h = pot.a, -2.0 * pot.v0, 0.5 * dt
    tanh, cosh = math.tanh, math.cosh
    q = np.empty(n + 1)
    p = np.empty(n + 1)
    q[0], p[0] = q0, p0
    qv, pv = memoryview(q), memoryview(p)
    qi, pi = q0, p0
    y = qi / a
    fi = c * tanh(y) / (a * cosh(y) ** 2)
    for i in range(1, n + 1):
        ph = pi + h * fi
        qi = qi + dt * ph / m
        y = qi / a
        fi = c * tanh(y) / (a * cosh(y) ** 2)
        pi = ph + h * fi
        qv[i] = qi
        pv[i] = pi
    return q, p


def integrate_hamilton(pot: Potential, q0: float, p0: float,
                       cfg: IntegratorConfig, consts: Constants) -> Trajectory:
    """Velocity-Verlet integration of qdot = p/m, pdot = -V'(q), after
    the TrajectoryProblem checks on its arguments."""
    TrajectoryProblem(pot, q0, p0, cfg, consts)
    m = consts.mass
    n = cfg.n_steps
    dt = cfg.dt
    t = np.arange(n + 1) * dt
    if pot.kind is PotentialKind.HARMONIC:
        q, p = _harmonic(pot, q0, p0, n, dt, m)
    elif pot.kind is PotentialKind.INFINITE_WELL:
        q, p = _infinite_well(pot.width, q0, p0, t, m)
    elif pot.kind is PotentialKind.SOFT_WELL:
        q, p = _soft_well(pot, q0, p0, n, dt, m)
    else:
        f0 = pot.f0 if pot.kind is PotentialKind.LINEAR else 0.0
        q, p = _constant_force(f0, q0, p0, t, m)
    return Trajectory(t=t, q=q, p=p, dt=dt, pot=pot, consts=consts)


def cpdq_diagnostics(traj: Trajectory) -> float:
    """Max relative drift of the measured product |p|*delta_q from f.

    A self-consistency check: away from masked turning points the drift
    is round-off only.
    """
    ok = traj.defined_mask
    f = traj.consts.f
    drift = traj.f_series[ok]  # a copy: |f_i - f|/f in place
    drift -= f
    np.abs(drift, out=drift)
    drift /= f
    return float(drift.max())


def newton_uncertainty_residual(traj: Trajectory) -> np.ndarray:
    """Defect of the uncertainty form of Newton's law.

    residual = pdot + p*qdot*(d ln delta_q / dq), with the logarithmic
    slope taken from the sampled delta_q series against the sampled q
    series by divided differences -- not from the analytic inverse of p --
    so the check is not circular.  NaN where the band is masked or where
    qdot vanishes (turning points).
    """
    ok = ~traj.gap_mask
    if np.count_nonzero(ok) < 5:
        raise ValueError("need at least 5 unmasked samples")
    dt = traj.dt
    with np.errstate(invalid="ignore", divide="ignore"):
        log_dq = np.log(traj.delta_q_series)
        dlog = tderiv(log_dq, dt)
        dqdt = tderiv(traj.q, dt)
        slope = np.where(np.abs(dqdt) > 0, dlog / dqdt, np.nan)
        res = tderiv(traj.p, dt) + traj.p * (traj.p / traj.consts.mass) * slope
    return res


def energy_budget(traj: Trajectory) -> float:
    """Relative energy drift max|E - E0|/|E0| (over 1 where E0 = 0)."""
    e0 = traj.energy_e[0]
    scale = abs(e0) if e0 != 0 else 1.0
    drift = traj.energy_e - e0
    np.abs(drift, out=drift)
    return float(np.max(drift) / scale)
