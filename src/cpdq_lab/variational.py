"""Trajectory variations and stationarity diagnostics.

The central object is the special variation delta_q = eps/p.  Along an
actual trajectory it leaves the Lagrangian stationary at every instant and
makes the action variation between *any* two instants vanish, because the
boundary term p*delta_q is the same constant eps at both ends.  The
operations here measure how well sampled trajectories realize that.

All time derivatives of sampled series are `core.tderiv`: 2nd-order
central differences (one-sided 2nd-order at the ends), so the residual
tolerances compose with the O(dt^2) integrator in `dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (Constants, GapError, Potential, delta_q_series,
                   eval_potential, tderiv)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled (t, q, p) history in a static potential.

    The energy and uncertainty-band series are computed on first use.
    f_series[i] = |p[i]| * delta_q_series[i] wherever the gap mask is
    clear; by construction of delta_q = f/|p| this equals the configured
    f up to round-off, which dynamics.cpdq_diagnostics verifies.

    Each step t[k+1] - t[k] must match dt within 1e-12*max(|dt|, 1) plus
    the rounding of t = arange(n)*dt, eps*max|t| with eps = 2**-52: each
    t[k] lies within half an ulp, at most eps/2*|t[k]|, of k*dt, and two
    neighbours subtract exactly, so a step is off dt by at most
    eps/2*(|t[k]| + |t[k+1]|).  That passes 1e-12 once t reaches 8192.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    dt: float
    pot: Potential
    consts: Constants

    def __post_init__(self):
        n = len(self.t)
        if n < 5:
            raise ValueError("need at least 5 samples for central stencils")
        if not (len(self.q) == len(self.p) == n):
            raise ValueError("t, q, p must have equal length")
        steps = np.diff(self.t)
        if np.any(steps <= 0):
            raise ValueError("t must be strictly increasing")
        rounding = np.finfo(float).eps * max(abs(self.t[0]), abs(self.t[-1]))
        if (np.max(np.abs(steps - self.dt))
                > 1e-12 * max(abs(self.dt), 1.0) + rounding):
            raise ValueError("sampling must be uniform within 1e-12 relative "
                             "and the rounding of t")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def qdot(self) -> np.ndarray:
        return self.p / self.consts.mass

    @cached_property
    def energy_t(self) -> np.ndarray:
        t = self.p**2
        t /= 2.0 * self.consts.mass
        return t

    @cached_property
    def energy_v(self) -> np.ndarray:
        return eval_potential(self.pot, self.q)[0]

    @cached_property
    def energy_e(self) -> np.ndarray:
        return self.energy_t + self.energy_v

    @cached_property
    def _band(self) -> tuple[np.ndarray, np.ndarray]:
        return delta_q_series(self.p, self.consts)  # core's delta_q and gap rule

    @property
    def delta_q_series(self) -> np.ndarray:
        return self._band[0]

    @property
    def gap_mask(self) -> np.ndarray:
        return self._band[1]

    @property
    def defined_mask(self) -> np.ndarray:
        """~gap_mask; ValueError where every sample is masked."""
        if self.gap_mask.all():
            raise ValueError("record is fully masked; no defined uncertainty band")
        return ~self.gap_mask

    @cached_property
    def f_series(self) -> np.ndarray:
        f = np.abs(self.p)
        f *= self.delta_q_series
        return f


@dataclass(frozen=True)
class VariationSeries:
    """A path variation (delta_q, delta_qdot) aligned with a trajectory.

    For special_variation, delta_q = epsilon/p pointwise, so
    p[i]*delta_q[i] == epsilon wherever the gap mask is clear.
    delta_qdot is always the discrete time derivative of delta_q;
    NaNs mark flagged gaps (|p| at or below the momentum floor) and
    propagate one stencil width into delta_qdot.
    """

    delta_q: np.ndarray
    delta_qdot: np.ndarray
    gap_mask: np.ndarray


def lagrangian_eval(q, qdot, pot: Potential, consts: Constants):
    """L = m*qdot^2/2 - V(q)."""
    v, _ = eval_potential(pot, q)
    lagr = 0.5 * consts.mass * np.asarray(qdot, float) ** 2 - v
    if np.ndim(q) == 0 and np.ndim(qdot) == 0:
        return float(lagr)
    return lagr


def special_variation(traj: Trajectory, epsilon: float) -> VariationSeries:
    """The variation delta_q = epsilon/p, with gaps where |p| <= p_floor."""
    gap = traj.gap_mask
    with np.errstate(divide="ignore"):
        dq = np.where(gap, np.nan, epsilon / traj.p)
    dqdot = tderiv(dq, traj.dt)
    return VariationSeries(delta_q=dq, delta_qdot=dqdot, gap_mask=gap)


def custom_variation(traj: Trajectory, delta_q) -> VariationSeries:
    """Wrap a caller-supplied delta_q series."""
    dq = np.asarray(delta_q, dtype=float)
    if len(dq) != len(traj):
        raise ValueError("variation length must match trajectory")
    dqdot = tderiv(dq, traj.dt)
    return VariationSeries(delta_q=dq, delta_qdot=dqdot,
                           gap_mask=np.zeros(len(dq), dtype=bool))


def first_order_dL(traj: Trajectory, var: VariationSeries) -> np.ndarray:
    """First-order Lagrangian change (dL/dq)*delta_q + (dL/dqdot)*delta_qdot.

    The partials are analytic: dL/dq = -V'(q), dL/dqdot = p.  NaNs from
    flagged gaps pass through.
    """
    if len(var.delta_q) != len(traj):
        raise ValueError("variation not aligned with trajectory")
    _, dv = eval_potential(traj.pot, traj.q)
    return (-dv) * var.delta_q + traj.p * var.delta_qdot


def action_and_variation(traj: Trajectory, var: VariationSeries,
                         i1: int, i2: int):
    """Action on [i1, i2] and its first-order variation, three ways.

    Returns (A, dA_boundary, dA_bulk, dA_direct):
      A           trapezoidal action integral of L
      dA_boundary p*delta_q at i2 minus at i1
      dA_bulk     integral of (dL/dq - d/dt dL/dqdot)*delta_q
      dA_direct   A evaluated on the displaced path (q+delta_q, qdot+delta_qdot)
                  minus A, an independent finite-difference route

    Integration by parts makes dA_direct = dA_boundary + dA_bulk up to
    quadrature error and O(epsilon^2).
    """
    if not (0 <= i1 < i2 < len(traj)):
        raise IndexError("need 0 <= i1 < i2 < len(traj)")
    sl = slice(i1, i2 + 1)
    dq = var.delta_q[sl]
    dqdot = var.delta_qdot[sl]
    if np.any(~np.isfinite(dq)) or np.any(~np.isfinite(dqdot)):
        raise GapError("interval [i1, i2] touches a flagged turning-point gap")

    q, p = traj.q[sl], traj.p[sl]
    qdot = traj.qdot[sl]
    lagr = lagrangian_eval(q, qdot, traj.pot, traj.consts)
    action = np.trapezoid(lagr, dx=traj.dt)

    d_boundary = p[-1] * dq[-1] - p[0] * dq[0]

    _, dv = eval_potential(traj.pot, q)
    pdot = tderiv(traj.p, traj.dt)[sl]
    d_bulk = np.trapezoid((-dv - pdot) * dq, dx=traj.dt)

    lagr_var = lagrangian_eval(q + dq, qdot + dqdot, traj.pot, traj.consts)
    d_direct = np.trapezoid(lagr_var, dx=traj.dt) - action

    return float(action), float(d_boundary), float(d_bulk), float(d_direct)
