"""Particle-in-a-box-with-moving-wall laboratory.

A single degree of freedom bounces elastically between a fixed wall at 0
and a wall at L(t).  The enclosure size plays the role of the position
uncertainty, delta_q = L, so the action product is f = |p|*L and the
thermodynamic identifications read

    theta = p*qdot/k        (temperature)
    P     = p*qdot/L        (pressure)
    S     = k*ln(f/f_ref)   (entropy)

The event log comes from a closed-form per-hit formula, with no time
stepping and no per-collision loop: the adiabatic-invariant checks need
errors far below the wall-speed effects being measured.  For a wall moving
at constant speed u (the Fermi-Ulam map of a uniformly moving wall), a round
trip keeps (v - u)*L fixed, so the particle's j-th wall hit falls where
v0*t = j*L(t):

    t_j = j*l0 / (v0 - j*u),    L_j = l0 + u*t_j,

odd j on the moving wall, even j on the fixed one, and every moving-wall
hit takes 2u off the speed.  Hit j precedes a stop time t_stop exactly when
j < v0*t_stop/L(t_stop), so the collision count is known, and capped,
before anything is allocated.  A sudden jump is two static legs of the same
formula, joined at the position the parity of the earlier hits gives.
Interval quantities are evaluated on full cycles
between successive right-wall collisions -- the particle's round trip is
the natural monocycle here -- with midpoint averages for theta and P and
the logarithmic mean of f where a d(ln f) relation is discretized, which
is the exact interval representative of that differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._schema import _FRACTION, _NUMBER, _POSITIVE, check_args, check_fields
from .core import MAX_SIZE, Constants, ModelViolationError

# Hits whose rows piston_simulate computes at once
_BLOCK = 1 << 16


class WallEvent(IntEnum):
    INIT = 0
    LEFT = 1
    RIGHT = 2
    JUMP = 3
    STOP = 4


class _Leg(NamedTuple):
    """A stretch of the record opened by `tag` at t0 in a box of size `box`.

    Unfolded, the particle sits at s0 + v0*(t - t0) and the wall's j-th
    image at j*(box + u*(t - t0)); the leg's wall hits are the meetings
    j_first..j_last (odd j: right wall, even j: left wall).
    """

    tag: WallEvent
    t0: float
    s0: float
    box: float
    u: float
    v0: float
    j_first: int
    j_last: int

    def hit_time(self, j):
        return self.t0 + (j * self.box - self.s0) / (self.v0 - j * self.u)

    def size(self, t):
        """The box size at time t."""
        return self.box + self.u * (t - self.t0)

    def rows(self, j: np.ndarray):
        """(t, speed, box_l, event) just after the hits j, an index array."""
        t = self.hit_time(j)
        # each right-wall hit takes 2u off the speed
        return (t, np.abs(self.v0 - 2 * ((j + 1) // 2) * self.u), self.size(t),
                np.where(j % 2 == 1, WallEvent.RIGHT, WallEvent.LEFT))


def _leg(tag: WallEvent, t0: float, s0: float, box: float, u: float,
         v0: float, j_first: int, t_stop: float) -> _Leg:
    """The leg whose hits j >= j_first are those falling before t_stop."""
    leg = _Leg(tag, t0, s0, box, u, v0, j_first, j_first - 1)
    tau, size = t_stop - t0, leg.size(t_stop)
    if not (size > 0 and s0 + v0 * tau < MAX_SIZE * size):
        raise ModelViolationError(
            f"more than {MAX_SIZE} wall collisions before t = {t_stop:g}")

    def before(j):
        # hits past speed exhaustion (v0 <= j*u) never happen
        return v0 - j * u > 0 and leg.hit_time(j) < t_stop

    # hit j precedes t_stop iff j < s(t_stop)/L(t_stop); the hit times
    # themselves settle the rounding of that bound and exact ties, which
    # are not logged
    j = max(math.ceil((s0 + v0 * tau) / size) - 1, j_first - 1)
    while j >= j_first and not before(j):
        j -= 1
    while before(j + 1):
        j += 1
    return leg._replace(j_last=j)


@dataclass(frozen=True)
class PistonConfig:
    """Box of initial size l0 whose right wall moves.

    constant_speed: L(t) = l0 + u*t until L reaches l_end (or t reaches
    t_end).  sudden_jump: the wall teleports outward to l_end at t_jump;
    free expansion, the particle never notices until it travels there.
    Each mode rejects the other's key: t_jump for constant_speed, a
    nonzero u for sudden_jump.  The particle starts at the fixed wall
    moving right at speed v0; its mass is that of the run's constants.
    A config whose record would exceed MAX_SIZE rows, or whose wall
    brings the particle to rest, is rejected here, before anything is
    allocated.
    """

    l0: float = field(metadata=_POSITIVE)
    v0: float = field(metadata=_POSITIVE)
    u: float = field(default=0.0, metadata=_NUMBER)
    mode: str = field(default="constant_speed",
                      metadata={"enum": ["constant_speed", "sudden_jump"]})
    l_end: float | None = field(default=None, metadata=_POSITIVE)
    t_end: float | None = field(default=None, metadata=_POSITIVE)
    t_jump: float | None = field(default=None, metadata=_POSITIVE)

    def __post_init__(self):
        check_fields(self)
        if self.mode == "constant_speed":
            if self.t_jump is not None:
                raise ValueError("t_jump applies only to mode sudden_jump")
            if abs(self.u) >= self.v0:
                raise ModelViolationError(
                    "wall speed must stay below the particle speed")
            if self.l_end is None and self.t_end is None:
                raise ValueError("need l_end or t_end as a stop condition")
            if self.u == 0.0 and self.l_end is not None:
                raise ValueError("static wall never reaches l_end; give t_end")
            if self.l_end is not None and self.u != 0.0:
                if (self.l_end - self.l0) * self.u <= 0:
                    raise ValueError("l_end unreachable for this wall speed")
            if self.u < 0.0 and self.t_end is not None:
                if self.t_end >= self.l0 / -self.u:
                    raise ModelViolationError(
                        "box closes before t_end: need t_end < l0/|u|")
        else:
            if self.u != 0.0:
                raise ValueError("sudden_jump takes no wall speed u")
            if self.l_end is None or self.l_end <= self.l0:
                raise ValueError("sudden_jump needs l_end > l0 (expansion)")
            if not 0.0 < self.jump_time < self.stop_time:
                raise ValueError("need 0 < t_jump < t_end")
        if self.n_events > MAX_SIZE:
            raise ModelViolationError(
                f"{self.n_events} events exceed the {MAX_SIZE}-event cap")
        if self.mode == "constant_speed" and self.u > 0.0:
            # the k-th right-wall hit leaves speed |v0 - 2*k*u|; zero
            # speed means f = 0 and S = -inf
            k = round(self.v0 / (2.0 * self.u))
            if 1 <= k <= self.n_right_hits and self.v0 - 2 * k * self.u == 0:
                raise ModelViolationError(
                    f"right-wall collision {k} leaves the particle at rest")

    @property
    def jump_time(self) -> float:
        """t_jump, by default after four crossings of the initial box."""
        return self.t_jump if self.t_jump is not None else 4.0 * self.l0 / self.v0

    @property
    def stop_time(self) -> float:
        if self.t_end is not None:
            return self.t_end
        if self.mode == "sudden_jump":
            return self.jump_time + 4.0 * self.l_end / self.v0
        return (self.l_end - self.l0) / self.u

    @cached_property
    def _legs(self) -> tuple[_Leg, ...]:
        """The record's legs: one box, or the boxes before and after a jump."""
        if self.mode == "constant_speed":
            return (_leg(WallEvent.INIT, 0.0, 0.0, self.l0, self.u, self.v0,
                         1, self.stop_time),)
        t_jump = self.jump_time
        first = _leg(WallEvent.INIT, 0.0, 0.0, self.l0, 0.0, self.v0, 1, t_jump)
        # distance run since the last hit, clamped so that rounding cannot
        # put a hit of the new box before the jump
        n = first.j_last
        run = min(max(self.v0 * t_jump - n * self.l0, 0.0), self.l0)
        if n % 2:  # moving left, run back from the old right wall
            s0, j_first = 2.0 * self.l_end - (self.l0 - run), 2
        else:
            s0, j_first = run, 1
        return first, _leg(WallEvent.JUMP, t_jump, s0, self.l_end, 0.0,
                           self.v0, j_first, self.stop_time)

    @property
    def n_events(self) -> int:
        """Rows of the record: each leg's opening row and hits, and the stop."""
        return sum(leg.j_last - leg.j_first + 2 for leg in self._legs) + 1

    @property
    def n_right_hits(self) -> int:
        """Right-wall (odd j) collisions before the stop time."""
        return sum((leg.j_last + 1) // 2 - leg.j_first // 2
                   for leg in self._legs)


@dataclass(frozen=True)
class PistonRecord:
    """Event log: start, every wall collision, the jump (if any), the stop.

    speed[i] is the particle speed just after event i; box_l[i] the
    enclosure size at that instant.  Between collisions |p| is constant.
    """

    t: np.ndarray
    speed: np.ndarray
    box_l: np.ndarray
    event: np.ndarray
    consts: Constants

    @property
    def momentum(self) -> np.ndarray:
        return self.consts.mass * self.speed

    @property
    def f_values(self) -> np.ndarray:
        return self.momentum * self.box_l

    @property
    def entropy(self) -> np.ndarray:
        return self.consts.k_boltz * np.log(self.f_values / self.consts.f_ref)

    @property
    def k_theta(self) -> np.ndarray:
        # p*qdot = m*v^2, twice the kinetic energy
        return self.consts.mass * self.speed**2

    @property
    def pressure(self) -> np.ndarray:
        return self.k_theta / self.box_l

    @property
    def kinetic(self) -> np.ndarray:
        return 0.5 * self.consts.mass * self.speed**2

    def right_wall_indices(self) -> np.ndarray:
        return np.flatnonzero(self.event == WallEvent.RIGHT)

    def cycle_walls(self) -> np.ndarray:
        """right_wall_indices, the round trips' ends; ValueError below two."""
        rw = self.right_wall_indices()
        if len(rw) < 2:
            raise ValueError("need at least two right-wall collisions")
        return rw

    def total_delta_s(self) -> float:
        """Entropy change from the initial to the final recorded state."""
        return float(self.entropy[-1] - self.entropy[0])

    def aligned_delta_ln_pl(self) -> float:
        """|ln(pL)| change from start to the last right-wall collision.

        Sampling the invariant at a fixed collision phase removes the
        within-cycle sawtooth of ln(pL); with no right-wall collision on
        record the final state is used instead.
        """
        rw = self.right_wall_indices()
        i = rw[-1] if len(rw) else len(self.t) - 1
        return float(abs(math.log(self.f_values[i] / self.f_values[0])))


def _record(cfg: PistonConfig, consts: Constants, hits) -> PistonRecord:
    """The rows of cfg's record that hits picks: each leg's opening row and
    the rows of its hits hits(leg), an index array; then the stop row, with
    the speed of the row before it."""
    picked = [(leg, hits(leg)) for leg in cfg._legs]
    n = sum(len(j) + 1 for _, j in picked) + 1
    t, speed, box_l = np.empty(n), np.empty(n), np.empty(n)
    event = np.empty(n, dtype=int)
    i = 0
    for leg, j in picked:
        t[i], speed[i], box_l[i], event[i] = leg.t0, leg.v0, leg.box, leg.tag
        i += 1
        # a block at a time, so that the temporaries stay small
        for block in np.split(j, range(_BLOCK, len(j), _BLOCK)):
            rows = slice(i, i + len(block))
            t[rows], speed[rows], box_l[rows], event[rows] = leg.rows(block)
            i = rows.stop
    t[i], speed[i], event[i] = cfg.stop_time, speed[i - 1], WallEvent.STOP
    box_l[i] = leg.size(t[i])
    return PistonRecord(t=t, speed=speed, box_l=box_l, event=event,
                        consts=consts)


def piston_simulate(cfg: PistonConfig, consts: Constants) -> PistonRecord:
    """Event log of the bouncing particle, leg by leg from the hit formula."""
    return _record(cfg, consts,
                   lambda leg: np.arange(leg.j_first, leg.j_last + 1))


def _last_right_hit(leg: _Leg) -> np.ndarray:
    """The leg's last right-wall (odd) hit index, if it has one."""
    j = leg.j_last - 1 + leg.j_last % 2
    return np.array([j] if j >= leg.j_first else [], dtype=int)


def _cycles(rec: PistonRecord):
    """(i, j, dE, dS, dVol, midpoint theta, midpoint P) of the round trips
    between successive right-wall collisions i -> j."""
    rw = rec.cycle_walls()
    i, j = rw[:-1], rw[1:]
    return (i, j, rec.kinetic[j] - rec.kinetic[i],
            rec.entropy[j] - rec.entropy[i], rec.box_l[j] - rec.box_l[i],
            0.5 * (rec.k_theta[i] + rec.k_theta[j]) / rec.consts.k_boltz,
            0.5 * (rec.pressure[i] + rec.pressure[j]))


def _log_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact interval representative for d(ln f): (b-a)/ln(b/a)."""
    same = np.isclose(a, b, rtol=1e-14, atol=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = np.where(same, a, (b - a) / np.log(np.where(same, 2.0, b / a)))
    return lm


def heat_theorem_residual(rec: PistonRecord):
    """Check dE = theta*dS - P*dVol on round-trip cycles.

    Returns (residual, log_residual): the per-cycle energy defect
    dE - theta*dS + P*dVol with midpoint theta and P, and the per-event
    defect of d(ln f) = d(ln p) + d(ln delta_q), which is an exact
    differential of the product f = p*L and so should sit at round-off.
    """
    _, _, d_e, d_s, d_vol, theta_mid, p_mid = _cycles(rec)
    residual = d_e - theta_mid * d_s + p_mid * d_vol

    log_f = np.log(rec.f_values)
    log_residual = (np.diff(log_f) - np.diff(np.log(rec.momentum))
                    - np.diff(np.log(rec.box_l)))
    return residual, log_residual


@dataclass(frozen=True)
class ThermoSeries:
    """Per-cycle thermodynamic increments and extended-function estimates."""

    dt: np.ndarray
    d_e: np.ndarray
    d_s: np.ndarray
    d_vol: np.ndarray
    theta: np.ndarray
    pressure: np.ndarray
    d_l_ext: np.ndarray          # pdot*dq + p*dqdot with interval averages
    f_dot: np.ndarray            # d(pL)/dt
    s_dot_based: np.ndarray      # (f/k)*Sdot with log-mean f
    action_entropy_lhs: float    # sum of dLe*dt/f over the record
    delta_s_over_k: float        # matching entropy change / k


def extended_quantities(rec: PistonRecord) -> ThermoSeries:
    """Extended Lagrangian/Hamiltonian increments per cycle.

    d_l_ext comes from its definition (interval-averaged pdot*dq + p*dqdot);
    f_dot and the entropy-rate route are computed independently from the
    record, and along quasi-static evolutions all three coincide.  The
    cumulative sum of d_l_ext*dt/f tracks the entropy change in k units
    (action-entropy relation).
    """
    i, j, d_e, d_s, d_vol, theta_mid, pressure_mid = _cycles(rec)
    k_boltz = rec.consts.k_boltz
    dt = rec.t[j] - rec.t[i]
    p_i, p_j = rec.momentum[i], rec.momentum[j]
    l_i, l_j = rec.box_l[i], rec.box_l[j]
    f_i, f_j = rec.f_values[i], rec.f_values[j]

    pdot = (p_j - p_i) / dt
    dq_mid = 0.5 * (l_i + l_j)
    p_mid = 0.5 * (p_i + p_j)
    dqdot = d_vol / dt
    d_l_ext = pdot * dq_mid + p_mid * dqdot

    f_dot = (f_j - f_i) / dt
    s_dot = d_s / dt
    f_star = _log_mean(f_i, f_j)
    s_dot_based = (f_star / k_boltz) * s_dot

    lhs = float(np.sum(d_l_ext * dt / f_star))
    ds_total = float((rec.entropy[j[-1]] - rec.entropy[i[0]]) / k_boltz)

    return ThermoSeries(dt=dt, d_e=d_e, d_s=d_s, d_vol=d_vol,
                        theta=theta_mid, pressure=pressure_mid,
                        d_l_ext=d_l_ext, f_dot=f_dot,
                        s_dot_based=s_dot_based,
                        action_entropy_lhs=lhs, delta_s_over_k=ds_total)


@dataclass(frozen=True)
class AdiabaticScan:
    delta_ln_pl: np.ndarray
    delta_s_over_k: np.ndarray


# argument schemas, checked on each call (check_args) and read by cli.KINDS
_SCAN_ARGS = {"ratios": {"type": "array", "items": _FRACTION},
              "expansion": {"type": "number", "exclusiveMinimum": 1}}


def scan_configs(ratios, l0: float = 1.0, v0: float = 1.0,
                 expansion: float = 2.0) -> list[PistonConfig]:
    """The runs of a wall-speed scan, one per ratio u/v0 in (0, 1).

    Each expands the box from l0 to expansion*l0 at constant wall speed
    u = ratio*v0; a run the model cannot represent raises here.
    """
    ratios = np.asarray(ratios, dtype=float)
    check_args(_SCAN_ARGS, {**locals(), "ratios": ratios.tolist()})
    return [PistonConfig(l0=l0, v0=v0, u=r * v0, l_end=expansion * l0)
            for r in ratios]


def adiabatic_scan(configs: list[PistonConfig],
                   consts: Constants) -> AdiabaticScan:
    """Invariant violation |d ln(pL)| and entropy change of each run.

    The runs are those of scan_configs, in its order.  The violation uses
    collision-phase-aligned sampling (see PistonRecord.aligned_delta_ln_pl)
    and grows monotonically with u/v0; delta_s_over_k is each run's total
    entropy change in units of k.

    Both read only a record's first row, its last right-wall hit and its
    stop row, so each run builds those rows and each leg's last right-wall
    hit from the hit formula, not its whole event log: a scan costs the
    same at any collision count.  The values are piston_simulate's, bit
    for bit.  The stop row keeps the speed of the row before it, which is
    the speed after the run's last hit: a left-wall hit j + 1 leaves the
    speed of right-wall hit j, and a static leg never changes it.
    """
    viol = np.empty(len(configs))
    ds = np.empty(len(configs))
    for n, cfg in enumerate(configs):
        rec = _record(cfg, consts, _last_right_hit)
        viol[n] = rec.aligned_delta_ln_pl()
        ds[n] = rec.total_delta_s() / consts.k_boltz
    return AdiabaticScan(delta_ln_pl=viol, delta_s_over_k=ds)
