"""Particle-in-a-box-with-moving-wall laboratory.

A single degree of freedom bounces elastically between a fixed wall at 0
and a wall at L(t).  The enclosure size plays the role of the position
uncertainty, delta_q = L, so the action product is f = |p|*L and the
thermodynamic identifications read

    theta = p*qdot/k        (temperature)
    P     = p*qdot/L        (pressure)
    S     = k*ln(f/f_ref)   (entropy)

The collision solver is event-driven and closed-form (no time-stepping
error): the adiabatic-invariant checks need errors far below the wall-speed
effects being measured.  Interval quantities are evaluated on full cycles
between successive right-wall collisions -- the particle's round trip is
the natural monocycle here -- with midpoint averages for theta and P and
the logarithmic mean of f where a d(ln f) relation is discretized, which
is the exact interval representative of that differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .core import Constants


class ModelViolationError(ValueError):
    """The elastic-bounce collision model cannot represent the configuration."""


class WallEvent(IntEnum):
    INIT = 0
    LEFT = 1
    RIGHT = 2
    JUMP = 3
    STOP = 4


@dataclass(frozen=True)
class PistonConfig:
    """Box of initial size l0 whose right wall moves.

    constant_speed: L(t) = l0 + u*t until L reaches l_end (or t reaches
    t_end).  sudden_jump: the wall teleports outward to l_end at t_jump
    (u is unused); free expansion, the particle never notices until it
    travels there.  The particle starts at the fixed wall moving right
    at speed v0.
    """

    l0: float
    v0: float
    u: float = 0.0
    m: float = 1.0
    mode: str = "constant_speed"
    l_end: float | None = None
    t_end: float | None = None
    t_jump: float | None = None

    def __post_init__(self):
        if self.l0 <= 0 or self.v0 <= 0 or self.m <= 0:
            raise ValueError("l0, v0 and m must be positive")
        if self.mode not in ("constant_speed", "sudden_jump"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "constant_speed":
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
            if self.l_end is None or self.l_end <= self.l0:
                raise ValueError("sudden_jump needs l_end > l0 (expansion)")


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
    cfg: PistonConfig
    consts: Constants

    @property
    def momentum(self) -> np.ndarray:
        return self.cfg.m * self.speed

    @property
    def f_values(self) -> np.ndarray:
        return self.momentum * self.box_l

    @property
    def entropy(self) -> np.ndarray:
        return self.consts.k_boltz * np.log(self.f_values / self.consts.f_ref)

    @property
    def k_theta(self) -> np.ndarray:
        # p*qdot = m*v^2, twice the kinetic energy
        return self.cfg.m * self.speed**2

    @property
    def pressure(self) -> np.ndarray:
        return self.k_theta / self.box_l

    @property
    def kinetic(self) -> np.ndarray:
        return 0.5 * self.cfg.m * self.speed**2

    def right_wall_indices(self) -> np.ndarray:
        return np.flatnonzero(self.event == WallEvent.RIGHT)

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


def piston_simulate(cfg: PistonConfig, consts: Constants) -> PistonRecord:
    """Exact event-driven simulation of the bouncing particle."""
    if cfg.mode == "sudden_jump":
        # static box of size l0, instant expansion at t_jump, stop at t_end
        t_jump = cfg.t_jump if cfg.t_jump is not None else 4.0 * cfg.l0 / cfg.v0
        t_end = cfg.t_end if cfg.t_end is not None else t_jump + 4.0 * cfg.l_end / cfg.v0
        if not 0.0 < t_jump < t_end:
            raise ValueError("need 0 < t_jump < t_end")
        events = [(0.0, cfg.v0, cfg.l0, WallEvent.INIT)]
        t, x, w, box = 0.0, 0.0, cfg.v0, cfg.l0
        jumped = False
        while True:
            dt_next = ((box - x) / w) if w > 0 else (x / -w)
            next_tag = WallEvent.RIGHT if w > 0 else WallEvent.LEFT
            t_next = t + dt_next
            if not jumped and t_next >= t_jump:
                x += w * (t_jump - t)
                t, box, jumped = t_jump, cfg.l_end, True
                events.append((t, abs(w), box, WallEvent.JUMP))
                continue
            if t_next >= t_end:
                x += w * (t_end - t)
                events.append((t_end, abs(w), box, WallEvent.STOP))
                break
            t, x = t_next, (box if w > 0 else 0.0)
            w = -w
            events.append((t, abs(w), box, next_tag))
    else:
        u = cfg.u
        if cfg.t_end is not None:
            t_stop = cfg.t_end
        else:
            t_stop = (cfg.l_end - cfg.l0) / u
        events = [(0.0, cfg.v0, cfg.l0, WallEvent.INIT)]
        t, x, w = 0.0, 0.0, cfg.v0
        max_events = 10_000_000
        while True:
            box = cfg.l0 + u * t
            candidates = []
            if w > u:
                candidates.append(((box - x) / (w - u), WallEvent.RIGHT))
            if w < 0:
                candidates.append((x / -w, WallEvent.LEFT))
            dt_next, tag = min(candidates) if candidates else (math.inf, None)
            if t + dt_next >= t_stop:
                dt_last = t_stop - t
                x += w * dt_last
                events.append((t_stop, abs(w), cfg.l0 + u * t_stop, WallEvent.STOP))
                break
            t += dt_next
            x += w * dt_next
            if tag == WallEvent.RIGHT:
                w = 2.0 * u - w
                x = cfg.l0 + u * t
            else:
                w = -w
                x = 0.0
            events.append((t, abs(w), cfg.l0 + u * t, tag))
            if len(events) > max_events:
                raise ModelViolationError("collision count exploded")

    t_arr, v_arr, l_arr, tag_arr = (np.array(col) for col in zip(*events))
    return PistonRecord(t=t_arr, speed=v_arr.astype(float),
                        box_l=l_arr.astype(float),
                        event=tag_arr.astype(int), cfg=cfg, consts=consts)


def _cycle_pairs(rec: PistonRecord) -> tuple[np.ndarray, np.ndarray]:
    rw = rec.right_wall_indices()
    if len(rw) < 2:
        raise ValueError("need at least two right-wall collisions")
    return rw[:-1], rw[1:]


def _log_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact interval representative for d(ln f): (b-a)/ln(b/a)."""
    same = np.isclose(a, b, rtol=1e-14, atol=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = np.where(same, a, (b - a) / np.log(np.where(same, 2.0, b / a)))
    return lm


def heat_theorem_residual(rec: PistonRecord, consts: Constants):
    """Check dE = theta*dS - P*dVol on round-trip cycles.

    Returns (residual, log_residual): the per-cycle energy defect
    dE - theta*dS + P*dVol with midpoint theta and P, and the per-event
    defect of d(ln f) = d(ln p) + d(ln delta_q), which is an exact
    differential of the product f = p*L and so should sit at round-off.
    """
    if len(rec.t) < 2:
        raise ValueError("record too short")
    i, j = _cycle_pairs(rec)
    d_e = rec.kinetic[j] - rec.kinetic[i]
    d_s = rec.entropy[j] - rec.entropy[i]
    d_vol = rec.box_l[j] - rec.box_l[i]
    theta_mid = 0.5 * (rec.k_theta[i] + rec.k_theta[j]) / consts.k_boltz
    p_mid = 0.5 * (rec.pressure[i] + rec.pressure[j])
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


def extended_quantities(rec: PistonRecord, consts: Constants) -> ThermoSeries:
    """Extended Lagrangian/Hamiltonian increments per cycle.

    d_l_ext comes from its definition (interval-averaged pdot*dq + p*dqdot);
    f_dot and the entropy-rate route are computed independently from the
    record, and along quasi-static evolutions all three coincide.  The
    cumulative sum of d_l_ext*dt/f tracks the entropy change in k units
    (action-entropy relation).
    """
    if len(rec.t) < 3:
        raise ValueError("need at least 3 recorded events")
    i, j = _cycle_pairs(rec)
    dt = rec.t[j] - rec.t[i]
    p_i, p_j = rec.momentum[i], rec.momentum[j]
    l_i, l_j = rec.box_l[i], rec.box_l[j]
    f_i, f_j = rec.f_values[i], rec.f_values[j]

    pdot = (p_j - p_i) / dt
    dq_mid = 0.5 * (l_i + l_j)
    p_mid = 0.5 * (p_i + p_j)
    dqdot = (l_j - l_i) / dt
    d_l_ext = pdot * dq_mid + p_mid * dqdot

    f_dot = (f_j - f_i) / dt
    d_s = rec.entropy[j] - rec.entropy[i]
    s_dot = d_s / dt
    f_star = _log_mean(f_i, f_j)
    s_dot_based = (f_star / consts.k_boltz) * s_dot

    d_e = rec.kinetic[j] - rec.kinetic[i]
    d_vol = l_j - l_i
    theta_mid = 0.5 * (rec.k_theta[i] + rec.k_theta[j]) / consts.k_boltz
    pressure_mid = 0.5 * (rec.pressure[i] + rec.pressure[j])

    lhs = float(np.sum(d_l_ext * dt / f_star))
    ds_total = float((rec.entropy[j[-1]] - rec.entropy[i[0]]) / consts.k_boltz)

    return ThermoSeries(dt=dt, d_e=d_e, d_s=d_s, d_vol=d_vol,
                        theta=theta_mid, pressure=pressure_mid,
                        d_l_ext=d_l_ext, f_dot=f_dot,
                        s_dot_based=s_dot_based,
                        action_entropy_lhs=lhs, delta_s_over_k=ds_total)


@dataclass(frozen=True)
class AdiabaticScan:
    ratios: np.ndarray
    delta_ln_pl: np.ndarray
    delta_s_over_k: np.ndarray
    threshold: float
    largest_adiabatic_ratio: float | None


def adiabatic_scan(ratios, consts: Constants, l0: float = 1.0, v0: float = 1.0,
                   m: float = 1.0, expansion: float = 2.0,
                   threshold: float = 1e-2) -> AdiabaticScan:
    """Invariant violation |d ln(pL)| versus wall-speed ratio u/v0.

    Each run expands the box by the given factor at constant wall speed.
    The violation uses collision-phase-aligned sampling (see
    PistonRecord.aligned_delta_ln_pl) and grows monotonically with u/v0.
    """
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios >= 1.0) or np.any(ratios <= 0.0):
        raise ValueError("ratios must lie in (0, 1)")
    viol = np.empty_like(ratios)
    ds = np.empty_like(ratios)
    for n, r in enumerate(ratios):
        cfg = PistonConfig(l0=l0, v0=v0, u=r * v0, m=m, l_end=expansion * l0)
        rec = piston_simulate(cfg, consts)
        viol[n] = rec.aligned_delta_ln_pl()
        ds[n] = rec.total_delta_s() / consts.k_boltz
    ok = np.flatnonzero(viol < threshold)
    best = float(ratios[ok].max()) if len(ok) else None
    return AdiabaticScan(ratios=ratios, delta_ln_pl=viol, delta_s_over_k=ds,
                         threshold=threshold, largest_adiabatic_ratio=best)
