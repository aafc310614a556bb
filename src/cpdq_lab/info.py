"""Information bookkeeping, regime classification, and rate bounds.

Information change rides on entropy: dI = -dS/k, split into a position
part (work over k*theta) and a momentum part (minus kinetic change over
k*theta).  Along the motion the model makes both ratios exact
differentials -- dW/(k*theta) = d ln(delta_q) and dT/(k*theta) = d ln|p| --
so the ledger integrates them in closed form per step instead of dividing
noisy increments by a temperature that vanishes at turning points.  For a
conservative trajectory the total is identically zero (zero information
exchange); for the piston it equals -dS/(k ln 2) in bits.

All quantities are in bits (natural logs divided by ln 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._schema import _NON_NEGATIVE, _POSITIVE, check_args
from .core import Constants, eval_potential
from .thermo import PistonRecord
from .variational import Trajectory

LN2 = math.log(2.0)

# regime metrics skip samples whose kinetic energy is below this share of E
_KINETIC_FRACTION = 0.1


@dataclass(frozen=True)
class InfoLedger:
    d_i_q: np.ndarray
    d_i_p: np.ndarray
    i_cumulative: np.ndarray

    @property
    def total(self) -> float:
        return float(self.i_cumulative[-1]) if len(self.i_cumulative) else 0.0


class RegimeLabel(str, Enum):
    CLASSICAL_MECHANICS_OR_ADIABATIC_EQ = "classical_mechanics_or_adiabatic_eq"
    QUANTUM_MECHANICS = "quantum_mechanics"
    NONADIABATIC_EQUILIBRIUM_TD = "nonadiabatic_equilibrium_td"
    NONADIABATIC_NONEQUILIBRIUM = "nonadiabatic_nonequilibrium"


@dataclass(frozen=True)
class RegimeReport:
    mean_abs_d_i: float
    max_step_d_i_q: float
    max_step_d_i_p: float
    tol_zero: float
    tol_small: float
    label: RegimeLabel


@dataclass(frozen=True)
class RateBounds:
    """Information-rate bound set, everything in bits/s except where noted.

    bound_f uses the actual action constant; bound_h is its smallest-f
    (most permissive) form, and the two coincide exactly when f is half
    the action quantum.  bremermann and bekenstein are the literature
    comparators; per_interval_cap (bits) caps the information delivered
    per uncertainty crossing; energy_rate_cap (W) caps the delivery rate
    of a continuous signal, and continuous_bound is the square-root form
    that follows from it.  accepted_factor_gap records the known constant
    (pi/3)^(1/2) separating continuous_bound's ultimate form from the
    accepted single-channel expression; it is reported, not resolved.
    """

    bound_f: float
    bound_h: float
    bremermann: float
    bekenstein: float
    energy_rate_cap: float
    per_interval_cap: float
    continuous_bound: float
    accepted_factor_gap: float


def _log_bits(x: np.ndarray) -> np.ndarray:
    """-diff(ln x)/ln 2, the steps in bits; x is a fresh array, which the
    log overwrites, and the steps are worked in diff's one array."""
    d = np.diff(np.log(x, out=x))
    np.negative(d, out=d)
    d /= LN2
    return d


def _ledger(d_i_q: np.ndarray, d_i_p: np.ndarray) -> InfoLedger:
    total = d_i_q + d_i_p
    return InfoLedger(d_i_q=d_i_q, d_i_p=d_i_p,
                      i_cumulative=np.cumsum(total, out=total))


def info_ledger(rec) -> InfoLedger:
    """Per-interval position/momentum information increments, in bits.

    Trajectories are reduced to their unmasked samples (increments
    bridge flagged turning-point gaps, preserving the telescoping sum);
    piston records use every logged event.
    """
    if isinstance(rec, Trajectory):
        ok = rec.defined_mask
        # one masked copy at a time, each log taken in it
        d_i_q = _log_bits(rec.delta_q_series[ok])
        p = rec.p[ok]
        return _ledger(d_i_q, _log_bits(np.abs(p, out=p)))
    if isinstance(rec, PistonRecord):
        return _ledger(_log_bits(rec.box_l.copy()),
                       _log_bits(rec.momentum.copy()))
    raise TypeError(f"no ledger for {type(rec).__name__}")


# argument schemas, checked on each call (check_args) and read by cli.KINDS
_REGIME_METRICS = dict.fromkeys(
    ("mean_abs_d_i", "max_step_d_i_q", "max_step_d_i_p"), _NON_NEGATIVE)
_REGIME_ARGS = {**_REGIME_METRICS, "thresholds": {
    "type": "array", "minItems": 2, "maxItems": 2, "items": _POSITIVE}}


def regime_classify(mean_abs_d_i: float, max_step_d_i_q: float,
                    max_step_d_i_p: float,
                    thresholds: tuple[float, float] = (1e-6, 0.1)) -> RegimeReport:
    """Quadrant classification by information metrics.

    Rows: is the net per-interval information change zero (within tol_zero)?
    Columns: are the individual per-crossing increments small (within
    tol_small)?  Deterministic in the three metrics and two thresholds.
    """
    check_args(_REGIME_ARGS, {**locals(), "thresholds": list(thresholds)})
    tol_zero, tol_small = thresholds
    conserved = mean_abs_d_i <= tol_zero
    small_steps = max_step_d_i_q <= tol_small and max_step_d_i_p <= tol_small
    if conserved and small_steps:
        label = RegimeLabel.CLASSICAL_MECHANICS_OR_ADIABATIC_EQ
    elif conserved:
        label = RegimeLabel.QUANTUM_MECHANICS
    elif small_steps:
        label = RegimeLabel.NONADIABATIC_EQUILIBRIUM_TD
    else:
        label = RegimeLabel.NONADIABATIC_NONEQUILIBRIUM
    return RegimeReport(mean_abs_d_i=mean_abs_d_i,
                        max_step_d_i_q=max_step_d_i_q,
                        max_step_d_i_p=max_step_d_i_p,
                        tol_zero=tol_zero, tol_small=tol_small, label=label)


def trajectory_regime_metrics(traj: Trajectory):
    """(mean |dI|, max per-crossing dI_q, max per-crossing dI_p) for a trajectory.

    The per-crossing increments are |V'| * delta_q / (2T) in bits, the
    fractional potential (equivalently kinetic) change across one
    uncertainty interval, evaluated away from turning points where the
    kinetic energy is at least _KINETIC_FRACTION of E.
    """
    ledger = info_ledger(traj)
    mean_abs = float(np.mean(np.abs(ledger.d_i_q + ledger.d_i_p)))
    _, dv = eval_potential(traj.pot, traj.q)
    two_t = 2.0 * traj.energy_t
    e_total = float(traj.energy_e[0])
    ok = (~traj.gap_mask) & (traj.energy_t >= _KINETIC_FRACTION * e_total)
    if not np.any(ok):
        raise ValueError("no samples clear the kinetic-fraction mask")
    crossing = np.abs(dv[ok]) * traj.delta_q_series[ok] / two_t[ok] / LN2
    max_step = float(crossing.max())
    return mean_abs, max_step, max_step


def piston_regime_metrics(rec: PistonRecord):
    """Cycle-based ledger metrics for a piston record.

    One round trip of the particle is one crossing of the enclosure, so
    increments between successive right-wall collisions are the natural
    per-crossing information steps.
    """
    rw = rec.cycle_walls()
    steps = _ledger(_log_bits(rec.box_l[rw]), _log_bits(rec.momentum[rw]))
    return (float(np.mean(np.abs(steps.d_i_q + steps.d_i_p))),
            float(np.max(np.abs(steps.d_i_q))),
            float(np.max(np.abs(steps.d_i_p))))


def wkb_regime_metrics(profile):
    """Metrics for a stationary wave profile.

    A stationary state exchanges no information (mean 0); the per-crossing
    step is the semiclassical validity metric over the admitted region
    (local kinetic energy at least _KINETIC_FRACTION of its max), which
    local_wkb_profile leaves nonempty: its largest k is positive and finite.
    """
    k2 = profile.k_of_x**2
    admitted = profile.allowed_mask & (k2 >= _KINETIC_FRACTION * np.nanmax(k2))
    max_step = float(np.nanmax(profile.validity_metric[admitted])) / LN2
    return 0.0, max_step, max_step


_RATE_BOUNDS_ARGS = {"energy": _POSITIVE, "theta": _POSITIVE}


def rate_bounds(energy: float, theta: float, consts: Constants) -> RateBounds:
    """Upper bounds on information transfer for a signal of given energy.

    bound_f = E/(f ln2);  bound_h = 4 pi E/(h ln2);
    bremermann = ln(1+4 pi) E/h;  bekenstein = 2 pi^2 E/(h ln2);
    energy_rate_cap = (k theta)^2/(2 f);
    continuous_bound = sqrt(energy_rate_cap/(2 f))/ln2.
    """
    check_args(_RATE_BOUNDS_ARGS, locals())
    f, h = consts.f, consts.h
    k_theta = consts.k_boltz * theta
    energy_rate_cap = k_theta**2 / (2.0 * f)
    return RateBounds(
        bound_f=energy / (f * LN2),
        bound_h=4.0 * math.pi * energy / (h * LN2),
        bremermann=math.log1p(4.0 * math.pi) * energy / h,
        bekenstein=2.0 * math.pi**2 * energy / (h * LN2),
        energy_rate_cap=energy_rate_cap,
        per_interval_cap=1.0 / (2.0 * LN2),
        continuous_bound=math.sqrt(energy_rate_cap / (2.0 * f)) / LN2,
        accepted_factor_gap=math.sqrt(math.pi / 3.0),
    )
