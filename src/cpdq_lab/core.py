"""Physical constants, unit systems, 1-D potentials, and the delta_q series.

Everything downstream is built on the action-valued invariant of a moving
degree of freedom: the product of momentum magnitude and trajectory
uncertainty, |p| * delta_q = f.  For directly observed motion f = hbar/2;
an enclosed (thermodynamic) degree of freedom carries f = f_ref * exp(S/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from ._schema import _NUMBER, _POSITIVE, check_fields

# 2018 CODATA
SI_HBAR = 1.054571817e-34       # J s
SI_K_BOLTZ = 1.380649e-23       # J/K
SI_C = 2.99792458e8             # m/s
SI_ELECTRON_MASS = 9.1093837015e-31  # kg

MAX_SIZE = 10_000_000  # piston events, trajectory steps, tise n_states * n


class DomainError(ValueError):
    """Coordinate outside a potential's domain."""


class ModelViolationError(ValueError):
    """The model cannot represent the configuration: a piston the
    elastic-bounce collision model cannot follow, or a harmonic leapfrog
    step too long to be stable."""


class GapError(ValueError):
    """Requested samples fall inside a flagged turning-point gap."""


@dataclass(frozen=True)
class Constants:
    """Constants of a run, in either natural or SI units.

    f       -- action constant of the uncertainty product |p|*delta_q = f
    mass    -- mass of the one particle every kind models, the piston's
               enclosed particle included
    f_ref   -- reference action fixing the entropy zero, S = k*ln(f/f_ref);
               equals hbar/2 so that S = 0 in the purely mechanical case
    p_floor -- momentum magnitude below which delta_q = f/|p| is flagged
               undefined (turning points)
    """

    f: float = field(metadata=_POSITIVE)
    hbar: float = field(metadata=_POSITIVE)
    k_boltz: float = field(metadata=_POSITIVE)
    mass: float = field(metadata=_POSITIVE)
    c: float = field(metadata=_POSITIVE)
    f_ref: float = field(metadata=_POSITIVE)
    p_floor: float = field(metadata=_POSITIVE)

    def __post_init__(self):
        check_fields(self)

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


def natural_units() -> Constants:
    """hbar = k_B = c = mass = 1, so f = 1/2; vary with dataclasses.replace."""
    return Constants(f=0.5, hbar=1.0, k_boltz=1.0, mass=1.0, c=1.0,
                     f_ref=0.5, p_floor=1e-9)


def si_units() -> Constants:
    """CODATA SI values for an electron, with f = hbar/2."""
    return Constants(f=SI_HBAR / 2.0, hbar=SI_HBAR, k_boltz=SI_K_BOLTZ,
                     mass=SI_ELECTRON_MASS, c=SI_C, f_ref=SI_HBAR / 2.0,
                     p_floor=1e-40)



class PotentialKind(str, Enum):
    FREE = "free"
    LINEAR = "linear"
    HARMONIC = "harmonic"
    INFINITE_WELL = "infinite_well"
    SOFT_WELL = "soft_well"


# the parameters each kind reads; every other field stays unset
_PARAMS = {
    PotentialKind.FREE: (),
    PotentialKind.LINEAR: ("f0",),
    PotentialKind.HARMONIC: ("m", "omega"),
    PotentialKind.INFINITE_WELL: ("width",),
    PotentialKind.SOFT_WELL: ("v0", "a"),
}


@dataclass(frozen=True)
class Potential:
    """A built-in 1-D potential with analytic V and V'.

    Potential(kind, **params) takes the kind by name or as a PotentialKind
    and only the parameters that kind reads (_PARAMS); each defaults to 1
    and all but f0 are above 0.

    Conventions:
      linear        V = -f0*q  (constant force +f0)
      harmonic      V = m*omega^2*q^2/2
      infinite_well V = 0 on [0, width]; the walls are a domain restriction
                    with reflecting boundaries, never numeric infinities
      soft_well     V = v0*tanh^2(q/a)  (smooth well of finite height v0)
    """

    kind: PotentialKind = field(
        metadata={"enum": [k.value for k in PotentialKind]})
    f0: float | None = field(default=None, metadata=_NUMBER)
    m: float | None = field(default=None, metadata=_POSITIVE)
    omega: float | None = field(default=None, metadata=_POSITIVE)
    width: float | None = field(default=None, metadata=_POSITIVE)
    v0: float | None = field(default=None, metadata=_POSITIVE)
    a: float | None = field(default=None, metadata=_POSITIVE)

    def __post_init__(self):
        check_fields(self)
        kind = PotentialKind(self.kind)
        object.__setattr__(self, "kind", kind)
        for name in (f.name for f in fields(self)[1:]):
            value = getattr(self, name)
            if name not in _PARAMS[kind]:
                if value is not None:
                    raise ValueError(f"{kind.value} potential takes no {name}")
            elif value is None:
                object.__setattr__(self, name, 1.0)

    def contains(self, q) -> np.ndarray | bool:
        """Whether q lies in the domain; each wall has 1e-12*width of slack."""
        if self.kind is PotentialKind.INFINITE_WELL:
            slack = 1e-12 * self.width
            lo, hi = -slack, self.width + slack
        else:
            lo, hi = -math.inf, math.inf
        return (np.asarray(q) >= lo) & (np.asarray(q) <= hi)


def eval_potential(pot: Potential, q):
    """Return (V, dV/dq) at q; q may be a scalar or array.

    Raises DomainError for coordinates outside the potential's domain.
    """
    q = np.asarray(q, dtype=float)
    if not np.all(pot.contains(q)):
        raise DomainError(f"coordinate outside domain of {pot.kind.value}")
    if pot.kind is PotentialKind.FREE or pot.kind is PotentialKind.INFINITE_WELL:
        v = dv = np.zeros_like(q)
    elif pot.kind is PotentialKind.LINEAR:
        v = -pot.f0 * q
        dv = np.full_like(q, -pot.f0)
    elif pot.kind is PotentialKind.HARMONIC:
        k = pot.m * pot.omega**2
        v = 0.5 * k * q
        v *= q
        dv = k * q
    elif pot.kind is PotentialKind.SOFT_WELL:
        # v0 th th and 2 v0 th sech2 / a, th = tanh(q/a), each product in
        # its order, in v, dv and one scratch array; a 0-d q stays in numpy
        # scalars (whose **2 is pow, not the array's square): out=None there
        arrays = q.ndim > 0
        dv = q / pot.a
        sech2 = np.cosh(dv)
        dv = np.tanh(dv, out=dv if arrays else None)
        sech2 **= 2
        sech2 = np.divide(1.0, sech2, out=sech2 if arrays else None)
        v = pot.v0 * dv
        v *= dv
        dv *= 2.0 * pot.v0
        dv *= sech2
        dv /= pot.a
    else:  # pragma: no cover
        raise ValueError(f"unknown potential kind {pot.kind}")
    if q.ndim == 0:
        return float(v), float(dv)
    return v, dv


def finite_potential(pot: Potential, q, where: str):
    """eval_potential(pot, q); ValueError naming the potential where V or V'
    overflows or is not finite `where` (on the grid, at q0)."""
    # OverflowError from float arithmetic, FloatingPointError from numpy
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            v, dv = eval_potential(pot, q)
        if not (np.isfinite(v).all() and np.isfinite(dv).all()):
            raise OverflowError
    except ArithmeticError:
        raise ValueError(f"potential: {pot.kind.value} V or V' overflows "
                         f"{where}") from None
    return v, dv


def delta_q_series(p, consts: Constants) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized f/|p| with a gap mask where |p| <= p_floor (NaN there)."""
    dq = np.array(p, dtype=float)  # |p|, then f/|p|, in this one array
    np.abs(dq, out=dq)
    gap = dq <= consts.p_floor
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(consts.f, dq, out=dq)
    np.copyto(dq, np.nan, where=gap)
    return dq, gap


def tderiv(y: np.ndarray, dt: float) -> np.ndarray:
    """d/dt of a uniformly sampled series: 2nd-order central differences,
    one-sided 2nd-order at the ends."""
    return np.gradient(y, dt, edge_order=2)
