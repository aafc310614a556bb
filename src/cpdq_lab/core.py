"""Physical constants, unit systems, 1-D potentials, and the elementary state.

Everything downstream is built on the action-valued invariant of a moving
degree of freedom: the product of momentum magnitude and trajectory
uncertainty, |p| * delta_q = f.  For directly observed motion f = hbar/2;
an enclosed (thermodynamic) degree of freedom carries f = f_ref * exp(S/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# 2018 CODATA
SI_HBAR = 1.054571817e-34       # J s
SI_K_BOLTZ = 1.380649e-23       # J/K
SI_C = 2.99792458e8             # m/s
SI_ELECTRON_MASS = 9.1093837015e-31  # kg


class DomainError(ValueError):
    """Coordinate outside a potential's domain."""

    def __init__(self, msg, last_valid_index=None):
        super().__init__(msg)
        self.last_valid_index = last_valid_index


class GapError(ValueError):
    """Requested samples fall inside a flagged turning-point gap."""


@dataclass(frozen=True)
class Constants:
    """Constants of a run, in either natural or SI units.

    f       -- action constant of the uncertainty product |p|*delta_q = f
    f_ref   -- reference action fixing the entropy zero, S = k*ln(f/f_ref);
               equals hbar/2 so that S = 0 in the purely mechanical case
    p_floor -- momentum magnitude below which delta_q = f/|p| is flagged
               undefined (turning points)
    """

    f: float
    hbar: float
    k_boltz: float
    mass: float
    c: float
    f_ref: float
    p_floor: float = 1e-9

    def __post_init__(self):
        for name in ("f", "hbar", "k_boltz", "mass", "c", "f_ref"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.p_floor < 0.0:
            raise ValueError("p_floor must be non-negative")

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


NATURAL = natural_units()


class PotentialKind(str, Enum):
    FREE = "free"
    LINEAR = "linear"
    HARMONIC = "harmonic"
    INFINITE_WELL = "infinite_well"
    SOFT_WELL = "soft_well"


@dataclass(frozen=True)
class Potential:
    """A built-in 1-D potential with analytic V, V' and V''.

    Conventions:
      linear        V = -f0*q  (constant force +f0)
      harmonic      V = m*omega^2*q^2/2
      infinite_well V = 0 on [0, width]; the walls are a domain restriction
                    with reflecting boundaries, never numeric infinities
      soft_well     V = v0*tanh^2(q/a)  (smooth well of finite height v0)
    """

    kind: PotentialKind
    f0: float = 1.0
    m: float = 1.0
    omega: float = 1.0
    width: float = 1.0
    v0: float = 1.0
    a: float = 1.0

    @staticmethod
    def free() -> "Potential":
        return Potential(PotentialKind.FREE)

    @staticmethod
    def linear(f0: float) -> "Potential":
        return Potential(PotentialKind.LINEAR, f0=f0)

    @staticmethod
    def harmonic(m: float = 1.0, omega: float = 1.0) -> "Potential":
        if m <= 0 or omega <= 0:
            raise ValueError("harmonic potential needs m > 0 and omega > 0")
        return Potential(PotentialKind.HARMONIC, m=m, omega=omega)

    @staticmethod
    def infinite_well(width: float) -> "Potential":
        if width <= 0:
            raise ValueError("well width must be positive")
        return Potential(PotentialKind.INFINITE_WELL, width=width)

    @staticmethod
    def soft_well(v0: float, a: float) -> "Potential":
        if v0 <= 0 or a <= 0:
            raise ValueError("soft well needs v0 > 0 and a > 0")
        return Potential(PotentialKind.SOFT_WELL, v0=v0, a=a)

    def domain(self) -> tuple[float, float]:
        if self.kind is PotentialKind.INFINITE_WELL:
            return (0.0, self.width)
        return (-math.inf, math.inf)

    def contains(self, q) -> np.ndarray | bool:
        """Whether q lies in the domain; each wall has 1e-12 of slack."""
        lo, hi = self.domain()
        return (np.asarray(q) >= lo - 1e-12) & (np.asarray(q) <= hi + 1e-12)


def eval_potential(pot: Potential, q):
    """Return (V, dV/dq, d2V/dq2) at q; q may be a scalar or array.

    Raises DomainError for coordinates outside the potential's domain.
    """
    q = np.asarray(q, dtype=float)
    if not np.all(pot.contains(q)):
        raise DomainError(f"coordinate outside domain of {pot.kind.value}")
    zeros = np.zeros_like(q)
    if pot.kind is PotentialKind.FREE or pot.kind is PotentialKind.INFINITE_WELL:
        v, dv, d2v = zeros, zeros, zeros
    elif pot.kind is PotentialKind.LINEAR:
        v = -pot.f0 * q
        dv = np.full_like(q, -pot.f0)
        d2v = zeros
    elif pot.kind is PotentialKind.HARMONIC:
        k = pot.m * pot.omega**2
        v = 0.5 * k * q * q
        dv = k * q
        d2v = np.full_like(q, k)
    elif pot.kind is PotentialKind.SOFT_WELL:
        u = q / pot.a
        th = np.tanh(u)
        sech2 = 1.0 / np.cosh(u) ** 2
        v = pot.v0 * th * th
        dv = 2.0 * pot.v0 * th * sech2 / pot.a
        d2v = 2.0 * pot.v0 * (sech2 * sech2 - 2.0 * th * th * sech2) / pot.a**2
    else:  # pragma: no cover
        raise ValueError(f"unknown potential kind {pot.kind}")
    if q.ndim == 0:
        return float(v), float(dv), float(d2v)
    return v, dv, d2v


def compton_floor(mass: float, consts: Constants) -> float:
    """Smallest meaningful position uncertainty: (h / (mass*c)) / (4*pi)."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    return consts.h / (4.0 * math.pi * mass * consts.c)


@dataclass(frozen=True)
class DofState:
    """One degree of freedom at an instant: (t, q, p) plus derived delta_q.

    delta_q = f/|p| when |p| exceeds the configured floor, else None
    (flagged undefined: the uncertainty diverges at turning points).
    """

    t: float
    q: float
    p: float
    delta_q: float | None

    @classmethod
    def from_phase(cls, t: float, q: float, p: float,
                   consts: Constants) -> "DofState":
        dq = consts.f / abs(p) if abs(p) > consts.p_floor else None
        return cls(t=t, q=q, p=p, delta_q=dq)

    @property
    def defined(self) -> bool:
        return self.delta_q is not None


def delta_q_series(p, consts: Constants) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized f/|p| with a gap mask where |p| <= p_floor (NaN there)."""
    p = np.asarray(p, dtype=float)
    gap = np.abs(p) <= consts.p_floor
    with np.errstate(divide="ignore", over="ignore"):
        dq = np.where(gap, np.nan, consts.f / np.abs(p))
    return dq, gap


def tderiv(y: np.ndarray, dt: float) -> np.ndarray:
    """d/dt of a uniformly sampled series: 2nd-order central differences,
    one-sided 2nd-order at the ends."""
    return np.gradient(y, dt, edge_order=2)
