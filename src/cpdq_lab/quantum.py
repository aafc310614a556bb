"""Fisher-information wave mechanics on a uniform 1-D grid.

When the motion is not trajectory-describable the position uncertainty is
carried by a complex amplitude psi with |psi|^2 = P.  The generalized
Cramer-Rao bound

    (delta_x)^2 * integral(4 |psi'|^2) >= 1

defines the Fisher length delta_x = [integral 4|psi'|^2]^(-1/2); asking for
the lowest bound subject to the energy constraint turns into the stationary
wave equation  -(2 f^2/m) psi'' + V psi = E psi,  solved here with a 3-point
Dirichlet finite-difference operator.  The kinetic coefficient 2 f^2/m
reduces to the familiar one when f is half the quantum of action.

Derivative convention: spectral (FFT) for wavefunctions flagged periodic
(plane waves on whole periods), 2nd-order finite differences otherwise.
The Fisher-information decomposition

    integral P'^2/P  =  integral 4|psi'|^2  -  4 integral P (Im psi'/psi)^2

is evaluated with the product-rule gradient P' = 2 Re(psi* psi'), which
makes it a pointwise algebraic identity for any derivative scheme.

scipy is imported inside the two solvers that use it, solve_tise
(scipy.linalg) and variational_ground_state (scipy.linalg and scipy.fft),
so a process that never calls them starts without loading scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Constants, Potential, PotentialKind, eval_potential


class ConvergenceError(RuntimeError):
    """Iteration cap reached; carries the last iterate."""

    def __init__(self, msg, psi=None, energy=None, iterations=None):
        super().__init__(msg)
        self.psi = psi
        self.energy = energy
        self.iterations = iterations


class UnboundStateWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 64:
            raise ValueError("need at least 64 grid points")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitude on a grid, normalized so trapz(|psi|^2) = 1.

    periodic=True marks amplitudes that wrap (first and last grid values
    coincide, an integer number of periods); their derivatives are taken
    spectrally.
    """

    grid: Grid1D
    values: np.ndarray
    periodic: bool = False

    @property
    def prob(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm_sq(self) -> float:
        return float(np.trapezoid(self.prob, dx=self.grid.h))

    def derivative(self) -> np.ndarray:
        if self.periodic:
            core = self.values[:-1]
            k = 2.0 * np.pi * np.fft.fftfreq(len(core), d=self.grid.h)
            d_core = np.fft.ifft(1j * k * np.fft.fft(core))
            return np.append(d_core, d_core[0])
        return np.gradient(self.values, self.grid.h, edge_order=2)

    def mean_and_std(self) -> tuple[float, float]:
        x = self.grid.x
        mean = float(np.trapezoid(x * self.prob, dx=self.grid.h))
        var = float(np.trapezoid((x - mean) ** 2 * self.prob, dx=self.grid.h))
        return mean, math.sqrt(var)

    @staticmethod
    def normalized(grid: Grid1D, values, periodic: bool = False) -> "WaveFunction":
        values = np.asarray(values, dtype=complex)
        nrm = math.sqrt(float(np.trapezoid(np.abs(values) ** 2, dx=grid.h)))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero function")
        return WaveFunction(grid=grid, values=values / nrm, periodic=periodic)

    @staticmethod
    def gaussian(grid: Grid1D, sigma: float, k: float = 0.0,
                 x0: float = 0.0) -> "WaveFunction":
        """Gaussian amplitude whose |psi|^2 has standard deviation sigma."""
        x = grid.x
        env = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2))
        return WaveFunction.normalized(grid, env * np.exp(1j * k * x))

    @staticmethod
    def plane_wave(grid: Grid1D, k: float) -> "WaveFunction":
        """e^{ikx} over an integer number of periods (enforced)."""
        span = grid.x_max - grid.x_min
        cycles = k * span / (2.0 * np.pi)
        if abs(cycles - round(cycles)) > 1e-9 or round(cycles) == 0:
            raise ValueError("grid must span a whole number of periods")
        return WaveFunction.normalized(grid, np.exp(1j * k * grid.x),
                                       periodic=True)


@dataclass(frozen=True)
class EigenSolution:
    energies: np.ndarray
    states: list


@dataclass(frozen=True)
class FisherMetrics:
    fi_classical: float
    fi_generalized: float
    fisher_length: float
    correction: float
    decomposition_residual: float


@dataclass(frozen=True)
class WkbProfile:
    grid: Grid1D
    energy: float
    k_of_x: np.ndarray
    delta_x_of_x: np.ndarray
    validity_metric: np.ndarray
    allowed_mask: np.ndarray


@dataclass(frozen=True)
class DispersionParams:
    k: float
    m0: float
    c: float
    f: float


def _quad(y: np.ndarray, h: float, periodic: bool = False) -> float:
    if periodic:
        return float(np.sum(y[:-1]) * h)
    return float(np.trapezoid(y, dx=h))


def check_grid_in_well(pot: Potential, grid: Grid1D) -> None:
    """Raise ValueError if the grid reaches past an infinite well's walls."""
    if not np.all(pot.contains((grid.x_min, grid.x_max))):
        raise ValueError("grid must lie inside the well")


def _grid_potential(pot: Potential, grid: Grid1D) -> np.ndarray:
    """V on the full grid, after the well check; an infinite well is V = 0
    inside walls that the Dirichlet ends already represent."""
    check_grid_in_well(pot, grid)
    if pot.kind is PotentialKind.INFINITE_WELL:
        return np.zeros(grid.n)
    return eval_potential(pot, grid.x)[0]


def _sign_fixed(full: np.ndarray) -> np.ndarray:
    """Deterministic sign: the first significantly nonzero lobe positive."""
    if full[np.argmax(np.abs(full) > 1e-3 * np.abs(full).max())] < 0:
        return -full
    return full


def solve_tise(pot: Potential, grid: Grid1D, n_states: int,
               consts: Constants) -> EigenSolution:
    """Lowest eigenpairs of -(2 f^2/m) psi'' + V psi = E psi.

    3-point Dirichlet finite differences; O(h^2) accurate.  States come
    back normalized, real, sign-fixed, with n nodes for state n.
    """
    from scipy.linalg import eigh_tridiagonal

    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    if n_states > grid.n - 2:
        raise ValueError("n_states exceeds interior grid dimension")
    h = grid.h
    v = _grid_potential(pot, grid)
    coeff = 2.0 * consts.f**2 / consts.mass
    diag = 2.0 * coeff / h**2 + v[1:-1]
    off = np.full(grid.n - 3, -coeff / h**2)
    energies, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, n_states - 1))
    if pot.kind is not PotentialKind.INFINITE_WELL:
        edge_v = min(v[0], v[-1])
        if energies[-1] > edge_v:
            warnings.warn("requested states extend above the edge potential; "
                          "they are not bound on this grid", UnboundStateWarning)
    states = []
    for i in range(n_states):
        full = np.zeros(grid.n)
        full[1:-1] = vecs[:, i]
        full /= math.sqrt(float(np.trapezoid(full**2, dx=h)))
        full = _sign_fixed(full)
        states.append(WaveFunction(grid=grid, values=full.astype(complex)))
    return EigenSolution(energies=energies, states=states)


_P_FLOOR_RATIO = 1e-14


def fisher_metrics(psi: WaveFunction) -> FisherMetrics:
    """Classical and generalized Fisher information of an amplitude.

    fi_classical uses the product-rule gradient of P and a probability
    floor, _P_FLOOR_RATIO of max P (nodes of excited states make the raw
    integrand 0/0); the decomposition residual checks that classical =
    generalized + the non-positive phase-gradient correction.
    """
    h = psi.grid.h
    d = psi.derivative()
    prob = psi.prob
    if not np.any(prob > 0):
        raise ValueError("zero-measure support")
    z = np.conj(psi.values) * d
    floor = _P_FLOOR_RATIO * prob.max()
    low = prob < floor
    pf = np.maximum(prob, floor)
    # at simple zeros P'^2/P -> 4|psi'|^2 and the phase term -> 0, so the
    # floored points take their continuum limits instead of 0/0 noise
    d_sq = 4.0 * np.abs(d) ** 2
    cls_integrand = np.where(low, d_sq, 4.0 * np.real(z) ** 2 / pf)
    corr_integrand = np.where(low, 0.0, 4.0 * np.imag(z) ** 2 / pf)
    fi_classical = _quad(cls_integrand, h, psi.periodic)
    fi_generalized = _quad(d_sq, h, psi.periodic)
    correction = -_quad(corr_integrand, h, psi.periodic)
    residual = abs(fi_classical - fi_generalized - correction)
    return FisherMetrics(fi_classical=fi_classical,
                         fi_generalized=fi_generalized,
                         fisher_length=fi_generalized ** -0.5,
                         correction=correction,
                         decomposition_residual=residual)


def cr_bound_check(psi: WaveFunction, delta_x: float) -> float:
    """Margin (delta_x)^2 * integral(4|psi'|^2) - 1 of the generalized bound."""
    fi = fisher_metrics(psi).fi_generalized
    return delta_x**2 * fi - 1.0


@dataclass(frozen=True)
class VariationalResult:
    psi: WaveFunction
    energy: float
    iterations: int


# Lanczos vectors kept before an explicit restart from the current Ritz
# vector.  On the n = 2000 oscillator 16 take 84 applications of P and 40
# take 44; 16 keeps the solve's extra memory to 16 n floats.
_LANCZOS_BASIS = 16
# tau, the imaginary-time step of the descent's propagator P
_TAU = 0.01


def variational_ground_state(pot: Potential, grid: Grid1D, consts: Constants,
                             max_iters: int = 5000, tol: float = 1e-10,
                             psi0: WaveFunction | None = None) -> VariationalResult:
    """Minimize the energy functional: the fixed point of imaginary-time descent.

    Imaginary-time descent is power iteration on the symmetric Strang
    propagator P = e^{-tau V/2} S e^{-tau K} S^{-1} e^{-tau V/2}, with S the
    DST-I and the exact sine-basis kinetic exponential.  Its fixed point,
    the dominant eigenvector of P, is found here by a Lanczos iteration on
    the same P (full reorthogonalisation, restarted from the current Ritz
    vector every _LANCZOS_BASIS applications), which reaches it in far
    fewer applications than the descent's e^{-tau (E1 - E0)} per step.

    E is the Rayleigh quotient of the sine-basis Hamiltonian at the Ritz
    vector; its kinetic term comes from the sine coefficients by Parseval,
    |dst(w)|^2 = 2 (N+1) |w|^2.  The iteration stops at the first
    application j >= 2 of a restart cycle where E changed by less than tol
    relative and the Lanczos residual estimate |beta_j s_j| is at most
    tol * theta_j; an invariant subspace (beta_j at rounding level, at most
    eps * theta_j) returns its exact Ritz pair.  `iterations` counts
    applications of P, and max_iters caps them.  The minimum agrees with
    the finite-difference eigensolver to O(h^2).
    """
    from scipy.fft import dst, idst
    from scipy.linalg import eigh_tridiagonal

    if max_iters < 2:
        raise ValueError("max_iters must be at least 2")
    x = grid.x
    h = grid.h
    v_int = _grid_potential(pot, grid)[1:-1]
    coeff = 2.0 * consts.f**2 / consts.mass
    n_int = grid.n - 2
    k_modes = np.pi * np.arange(1, n_int + 1) / (h * (grid.n - 1))
    exp_v = np.exp(-0.5 * _TAU * v_int)
    exp_t = np.exp(-_TAU * coeff * k_modes**2)
    kinetic_eig = coeff * k_modes**2

    def rayleigh(w: np.ndarray) -> float:
        b = dst(w, type=1)
        kinetic = (kinetic_eig @ (b * b)) / (2.0 * (n_int + 1))
        return float((kinetic + v_int @ (w * w)) / (w @ w))

    if psi0 is not None:
        u = np.real(psi0.values[1:-1])
    else:
        u = np.exp(-((x[1:-1] - 0.5 * (x[0] + x[-1])) / (0.25 * (x[-1] - x[0]))) ** 2)

    # The basis is a list of n-vectors, the size of every other temporary
    # here.  One (cap, n) block leaves a large freed hole in the heap after
    # each solve; later allocations fragment it, and a long run's peak
    # memory measurably rose.
    alpha = np.empty(_LANCZOS_BASIS)
    beta = np.empty(_LANCZOS_BASIS)
    scratch = np.empty(n_int)
    applications = 0
    while True:
        basis = [u / math.sqrt(float(u @ u))]
        for j in range(1, _LANCZOS_BASIS + 1):
            w = exp_v * idst(exp_t * dst(exp_v * basis[-1], type=1), type=1)
            applications += 1
            alpha[j - 1] = basis[-1] @ w
            for _ in range(2):  # full reorthogonalisation, twice is enough
                for b in basis:
                    w -= np.multiply(b, b @ w, out=scratch)
            beta[j - 1] = math.sqrt(float(w @ w))
            ritz, vecs = eigh_tridiagonal(alpha[:j], beta[:j - 1], select="i",
                                          select_range=(j - 1, j - 1))
            theta, s = ritz[0], vecs[:, 0]
            u = np.zeros(n_int)
            for c, b in zip(s, basis):
                u += np.multiply(b, c, out=scratch)
            energy = rayleigh(u)
            if not theta > 0.0:
                raise ConvergenceError("the propagator underflows to zero",
                                       energy=energy, iterations=applications)
            done = beta[j - 1] <= np.finfo(float).eps * theta
            if j >= 2 and not done:
                done = (abs(energy - last) < tol * max(abs(energy), 1e-300)
                        and abs(beta[j - 1] * s[-1]) <= tol * theta)
            if done:
                full = _sign_fixed(np.pad(u, 1))
                return VariationalResult(psi=WaveFunction.normalized(grid, full),
                                         energy=energy, iterations=applications)
            if applications >= max_iters:
                raise ConvergenceError(
                    "Lanczos hit the application cap",
                    psi=WaveFunction.normalized(grid, np.pad(u, 1)),
                    energy=energy, iterations=applications)
            last = energy
            if j < _LANCZOS_BASIS:
                w /= beta[j - 1]
                basis.append(w)


def local_wkb_profile(pot: Potential, energy: float, grid: Grid1D,
                      consts: Constants) -> WkbProfile:
    """Local wavenumber, uncertainty scale, and semiclassical validity.

    k(x) = sqrt((E - V)/(2 f^2/m)), delta_x = 1/(2k); the validity metric
    |V'| * delta_x / (2 (E - V)) is the fractional potential change across
    one uncertainty interval and must stay small for a trajectory picture
    to hold.  Classically forbidden points are NaN-masked.
    """
    x = grid.x
    v, dv, _ = eval_potential(pot, x)
    allowed = energy - v > 0
    if not np.any(allowed):
        raise ValueError("no classically allowed region at this energy")
    four_c = 2.0 * consts.f**2 / consts.mass
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(allowed, np.sqrt(np.maximum(energy - v, 0.0) / four_c), np.nan)
        delta_x = 1.0 / (2.0 * k)
        validity = np.abs(dv) * delta_x / (2.0 * (energy - v))
        validity = np.where(allowed, validity, np.nan)
    return WkbProfile(grid=grid, energy=energy, k_of_x=k,
                      delta_x_of_x=delta_x, validity_metric=validity,
                      allowed_mask=allowed)


def appendix_a_consistency(pot: Potential, energy: float, grid: Grid1D,
                           consts: Constants, kinetic_fraction: float = 0.1) -> float:
    """Recover the force from the uncertainty profile and compare to -V'.

    From delta_x(x) = 1/(2k) take p = f/delta_x, apply the uncertainty form
    of the equation of motion pdot = -p*xdot*(d ln delta_x/dx) with the
    logarithmic slope from divided differences of the sampled delta_x
    series, and compare against the analytic -V'(x).  Returns the max
    relative residual over the region where E - V >= kinetic_fraction*E.
    """
    profile = local_wkb_profile(pot, energy, grid, consts)
    x = grid.x
    v, dv, _ = eval_potential(pot, x)
    admitted = (energy - v) >= kinetic_fraction * energy
    if not np.any(admitted):
        raise ValueError("empty admitted region")
    # largest contiguous admitted block keeps the difference stencil clean
    idx = np.flatnonzero(admitted)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    segments = np.split(idx, breaks + 1)
    seg = max(segments, key=len)
    if len(seg) < 5:
        raise ValueError("admitted region too short for stencils")
    dx_series = profile.delta_x_of_x[seg]
    p_series = consts.f / dx_series
    slope = np.gradient(np.log(dx_series), grid.h, edge_order=2)
    pdot_pred = -(p_series**2 / consts.mass) * slope
    residual = np.abs(pdot_pred + dv[seg])
    force_scale = np.abs(dv[seg]).max()
    if force_scale == 0.0:
        return 0.0
    return float(residual.max() / force_scale)


@dataclass(frozen=True)
class DispersionResult:
    omega_kg: float
    kg_residual: float
    omega_nr: float
    nr_residual: float


def dispersion_checks(params: DispersionParams, consts: Constants) -> DispersionResult:
    """Plane-wave residuals of the relativistic and free-particle equations.

    Substituting exp(i(kx - w t)) into the second-order relativistic wave
    equation gives w^2/c^2 = k^2 + (m0 c / 2f)^2; each term is evaluated
    separately and the normalized leftover is returned.  The
    non-relativistic branch checks w = (2f) k^2 / (2m).
    """
    k, m0, c, f = params.k, params.m0, params.c, params.f
    if not math.isfinite(k):
        raise ValueError("wavenumber must be finite")
    if m0 < 0:
        raise ValueError("rest mass must be non-negative")
    mass_term = (m0 * c / (2.0 * f)) ** 2
    omega_kg = c * math.sqrt(k * k + mass_term)
    terms = (k * k, -((omega_kg / c) ** 2), mass_term)
    scale = max(abs(t) for t in terms) or 1.0
    kg_residual = abs(sum(terms)) / scale

    hbar_eff = 2.0 * f
    omega_nr = hbar_eff * k * k / (2.0 * consts.mass)
    nr_terms = (hbar_eff * omega_nr, -(hbar_eff**2) * k * k / (2.0 * consts.mass))
    nr_scale = max(abs(t) for t in nr_terms) or 1.0
    nr_residual = abs(sum(nr_terms)) / nr_scale
    return DispersionResult(omega_kg=omega_kg, kg_residual=kg_residual,
                            omega_nr=omega_nr, nr_residual=nr_residual)


def bohm_adiabaticity_report(pot: Potential, energy: float, grid: Grid1D,
                             consts: Constants) -> dict:
    """Level-spacing form of the adiabatic criterion, reported not asserted.

    Estimates h * max|dV/dt| / (Delta E)^2 with dV/dt taken along the
    classical motion at this energy and Delta E the lowest level spacing
    from the eigensolver.
    """
    profile = local_wkb_profile(pot, energy, grid, consts)
    v, dv, _ = eval_potential(pot, grid.x)
    ok = profile.allowed_mask
    p_local = 2.0 * consts.f * profile.k_of_x[ok]
    dv_dt = np.abs(dv[ok]) * p_local / consts.mass
    sol = solve_tise(pot, grid, 2, consts)
    spacing = float(sol.energies[1] - sol.energies[0])
    ratio = consts.h * float(np.nanmax(dv_dt)) / spacing**2 if spacing else float("inf")
    return {"max_dv_dt": float(np.nanmax(dv_dt)),
            "level_spacing": spacing,
            "bohm_ratio": ratio}
