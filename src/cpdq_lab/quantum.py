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

The variational ground state applies the exact sine-basis kinetic
exponential, a Toeplitz-plus-Hankel operator, as one real convolution at
a fast FFT length, whatever the grid's DST-I length N (on the n = 2000
grids of the bundled scenario and criterion 5 a DST-I pair would run
pocketfft's Bluestein algorithm, since 2(N+1) = 2 * 1999).

scipy is loaded inside the two solvers that use it, so a process that
never calls them starts without it.  variational_ground_state imports
scipy.fft.  solve_tise calls LAPACK's dstebz (and, once its states are
read, dstein) through _lapack, which loads scipy's compiled wrapper
scipy/linalg/_flapack from its file: the scipy.linalg package init, most
of a cold quantum run's import time, never runs.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._schema import (_FRACTION, _NON_NEGATIVE, _NUMBER, _POSITIVE,
                      check_args, check_fields)
from .core import Constants, Potential, PotentialKind, finite_potential


class ConvergenceError(RuntimeError):
    """Iteration cap reached; carries the last iterate."""

    def __init__(self, msg, psi=None, energy=None, iterations=None):
        super().__init__(msg)
        self.psi = psi
        self.energy = energy
        self.iterations = iterations


class UnboundStateWarning(RuntimeWarning):
    pass


@dataclass(frozen=True)
class Grid1D:
    x_min: float = field(metadata=_NUMBER)
    x_max: float = field(metadata=_NUMBER)
    n: int = field(metadata={"type": "integer", "minimum": 64,
                             "maximum": 1_000_000})

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.h < math.inf:
            raise ValueError("x_max must exceed x_min; need 0 < h < inf")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class GridProblem:
    """The operator -(2 f^2/m) psi'' + V psi on a grid, Dirichlet ends.

    Checks that the grid lies inside an infinite well (V = 0 between walls
    that the ends represent) and that coeff = 2 f^2/m is finite; `sample`
    (V and V' on the grid, finite) and `kinetic` (coeff/h^2, from an h^2
    that is a positive finite double, itself one) are checked on their
    first read.  Each ValueError's message is the line the CLI prints.
    """

    potential: Potential
    grid: Grid1D
    consts: Constants
    coeff: float = field(init=False)

    def __post_init__(self):
        pot, grid, consts = self.potential, self.grid, self.consts
        if not np.all(pot.contains((grid.x_min, grid.x_max))):
            raise ValueError("grid: grid must lie inside the well")
        try:
            coeff = 2.0 * consts.f**2 / consts.mass
        except OverflowError:
            coeff = math.inf
        if not coeff < math.inf:
            raise ValueError("constants: 2 f^2/mass overflows on the grid")
        object.__setattr__(self, "coeff", coeff)

    @functools.cached_property
    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        return finite_potential(self.potential, self.grid.x, "on the grid")

    @functools.cached_property
    def kinetic(self) -> float:
        h = self.grid.h
        try:
            h2 = h**2
        except OverflowError:
            h2 = math.inf
        if not 0.0 < h2 < math.inf:
            raise ValueError(f"grid: grid spacing h = {h!r} has no positive "
                             f"finite square")
        kinetic = self.coeff / h2
        if not kinetic < math.inf:
            raise ValueError("constants: 2 f^2/mass overflows on the grid")
        if not kinetic > 0.0:
            raise ValueError("constants: 2 f^2/mass underflows on the grid")
        return kinetic

    def check_n_states(self, n_states: int) -> None:
        """ValueError where n_states exceeds the grid's interior."""
        if n_states > self.grid.n - 2:
            raise ValueError("n_states exceeds interior grid dimension")


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
    def gaussian(grid: Grid1D, sigma: float, k: float = 0.0) -> "WaveFunction":
        """Gaussian about x = 0 whose |psi|^2 has standard deviation sigma."""
        x = grid.x
        env = np.exp(-(x ** 2) / (4.0 * sigma**2))
        if k:  # the carrier e^{i 0 x} is exactly 1 and is left out
            env = env * np.exp(1j * k * x)
        return WaveFunction.normalized(grid, env)

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
    """Lowest eigenpairs from solve_tise, in ascending order.  The states
    are computed on the first read of `states`, by _vectors."""

    energies: np.ndarray
    _vectors: Callable[[], list] = field(repr=False, compare=False)

    @functools.cached_property
    def states(self) -> list:
        return self._vectors()


@dataclass(frozen=True)
class FisherMetrics:
    fi_classical: float
    fi_generalized: float
    fisher_length: float
    correction: float
    decomposition_residual: float


@dataclass(frozen=True)
class WkbProfile:
    """local_wkb_profile of a GridProblem at an energy."""

    problem: GridProblem
    energy: float
    k_of_x: np.ndarray
    delta_x_of_x: np.ndarray
    validity_metric: np.ndarray
    allowed_mask: np.ndarray


# OpenBLAS splits a long product across its threads, so its rounding would
# depend on OPENBLAS_NUM_THREADS.  A product over more terms than this is
# summed in pieces of this length, in order, and one with a longer output
# is computed in column pieces of this length; each piece runs on one thread.
_DOT_CHUNK = 8192


def _dot(x: np.ndarray, y: np.ndarray):
    """x @ y, contracting x's last axis with y's first; past _DOT_CHUNK
    terms it is the in-order sum of the pieces' products."""
    n = y.shape[0]
    if n <= _DOT_CHUNK:
        return x @ y
    return sum(x[..., i:i + _DOT_CHUNK] @ y[i:i + _DOT_CHUNK]
               for i in range(0, n, _DOT_CHUNK))


def _dot_wide(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for a short contraction and a 2-d y, in pieces of _DOT_CHUNK
    of y's columns."""
    if y.shape[1] <= _DOT_CHUNK:
        return x @ y
    out = np.empty(x.shape[:-1] + y.shape[1:])
    for i in range(0, y.shape[1], _DOT_CHUNK):
        out[..., i:i + _DOT_CHUNK] = x @ y[:, i:i + _DOT_CHUNK]
    return out


def _quad(y: np.ndarray, h: float, periodic: bool = False) -> float:
    if periodic:
        return float(np.sum(y[:-1]) * h)
    return float(np.trapezoid(y, dx=h))


def _sign_fixed(full: np.ndarray) -> np.ndarray:
    """Deterministic sign: the first significantly nonzero lobe positive."""
    if full[np.argmax(np.abs(full) > 1e-3 * np.abs(full).max())] < 0:
        return -full
    return full


@functools.cache
def _lapack():
    """scipy's f2py LAPACK wrapper, for dstebz and dstein.

    The extension scipy/linalg/_flapack is loaded from its file under its
    own name and left out of sys.modules, so scipy.linalg is not imported:
    on a 2-vCPU x86_64 host its package init took 0.24-0.36 s of a cold
    start, the wrapper about 5 ms.  Where the file is missing or does not
    load, the public scipy.linalg.lapack, which exposes the same routines,
    stands in.
    """
    import scipy
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader

    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is loaded already
        return sys.modules[name]
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in EXTENSION_SUFFIXES:
        loader = ExtensionFileLoader(name,
                                     os.path.join(folder, "_flapack" + suffix))
        try:
            module = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
        except (ImportError, OSError):
            continue
        finally:  # creating an extension module enters it in sys.modules
            sys.modules.pop(name, None)
    from scipy.linalg import lapack
    return lapack


# argument schemas, checked on each call (check_args) and read by cli.KINDS
_TISE_ARGS = {"n_states": {"type": "integer", "minimum": 1}}


def solve_tise(pot: Potential, grid: Grid1D, n_states: int,
               consts: Constants) -> EigenSolution:
    """Lowest eigenpairs of -(2 f^2/m) psi'' + V psi = E psi.

    3-point Dirichlet finite differences; O(h^2) accurate.  The
    tridiagonal eigenproblem is solved by LAPACK.  dstebz bisects for the
    lowest n_states eigenvalues, block-ordered, in this call.  dstein
    computes their vectors by inverse iteration only on the first read of
    the solution's `states`, which come back normalized, real, sign-fixed,
    with n nodes for state n.  A nonzero info raises ConvergenceError:
    dstebz's from this call, dstein's from that read.
    """
    check_args(_TISE_ARGS, locals())
    problem = GridProblem(pot, grid, consts)
    problem.check_n_states(n_states)
    kinetic = problem.kinetic
    v = problem.sample[0]
    diag = 2.0 * kinetic + v[1:-1]
    off = np.full(grid.n - 3, -kinetic)
    if not np.isfinite(diag).all():
        raise ValueError("array must not contain infs or NaNs")
    # dstebz is wrong below sqrt(tiny) and from sqrt(huge)/2 on, dstein
    # NaN from about 1e149 at N = 1998: scale into range as dstevx does
    top = max(np.abs(diag).max(), kinetic)
    scale = 1.0
    if not 2.0**-400 <= top <= 2.0**400:
        scale = math.ldexp(1.0, -math.frexp(top)[1])
        diag, off = diag * scale, off * scale
    lapack = _lapack()
    # range 2: eigenvalues 1..n_states by index (vl, vu unused); tol 0:
    # LAPACK's default; order "B": grouped by split block, as dstein needs
    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1,
                                               n_states, 0.0, "B")
    if info:
        raise ConvergenceError(f"LAPACK dstebz failed with info={info}")
    w = w[:m]
    order = np.argsort(w)  # block order to ascending
    energies = w[order] / scale
    if pot.kind is not PotentialKind.INFINITE_WELL:
        edge_v = min(v[0], v[-1])
        if energies[-1] > edge_v:
            warnings.warn("requested states extend above the edge potential; "
                          "they are not bound on this grid", UnboundStateWarning)

    def states() -> list:
        vecs, info = lapack.dstein(diag, off, w, iblock, isplit)
        if info:
            raise ConvergenceError(f"LAPACK dstein failed with info={info}")
        out = []
        for i in order:
            full = np.zeros(grid.n)
            full[1:-1] = vecs[:, i]
            full /= math.sqrt(float(np.trapezoid(full**2, dx=grid.h)))
            full = _sign_fixed(full)
            out.append(WaveFunction(grid=grid, values=full.astype(complex)))
        return out
    return EigenSolution(energies=energies, _vectors=states)


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


def cr_bound_check(metrics: FisherMetrics, delta_x: float) -> float:
    """Margin (delta_x)^2 * integral(4|psi'|^2) - 1 of the generalized
    bound, from an amplitude's fisher_metrics."""
    return delta_x**2 * metrics.fi_generalized - 1.0


@dataclass(frozen=True)
class VariationalResult:
    psi: WaveFunction
    energy: float
    iterations: int


# Lanczos vectors held at once.  A full basis restarts from its top
# _THICK_KEEP Ritz vectors and the residual direction (a thick restart).
# On the n = 2000 oscillator that takes 48 applications of P, where an
# explicit restart from the top Ritz vector alone took 84 and an
# unrestarted basis 43; 16 keeps the solve's extra memory to about 16 n
# floats.
_LANCZOS_BASIS = 16
_THICK_KEEP = 4
# tau, the imaginary-time step of the descent's propagator P
_TAU = 0.01


def _kinetic_step(exp_t: np.ndarray):
    """The sine-basis kinetic exponential w -> idst(exp_t * dst(w)) on N
    interior points, as one real convolution at a fast length.

    The operator S diag(exp_t) S / (2(N+1)) lies in the tau algebra the
    DST-I diagonalises (Bini and Capovani, Linear Algebra Appl. 52/53
    (1983) 99): it is Toeplitz-plus-Hankel, entry (j, l) = c(j - l) -
    c(j + l) with the even kernel c(d) = sum_m exp_t[m] cos(pi m d /
    (N+1)) / (N+1), one irfft of length P = 2(N+1).  The step is then a
    real convolution at the fast length L >= 2N - 1: with X the length-L
    rfft of w, conj(X) is the transform of w reflected about index 0, so
    the Hankel sum needs no second forward transform and no phase factor.
    A DST-I pair computes the same step through an FFT of length P, which
    pocketfft runs by Bluestein's algorithm where P's largest prime factor
    p has p^2 > P.  Timed on a 2-vCPU x86_64 host, the convolution is
    within a few percent of the pair at small fast N and faster at
    Bluestein and large N (106 against 592 us at N = 1998, 146 against
    246 us at N = 4094).
    """
    from scipy.fft import irfft, next_fast_len, rfft

    n = len(exp_t)
    p_fft = 2 * (n + 1)
    c = irfft(np.concatenate(([0.0], exp_t, [0.0])), p_fft)
    size = next_fast_len(2 * n - 1, real=True)
    toeplitz = np.zeros(size)  # c(j - l), negative lags wrapped
    toeplitz[:n] = c[:n]
    toeplitz[size - n + 1:] = c[n - 1:0:-1]
    hankel = np.zeros(size)  # c(j + l + 2) at j + l, 0-based j and l
    hankel[:2 * n - 1] = c[2:2 * n + 1]
    kt, kh = rfft(toeplitz), rfft(hankel)

    def step(w: np.ndarray) -> np.ndarray:
        x = rfft(w, size)
        return irfft(x * kt - x.conj() * kh, size)[:n]
    return step


_VARIATIONAL_ARGS = {"max_iters": {"type": "integer", "minimum": 2},
                     "tol": _POSITIVE}
_MAX_ITERS = 5000


def variational_ground_state(problem: GridProblem,
                             max_iters: int = _MAX_ITERS, tol: float = 1e-10,
                             psi0: WaveFunction | None = None) -> VariationalResult:
    """Minimize the energy functional: the fixed point of imaginary-time descent.

    Imaginary-time descent is power iteration on the symmetric Strang
    propagator P = e^{-tau V/2} S e^{-tau K} S^{-1} e^{-tau V/2}, with S the
    DST-I and the exact sine-basis kinetic exponential.  Its middle factor
    is the equal Toeplitz-plus-Hankel convolution of _kinetic_step, two
    real FFTs at a fast length on N = n - 2 interior points.  Its fixed point,
    the dominant eigenvector of P, is found here by a Lanczos iteration on
    the same P, which reaches it in far fewer applications than the
    descent's e^{-tau (E1 - E0)} per step.  Every new Lanczos vector is
    reorthogonalised against the basis block by classical Gram-Schmidt
    twice (Giraud et al., Numer. Math. 101 (2005) 87).  When the basis holds
    _LANCZOS_BASIS vectors it restarts thick (Wu and Simon, SIAM J. Matrix
    Anal. Appl. 22 (2000) 602): the top _THICK_KEEP Ritz vectors and the
    normalised residual are kept, so the projected matrix is an arrowhead
    (the kept Ritz values, coupled to the residual direction through its
    Gram-Schmidt coefficients) followed by a tridiagonal, and its Ritz
    pairs come from a dense symmetric eigensolve.

    E is the Rayleigh quotient of the sine-basis Hamiltonian at the top
    Ritz vector; its kinetic term comes from the sine coefficients by
    Parseval, |dst(w)|^2 = 2 (N+1) |w|^2.  An application of P costs two
    transforms; E costs one DST-I and is evaluated only where the answer
    needs it.  From the second application on, the iteration stops at the
    first application j where the Lanczos residual estimate |beta_j s_j| is
    at most tol * theta_j and E changed by less than tol relative from the
    previous application's Ritz vector; E is evaluated only once the first
    test holds.  An invariant subspace (beta_j at rounding level, at most
    eps * theta_j) returns its exact Ritz pair.  `iterations` counts
    applications of P, and max_iters caps them; an underflow to zero or the
    cap raises ConvergenceError with the last Ritz vector and its E.  The
    minimum agrees with the finite-difference eigensolver to O(h^2).
    """
    check_args(_VARIATIONAL_ARGS, locals())
    problem.kinetic  # raises where h^2 or 2 f^2/(m h^2) is out of range
    v_int = problem.sample[0][1:-1]
    from scipy.fft import dst

    grid, coeff = problem.grid, problem.coeff
    x, h = grid.x, grid.h
    n_int = grid.n - 2
    k_modes = np.pi * np.arange(1, n_int + 1) / (h * (grid.n - 1))
    exp_v = np.exp(-0.5 * _TAU * v_int)
    kinetic_eig = coeff * k_modes**2
    kinetic_step = _kinetic_step(np.exp(-_TAU * coeff * k_modes**2))

    def rayleigh(w: np.ndarray) -> float:
        b = dst(w, type=1)
        kinetic = _dot(kinetic_eig, b * b) / (2.0 * (n_int + 1))
        return float((kinetic + _dot(v_int, w * w)) / _dot(w, w))

    def ritz(s: np.ndarray) -> np.ndarray:
        return _dot_wide(s, basis[:s.shape[-1]])

    if psi0 is not None:
        u = np.real(psi0.values[1:-1])
    else:
        u = np.exp(-((x[1:-1] - 0.5 * (x[0] + x[-1])) / (0.25 * (x[-1] - x[0]))) ** 2)

    basis = np.empty((_LANCZOS_BASIS, n_int))  # the Lanczos vectors in rows :m
    basis[0] = u / math.sqrt(float(_dot(u, u)))
    m = 1
    proj = np.zeros((_LANCZOS_BASIS, _LANCZOS_BASIS))  # P on the basis
    kept = 0  # Ritz vectors kept by the last restart
    prev = last = None  # previous application's Ritz coefficients and E
    applications = 0
    while True:
        w = exp_v * kinetic_step(exp_v * basis[m - 1])
        applications += 1
        proj[m - 1, m - 1] = _dot(basis[m - 1], w)
        gs = 0.0
        for _ in range(2):  # classical Gram-Schmidt, twice is enough
            c = _dot(basis[:m], w)
            w -= _dot_wide(c, basis[:m])
            gs += c
        if m - 1 == kept:
            proj[kept, :kept] = proj[:kept, kept] = gs[:kept]
        beta = math.sqrt(float(_dot(w, w)))
        thetas, vecs = np.linalg.eigh(proj[:m, :m])
        theta, s = thetas[-1], vecs[:, -1]
        if not theta > 0.0:
            raise ConvergenceError("the propagator underflows to zero",
                                   energy=rayleigh(ritz(s)),
                                   iterations=applications)
        u = energy = None
        done = beta <= np.finfo(float).eps * theta
        if not done and prev is not None and abs(beta * s[-1]) <= tol * theta:
            u = ritz(s)
            energy = rayleigh(u)
            if last is None:
                last = rayleigh(ritz(prev))
            done = abs(energy - last) < tol * max(abs(energy), 1e-300)
        last = energy
        if done or applications >= max_iters:
            if u is None:
                u = ritz(s)
                energy = rayleigh(u)
            if done:
                full = _sign_fixed(np.pad(u, 1))
                return VariationalResult(psi=WaveFunction.normalized(grid, full),
                                         energy=energy, iterations=applications)
            raise ConvergenceError(
                "Lanczos hit the application cap",
                psi=WaveFunction.normalized(grid, np.pad(u, 1)),
                energy=energy, iterations=applications)
        w /= beta
        if m < _LANCZOS_BASIS:
            proj[m - 1, m] = proj[m, m - 1] = beta
            prev = s
        else:  # thick restart: the top Ritz vectors, best first, then w
            kept = m = _THICK_KEEP
            basis[:kept] = ritz(vecs[:, :-kept - 1:-1].T)
            proj[:] = 0.0
            proj[:kept, :kept] = np.diag(thetas[:-kept - 1:-1])
            prev = np.ones(1)
        basis[m] = w
        m += 1


def local_wkb_profile(problem: GridProblem, energy: float) -> WkbProfile:
    """Local wavenumber, uncertainty scale, and semiclassical validity.

    k(x) = sqrt((E - V)/(2 f^2/m)) from problem's sample and coeff, and
    delta_x = 1/(2k); the validity metric |V'| * delta_x / (2 (E - V)) is
    the fractional potential change across one uncertainty interval and
    must stay small for a trajectory picture to hold.  Classically
    forbidden points are NaN-masked.  ValueError if E - V overflows, if no
    point is allowed, or if an allowed k^2 is not positive and finite.
    """
    v, dv = problem.sample
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gap = energy - v
        allowed = gap > 0
        k = np.sqrt(np.where(allowed, gap, np.nan) / problem.coeff)
        delta_x = 1.0 / (2.0 * k)
        validity = np.where(allowed, np.abs(dv) * delta_x / (2.0 * gap), np.nan)
    if np.isinf(gap).any():
        raise ValueError("E - V overflows on the grid")
    if not np.any(allowed):
        raise ValueError("no classically allowed region at this energy")
    if not ((k > 0) & (k < math.inf))[allowed].all():
        raise ValueError("k^2 = (E - V)/(2 f^2/mass) is not positive and "
                         "finite on the grid")
    return WkbProfile(problem, energy, k, delta_x, validity, allowed)


_ADMITTED_ARGS = {"kinetic_fraction": _FRACTION}


def admitted_block(profile: WkbProfile,
                   kinetic_fraction: float = 0.1) -> np.ndarray:
    """Indices of the largest contiguous block of the profile's allowed
    points where E - V >= kinetic_fraction*E (for E <= 0 the second test
    alone would admit forbidden points).

    Raises ValueError if the block is shorter than the 5 points the
    difference stencils need.
    """
    check_args(_ADMITTED_ARGS, locals())
    energy, v = profile.energy, profile.problem.sample[0]
    admitted = profile.allowed_mask & ((energy - v) >= kinetic_fraction * energy)
    idx = np.flatnonzero(admitted)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    seg = max(np.split(idx, breaks + 1), key=len)
    if len(seg) < 5:
        raise ValueError("admitted region too short for stencils")
    return seg


def appendix_a_consistency(profile: WkbProfile, seg: np.ndarray) -> float:
    """Recover the force from the uncertainty profile and compare to -V'.

    From the profile's delta_x(x) = 1/(2k) take p = f/delta_x, apply the
    uncertainty form of the equation of motion pdot = -p*xdot*(d ln
    delta_x/dx) with the logarithmic slope from divided differences, at
    the grid spacing, of the sampled delta_x series, and compare against
    -V'(x) from its problem's sample.  Returns the max relative residual
    over seg, the admitted block (admitted_block), whose contiguity keeps
    the difference stencil clean.
    """
    consts, dv = profile.problem.consts, profile.problem.sample[1]
    dx_series = profile.delta_x_of_x[seg]
    p_series = consts.f / dx_series
    slope = np.gradient(np.log(dx_series), profile.problem.grid.h,
                        edge_order=2)
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


_DISPERSION_ARGS = {"k": _NUMBER, "m0": _NON_NEGATIVE}


def dispersion_checks(k: float, m0: float, consts: Constants) -> DispersionResult:
    """Plane-wave residuals of the relativistic and free-particle equations.

    Substituting exp(i(kx - w t)) into the second-order relativistic wave
    equation gives w^2/c^2 = k^2 + (m0 c / 2f)^2; each term is evaluated
    separately and the normalized leftover is returned.  The
    non-relativistic branch checks w = (2f) k^2 / (2m), with c, f and m
    the run's constants.
    """
    check_args(_DISPERSION_ARGS, locals())
    c, f = consts.c, consts.f
    if not math.isfinite(k):
        raise ValueError("wavenumber must be finite")
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


def bohm_adiabaticity_report(profile: WkbProfile, sol: EigenSolution) -> dict:
    """Level-spacing form of the adiabatic criterion, reported not asserted.

    Estimates h * max|dV/dt| / (Delta E)^2 with dV/dt taken along the
    classical motion of the profile's energy (V' from its problem's
    sample) and Delta E the lowest level spacing of the eigensolution sol,
    which holds at least two states.
    """
    consts, dv = profile.problem.consts, profile.problem.sample[1]
    ok = profile.allowed_mask
    p_local = 2.0 * consts.f * profile.k_of_x[ok]
    dv_dt = np.abs(dv[ok]) * p_local / consts.mass
    spacing = float(sol.energies[1] - sol.energies[0])
    ratio = consts.h * float(np.nanmax(dv_dt)) / spacing**2 if spacing else float("inf")
    return {"max_dv_dt": float(np.nanmax(dv_dt)),
            "level_spacing": spacing,
            "bohm_ratio": ratio}
