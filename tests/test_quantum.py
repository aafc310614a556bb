import importlib.machinery
import math
import re
import sys
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from cpdq_lab import (
    ConvergenceError,
    Grid1D,
    Potential,
    WaveFunction,
    appendix_a_consistency,
    cr_bound_check,
    dispersion_checks,
    eval_potential,
    fisher_metrics,
    local_wkb_profile,
    natural_units,
    solve_tise,
    variational_ground_state,
)
from cpdq_lab import cli, quantum
from cpdq_lab.quantum import (GridProblem, UnboundStateWarning,
                              admitted_block, bohm_adiabaticity_report)


@pytest.fixture(scope="module")
def harmonic_solution(consts):
    return solve_tise(Potential("harmonic"), Grid1D(-10.0, 10.0, 2000), 6,
                      consts)


@pytest.fixture(scope="module")
def well_solution(consts):
    return solve_tise(Potential("infinite_well", width=1.0),
                      Grid1D(0.0, 1.0, 2000), 5, consts)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 32)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 128)
    g = Grid1D(0.0, 1.0, 101)
    assert g.h == pytest.approx(0.01)


class TestEigensolver:
    def test_harmonic_ladder(self, harmonic_solution):
        # oracle: E_n = (n + 1/2) * hbar * omega
        for n in range(6):
            assert harmonic_solution.energies[n] == pytest.approx(
                n + 0.5, rel=1e-3)

    def test_well_ground(self, well_solution):
        # oracle: E_n = n^2 pi^2 hbar^2 / (2 m L^2)
        assert well_solution.energies[0] == pytest.approx(
            math.pi**2 / 2.0, rel=1e-3)

    def test_grid_must_lie_inside_the_well(self, consts):
        well = Potential("infinite_well", width=1.0)
        GridProblem(well, Grid1D(-1e-13, 1.0 + 1e-13, 64), consts)
        for grid in (Grid1D(0.0, 2.0, 200), Grid1D(-2e-12, 1.0, 64)):
            with pytest.raises(ValueError, match="inside the well"):
                solve_tise(well, grid, 1, consts)
        # each wall's slack is 1e-12 widths, not 1e-12
        tiny = Potential("infinite_well", width=1e-20)
        GridProblem(tiny, Grid1D(-1e-33, 1e-20 + 1e-33, 64), consts)
        with pytest.raises(ValueError, match="inside the well"):
            GridProblem(tiny, Grid1D(-9e-13, 9e-13, 200), consts)

    def test_free_particle_large_box_limit(self, consts):
        pot = Potential("free")
        with pytest.warns(UnboundStateWarning):
            e_small = solve_tise(pot, Grid1D(-10, 10, 512), 1,
                                 consts).energies[0]
        with pytest.warns(UnboundStateWarning):
            e_large = solve_tise(pot, Grid1D(-40, 40, 2048), 1,
                                 consts).energies[0]
        assert 0 < e_large < e_small

    def test_normalization_and_edges(self, harmonic_solution):
        for s in harmonic_solution.states:
            assert np.trapezoid(s.prob, dx=s.grid.h) \
                == pytest.approx(1.0, abs=1e-10)
            peak = np.abs(s.values).max()
            assert abs(s.values[0]) <= 1e-8 * peak
            assert abs(s.values[-1]) <= 1e-8 * peak

    def test_orthonormality(self, harmonic_solution):
        h = harmonic_solution.states[0].grid.h
        vecs = np.stack([s.values.real for s in harmonic_solution.states])
        gram = vecs @ vecs.T * h
        assert np.max(np.abs(gram - np.eye(len(vecs)))) <= 1e-8

    def test_node_counts(self, harmonic_solution):
        for n, s in enumerate(harmonic_solution.states):
            v = s.values.real
            sig = v[np.abs(v) > 1e-6 * np.abs(v).max()]
            assert int(np.sum(np.diff(np.sign(sig)) != 0)) == n

    def test_convergence_order(self, consts):
        coarse = solve_tise(Potential("harmonic"), Grid1D(-10, 10, 2000),
                            1, consts).energies[0]
        fine = solve_tise(Potential("harmonic"), Grid1D(-10, 10, 3999),
                          1, consts).energies[0]
        ratio = abs(coarse - 0.5) / abs(fine - 0.5)
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("level", [0, 3])
    def test_error_quarters_per_halving(self, consts, level):
        # O(h^2): each halving of h cuts the error in E_n = n + 1/2 by 4
        errors = [abs(solve_tise(Potential("harmonic"), Grid1D(-10.0, 10.0, n),
                                 4, consts).energies[level] - (level + 0.5))
                  for n in (251, 501, 1001, 2001)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_too_many_states(self, consts):
        with pytest.raises(ValueError):
            solve_tise(Potential("harmonic"), Grid1D(-5, 5, 64), 63, consts)

    def test_unbound_warning(self, consts):
        with pytest.warns(UnboundStateWarning):
            solve_tise(Potential("soft_well", v0=1.0, a=0.5),
                       Grid1D(-20, 20, 512), 8, consts)


def eigh_oracle(pot, grid, n_states, consts):
    """The eigenpairs of solve_tise's operator as the public
    scipy.linalg.eigh_tridiagonal computes them, each state normalized
    and sign-fixed as solve_tise does; the states are rows."""
    coeff = 2.0 * consts.f**2 / consts.mass
    diag = 2.0 * coeff / grid.h**2 + eval_potential(pot, grid.x)[0][1:-1]
    off = np.full(grid.n - 3, -coeff / grid.h**2)
    energies, vecs = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_states - 1))
    states = []
    for vec in vecs.T:
        full = np.pad(vec, 1)
        full /= math.sqrt(float(np.trapezoid(full**2, dx=grid.h)))
        states.append(quantum._sign_fixed(full))
    return energies, np.array(states)


ORACLE_POTENTIALS = {
    "free": (Potential("free"), -5.0, 5.0),
    "linear": (Potential("linear", f0=2.0), -3.0, 3.0),
    "harmonic": (Potential("harmonic"), -10.0, 10.0),
    "infinite_well": (Potential("infinite_well"), 0.0, 1.0),
    "soft_well": (Potential("soft_well", v0=50.0, a=0.2), -3.0, 3.0),
}


@pytest.fixture
def fresh_lapack():
    """_lapack's cache cleared before and after the test."""
    quantum._lapack.cache_clear()
    yield
    quantum._lapack.cache_clear()


class TestLapack:
    @pytest.mark.parametrize("kind", ORACLE_POTENTIALS)
    @pytest.mark.parametrize("n,n_states", [(64, 62), (2000, 1), (8401, 4),
                                            (20_000, 4)])
    def test_matches_eigh_tridiagonal(self, consts, kind, n, n_states):
        """dstebz and dstein give eigh_tridiagonal's values and vectors
        bit for bit: every state of a small grid, and up to 20,000
        points."""
        pot, x_min, x_max = ORACLE_POTENTIALS[kind]
        grid = Grid1D(x_min, x_max, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnboundStateWarning)
            sol = solve_tise(pot, grid, n_states, consts)
        energies, states = eigh_oracle(pot, grid, n_states, consts)
        assert np.array_equal(sol.energies, energies)
        assert np.array_equal([s.values for s in sol.states], states)

    def test_loaded_from_its_file_once(self, fresh_lapack, monkeypatch):
        """The wrapper is loaded from its file under its own name, left
        out of sys.modules, and loaded once."""
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack",
                            raising=False)
        lapack = quantum._lapack()
        assert lapack.__name__ == "scipy.linalg._flapack"
        assert Path(lapack.__file__).parent \
            == Path(scipy.__file__).parent / "linalg"
        assert "scipy.linalg._flapack" not in sys.modules
        assert quantum._lapack() is lapack

    def test_fallback_writes_the_same_bytes(self, tmp_path, fresh_lapack,
                                            monkeypatch):
        """Where the file does not load, scipy.linalg.lapack stands in,
        and a tise run writes the same bytes."""
        scenario = Path(cli.__file__).parent / "scenarios" / "tise_harmonic.json"
        written = {}
        for name, suffixes in (
                ("file", importlib.machinery.EXTENSION_SUFFIXES),
                ("fallback", [".missing" + s for s in
                              importlib.machinery.EXTENSION_SUFFIXES])):
            monkeypatch.delitem(sys.modules, "scipy.linalg._flapack",
                                raising=False)
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                                suffixes)
            quantum._lapack.cache_clear()
            _, code = cli.run_scenario(scenario, tmp_path / name)
            assert code == cli.EXIT_OK
            written[name] = {p.name: p.read_bytes()
                             for p in (tmp_path / name).iterdir()
                             if p.name != "timing.json"}
        assert quantum._lapack() is scipy.linalg.lapack
        assert written["file"] == written["fallback"]
        assert set(written["file"]) == {"energies.csv", "states.csv",
                                        "report.json"}

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_nonzero_info_raises(self, consts, monkeypatch, routine):
        real = quantum._lapack()

        def failing(*args):
            *out, _ = getattr(real, routine)(*args)
            return (*out, 2)
        monkeypatch.setattr(quantum, "_lapack", lambda: types.SimpleNamespace(
            **{"dstebz": real.dstebz, "dstein": real.dstein,
               routine: failing}))
        with pytest.raises(ConvergenceError,
                           match=f"LAPACK {routine} failed with info=2"):
            solve_tise(Potential("harmonic"), Grid1D(-5, 5, 64), 1,
                       consts).states

    def test_dstein_runs_once_on_first_read(self, consts, monkeypatch):
        """dstein runs only when the states are read, and once however
        often they are read; the energies need only dstebz."""
        real = quantum._lapack()
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return real.dstein(*args)
        monkeypatch.setattr(quantum, "_lapack", lambda: types.SimpleNamespace(
            dstebz=real.dstebz, dstein=counted))
        grid = Grid1D(-10.0, 10.0, 2000)
        unread = solve_tise(Potential("harmonic"), grid, 3, consts)
        assert unread.energies[0] == pytest.approx(0.5, rel=1e-3)
        assert calls == []
        sol = solve_tise(Potential("harmonic"), grid, 3, consts)
        first = sol.states
        assert sol.states is first
        assert calls == [grid.n - 2]
        assert len(first) == 3

    def test_dstein_failure_is_not_cached(self, consts, monkeypatch):
        """A failed dstein raises at every read of the states."""
        real = quantum._lapack()
        monkeypatch.setattr(quantum, "_lapack", lambda: types.SimpleNamespace(
            dstebz=real.dstebz,
            dstein=lambda *args: (real.dstein(*args)[0], 1)))
        sol = solve_tise(Potential("harmonic"), Grid1D(-5, 5, 64), 1, consts)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="dstein"):
                sol.states

    @pytest.mark.parametrize("x_max", [1e-170, 1e170],
                             ids=["underflows", "overflows"])
    def test_grid_spacing_without_a_square(self, consts, x_max):
        """A spacing whose square is 0 or past the double range raises a
        ValueError naming it, not ZeroDivisionError or OverflowError."""
        grid = Grid1D(0.0, x_max, 64)
        with pytest.raises(ValueError,
                           match=re.escape(f"grid spacing h = {grid.h!r} has "
                                           f"no positive finite square")):
            solve_tise(Potential("harmonic"), grid, 1, consts)

    @pytest.mark.parametrize("e", [1e-160, 1e-200, 1e150, 1e200])
    def test_operator_outside_lapack_range(self, consts, e):
        """An operator with off-diagonal -e that dstebz and dstein cannot
        take as it is (wrong values below about 1.5e-154 and from 6.7e153,
        NaN vectors from about 1e150 at this N) has the closed-form
        discrete spectrum E_k = 2e(1 - cos(k pi/(N+1))), taken as 4e
        sin^2(k pi/(2(N+1))) without the cancellation, and sine vectors;
        dstebz's default tolerance is about 2e-10 of E_1 here."""
        grid = Grid1D(0.0, 1.0, 2000)
        n = grid.n - 2
        f = math.sqrt(e * grid.h**2 / 2.0)
        e = 2.0 * f**2 / consts.mass / grid.h**2  # as the operator holds it
        sol = solve_tise(Potential("infinite_well"), grid, 3,
                         replace(consts, f=f))
        k = np.arange(1, 4)
        exact = 4.0 * e * np.sin(k * np.pi / (2 * (n + 1)))**2
        assert np.allclose(sol.energies, exact, rtol=1e-8, atol=0.0)
        for kk, state in zip(k, sol.states):
            ref = np.pad(np.sin(kk * np.arange(1, n + 1) * np.pi / (n + 1)), 1)
            ref /= math.sqrt(float(np.trapezoid(ref**2, dx=grid.h)))
            assert np.allclose(state.values.real, ref, rtol=0.0, atol=1e-8)

    def test_non_finite_operator_rejected(self, consts, monkeypatch):
        """An infinite V is the potential's line, a diagonal past the
        double range keeps scipy's message, and LAPACK is not called."""
        monkeypatch.setattr(quantum, "_lapack", None)
        with pytest.raises(ValueError, match="^potential: harmonic V or V' "
                                             "overflows on the grid$"):
            solve_tise(Potential("harmonic", m=1e300, omega=1e10),
                       Grid1D(-5, 5, 64), 1, consts)
        # 2 f^2/(m h^2) is about 1.5e308, twice it is not a double
        grid = Grid1D(0.0, 1.0, 64)
        f = math.sqrt(1.5e308 * grid.h**2 / 2.0)
        with pytest.raises(ValueError,
                           match="^array must not contain infs or NaNs$"):
            solve_tise(Potential("infinite_well"), grid, 1,
                       replace(consts, f=f))


class TestFisher:
    def test_gaussian_analytic(self, consts):
        # oracle: integral P'^2/P = 1/sigma^2 for a Gaussian density
        g = Grid1D(-12.0, 12.0, 96001)
        psi = WaveFunction.gaussian(g, sigma=1.0)
        fm = fisher_metrics(psi)
        assert fm.fi_classical == pytest.approx(1.0, abs=1e-6)
        assert fm.fi_generalized == pytest.approx(1.0, abs=1e-6)
        assert fm.fisher_length == pytest.approx(1.0, abs=1e-6)

    def test_plane_wave(self, consts):
        k = 2.0
        g = Grid1D(0.0, 4 * 2 * math.pi / k, 1025)
        psi = WaveFunction.plane_wave(g, k)
        fm = fisher_metrics(psi)
        assert fm.fi_generalized == pytest.approx(16.0, abs=1e-10)
        assert abs(fm.fisher_length - 0.25) <= 1e-8
        assert abs(fm.fi_classical) <= 1e-12

    def test_plane_wave_needs_whole_periods(self):
        with pytest.raises(ValueError):
            WaveFunction.plane_wave(Grid1D(0.0, 1.0, 128), 2.0)

    def test_gaussian_times_plane_wave(self, consts):
        # oracle: 4 integral |psi'|^2 = 1/sigma^2 + 4 k^2 = 37
        g = Grid1D(-12.0, 12.0, 8001)
        psi = WaveFunction.gaussian(g, sigma=1.0, k=3.0)
        fm = fisher_metrics(psi)
        assert fm.fi_generalized == pytest.approx(37.0, rel=1e-3)
        assert fm.fi_classical == pytest.approx(1.0, rel=1e-3)
        assert fm.decomposition_residual <= 1e-8 * fm.fi_generalized
        assert fm.correction < 0.0

    def test_well_fisher_lengths(self, well_solution):
        # delta_x = L / (2 n pi) exactly for the box eigenstates
        for n, s in enumerate(well_solution.states, start=1):
            fm = fisher_metrics(s)
            assert fm.fisher_length == pytest.approx(
                1.0 / (2 * n * math.pi), rel=5e-3)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_decomposition_identity_random_amplitudes(self, seed):
        # smooth random complex psi from a handful of Fourier modes
        rng = np.random.default_rng(seed)
        g = Grid1D(-8.0, 8.0, 1024)
        x = g.x
        vals = np.zeros_like(x, dtype=complex)
        for _ in range(4):
            a = rng.normal() + 1j * rng.normal()
            k = rng.uniform(-2.0, 2.0)
            vals += a * np.exp(1j * k * x)
        vals *= np.exp(-(x / 5.0) ** 2)
        psi = WaveFunction.normalized(g, vals)
        fm = fisher_metrics(psi)
        assert fm.decomposition_residual <= 1e-8 * max(fm.fi_generalized, 1.0)
        assert fm.correction <= 0.0
        assert fm.fi_generalized >= fm.fi_classical - 1e-10


class TestCramerRao:
    def test_criterion_4_evaluates_each_amplitude_once(self, monkeypatch):
        """Criterion 4 computes fisher_metrics once per amplitude, and
        cr_bound_check reuses it."""
        from cpdq_lab import acceptance
        points = []

        def counted(psi):
            points.append(len(psi.values))
            return fisher_metrics(psi)
        monkeypatch.setattr(acceptance, "fisher_metrics", counted)
        monkeypatch.setattr(quantum, "fisher_metrics", counted)
        assert all(c.passed for c in acceptance.criterion_4_cramer_rao())
        assert points == [96001, 1025, 8001]

    def test_gaussian_without_carrier_keeps_its_bits(self):
        """At k = 0 the carrier is left out, and the values equal the
        product with e^{i 0 x} bit for bit."""
        g = Grid1D(-12.0, 12.0, 96001)
        env = np.exp(-(g.x ** 2) / 4.0)
        carried = WaveFunction.normalized(g, env * np.exp(1j * 0.0 * g.x))
        values = WaveFunction.gaussian(g, sigma=1.0).values
        assert values.tobytes() == carried.values.tobytes()

    def test_gaussian_equality(self, consts):
        g = Grid1D(-12.0, 12.0, 96001)
        psi = WaveFunction.gaussian(g, sigma=1.0)
        _, sd = psi.mean_and_std()
        assert abs(cr_bound_check(fisher_metrics(psi), sd)) <= 1e-6

    def test_double_hump_strict_inequality(self, consts):
        g = Grid1D(-16.0, 16.0, 4001)
        x = g.x
        hump = (np.exp(-((x - 3) ** 2) / 2) + np.exp(-((x + 3) ** 2) / 2))
        psi = WaveFunction.normalized(g, hump)
        _, sd = psi.mean_and_std()
        assert cr_bound_check(fisher_metrics(psi), sd) > 0.0

    def test_plane_wave_equality(self, consts):
        g = Grid1D(0.0, 4 * math.pi, 1025)
        psi = WaveFunction.plane_wave(g, 2.0)
        assert abs(cr_bound_check(fisher_metrics(psi), 0.25)) <= 1e-8


def dense_descent_operators(grid, consts, tau=0.01):
    """Strang propagator P and sine-basis Hamiltonian H of the harmonic
    (m = omega = 1) descent on the grid interior, as dense matrices built
    from the explicit DST-I matrix S (S @ S = 2 (N+1) I)."""
    x = grid.x[1:-1]
    modes = np.arange(1, len(x) + 1)
    s = 2.0 * np.sin(np.pi * np.outer(modes, modes) / (len(x) + 1))
    kinetic = (2.0 * consts.f**2 / consts.mass
               * (np.pi * modes / (grid.x_max - grid.x_min)) ** 2)
    half_v = np.exp(-0.25 * tau * x**2)
    scale = 2.0 * (len(x) + 1)
    p = (half_v[:, None] * (s * np.exp(-tau * kinetic)) @ s
         * half_v[None, :]) / scale
    h = (s * kinetic) @ s / scale + np.diag(0.5 * x**2)
    return p, h


def dense_ground_on(n, consts):
    """Top eigenvector of the dense P on an n-point grid and its energy."""
    grid = Grid1D(-6.0, 6.0, n)
    p, h = dense_descent_operators(grid, consts)
    top = np.linalg.eigh(p)[1][:, -1]
    top *= np.sign(top.sum())
    return grid, top, float(top @ h @ top)


@pytest.fixture(scope="module")
def dense_ground(consts):
    return dense_ground_on(64, consts)


def sine_transform(v):
    """The DST-I S v from the explicit sine matrix, 2 sin(pi m j / (N+1)),
    built 256 rows at a time; m j is reduced mod 2 (N+1) in integers, so
    every angle lies in [0, 2 pi) and is accurate to rounding."""
    n = len(v)
    j = np.arange(1, n + 1)
    return np.concatenate([
        2.0 * np.sin(np.pi * (np.outer(j[i:i + 256], j) % (2 * (n + 1)))
                     / (n + 1)) @ v
        for i in range(0, n, 256)])


class TestKineticStep:
    # N + 1 = 127, 1999 and 2161 are prime: pocketfft would compute their
    # DST-I by Bluestein; 2 (N+1) = 126, 4000, 8190 and 19000 are smooth
    SLOW = [126, 1998, 2160]
    FAST = [62, 1999, 4094, 9499]

    @pytest.mark.parametrize("n", [62, 126, 1998, 1999, 2160, 4094])
    def test_matches_dense_sine_matrix(self, n):
        # S diag(e) S / (2 (N+1)), since S S = 2 (N+1) I
        rng = np.random.default_rng(n)
        exp_t = rng.uniform(0.0, 1.0, n)
        step = quantum._kinetic_step(exp_t)
        for _ in range(2):
            w = rng.standard_normal(n)
            ref = sine_transform(exp_t * sine_transform(w)) / (2.0 * (n + 1))
            assert np.max(np.abs(step(w) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [126, 1999])
    def test_sine_modes_are_eigenvectors(self, n, consts):
        # on a grid of width 20 the mode sin(pi m j / (N+1)) has wave number
        # k_m = pi m / 20 and decays by exactly e^{-tau c k_m^2}
        c = 2.0 * consts.f**2 / consts.mass
        k = np.pi * np.arange(1, n + 1) / 20.0
        step = quantum._kinetic_step(np.exp(-quantum._TAU * c * k**2))
        j = np.arange(1, n + 1)
        for m in (1, 2, 7, n // 2, n):
            mode = np.sin(np.pi * (m * j % (2 * (n + 1))) / (n + 1))
            decay = math.exp(-quantum._TAU * c * (math.pi * m / 20.0) ** 2)
            assert np.max(np.abs(step(mode) - decay * mode)) <= 1e-14

    @pytest.mark.parametrize("n", SLOW + FAST)
    def test_bluestein_lengths_avoid_the_dst(self, n, monkeypatch):
        # one method at every length: Bluestein and fast lengths alike
        # convolve, and neither scipy.fft.dst nor idst runs
        calls = []
        for name in ("dst", "idst"):
            original = getattr(scipy.fft, name)
            monkeypatch.setattr(scipy.fft, name, lambda *a, _f=original, **k:
                                calls.append(1) or _f(*a, **k))
        quantum._kinetic_step(np.ones(n))(np.ones(n))
        assert calls == []


def ground_state(pot, grid, consts, **kwargs):
    """variational_ground_state on the GridProblem of (pot, grid, consts)."""
    return variational_ground_state(GridProblem(pot, grid, consts), **kwargs)


class TestVariational:
    @pytest.mark.parametrize("n", [64, 128])
    def test_matches_dense_propagator(self, consts, n):
        # N + 1 = 63 and 127: a fast and a Bluestein DST-I length
        grid, top, energy = dense_ground_on(n, consts)
        res = ground_state(Potential("harmonic"), grid, consts)
        inner = res.psi.values.real[1:-1]
        assert np.max(np.abs(inner / np.linalg.norm(inner) - top)) <= 1e-8
        assert res.energy == pytest.approx(energy, rel=1e-12)

    def test_well_energy_closed_form(self, consts):
        # the sine-basis kinetic operator has sin(pi x / width) as its
        # ground state: E = c (pi / width)^2 with c = 2 f^2 / m
        width = 1.5
        res = ground_state(Potential("infinite_well", width=width),
                           Grid1D(0.0, width, 500), consts)
        c = 2.0 * consts.f**2 / consts.mass
        assert res.energy == pytest.approx(c * (math.pi / width) ** 2,
                                           rel=1e-8)

    def test_restarts_reach_the_same_fixed_point(self, consts, monkeypatch):
        grid = Grid1D(-10.0, 10.0, 2000)
        full = ground_state(Potential("harmonic"), grid, consts)
        assert full.iterations > quantum._LANCZOS_BASIS
        monkeypatch.setattr(quantum, "_LANCZOS_BASIS", 8)
        short = ground_state(Potential("harmonic"), grid, consts)
        assert short.iterations > 2 * 8
        for res in (full, short):
            assert abs(res.energy - 0.5) <= 1e-9
        assert np.max(np.abs(short.psi.values - full.psi.values)) \
            <= 1e-7 * np.max(np.abs(full.psi.values))

    def test_thick_restart_matches_an_unrestarted_run(self, consts,
                                                      monkeypatch):
        grid = Grid1D(-10.0, 10.0, 2000)
        thick = ground_state(Potential("harmonic"), grid, consts)
        assert thick.iterations > quantum._LANCZOS_BASIS
        monkeypatch.setattr(quantum, "_LANCZOS_BASIS", 100)
        whole = ground_state(Potential("harmonic"), grid, consts)
        assert whole.iterations < 100
        assert thick.energy == pytest.approx(whole.energy, rel=1e-12)
        assert np.max(np.abs(thick.psi.values - whole.psi.values)) \
            <= 1e-8 * np.max(np.abs(whole.psi.values))

    def test_application_counts(self, consts):
        # an explicit restart from the top Ritz vector alone took 84 on the
        # oscillator; the well converges before the basis fills
        osc = ground_state(Potential("harmonic"), Grid1D(-10.0, 10.0, 2000),
                           consts)
        assert osc.iterations <= 50
        well = ground_state(Potential("infinite_well", width=1.0),
                            Grid1D(0.0, 1.0, 2000), consts)
        assert well.iterations == 7

    @pytest.mark.parametrize("pot,grid", [
        (Potential("harmonic"), Grid1D(-10.0, 10.0, 2000)),
        (Potential("infinite_well", width=1.0), Grid1D(0.0, 1.0, 2000))],
        ids=["harmonic", "infinite_well"])
    def test_short_pieces_change_only_rounding(self, consts, monkeypatch,
                                               pot, grid):
        """Products summed or computed in 500-long pieces, so that every
        product past a piece takes the multi-piece branches of _dot and
        _dot_wide, agree with the default single pieces to rounding."""
        whole = ground_state(pot, grid, consts)
        monkeypatch.setattr(quantum, "_DOT_CHUNK", 500)
        pieces = ground_state(pot, grid, consts)
        assert pieces.iterations == whole.iterations
        assert pieces.energy == pytest.approx(whole.energy, rel=1e-14, abs=0)
        assert np.max(np.abs(pieces.psi.values - whole.psi.values)) \
            <= 1e-13 * np.max(np.abs(whole.psi.values))

    def test_ground_state_has_no_negative_lobe(self, consts):
        res = ground_state(Potential("harmonic"),
                           Grid1D(-10.0, 10.0, 2000), consts)
        psi = res.psi.values.real
        assert psi.min() >= -1e-8 * psi.max()

    def test_bitwise_repeatable(self, consts):
        grid = Grid1D(-10.0, 10.0, 2000)
        a = ground_state(Potential("harmonic"), grid, consts)
        b = ground_state(Potential("harmonic"), grid, consts)
        assert a.psi.values.tobytes() == b.psi.values.tobytes()
        assert (a.energy, a.iterations) == (b.energy, b.iterations)

    def test_exact_start_stops_at_once(self, consts, dense_ground):
        grid, top, energy = dense_ground
        start = WaveFunction(grid=grid, values=np.pad(top, 1).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ground_state(Potential("harmonic"), grid, consts,
                               psi0=start)
        assert res.iterations <= 2
        assert res.energy == pytest.approx(energy, rel=1e-12)

    def test_underflowing_propagator_raises(self, consts):
        # tau V / 2 >= 625 at every grid point: applying P underflows to 0
        with pytest.raises(ConvergenceError, match="underflows") as info:
            ground_state(Potential("harmonic", omega=1e5),
                         Grid1D(-10.0, 10.0, 2000), consts)
        assert info.value.iterations == 1

    def test_fewer_than_two_applications_rejected(self, consts):
        with pytest.raises(ValueError, match="max_iters"):
            ground_state(Potential("harmonic"), Grid1D(-10.0, 10.0, 200),
                         consts, max_iters=1)

    @pytest.mark.parametrize("pot", [
        Potential("harmonic"), Potential("infinite_well", width=1e-170)],
        ids=["harmonic", "infinite_well"])
    def test_grid_spacing_without_a_square(self, consts, pot):
        """Rejected with solve_tise's ValueError, before the kinetic
        eigenvalues overflow into a propagator that underflows."""
        grid = Grid1D(0.0, 1e-170, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=re.escape(f"grid spacing h = {grid.h!r}"
                                               f" has no positive finite "
                                               f"square")):
                ground_state(pot, grid, consts)

    def test_grid_past_the_well_rejected(self, consts, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed before checking the grid")
        for name in ("dst", "idst", "rfft", "irfft"):
            monkeypatch.setattr(scipy.fft, name, no_transform)
        with pytest.raises(ValueError, match="inside the well"):
            ground_state(Potential("infinite_well", width=1.0),
                         Grid1D(0.0, 2.0, 200), consts)

    def test_harmonic(self, consts, harmonic_solution):
        res = ground_state(Potential("harmonic"),
                           Grid1D(-10.0, 10.0, 2000), consts)
        assert res.energy == pytest.approx(harmonic_solution.energies[0],
                                           rel=1e-4)
        assert res.iterations <= 5000

    def test_well(self, consts, well_solution):
        res = ground_state(Potential("infinite_well", width=1.0),
                           Grid1D(0.0, 1.0, 2000), consts)
        assert res.energy == pytest.approx(well_solution.energies[0],
                                           rel=1e-4)

    def test_converged_state_is_fixed_point(self, consts):
        grid = Grid1D(-10.0, 10.0, 2000)
        first = ground_state(Potential("harmonic"), grid, consts)
        again = ground_state(Potential("harmonic"), grid, consts,
                             psi0=first.psi)
        assert again.iterations <= 2
        assert again.energy == pytest.approx(first.energy, rel=1e-9)

    def test_nonconvergence_carries_iterate(self, consts):
        with pytest.raises(ConvergenceError) as info:
            ground_state(Potential("harmonic"),
                         Grid1D(-10.0, 10.0, 2000), consts,
                         max_iters=3, tol=1e-16)
        assert info.value.psi is not None
        assert info.value.iterations == 3
        assert math.isfinite(info.value.energy)

    def test_nonconvergence_after_a_restart_carries_iterate(self, consts):
        assert 40 > quantum._LANCZOS_BASIS
        with pytest.raises(ConvergenceError, match="cap") as info:
            ground_state(Potential("harmonic"),
                         Grid1D(-10.0, 10.0, 2000), consts,
                         max_iters=40, tol=1e-16)
        assert info.value.iterations == 40
        assert math.isfinite(info.value.energy)
        psi = info.value.psi
        assert np.trapezoid(psi.prob, dx=psi.grid.h) == pytest.approx(1.0)
        assert info.value.energy == pytest.approx(0.5, rel=1e-6)


def wkb_profile(pot, energy, grid, consts):
    """local_wkb_profile on the GridProblem of (pot, grid, consts)."""
    return local_wkb_profile(GridProblem(pot, grid, consts), energy)


def force_residual(pot, energy, grid, consts, kinetic_fraction=0.1):
    """appendix_a_consistency on the profile, as a wkb run composes it."""
    profile = wkb_profile(pot, energy, grid, consts)
    return appendix_a_consistency(profile,
                                  admitted_block(profile, kinetic_fraction))


class TestWkb:
    def test_free_particle_validity_zero(self, consts):
        prof = wkb_profile(Potential("free"), 2.0, Grid1D(-5, 5, 256), consts)
        assert np.nanmax(prof.validity_metric) == 0.0

    def test_harmonic_values_at_origin(self, consts):
        # k = sqrt(E / (2 f^2 / m)) = sqrt(20) for E=10 in natural units
        g = Grid1D(-6.0, 6.0, 12001)
        prof = wkb_profile(Potential("harmonic"), 10.0, g, consts)
        mid = 6000
        assert prof.k_of_x[mid] == pytest.approx(math.sqrt(20.0), rel=1e-12)
        assert prof.delta_x_of_x[mid] == pytest.approx(0.1118033988749895,
                                                       rel=1e-10)

    def test_turning_point_masked_divergence(self, consts):
        g = Grid1D(-6.0, 6.0, 12001)
        prof = wkb_profile(Potential("harmonic"), 10.0, g, consts)
        assert np.any(~prof.allowed_mask)
        assert np.all(np.isnan(prof.validity_metric[~prof.allowed_mask]))
        allowed_validity = prof.validity_metric[prof.allowed_mask]
        assert np.nanmax(allowed_validity) > 10.0  # blows up near turning

    @pytest.mark.parametrize("kind,energy,f,named", [
        # 2 f^2/m = 2e-320 is finite, E - V = 10 over it is not
        ("harmonic", 10.0, 1e-160, "k^2 = (E - V)/(2 f^2/mass) is not "
                                   "positive and finite"),
        # 2 f^2/m itself is not, which the problem model rejects
        ("harmonic", 10.0, 1e200, "constants: 2 f^2/mass overflows"),
        # 2 f^2/m = 2e306 is finite, E - V = 1e-20 over it underflows to 0
        ("free", 1e-20, 1e153, "k^2 = (E - V)/(2 f^2/mass) is not "
                               "positive and finite")],
        ids=["k2_overflows", "coefficient_overflows", "k2_underflows"])
    def test_k_squared_out_of_range(self, consts, kind, energy, f, named):
        pot = Potential(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(named)):
                wkb_profile(pot, energy, Grid1D(-4.2, 4.2, 841),
                            replace(consts, f=f))

    def test_no_allowed_region(self, consts):
        with pytest.raises(ValueError):
            wkb_profile(Potential("harmonic"), -1.0, Grid1D(-5, 5, 128),
                        consts)

    def test_wkb_matches_eigenstate_fisher_length(self, consts, well_solution):
        # flat box: local delta_x equals the state's global Fisher length
        for n, s in enumerate(well_solution.states, start=1):
            e_n = well_solution.energies[n - 1]
            prof = wkb_profile(Potential("infinite_well", width=1.0), e_n,
                               Grid1D(0.0, 1.0, 2000), consts)
            valid = prof.validity_metric[prof.allowed_mask]
            assert np.nanmax(valid) <= 0.1
            fm = fisher_metrics(s)
            mid = np.nanmedian(prof.delta_x_of_x)
            assert fm.fisher_length == pytest.approx(mid, rel=5e-2)


class TestForceRecovery:
    def test_harmonic(self, consts):
        res = force_residual(Potential("harmonic"), 10.0,
                             Grid1D(-4.2, 4.2, 8401), consts)
        assert res <= 1e-3

    def test_linear(self, consts):
        res = force_residual(Potential("linear", f0=1.0), 5.0,
                             Grid1D(-4.5, 5.0, 9501), consts)
        assert res <= 1e-3

    def test_free(self, consts):
        res = force_residual(Potential("free"), 2.0,
                             Grid1D(-5.0, 5.0, 512), consts)
        assert res == 0.0

    def test_negative_energy_admits_only_allowed_points(self, consts):
        # V = -q shifted by 2 is V = -q less 2: E = -1 on [-4.5, 5] has the
        # kinetic energy q - 1 that E = 1 has on [-6.5, 3], where a kinetic
        # fraction near 0 admits every allowed point and nothing else
        below = force_residual(Potential("linear", f0=1.0), -1.0,
                               Grid1D(-4.5, 5.0, 400), consts)
        above = force_residual(Potential("linear", f0=1.0), 1.0,
                               Grid1D(-6.5, 3.0, 400), consts,
                               kinetic_fraction=1e-12)
        assert math.isfinite(below)
        assert below == pytest.approx(above, rel=1e-12)


class TestDispersion:
    def test_rest_frequency(self, consts):
        res = dispersion_checks(0.0, 1.0, consts)
        # omega(k=0) = m0 c^2 / (2f) = m0 c^2 / hbar
        assert res.omega_kg == pytest.approx(1.0, abs=1e-15)
        assert res.kg_residual <= 1e-12

    def test_massless_light_cone(self, consts):
        res = dispersion_checks(3.0, 0.0, replace(consts, c=2.0))
        assert res.omega_kg == pytest.approx(6.0, rel=1e-15)

    def test_nonrelativistic_branch(self, consts):
        res = dispersion_checks(2.0, 1.0, consts)
        # hbar k^2 / 2m with hbar = 2f = 1, m = 1
        assert res.omega_nr == pytest.approx(2.0, abs=1e-15)
        assert res.nr_residual <= 1e-12

    def test_rejects_negative_mass(self, consts):
        with pytest.raises(ValueError):
            dispersion_checks(1.0, -1.0, consts)


def test_bohm_report_fields(consts):
    pot, grid = Potential("harmonic"), Grid1D(-6.0, 6.0, 2000)
    rep = bohm_adiabaticity_report(wkb_profile(pot, 10.0, grid, consts),
                                   solve_tise(pot, grid, 2, consts))
    assert set(rep) == {"max_dv_dt", "level_spacing", "bohm_ratio"}
    assert rep["level_spacing"] == pytest.approx(1.0, rel=1e-3)
    # |V'| p / m = |q| sqrt(2E - q^2) peaks at q^2 = E with the value E
    assert rep["max_dv_dt"] == pytest.approx(10.0, rel=1e-6)
    assert rep["bohm_ratio"] > 0.0
