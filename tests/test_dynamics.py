import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdq_lab import (
    DomainError,
    IntegratorConfig,
    ModelViolationError,
    Potential,
    cpdq_diagnostics,
    energy_budget,
    eval_potential,
    integrate_hamilton,
    natural_units,
    newton_uncertainty_residual,
)
from cpdq_lab.core import tderiv
from cpdq_lab.dynamics import TrajectoryProblem


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, n_steps=2)


def test_free_motion_exact(consts):
    traj = integrate_hamilton(Potential("free"), 0.0, 2.0,
                              IntegratorConfig(dt=0.01, n_steps=100), consts)
    assert traj.q[-1] == pytest.approx(2.0, abs=1e-13)
    assert np.all(traj.p == 2.0)


def test_harmonic_period_return(consts, harmonic_traj):
    # oracle: q = cos t returns to 1 after 2*pi
    dt = harmonic_traj.dt
    i = int(round(2 * math.pi / dt))
    assert abs(harmonic_traj.q[i] - 1.0) <= 1e-5


def test_linear_force_exact(consts):
    # oracle: q = t^2/2, p = t under unit force from rest
    traj = integrate_hamilton(Potential("linear", f0=1.0), 0.0, 0.0,
                              IntegratorConfig(dt=1e-3, n_steps=2000), consts)
    assert traj.q[-1] == pytest.approx(2.0, abs=1e-10)
    assert traj.p[-1] == pytest.approx(2.0, abs=1e-10)


def test_cpdq_drift_definitional(consts, harmonic_traj):
    drift = cpdq_diagnostics(harmonic_traj)
    assert drift <= 1e-12
    ok = ~harmonic_traj.gap_mask
    assert np.allclose(harmonic_traj.f_series[ok], consts.f, rtol=1e-14)


def test_returned_series_match_their_formulas(consts):
    # m = 0.7, V = k q^2/2 with k = 1.3 * 1.5^2, and a p_floor wide enough
    # to mask a few samples at each turning point
    c = dataclasses.replace(consts, mass=0.7, p_floor=0.05)
    traj = integrate_hamilton(Potential("harmonic", m=1.3, omega=1.5), 1.0,
                              0.0, IntegratorConfig(dt=1e-2, n_steps=2000), c)
    p, q = traj.p, traj.q
    kinetic = p * p / (2.0 * 0.7)
    potential = 0.5 * (1.3 * 1.5 * 1.5) * q * q
    np.testing.assert_allclose(traj.energy_t, kinetic, rtol=1e-15, atol=0)
    np.testing.assert_allclose(traj.energy_v, potential, rtol=1e-14, atol=0)
    np.testing.assert_allclose(traj.energy_e, kinetic + potential,
                               rtol=1e-14, atol=0)
    gap = np.abs(p) <= 0.05
    assert 0 < np.count_nonzero(gap) < len(traj)
    assert np.array_equal(traj.gap_mask, gap)
    dq = traj.delta_q_series
    assert np.array_equal(np.isnan(dq), gap)
    np.testing.assert_allclose(dq[~gap], 0.5 / np.abs(p[~gap]), rtol=1e-15)
    assert np.array_equal(np.isnan(traj.f_series), gap)
    np.testing.assert_allclose(traj.f_series[~gap], 0.5, rtol=1e-15)
    assert traj.delta_q_series is dq  # computed once, on first use


def test_cpdq_mask_nonempty_through_turning_points(consts, harmonic_traj):
    assert harmonic_traj.gap_mask.any()
    assert not harmonic_traj.gap_mask.all()


def test_cpdq_free_particle_constant(consts):
    traj = integrate_hamilton(Potential("free"), 0.0, 2.0,
                              IntegratorConfig(dt=0.01, n_steps=100), consts)
    assert np.all(traj.f_series == consts.f)


def test_newton_residual_free_zero(consts):
    traj = integrate_hamilton(Potential("free"), 0.0, 2.0,
                              IntegratorConfig(dt=0.01, n_steps=100), consts)
    res = newton_uncertainty_residual(traj)
    # both terms vanish; edge stencils leave round-off only
    assert np.nanmax(np.abs(res)) <= 1e-12


def test_newton_residual_harmonic(consts, harmonic_traj):
    res = newton_uncertainty_residual(harmonic_traj)
    traj = harmonic_traj
    # quarter period centred on max speed, away from both turning points
    quarter = (np.abs(traj.p) >= math.sin(math.pi / 4)) & np.isfinite(res)
    rel = np.max(np.abs(res[quarter])) / np.max(np.abs(traj.q))
    assert rel <= 1e-3


def test_newton_residual_detects_perturbation(consts, harmonic_traj):
    # perturb the positions without touching p: the band shape delta_q(q)
    # no longer matches the momentum history and the defect must show it
    from cpdq_lab import Trajectory

    traj = harmonic_traj
    q = traj.q + 0.05 * np.sin(3.0 * traj.t)
    pert = Trajectory(t=traj.t, q=q, p=traj.p, dt=traj.dt, pot=traj.pot,
                      consts=consts)
    res = newton_uncertainty_residual(pert)
    mask = np.isfinite(res) & (np.abs(pert.p) >= 0.7)
    assert np.max(np.abs(res[mask])) > 0.05


def test_newton_matches_lagrange_residual(consts, harmonic_traj):
    traj = harmonic_traj
    newton = newton_uncertainty_residual(harmonic_traj)
    lagrange = tderiv(traj.p, traj.dt) + eval_potential(traj.pot, traj.q)[1]
    span = (np.abs(traj.p) >= math.sin(math.pi / 4)) & np.isfinite(newton)
    tol = 10.0 * np.max(np.abs(lagrange[span]))
    assert np.max(np.abs(newton[span])) <= tol


def test_energy_budget_harmonic(consts, harmonic_traj):
    assert energy_budget(harmonic_traj) <= 1e-6


def test_energy_budget_free(consts):
    traj = integrate_hamilton(Potential("free"), 0.0, 2.0,
                              IntegratorConfig(dt=0.01, n_steps=100), consts)
    residual = np.diff(traj.energy_t) + np.diff(traj.energy_v)
    assert np.all(residual == 0.0) and energy_budget(traj) == 0.0


def test_energy_budget_linear_per_step(consts):
    traj = integrate_hamilton(Potential("linear", f0=1.0), 0.0, 1.0,
                              IntegratorConfig(dt=1e-3, n_steps=2000), consts)
    residual = np.diff(traj.energy_t) + np.diff(traj.energy_v)
    assert np.max(np.abs(residual)) <= 1e-9 * abs(traj.energy_e[0])


def test_symplectic_bound_100_periods(consts):
    dt = 1e-2
    n = int(round(100 * 2 * math.pi / dt))
    traj = integrate_hamilton(Potential("harmonic"), 1.0, 0.0,
                              IntegratorConfig(dt=dt, n_steps=n), consts)
    e0 = traj.energy_e[0]
    # no secular drift: bounded by C*dt^2*E for all t, C = 1 is generous
    assert np.max(np.abs(traj.energy_e - e0)) <= dt**2 * e0


def soft_well_reference(v0, a, q0, p0, dt, n, m):
    """The soft-well leapfrog written plainly: a force closure and numpy
    item stores, one step at a time."""
    def force(x):
        return -2.0 * v0 * math.tanh(x / a) / (a * math.cosh(x / a) ** 2)

    q = np.empty(n + 1)
    p = np.empty(n + 1)
    q[0], p[0] = q0, p0
    qi, pi = q0, p0
    fi = force(qi)
    for i in range(n):
        ph = pi + 0.5 * dt * fi
        qi = qi + dt * ph / m
        fi = force(qi)
        pi = ph + 0.5 * dt * fi
        q[i + 1], p[i + 1] = qi, pi
    return q, p


@pytest.mark.parametrize("v0,a,q0,p0,dt,n,mass", [
    (1.9, 0.7, 0.3, 0.4, 1e-3, 5000, 1.3),
    # oscillates across q = 0 many times
    (1.1, 0.5, -0.2, 1.1, 1e-2, 4000, 0.9),
    # unbound: leaves the well and drifts out to |q|/a of about 160
    (0.55, 0.05, 0.01, 3.0, 1e-2, 500, 1.7),
    # starts on the plateau at |q|/a = 250, where cosh(q/a)**2 is about 3e216
    (3.0, 0.1, -25.0, 0.1, 0.05, 200, 3.0),
    # integer inputs, as a JSON config gives them
    (3, 2, 1, -1, 0.3, 64, 3),
], ids=["bound", "crosses_zero", "escapes", "plateau", "integers"])
def test_soft_well_matches_plain_leapfrog(v0, a, q0, p0, dt, n, mass):
    """The stepped soft well writes the same bits as the plain leapfrog."""
    traj = integrate_hamilton(Potential("soft_well", v0=v0, a=a), q0, p0,
                              IntegratorConfig(dt=dt, n_steps=n),
                              dataclasses.replace(natural_units(), mass=mass))
    q, p = soft_well_reference(v0, a, q0, p0, dt, n, mass)
    assert np.array_equal(traj.q, q) and np.array_equal(traj.p, p)


@given(q0=st.floats(-2, 2), p0=st.floats(-2, 2),
       pot=st.sampled_from([Potential("harmonic"), Potential("linear", f0=0.5),
                            Potential("soft_well", v0=2.0, a=0.7),
                            Potential("free")]))
def test_time_reversal(q0, p0, pot):
    consts = natural_units()
    cfg = IntegratorConfig(dt=1e-2, n_steps=200)
    fwd = integrate_hamilton(pot, q0, p0, cfg, consts)
    back = integrate_hamilton(pot, fwd.q[-1], -fwd.p[-1], cfg, consts)
    assert abs(back.q[-1] - q0) <= 1e-10
    assert abs(-back.p[-1] - p0) <= 1e-10


def test_infinite_well_reflections_exact(consts):
    pot = Potential("infinite_well", width=1.0)
    traj = integrate_hamilton(pot, 0.3, 1.7,
                              IntegratorConfig(dt=0.013, n_steps=5000), consts)
    assert np.all((traj.q >= 0.0) & (traj.q <= 1.0))
    assert np.all(np.abs(traj.p) == 1.7)  # elastic walls, exact speed
    assert energy_budget(traj) == 0.0


def test_infinite_well_multi_crossing_step(consts):
    # one step drifts several box lengths; folding must stay exact
    pot = Potential("infinite_well", width=0.05)
    traj = integrate_hamilton(pot, 0.02, 3.0,
                              IntegratorConfig(dt=0.1, n_steps=50), consts)
    assert np.all((traj.q >= 0.0) & (traj.q <= 0.05))
    assert np.all(np.abs(traj.p) == 3.0)


def test_initial_position_outside_domain(consts):
    with pytest.raises(DomainError):
        integrate_hamilton(Potential("infinite_well", width=1.0), 2.0, 1.0,
                           IntegratorConfig(dt=0.01, n_steps=10), consts)


def test_all_masked_record_rejected(consts):
    traj = integrate_hamilton(Potential("free"), 0.0, 0.0,
                              IntegratorConfig(dt=0.01, n_steps=10), consts)
    with pytest.raises(ValueError):
        cpdq_diagnostics(traj)


def _verlet_exact(force, q0, p0, dt, n, width=None):
    """n velocity-Verlet steps at unit mass in exact rational arithmetic.

    With a width the drift is folded back into [0, width] one step at a
    time; a step that lands exactly on a wall keeps its momentum.
    """
    q, p = Fraction(q0), Fraction(p0)
    qs, ps = [q], [p]
    for _ in range(n):
        half = p + dt / 2 * force(q)
        q = q + dt * half
        if width is not None:
            y = q % (2 * width)
            q, half = (y, half) if y <= width else (2 * width - y, -half)
        p = half + dt / 2 * force(q)
        qs.append(q)
        ps.append(p)
    return np.array([float(x) for x in qs]), np.array([float(x) for x in ps])


def _closed_form(pot, q0, p0, dt, n):
    traj = integrate_hamilton(pot, float(q0), float(p0),
                              IntegratorConfig(dt=float(dt), n_steps=n),
                              natural_units())
    return traj.q, traj.p


F = Fraction


@pytest.mark.parametrize("pot, force, q0, p0, dt, n, tol", [
    (Potential("free"), lambda q: 0, F(1, 4), F(3, 2), F(1, 8), 40, 0.0),
    (Potential("linear", f0=0.75), lambda q: F(3, 4), F(-1, 2), F(1, 4),
     F(1, 16), 60, 0.0),
    (Potential("harmonic"), lambda q: -q, F(1), F(-1, 2), F(1, 16), 60, 1e-15),
    # k dt^2/m = 63/16 = 3.9375, just inside the stability limit 4; theta
    # is near pi, and the phase j*theta carries about j*theta*eps
    (Potential("harmonic", m=63.0), lambda q: -63 * q, F(1), F(1, 3), F(1, 4),
     60, 60 * math.pi * np.finfo(float).eps),
], ids=["free", "linear", "harmonic", "harmonic_a_3.9375"])
def test_closed_form_matches_exact_verlet(pot, force, q0, p0, dt, n, tol):
    q, p = _closed_form(pot, q0, p0, dt, n)
    q_ref, p_ref = _verlet_exact(force, q0, p0, dt, n)
    scale = max(np.max(np.abs(q_ref)), np.max(np.abs(p_ref)))
    assert np.max(np.abs(q - q_ref)) <= tol * scale
    assert np.max(np.abs(p - p_ref)) <= tol * scale


@pytest.mark.parametrize("width, q0, p0, dt, n", [
    # 5/4 of drift per step: five widths, several walls crossed per step
    (F(1, 4), F(1, 8), F(5, 2), F(1, 2), 40),
    (F(1, 4), F(1, 8), F(-5, 2), F(1, 2), 40),
    # lands exactly on both walls, moving right and moving left
    (F(1), F(1, 2), F(1), F(1, 4), 24),
    (F(1), F(1, 2), F(-1), F(1, 4), 24),
    (F(1), F(0), F(3, 2), F(1, 4), 40),
], ids=["multi_wall_right", "multi_wall_left", "walls_from_right_mover",
        "walls_from_left_mover", "start_on_wall"])
def test_well_matches_exact_folded_verlet(width, q0, p0, dt, n):
    q, p = _closed_form(Potential("infinite_well", width=float(width)),
                        q0, p0, dt, n)
    q_ref, p_ref = _verlet_exact(lambda q: 0, q0, p0, dt, n, width)
    np.testing.assert_array_equal(q, q_ref)
    np.testing.assert_array_equal(p, p_ref)


def test_well_wall_landing_keeps_incoming_momentum(consts):
    # width 1, q0 = 1/2, dt = 1/4: sample 2 lands on one wall, sample 6 on
    # the other, each still moving into it
    pot = Potential("infinite_well", width=1.0)
    cfg = IntegratorConfig(dt=0.25, n_steps=8)
    right = integrate_hamilton(pot, 0.5, 1.0, cfg, consts)
    left = integrate_hamilton(pot, 0.5, -1.0, cfg, consts)
    assert (right.q[2], right.p[2], right.q[6], right.p[6]) == (1, 1, 0, -1)
    assert (left.q[2], left.p[2], left.q[6], left.p[6]) == (0, -1, 1, 1)


def _verlet_loop(force, q0, p0, dt, n, m=1.0):
    """Plain float velocity Verlet, one step at a time."""
    q = np.empty(n + 1)
    p = np.empty(n + 1)
    q[0], p[0] = q0, p0
    f = force(q0)
    for i in range(n):
        half = p[i] + 0.5 * dt * f
        q[i + 1] = q[i] + dt * half / m
        f = force(q[i + 1])
        p[i + 1] = half + 0.5 * dt * f
    return q, p


@pytest.mark.parametrize("pot, force, q0, p0", [
    (Potential("harmonic"), lambda q: -q, 1.0, 0.0),
    (Potential("harmonic", m=2.0, omega=1.3), lambda q: -2.0 * 1.3**2 * q,
     0.7, -1.1),
    (Potential("linear", f0=0.7), lambda q: 0.7, 0.3, -1.0),
], ids=["harmonic", "harmonic_m2_omega1.3", "linear"])
def test_closed_form_matches_step_loop_long_run(consts, pot, force, q0, p0):
    # 62,832 steps, ten periods of the unit oscillator
    dt = 1e-3
    n = int(round(10 * 2 * math.pi / dt))
    traj = integrate_hamilton(pot, q0, p0, IntegratorConfig(dt=dt, n_steps=n),
                              consts)
    q_ref, p_ref = _verlet_loop(force, q0, p0, dt, n)
    scale = max(np.max(np.abs(q_ref)), np.max(np.abs(p_ref)))
    assert np.max(np.abs(traj.q - q_ref)) <= 1e-12 * scale
    assert np.max(np.abs(traj.p - p_ref)) <= 1e-12 * scale


@pytest.mark.parametrize("omega, dt", [(2.0, 1.0), (3.0, 1.0), (1.0, 1e3)],
                         ids=["a_4", "a_9", "a_1e6"])
def test_unstable_harmonic_step_raises(consts, omega, dt):
    with pytest.raises(ModelViolationError, match="unstable"):
        integrate_hamilton(Potential("harmonic", omega=omega), 1.0, 0.0,
                           IntegratorConfig(dt=dt, n_steps=10), consts)


def test_step_limit_only_binds_the_harmonic_kind(consts):
    # k dt^2/m is far past 4 for the stiff oscillator, not for the others
    traj = integrate_hamilton(Potential("linear", f0=2.0), 0.0, 0.0,
                              IntegratorConfig(dt=10.0, n_steps=10), consts)
    assert traj.q[-1] == 0.5 * 2.0 * 100.0**2
    TrajectoryProblem(Potential("harmonic", omega=1.99), 1.0, 0.0,
                      IntegratorConfig(dt=1.0, n_steps=10), consts)
