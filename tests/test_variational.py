import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdq_lab import (
    GapError,
    IntegratorConfig,
    Potential,
    Trajectory,
    action_and_variation,
    custom_variation,
    eval_potential,
    first_order_dL,
    integrate_hamilton,
    lagrangian_eval,
    natural_units,
    special_variation,
)
from cpdq_lab.core import tderiv

EPS = 1e-6 * 0.5  # default variation scale, 1e-6 * f


def analytic_harmonic(consts, t0=0.0, t1=math.pi, dt=1e-3):
    """Exact solution q = cos t, p = -sin t of the unit oscillator."""
    t = np.arange(t0, t1 + dt / 2, dt)
    return Trajectory(t=t, q=np.cos(t), p=-np.sin(t), dt=dt,
                      pot=Potential("harmonic"), consts=consts)


def test_lagrangian_free(consts):
    assert lagrangian_eval(3.7, 2.0, Potential("free"), consts) == 2.0


def test_lagrangian_at_rest(consts):
    pot = Potential("harmonic", m=1, omega=1)
    assert lagrangian_eval(1.0, 0.0, pot, consts) == -0.5


def test_lagrangian_closed_form(consts):
    # oracle: qdot^2/2 - omega^2 q^2/2 = 4.5 - 2 for omega=2, q=1, qdot=3
    pot = Potential("harmonic", m=1, omega=2)
    assert lagrangian_eval(1.0, 3.0, pot, consts) == 2.5


def test_trajectory_validation(consts):
    t = np.array([0.0, 1.0, 2.0, 3.1, 4.0])
    with pytest.raises(ValueError):
        Trajectory(t=t, q=t, p=t, dt=1.0, pot=Potential("free"), consts=consts)
    with pytest.raises(ValueError):
        Trajectory(t=t[:3], q=t[:3], p=t[:3], dt=1.0, pot=Potential("free"),
                   consts=consts)


def test_long_trajectory_is_uniform(consts):
    # past t = 8192 a step of arange(n + 1)*dt misses dt by an ulp of t,
    # about 1.8e-12, which a bound of 1e-12 alone rejected
    traj = integrate_hamilton(Potential("harmonic"), 1.0, 0.0,
                              IntegratorConfig(dt=0.1, n_steps=83_000), consts)
    assert np.max(np.abs(np.diff(traj.t) - 0.1)) > 1e-12
    assert traj.t[-1] == pytest.approx(8300.0, rel=1e-15)


@given(dt=st.floats(min_value=1e-6, max_value=1e3),
       n=st.integers(min_value=4, max_value=200_000))
def test_arange_sampling_is_uniform(consts, dt, n):
    # the rounding bound of the docstring admits every t = arange(n + 1)*dt
    t = np.arange(n + 1) * dt
    Trajectory(t=t, q=t, p=t, dt=dt, pot=Potential("free"), consts=consts)


def test_special_variation_constant_momentum(consts):
    t = np.arange(0.0, 1.0, 1e-2)
    traj = Trajectory(t=t, q=2.0 * t, p=np.full_like(t, 2.0), dt=1e-2,
                      pot=Potential("free"), consts=consts)
    var = special_variation(traj, 1e-6)
    assert np.all(var.delta_q == 5e-7)
    assert np.all(var.delta_qdot == 0.0)


def test_special_variation_matches_analytic_momentum(consts):
    # half period away from the turning points: p(t) = -sin t from the oracle
    traj = analytic_harmonic(consts, t0=0.3, t1=math.pi - 0.3)
    var = special_variation(traj, 1e-6)
    assert np.allclose(var.delta_q, 1e-6 / (-np.sin(traj.t)), rtol=1e-13)


def test_special_variation_gap_mask(consts, harmonic_traj):
    var = special_variation(harmonic_traj, EPS)
    expected = np.abs(harmonic_traj.p) <= consts.p_floor
    assert np.array_equal(var.gap_mask, expected)
    assert expected[0]  # starts at a turning point
    assert np.all(np.isnan(var.delta_q[var.gap_mask]))


def test_special_variation_reads_trajectory_gap_mask(consts):
    # one gap rule: the variation is undefined exactly where delta_q is
    traj = analytic_harmonic(replace(consts, p_floor=0.1))
    var = special_variation(traj, EPS)
    assert np.array_equal(var.gap_mask, traj.gap_mask)
    assert np.array_equal(np.isnan(var.delta_q),
                          np.isnan(traj.delta_q_series))
    assert 0 < np.count_nonzero(traj.gap_mask) < len(traj)


@given(scale=st.floats(min_value=1e-9, max_value=1e-3))
def test_special_variation_invariance(scale):
    # p[i]*delta_q[i] == epsilon wherever defined
    consts = natural_units()
    traj = analytic_harmonic(consts, t0=0.2, t1=2.0, dt=5e-3)
    var = special_variation(traj, scale)
    assert np.max(np.abs(traj.p * var.delta_q - scale)) <= 1e-12 * scale


def test_first_order_dL_free_machine_zero(consts):
    t = np.arange(0.0, 2.0, 1e-2)
    traj = Trajectory(t=t, q=2.0 * t, p=np.full_like(t, 2.0), dt=1e-2,
                      pot=Potential("free"), consts=consts)
    var = special_variation(traj, 1e-6)
    assert np.max(np.abs(first_order_dL(traj, var))) == 0.0


def test_first_order_dL_stationary_on_solution(consts):
    traj = analytic_harmonic(consts, t0=0.4, t1=math.pi - 0.4)
    var = special_variation(traj, EPS)
    dl = first_order_dL(traj, var)
    # discretization floor: O(dt^2) * eps * curvature scale
    assert np.nanmax(np.abs(dl)) <= 1e-4 * EPS


def test_first_order_dL_detects_non_solution(consts):
    base = analytic_harmonic(consts, t0=0.4, t1=math.pi - 0.4)
    q = base.q + 0.01 * np.sin(3.0 * base.t)
    p = base.p + 0.03 * np.cos(3.0 * base.t)
    pert = Trajectory(t=base.t, q=q, p=p, dt=base.dt, pot=base.pot,
                      consts=consts)
    dl = first_order_dL(pert, special_variation(pert, EPS))
    assert np.nanmax(np.abs(dl)) > 100 * 1e-4 * EPS


def test_first_order_dL_alignment_error(consts, harmonic_traj):
    short = analytic_harmonic(consts, t0=0.4, t1=1.0)
    var = special_variation(short, EPS)
    with pytest.raises(ValueError):
        first_order_dL(harmonic_traj, var)


def test_residual_bounds_first_order_dL(consts, harmonic_traj):
    # |dL| <= C * eps * residual where the band is well conditioned
    traj = harmonic_traj
    var = special_variation(traj, EPS)
    dl = first_order_dL(traj, var)
    res = tderiv(traj.p, traj.dt) + eval_potential(traj.pot, traj.q)[1]
    mask = np.isfinite(dl) & (np.abs(traj.p) >= 0.5 * np.abs(traj.p).max())
    r = np.max(np.abs(res[mask]))
    assert np.max(np.abs(dl[mask])) <= 100.0 * EPS * r


class TestActionDecomposition:
    def fixture(self, consts):
        traj = analytic_harmonic(consts, t0=0.4, t1=math.pi - 0.4)
        var = special_variation(traj, EPS)
        return traj, var, 10, len(traj) - 10

    def test_identity(self, consts):
        traj, var, i1, i2 = self.fixture(consts)
        action, d_bnd, d_blk, d_dir = action_and_variation(traj, var, i1, i2)
        assert abs(d_dir - d_bnd - d_blk) <= 1e-8 * (abs(action) + EPS)

    def test_boundary_term_cancels_on_solution(self, consts):
        traj, var, i1, i2 = self.fixture(consts)
        _, d_bnd, d_blk, _ = action_and_variation(traj, var, i1, i2)
        assert abs(d_bnd) <= 1e-12 * EPS
        span = (i2 - i1) * traj.dt
        assert abs(d_blk) <= 1e-4 * EPS * 0.5 * span

    def test_fixed_endpoint_variation_nulls_direct(self, consts):
        traj, _, i1, i2 = self.fixture(consts)
        t = traj.t
        window = EPS * np.sin(np.pi * (t - t[i1]) / (t[i2] - t[i1])) ** 2
        window[:i1] = 0.0
        window[i2:] = 0.0
        var = custom_variation(traj, window)
        action, d_bnd, _, d_dir = action_and_variation(traj, var, i1, i2)
        assert d_bnd == 0.0
        span = (i2 - i1) * traj.dt
        assert abs(d_dir) <= 1e-4 * EPS * 0.5 * span + 1e-8 * (abs(action) + EPS)

    def test_non_solution_has_bulk(self, consts):
        traj, _, i1, i2 = self.fixture(consts)
        q = traj.q + 0.01 * np.sin(3.0 * traj.t)
        p = traj.p + 0.03 * np.cos(3.0 * traj.t)
        pert = Trajectory(t=traj.t, q=q, p=p, dt=traj.dt, pot=traj.pot,
                          consts=consts)
        var = special_variation(pert, EPS)
        _, _, d_blk, _ = action_and_variation(pert, var, i1, i2)
        span = (i2 - i1) * traj.dt
        assert abs(d_blk) > 10 * 1e-4 * EPS * 0.5 * span

    def test_gap_rejected(self, consts, harmonic_traj):
        var = special_variation(harmonic_traj, EPS)
        with pytest.raises(GapError):
            action_and_variation(harmonic_traj, var, 0, 100)

    def test_bad_indices(self, consts):
        traj, var, _, _ = self.fixture(consts)
        with pytest.raises(IndexError):
            action_and_variation(traj, var, 50, 10)
