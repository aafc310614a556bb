import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdq_lab import (
    DomainError,
    IntegratorConfig,
    Potential,
    cpdq_diagnostics,
    energy_budget,
    integrate_hamilton,
    lagrange_residual,
    natural_units,
    newton_uncertainty_residual,
)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, n_steps=2)


def test_free_motion_exact(consts):
    rec = integrate_hamilton(Potential.free(), 0.0, 2.0,
                             IntegratorConfig(dt=0.01, n_steps=100), consts)
    assert rec.traj.q[-1] == pytest.approx(2.0, abs=1e-13)
    assert np.all(rec.traj.p == 2.0)


def test_harmonic_period_return(consts, harmonic_record):
    # oracle: q = cos t returns to 1 after 2*pi
    dt = harmonic_record.traj.dt
    i = int(round(2 * math.pi / dt))
    assert abs(harmonic_record.traj.q[i] - 1.0) <= 1e-5


def test_linear_force_exact(consts):
    # oracle: q = t^2/2, p = t under unit force from rest
    rec = integrate_hamilton(Potential.linear(1.0), 0.0, 0.0,
                             IntegratorConfig(dt=1e-3, n_steps=2000), consts)
    assert rec.traj.q[-1] == pytest.approx(2.0, abs=1e-10)
    assert rec.traj.p[-1] == pytest.approx(2.0, abs=1e-10)


def test_cpdq_drift_definitional(consts, harmonic_record):
    drift = cpdq_diagnostics(harmonic_record)
    assert drift <= 1e-12
    ok = ~harmonic_record.gap_mask
    assert np.allclose(harmonic_record.f_series[ok], consts.f, rtol=1e-14)


def test_cpdq_mask_nonempty_through_turning_points(consts, harmonic_record):
    assert harmonic_record.gap_mask.any()
    assert not harmonic_record.gap_mask.all()


def test_cpdq_free_particle_constant(consts):
    rec = integrate_hamilton(Potential.free(), 0.0, 2.0,
                             IntegratorConfig(dt=0.01, n_steps=100), consts)
    assert np.all(rec.f_series == consts.f)


def test_newton_residual_free_zero(consts):
    rec = integrate_hamilton(Potential.free(), 0.0, 2.0,
                             IntegratorConfig(dt=0.01, n_steps=100), consts)
    res = newton_uncertainty_residual(rec)
    # both terms vanish; edge stencils leave round-off only
    assert np.nanmax(np.abs(res)) <= 1e-12


def test_newton_residual_harmonic(consts, harmonic_record):
    res = newton_uncertainty_residual(harmonic_record)
    traj = harmonic_record.traj
    # quarter period centred on max speed, away from both turning points
    quarter = (np.abs(traj.p) >= math.sin(math.pi / 4)) & np.isfinite(res)
    rel = np.max(np.abs(res[quarter])) / np.max(np.abs(traj.q))
    assert rel <= 1e-3


def test_newton_residual_detects_perturbation(consts, harmonic_record):
    # perturb the positions without touching p: the band shape delta_q(q)
    # no longer matches the momentum history and the defect must show it
    from cpdq_lab import Trajectory, TrajectoryRecord

    traj = harmonic_record.traj
    q = traj.q + 0.05 * np.sin(3.0 * traj.t)
    pert = TrajectoryRecord.from_trajectory(
        Trajectory(t=traj.t, q=q, p=traj.p, dt=traj.dt, pot=traj.pot,
                   consts=consts))
    res = newton_uncertainty_residual(pert)
    mask = np.isfinite(res) & (np.abs(pert.traj.p) >= 0.7)
    assert np.max(np.abs(res[mask])) > 0.05


def test_newton_matches_lagrange_residual(consts, harmonic_record):
    traj = harmonic_record.traj
    newton = newton_uncertainty_residual(harmonic_record)
    lagrange = lagrange_residual(traj)
    span = (np.abs(traj.p) >= math.sin(math.pi / 4)) & np.isfinite(newton)
    tol = 10.0 * np.max(np.abs(lagrange[span]))
    assert np.max(np.abs(newton[span])) <= tol


def test_energy_budget_harmonic(consts, harmonic_record):
    _, drift = energy_budget(harmonic_record)
    assert drift <= 1e-6


def test_energy_budget_free(consts):
    rec = integrate_hamilton(Potential.free(), 0.0, 2.0,
                             IntegratorConfig(dt=0.01, n_steps=100), consts)
    residual, drift = energy_budget(rec)
    assert np.all(residual == 0.0) and drift == 0.0


def test_energy_budget_linear_per_step(consts):
    rec = integrate_hamilton(Potential.linear(1.0), 0.0, 1.0,
                             IntegratorConfig(dt=1e-3, n_steps=2000), consts)
    residual, _ = energy_budget(rec)
    assert np.max(np.abs(residual)) <= 1e-9 * abs(rec.energy_e[0])


def test_symplectic_bound_100_periods(consts):
    dt = 1e-2
    n = int(round(100 * 2 * math.pi / dt))
    rec = integrate_hamilton(Potential.harmonic(), 1.0, 0.0,
                             IntegratorConfig(dt=dt, n_steps=n), consts)
    e0 = rec.energy_e[0]
    # no secular drift: bounded by C*dt^2*E for all t, C = 1 is generous
    assert np.max(np.abs(rec.energy_e - e0)) <= dt**2 * e0


@given(q0=st.floats(-2, 2), p0=st.floats(-2, 2),
       pot=st.sampled_from([Potential.harmonic(), Potential.linear(0.5),
                            Potential.soft_well(2.0, 0.7), Potential.free()]))
def test_time_reversal(q0, p0, pot):
    consts = natural_units()
    cfg = IntegratorConfig(dt=1e-2, n_steps=200)
    fwd = integrate_hamilton(pot, q0, p0, cfg, consts)
    back = integrate_hamilton(pot, fwd.traj.q[-1], -fwd.traj.p[-1], cfg, consts)
    assert abs(back.traj.q[-1] - q0) <= 1e-10
    assert abs(-back.traj.p[-1] - p0) <= 1e-10


def test_infinite_well_reflections_exact(consts):
    pot = Potential.infinite_well(1.0)
    rec = integrate_hamilton(pot, 0.3, 1.7,
                             IntegratorConfig(dt=0.013, n_steps=5000), consts)
    assert np.all((rec.traj.q >= 0.0) & (rec.traj.q <= 1.0))
    assert np.all(np.abs(rec.traj.p) == 1.7)  # elastic walls, exact speed
    _, drift = energy_budget(rec)
    assert drift == 0.0


def test_infinite_well_multi_crossing_step(consts):
    # one step drifts several box lengths; folding must stay exact
    pot = Potential.infinite_well(0.05)
    rec = integrate_hamilton(pot, 0.02, 3.0,
                             IntegratorConfig(dt=0.1, n_steps=50), consts)
    assert np.all((rec.traj.q >= 0.0) & (rec.traj.q <= 0.05))
    assert np.all(np.abs(rec.traj.p) == 3.0)


def test_initial_position_outside_domain(consts):
    with pytest.raises(DomainError):
        integrate_hamilton(Potential.infinite_well(1.0), 2.0, 1.0,
                           IntegratorConfig(dt=0.01, n_steps=10), consts)


def test_all_masked_record_rejected(consts):
    rec = integrate_hamilton(Potential.free(), 0.0, 0.0,
                             IntegratorConfig(dt=0.01, n_steps=10), consts)
    with pytest.raises(ValueError):
        cpdq_diagnostics(rec)
