import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdq_lab import (
    IntegratorConfig,
    PistonConfig,
    Potential,
    RegimeLabel,
    info_ledger,
    integrate_hamilton,
    natural_units,
    piston_regime_metrics,
    piston_simulate,
    rate_bounds,
    regime_classify,
    si_units,
    trajectory_regime_metrics,
)
from cpdq_lab.acceptance import REGIME_EXPECTED, regime_fixture_metrics
from cpdq_lab.info import LN2


class TestLedger:
    def test_conservative_trajectory_pzie(self, consts, harmonic_traj):
        ledger = info_ledger(harmonic_traj)
        assert abs(ledger.total) <= 1e-6

    def test_increments_cancel_pointwise(self, consts, harmonic_traj):
        ledger = info_ledger(harmonic_traj)
        assert np.max(np.abs(ledger.d_i_q + ledger.d_i_p)) <= 1e-12

    def test_free_particle_identically_zero(self, consts):
        rec = integrate_hamilton(Potential("free"), 0.0, 2.0,
                                 IntegratorConfig(dt=0.01, n_steps=100),
                                 consts)
        ledger = info_ledger(rec)
        assert np.all(ledger.d_i_q == 0.0)
        assert np.all(ledger.d_i_p == 0.0)

    def test_sudden_doubling_costs_one_bit(self, consts):
        rec = piston_simulate(
            PistonConfig(l0=1.0, v0=1.0, mode="sudden_jump", l_end=2.0),
            consts)
        ledger = info_ledger(rec)
        assert ledger.total == pytest.approx(-1.0, abs=1e-12)

    def test_piston_ledger_tracks_entropy(self, consts):
        rec = piston_simulate(PistonConfig(l0=1.0, v0=1.0, u=1e-3, l_end=2.0),
                              consts)
        ledger = info_ledger(rec)
        expected = -rec.total_delta_s() / (consts.k_boltz * LN2)
        assert abs(ledger.total - expected) <= 1e-3

    def test_rejects_unknown_record(self, consts):
        with pytest.raises(TypeError):
            info_ledger(object())


class TestClassifier:
    def test_table_quadrants_by_metrics(self):
        thresholds = (1e-6, 0.1)
        assert regime_classify(1e-9, 0.01, 0.01, thresholds).label \
            is RegimeLabel.CLASSICAL_MECHANICS_OR_ADIABATIC_EQ
        assert regime_classify(1e-9, 0.5, 0.01, thresholds).label \
            is RegimeLabel.QUANTUM_MECHANICS
        assert regime_classify(0.3, 0.01, 0.01, thresholds).label \
            is RegimeLabel.NONADIABATIC_EQUILIBRIUM_TD
        assert regime_classify(0.3, 0.5, 0.5, thresholds).label \
            is RegimeLabel.NONADIABATIC_NONEQUILIBRIUM

    @given(mean=st.floats(0, 1), dq=st.floats(0, 1), dp=st.floats(0, 1))
    def test_deterministic(self, mean, dq, dp):
        a = regime_classify(mean, dq, dp)
        b = regime_classify(mean, dq, dp)
        assert a.label is b.label

    @given(mean=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]),
           dq=st.sampled_from([0.0, 0.01, 0.5]),
           dp=st.sampled_from([0.0, 0.01, 0.5]))
    def test_quadrant_logic_exhaustive(self, mean, dq, dp):
        report = regime_classify(mean, dq, dp)
        conserved = mean <= report.tol_zero
        small = dq <= report.tol_small and dp <= report.tol_small
        expected = {
            (True, True): RegimeLabel.CLASSICAL_MECHANICS_OR_ADIABATIC_EQ,
            (True, False): RegimeLabel.QUANTUM_MECHANICS,
            (False, True): RegimeLabel.NONADIABATIC_EQUILIBRIUM_TD,
            (False, False): RegimeLabel.NONADIABATIC_NONEQUILIBRIUM,
        }[(conserved, small)]
        assert report.label is expected

    def test_rejects_negative_metrics(self):
        with pytest.raises(ValueError):
            regime_classify(-1.0, 0.1, 0.1)

    def test_fixtures_map_to_distinct_quadrants(self, consts):
        labels = {}
        for name, expected in REGIME_EXPECTED.items():
            metrics = regime_fixture_metrics(name, consts)
            labels[name] = regime_classify(*metrics).label
            assert labels[name] is expected
        assert len(set(labels.values())) == 4


class TestRateBounds:
    def test_si_one_joule(self):
        rb = rate_bounds(1.0, 300.0, si_units())
        # 4*pi/(h*ln2): frozen arithmetic value
        assert rb.bound_h == pytest.approx(2.736e34, rel=1e-4)
        assert abs(rb.bound_f / rb.bound_h - 1.0) <= 1e-12

    def test_per_interval_cap_constant(self):
        rb = rate_bounds(2.0, 5.0, natural_units())
        assert rb.per_interval_cap == pytest.approx(0.7213475204444817,
                                                    abs=1e-16)

    def test_doubled_f_halves_bound_f(self):
        c1 = natural_units()
        c2 = dataclasses.replace(c1, f=2 * c1.f)
        r1 = rate_bounds(1.0, 1.0, c1)
        r2 = rate_bounds(1.0, 1.0, c2)
        assert r2.bound_f == pytest.approx(r1.bound_f / 2.0, rel=1e-15)
        assert r2.bound_h == r1.bound_h

    @given(energy=st.floats(min_value=1e-20, max_value=1e20),
           theta=st.floats(min_value=1e-3, max_value=1e6))
    def test_comparator_ordering(self, energy, theta):
        rb = rate_bounds(energy, theta, si_units())
        assert rb.bremermann < rb.bound_h < rb.bekenstein

    def test_continuous_bound_closed_form(self):
        consts = natural_units()
        rb = rate_bounds(1.0, 3.0, consts)
        # sqrt(((k theta)^2 / 2f) / 2f)/ln2 = k theta/(2 f ln2)
        assert rb.continuous_bound == pytest.approx(
            3.0 / (2 * consts.f * LN2), rel=1e-14)
        assert rb.accepted_factor_gap == pytest.approx(math.sqrt(math.pi / 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rate_bounds(0.0, 1.0, natural_units())
        with pytest.raises(ValueError):
            rate_bounds(1.0, -1.0, natural_units())


class TestRegimeMetricHelpers:
    def test_trajectory_metrics_small_for_desk_scale(self, consts):
        n = int(round(2 * math.pi / 1e-3))
        rec = integrate_hamilton(Potential("harmonic"), 100.0, 0.0,
                                 IntegratorConfig(dt=1e-3, n_steps=n), consts)
        mean, dq, dp = trajectory_regime_metrics(rec)
        assert mean <= 1e-12
        assert dq == dp and dq <= 0.01

    def test_piston_metrics_need_two_bounces(self, consts):
        rec = piston_simulate(
            PistonConfig(l0=1.0, v0=1.0, mode="sudden_jump", l_end=2.0,
                         t_jump=0.1, t_end=0.2), consts)
        with pytest.raises(ValueError):
            piston_regime_metrics(rec)
