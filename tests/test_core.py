import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdq_lab import (
    DofState,
    DomainError,
    Potential,
    compton_floor,
    eval_potential,
    natural_units,
    si_units,
)
from cpdq_lab.core import delta_q_series, tderiv


def test_natural_unit_defaults():
    c = natural_units()
    assert c.hbar == c.k_boltz == c.mass == c.c == 1.0
    assert c.f == 0.5 and c.f_ref == 0.5


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        dataclasses.replace(natural_units(), f=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(natural_units(), mass=0.0)


def test_harmonic_minimum():
    assert eval_potential(Potential.harmonic(1, 1), 0.0) == (0.0, 0.0, 1.0)


def test_linear_convention():
    # V = -f0*q: constant force +f0
    assert eval_potential(Potential.linear(2.0), 3.0) == (-6.0, -2.0, 0.0)


def test_harmonic_closed_form():
    # oracle: V = m*omega^2*q^2/2 evaluated by hand for m=1, omega=2, q=1
    v, dv, d2v = eval_potential(Potential.harmonic(1, 2), 1.0)
    assert (v, dv, d2v) == (2.0, 4.0, 4.0)


def test_infinite_well_domain():
    pot = Potential.infinite_well(1.0)
    v, dv, _ = eval_potential(pot, 0.5)
    assert v == 0.0 and dv == 0.0
    with pytest.raises(DomainError):
        eval_potential(pot, 1.5)
    with pytest.raises(DomainError):
        eval_potential(pot, np.array([0.2, -0.1]))


@pytest.mark.parametrize("pot,span", [
    (Potential.harmonic(1.0, 2.0), 5.0),
    (Potential.linear(3.0), 5.0),
    (Potential.soft_well(2.0, 0.7), 3.0),
    (Potential.free(), 5.0),
])
def test_derivative_consistency_100_points(pot, span):
    rng = np.random.default_rng(42)
    q = rng.uniform(-span, span, size=100)
    h = 1e-4
    _, dv, _ = eval_potential(pot, q)
    vp, _, _ = eval_potential(pot, q + h)
    vm, _, _ = eval_potential(pot, q - h)
    assert np.max(np.abs(dv - (vp - vm) / (2 * h))) <= 1e-5


def test_second_derivative_consistency():
    pot = Potential.soft_well(2.0, 0.7)
    q = np.linspace(-2, 2, 41)
    h = 1e-4
    _, _, d2v = eval_potential(pot, q)
    _, dvp, _ = eval_potential(pot, q + h)
    _, dvm, _ = eval_potential(pot, q - h)
    assert np.max(np.abs(d2v - (dvp - dvm) / (2 * h))) <= 1e-5


def test_compton_floor_electron():
    # oracle: known electron Compton wavelength 2.42631e-12 m over 4*pi
    got = compton_floor(9.1093837015e-31, si_units())
    assert got == pytest.approx(2.42631023867e-12 / (4 * math.pi), rel=1e-9)


def test_compton_floor_natural_units():
    # h = 2*pi, m = c = 1: wavelength 2*pi, floor 1/2
    assert compton_floor(1.0, natural_units()) == pytest.approx(0.5, abs=1e-15)


def test_compton_floor_monotone_in_mass():
    c = si_units()
    assert compton_floor(1.0, c) < compton_floor(1e-5, c)
    with pytest.raises(ValueError):
        compton_floor(-1.0, c)


@given(p=st.floats(min_value=1e-8, max_value=1e8,
                   allow_nan=False, allow_infinity=False),
       sign=st.sampled_from([-1.0, 1.0]))
def test_product_invariant(p, sign):
    c = natural_units()
    state = DofState.from_phase(0.0, 0.0, sign * p, c)
    assert state.defined
    assert abs(abs(state.p) * state.delta_q - c.f) <= 1e-12 * c.f


def test_turning_point_flagged():
    c = natural_units()
    assert not DofState.from_phase(0.0, 1.0, 0.0, c).defined
    assert not DofState.from_phase(0.0, 1.0, 1e-10, c).defined


def test_delta_q_series_mask():
    c = natural_units()
    dq, gap = delta_q_series(np.array([2.0, 1e-12, -0.5]), c)
    assert gap.tolist() == [False, True, False]
    assert dq[0] == 0.25 and np.isnan(dq[1]) and dq[2] == 1.0


def test_tderiv_exact_on_quadratics():
    # 2nd-order central differences, one-sided 2nd-order at both ends,
    # differentiate a quadratic exactly at every sample
    dt = 0.125
    t = dt * np.arange(9)
    d = tderiv(3.0 - 2.0 * t + 5.0 * t**2, dt)
    assert np.allclose(d, -2.0 + 10.0 * t, rtol=0, atol=1e-12)
