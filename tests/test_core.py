import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdq_lab import (DomainError, Grid1D, IntegratorConfig, PistonConfig,
                      Potential, PotentialKind, eval_potential, natural_units)
from cpdq_lab.core import delta_q_series, tderiv


def test_natural_unit_defaults():
    c = natural_units()
    assert c.hbar == c.k_boltz == c.mass == c.c == 1.0
    assert c.f == 0.5 and c.f_ref == 0.5


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError, match=r"^-1\.0 is less than or equal to "
                                         r"the minimum of 0 at f$"):
        dataclasses.replace(natural_units(), f=-1.0)
    with pytest.raises(ValueError, match=r"^0\.0 is less than or equal to "
                                         r"the minimum of 0 at mass$"):
        dataclasses.replace(natural_units(), mass=0.0)
    with pytest.raises(ValueError, match=r"^0\.0 is less than or equal to "
                                         r"the minimum of 0 at p_floor$"):
        dataclasses.replace(natural_units(), p_floor=0.0)


NAN = float("nan")


@pytest.mark.parametrize("build,message", [
    (lambda: dataclasses.replace(natural_units(), mass=NAN),
     "mass must not be NaN"),
    (lambda: Grid1D(NAN, 1.0, 64), "x_min must not be NaN"),
    (lambda: Grid1D(0.0, NAN, 64), "x_max must not be NaN"),
    (lambda: IntegratorConfig(NAN, 10), "dt must not be NaN"),
    (lambda: Potential("harmonic", omega=NAN), "omega must not be NaN"),
    (lambda: PistonConfig(l0=NAN, v0=1.0, u=0.01, l_end=2.0),
     "l0 must not be NaN"),
    (lambda: PistonConfig(1.0, 1.0, u=NAN, l_end=2.0), "u must not be NaN"),
    (lambda: PistonConfig(1.0, 1.0, u=1e-3, l_end=NAN),
     "l_end must not be NaN"),
    (lambda: PistonConfig(1.0, 1.0, u=1e-3, t_end=NAN),
     "t_end must not be NaN"),
    (lambda: PistonConfig(1.0, 1.0, mode="sudden_jump", l_end=NAN),
     "l_end must not be NaN"),
    (lambda: PistonConfig(1.0, 1.0, mode="sudden_jump", l_end=2.0,
                          t_jump=NAN), "t_jump must not be NaN"),
], ids=["constants", "grid_x_min", "grid_x_max", "integrator_dt",
        "potential_omega", "piston_l0", "piston_u", "piston_l_end",
        "piston_t_end", "piston_jump_l_end", "piston_t_jump"])
def test_models_reject_nan(build, message):
    # a check written x <= 0 is False for NaN; each model names the field
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# each kind's parameters, declared apart from core._PARAMS (see README)
KIND_PARAMS = {"free": (), "linear": ("f0",), "harmonic": ("m", "omega"),
               "infinite_well": ("width",), "soft_well": ("v0", "a")}
FOREIGN = [(kind, key) for kind, own in KIND_PARAMS.items()
           for key in ("f0", "m", "omega", "width", "v0", "a")
           if key not in own]


@pytest.mark.parametrize("kind,key", FOREIGN,
                         ids=[f"{k}.{key}" for k, key in FOREIGN])
def test_potential_rejects_foreign_key(kind, key):
    with pytest.raises(ValueError, match=f"^{kind} potential takes no {key}$"):
        Potential(kind, **{key: 1.0})


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind, own in KIND_PARAMS.items()
    for key in own if key != "f0"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_potential_rejects_nonpositive(kind, key, value):
    with pytest.raises(ValueError, match=f"^{value!r} is less than or equal "
                                         f"to the minimum of 0 at {key}$"):
        Potential(kind, **{key: value})


def test_potential_defaults_and_kind_forms():
    # each parameter of the kind defaults to 1; f0 may take any sign
    assert Potential("harmonic") == Potential(PotentialKind.HARMONIC,
                                              m=1.0, omega=1.0)
    assert Potential("soft_well").v0 == Potential("soft_well").a == 1.0
    assert Potential("linear", f0=-2.0).f0 == -2.0
    assert Potential("free").kind is PotentialKind.FREE


def test_harmonic_minimum():
    pot = Potential("harmonic", m=1, omega=1)
    assert eval_potential(pot, 0.0) == (0.0, 0.0)


def test_linear_convention():
    # V = -f0*q: constant force +f0
    assert eval_potential(Potential("linear", f0=2.0), 3.0) == (-6.0, -2.0)


def test_harmonic_closed_form():
    # oracle: V = m*omega^2*q^2/2 evaluated by hand for m=1, omega=2, q=1
    pot = Potential("harmonic", m=1, omega=2)
    assert eval_potential(pot, 1.0) == (2.0, 4.0)


def test_infinite_well_domain():
    pot = Potential("infinite_well", width=1.0)
    v, dv = eval_potential(pot, 0.5)
    assert v == 0.0 and dv == 0.0
    with pytest.raises(DomainError):
        eval_potential(pot, 1.5)
    with pytest.raises(DomainError):
        eval_potential(pot, np.array([0.2, -0.1]))


@pytest.mark.parametrize("pot,span", [
    (Potential("harmonic", m=1.0, omega=2.0), 5.0),
    (Potential("linear", f0=3.0), 5.0),
    (Potential("soft_well", v0=2.0, a=0.7), 3.0),
    (Potential("free"), 5.0),
])
def test_derivative_consistency_100_points(pot, span):
    rng = np.random.default_rng(42)
    q = rng.uniform(-span, span, size=100)
    h = 1e-4
    _, dv = eval_potential(pot, q)
    vp, _ = eval_potential(pot, q + h)
    vm, _ = eval_potential(pot, q - h)
    assert np.max(np.abs(dv - (vp - vm) / (2 * h))) <= 1e-5


@given(p=st.floats(min_value=1e-8, max_value=1e8,
                   allow_nan=False, allow_infinity=False),
       sign=st.sampled_from([-1.0, 1.0]))
def test_product_invariant(p, sign):
    c = natural_units()
    dq, gap = delta_q_series(np.array([sign * p]), c)
    assert not gap[0]
    assert abs(p * dq[0] - c.f) <= 1e-12 * c.f


def test_turning_point_flagged():
    c = natural_units()
    dq, gap = delta_q_series(np.array([0.0, 1e-10]), c)
    assert gap.tolist() == [True, True] and np.all(np.isnan(dq))


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
