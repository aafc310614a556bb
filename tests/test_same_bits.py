"""The series and checks work in place; each must keep the bits of its plain
expression, written out here as the reference, on arrays and on 0-d
inputs, and no in-place step may write into a cached series."""

import dataclasses

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpdq_lab import (IntegratorConfig, PistonConfig, Potential, PotentialKind,
                      eval_potential, info_ledger, integrate_hamilton,
                      natural_units, piston_simulate)
from cpdq_lab import cli
from cpdq_lab.core import _PARAMS, delta_q_series
from cpdq_lab.info import LN2
from cpdq_lab.variational import Trajectory


def plain_potential(pot, q):
    q = np.asarray(q, dtype=float)
    if pot.kind in (PotentialKind.FREE, PotentialKind.INFINITE_WELL):
        v = dv = np.zeros_like(q)
    elif pot.kind is PotentialKind.LINEAR:
        v = -pot.f0 * q
        dv = np.full_like(q, -pot.f0)
    elif pot.kind is PotentialKind.HARMONIC:
        k = pot.m * pot.omega**2
        v = 0.5 * k * q * q
        dv = k * q
    else:
        u = q / pot.a
        th = np.tanh(u)
        sech2 = 1.0 / np.cosh(u) ** 2
        v = pot.v0 * th * th
        dv = 2.0 * pot.v0 * th * sech2 / pot.a
    if q.ndim == 0:
        return float(v), float(dv)
    return v, dv


def plain_delta_q(p, consts):
    p = np.asarray(p, dtype=float)
    gap = np.abs(p) <= consts.p_floor
    with np.errstate(divide="ignore", over="ignore"):
        dq = np.where(gap, np.nan, consts.f / np.abs(p))
    return dq, gap


def plain_ledger(log_dq, log_p):
    d_i_q = -np.diff(log_dq) / LN2
    d_i_p = -np.diff(log_p) / LN2
    return d_i_q, d_i_p, np.cumsum(d_i_q + d_i_p)


def same_bits(a, b) -> bool:
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


@st.composite
def potentials(draw):
    kind = draw(st.sampled_from(PotentialKind))
    return Potential(kind, **{
        name: draw(st.floats(-1e3, 1e3) if name == "f0"
                   else st.floats(1e-3, 1e3)) for name in _PARAMS[kind]})


@given(pot=potentials(), frac=hnp.arrays(float, st.integers(1, 40),
                                         elements=st.floats(-1.0, 1.0)),
       scale=st.floats(1e-3, 1e3))
# a numpy scalar's cosh(0.541)**2 is pow(), one ulp from the array's square
@example(pot=Potential("soft_well"), frac=np.array([0.541]), scale=1.0)
def test_eval_potential_keeps_the_bits(pot, frac, scale):
    width = pot.width if pot.kind is PotentialKind.INFINITE_WELL else None
    q = np.abs(frac) * width if width else frac * scale
    with np.errstate(all="ignore"):
        for x in (q, np.array(q[0]), float(q[0])):
            got, want = eval_potential(pot, x), plain_potential(pot, x)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


P_FLOOR = 1e-3
MOMENTA = st.one_of(st.floats(-10.0, 10.0), st.floats(-2e-3, 2e-3))


@given(p=hnp.arrays(float, st.integers(1, 40), elements=MOMENTA))
def test_delta_q_series_keeps_the_bits(p):
    consts = dataclasses.replace(natural_units(), p_floor=P_FLOOR)
    for x in (p, np.array(p[0]), float(p[0])):
        got, want = delta_q_series(x, consts), plain_delta_q(x, consts)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@given(p=hnp.arrays(float, st.integers(5, 40), elements=MOMENTA),
       mass=st.floats(1e-3, 1e3))
def test_trajectory_series_and_ledger_keep_the_bits(p, mass):
    consts = dataclasses.replace(natural_units(), mass=mass, p_floor=P_FLOOR)
    dq, gap = plain_delta_q(p, consts)
    traj = Trajectory(t=np.arange(len(p)) * 0.1, q=np.zeros_like(p), p=p,
                      dt=0.1, pot=Potential("free"), consts=consts)
    assert same_bits(traj.f_series, np.abs(p) * dq)
    assert same_bits(traj.energy_t, p**2 / (2.0 * consts.mass))
    if gap.all():
        return
    ok = ~gap
    ledger = info_ledger(traj)
    want = plain_ledger(np.log(dq[ok]), np.log(np.abs(p[ok])))
    for got, ref in zip((ledger.d_i_q, ledger.d_i_p, ledger.i_cumulative),
                        want):
        assert same_bits(got, ref)
    # the ledger's logs are taken in copies
    assert same_bits(traj.p, p) and same_bits(traj.delta_q_series, dq)


def test_piston_ledger_keeps_the_bits(consts):
    rec = piston_simulate(PistonConfig(l0=1.0, v0=1.0, u=1e-3, l_end=2.0),
                          consts)
    box_l, momentum = rec.box_l.copy(), rec.momentum.copy()
    ledger = info_ledger(rec)
    want = plain_ledger(np.log(box_l), np.log(momentum))
    for got, ref in zip((ledger.d_i_q, ledger.d_i_p, ledger.i_cumulative),
                        want):
        assert same_bits(got, ref)
    assert same_bits(rec.box_l, box_l) and same_bits(rec.momentum, momentum)


@pytest.mark.parametrize("potential,q0,p0", [
    ({"kind": "free"}, 0.0, 1.0),
    ({"kind": "linear", "f0": 0.5}, 0.0, 1.0),
    ({"kind": "harmonic"}, 1.0, 0.0),
    ({"kind": "infinite_well"}, 0.3, 1.7),
    ({"kind": "soft_well"}, 0.5, 0.0),
], ids=lambda v: v["kind"] if isinstance(v, dict) else None)
def test_run_leaves_the_cached_series_as_computed(potential, q0, p0):
    consts, params = cli.validate_scenario({"kind": "trajectory", "params": {
        "potential": potential, "q0": q0, "p0": p0, "dt": 1e-3,
        "n_steps": 3000}})
    _, artifacts = cli._run_trajectory(params, consts)
    header, columns = artifacts["series.csv"]
    pot = params["potential"]
    ref = integrate_hamilton(pot, q0, p0, IntegratorConfig(1e-3, 3000), consts)
    dq, _ = plain_delta_q(ref.p, consts)
    kinetic = ref.p**2 / (2.0 * consts.mass)
    v, _ = plain_potential(pot, ref.q)
    want = [ref.t, ref.q, ref.p, dq, np.abs(ref.p) * dq, kinetic, v,
            kinetic + v]
    assert header == ["t", "q", "p", "delta_q", "f", "T", "V", "E"]
    for got, ref_column in zip(columns, want, strict=True):
        assert same_bits(got, ref_column)
