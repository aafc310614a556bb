import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cpdq_lab import (
    ModelViolationError,
    PistonConfig,
    adiabatic_scan,
    extended_quantities,
    heat_theorem_residual,
    natural_units,
    piston_simulate,
    si_units,
)
from cpdq_lab.thermo import WallEvent, scan_configs


SLOW = PistonConfig(l0=1.0, v0=1.0, u=1e-3, l_end=2.0)


@pytest.fixture(scope="module")
def slow(consts):
    return piston_simulate(SLOW, consts)


@pytest.fixture(scope="module")
def jump(consts):
    return piston_simulate(
        PistonConfig(l0=1.0, v0=1.0, mode="sudden_jump", l_end=2.0), consts)


def test_config_validation():
    with pytest.raises(ModelViolationError):
        PistonConfig(l0=1.0, v0=1.0, u=1.5, l_end=2.0)
    with pytest.raises(ValueError):
        PistonConfig(l0=1.0, v0=1.0, u=0.1)  # no stop condition
    with pytest.raises(ValueError):
        PistonConfig(l0=1.0, v0=1.0, u=0.0, l_end=2.0)  # unreachable
    with pytest.raises(ValueError):
        PistonConfig(l0=1.0, v0=1.0, mode="sudden_jump", l_end=0.5)
    with pytest.raises(ValueError):
        PistonConfig(l0=-1.0, v0=1.0, t_end=1.0)
    # a compressing wall closes the box at t = l0/|u| = 2
    with pytest.raises(ModelViolationError):
        PistonConfig(l0=1.0, v0=1.0, u=-0.5, t_end=10.0)
    with pytest.raises(ModelViolationError):
        PistonConfig(l0=1.0, v0=1.0, u=-0.5, t_end=2.0)
    PistonConfig(l0=1.0, v0=1.0, u=-0.5, t_end=1.0)
    # near closure: about 4e8 wall hits, counted and refused up front
    with pytest.raises(ModelViolationError):
        PistonConfig(l0=1.0, v0=1.0, u=-0.5, t_end=1.99999999)
    with pytest.raises(ValueError):
        PistonConfig(l0=1.0, v0=1.0, mode="sudden_jump", l_end=2.0,
                     t_jump=5.0, t_end=3.0)
    # each mode rejects the other's key instead of ignoring it
    with pytest.raises(ValueError, match="no wall speed u"):
        PistonConfig(l0=1.0, v0=1.0, u=0.5, mode="sudden_jump", l_end=2.0)
    with pytest.raises(ValueError, match="t_jump applies only"):
        PistonConfig(l0=1.0, v0=1.0, u=0.1, l_end=2.0, t_jump=1.0)
    with pytest.raises(ValueError, match="t_jump applies only"):
        PistonConfig(l0=1.0, v0=1.0, t_end=3.0, t_jump=1.0)
    PistonConfig(l0=1.0, v0=1.0, u=0.0, mode="sudden_jump", l_end=2.0)


def exact_events(l0, v0, u, t_stop, t_jump=None, l_end=None):
    """Event-by-event reference in rational arithmetic.

    The wall sits at l0 + u*t or, given t_jump, jumps from l0 to l_end
    at t_jump.  A hit at or after t_stop is not logged; one at t_jump is
    logged after the jump.
    """
    rows = [(Q(0), v0, l0, WallEvent.INIT)]
    t, x, w, base = Q(0), Q(0), v0, l0  # the wall is at base + u*t
    while True:
        hits = []
        if w > u:
            hits.append(((base + u * t - x) / (w - u), WallEvent.RIGHT))
        if w < 0:
            hits.append((x / -w, WallEvent.LEFT))
        dt, tag = min(hits) if hits else (None, None)
        if t_jump is not None and (dt is None or t + dt >= t_jump):
            x, t, base, t_jump = x + w * (t_jump - t), t_jump, l_end, None
            rows.append((t, abs(w), base, WallEvent.JUMP))
            continue
        if dt is None or t + dt >= t_stop:
            rows.append((t_stop, abs(w), base + u * t_stop, WallEvent.STOP))
            return rows
        t, x = t + dt, x + w * dt
        w = 2 * u - w if tag == WallEvent.RIGHT else -w
        rows.append((t, abs(w), base + u * t, tag))


@pytest.mark.parametrize("params", [
    dict(l0=Q(1), v0=Q(1), u=Q(1, 50), l_end=Q(2)),
    dict(l0=Q(3, 2), v0=Q(2), u=Q(1, 13), t_end=Q(20)),
    dict(l0=Q(2), v0=Q(3, 2), u=Q(-1, 9), t_end=Q(12)),
    dict(l0=Q(1), v0=Q(1), u=Q(-1, 40), l_end=Q(1, 2)),
    dict(l0=Q(5, 4), v0=Q(3), t_end=Q(7)),
    dict(l0=Q(1), v0=Q(1), t_end=Q(10)),
    dict(l0=Q(1), v0=Q(1), mode="sudden_jump", l_end=Q(5, 2),
         t_jump=Q(13, 4), t_end=Q(19, 2)),
    dict(l0=Q(1), v0=Q(1), mode="sudden_jump", l_end=Q(2)),
    dict(l0=Q(3, 2), v0=Q(5, 4), mode="sudden_jump", l_end=Q(7, 3)),
    # the third right-wall hit falls exactly on t_stop = 10
    dict(l0=Q(1), v0=Q(1), u=Q(1, 10), l_end=Q(2)),
], ids=["expand_l_end", "expand_t_end", "compress_t_end", "compress_l_end",
        "static", "static_stop_tie", "jump_timed", "jump_default",
        "jump_default_rational", "expand_stop_tie"])
def test_matches_exact_event_loop(consts, params):
    cfg = PistonConfig(**{k: float(v) if isinstance(v, Q) else v
                          for k, v in params.items()})
    l0, v0, l_end = params["l0"], params["v0"], params.get("l_end")
    if cfg.mode == "sudden_jump":
        t_jump = params.get("t_jump", 4 * l0 / v0)
        t_stop = params.get("t_end", t_jump + 4 * l_end / v0)
        ref = exact_events(l0, v0, Q(0), t_stop, t_jump, l_end)
    else:
        u = params["u"] if "u" in params else Q(0)
        t_stop = params["t_end"] if "t_end" in params else (l_end - l0) / u
        ref = exact_events(l0, v0, u, t_stop)
    rec = piston_simulate(cfg, consts)
    assert list(rec.event) == [tag for *_, tag in ref]
    for got, col in zip((rec.t, rec.speed, rec.box_l), zip(*ref)):
        want = np.array([float(c) for c in col])
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_sudden_jump_free_expansion(consts, jump):
    # free expansion: speed unchanged, f doubles, dS = k ln 2 exactly
    assert np.all(jump.speed == 1.0)
    assert jump.f_values[0] == 1.0 and jump.f_values[-1] == 2.0
    assert jump.total_delta_s() == pytest.approx(
        consts.k_boltz * math.log(2.0), abs=1e-15)


def test_slow_piston_bounce_map(consts, slow):
    # oracle: each moving-wall bounce takes 2u off the speed
    rw = slow.right_wall_indices()
    speeds = slow.speed[rw]
    expected = SLOW.v0 - 2.0 * SLOW.u * np.arange(1, len(rw) + 1)
    assert np.allclose(speeds, expected, rtol=0, atol=1e-12)


def test_slow_piston_adiabatic_invariant(consts, slow):
    assert slow.aligned_delta_ln_pl() <= 5e-3


def test_static_box_exact(consts):
    rec = piston_simulate(PistonConfig(l0=1.0, v0=1.0, u=0.0, t_end=10.0),
                          consts)
    assert np.all(rec.f_values == rec.f_values[0])
    assert rec.total_delta_s() == 0.0
    residual, log_res = heat_theorem_residual(rec)
    assert np.all(residual == 0.0) and np.all(log_res == 0.0)


def test_between_collisions_momentum_constant(consts, slow):
    # speed only changes at moving-wall events
    ev = slow.event
    dv = np.diff(slow.speed)
    changed = np.flatnonzero(dv != 0.0) + 1
    assert np.all(ev[changed] == WallEvent.RIGHT)


def test_wall_position_law(consts, slow):
    assert np.allclose(slow.box_l, SLOW.l0 + SLOW.u * slow.t,
                       rtol=1e-13)


def test_heat_theorem_slow(consts, slow):
    residual, log_res = heat_theorem_residual(slow)
    rw = slow.right_wall_indices()
    d_e = np.diff(slow.kinetic[rw])
    assert np.max(np.abs(residual) / np.abs(d_e)) <= 1e-3
    assert np.max(np.abs(log_res)) <= 1e-12


def test_energy_bookkeeping_per_cycle(consts, slow):
    # kinetic change across a cycle balances the boundary work -P*dVol
    # up to the O(u/v) heat term
    rw = slow.right_wall_indices()
    d_e = np.diff(slow.kinetic[rw])
    p_mid = 0.5 * (slow.pressure[rw][:-1] + slow.pressure[rw][1:])
    d_vol = np.diff(slow.box_l[rw])
    ratio = SLOW.u / SLOW.v0
    assert np.max(np.abs(d_e + p_mid * d_vol)) <= 5 * ratio * np.max(np.abs(d_e))


def test_heat_theorem_log_form_jump(consts, jump):
    _, log_res = heat_theorem_residual(jump)
    assert np.max(np.abs(log_res)) <= 1e-12


def test_heat_theorem_detects_free_expansion(consts, jump):
    # the jump cycle is irreversible: quasi-static bookkeeping must fail there
    residual, _ = heat_theorem_residual(jump)
    scale = jump.kinetic[0]
    assert np.max(np.abs(residual)) > 0.01 * scale


def test_extended_quantities_static(consts):
    rec = piston_simulate(PistonConfig(l0=1.0, v0=1.0, u=0.0, t_end=10.0),
                          consts)
    ts = extended_quantities(rec)
    assert np.all(ts.d_l_ext == 0.0) and np.all(ts.d_s == 0.0)


@pytest.mark.parametrize("fixture_name", ["slow", "jump"])
def test_extended_quantities_identities(consts, fixture_name, request):
    rec = request.getfixturevalue(fixture_name)
    ts = extended_quantities(rec)
    scale = np.maximum(np.abs(ts.f_dot), 1e-300)
    assert np.max(np.abs(ts.d_l_ext - ts.f_dot) / scale) <= 1e-2
    assert np.max(np.abs(ts.d_l_ext - ts.s_dot_based) / scale) <= 1e-2


def test_action_entropy_relation(consts, slow):
    ts = extended_quantities(slow)
    assert ts.action_entropy_lhs == pytest.approx(ts.delta_s_over_k, rel=1e-2)


def test_scan_examples(consts):
    scan = adiabatic_scan(scan_configs([1e-4, 0.3]), consts)
    assert scan.delta_ln_pl[0] <= 1e-3
    assert scan.delta_ln_pl[1] >= 0.05


def test_scan_monotone_default_grid(consts):
    scan = adiabatic_scan(
        scan_configs([1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1]), consts)
    assert np.all(np.diff(scan.delta_ln_pl) >= -1e-12)


def test_scan_rejects_bad_ratio(consts):
    with pytest.raises(ValueError):
        adiabatic_scan(scan_configs([0.5, 1.5]), consts)


def old_scan(configs, consts) -> tuple[np.ndarray, np.ndarray]:
    """What adiabatic_scan replaced, kept as its reference: each run's full
    record, then the two PistonRecord methods."""
    viol, ds = [], []
    for cfg in configs:
        rec = piston_simulate(cfg, consts)
        viol.append(rec.aligned_delta_ln_pl())
        ds.append(rec.total_delta_s() / consts.k_boltz)
    return np.array(viol), np.array(ds)


# u as a share of v0: expansion, compression, or a static wall
_SHARE = st.one_of(st.floats(min_value=1e-3, max_value=0.9),
                   st.floats(min_value=-0.9, max_value=-1e-3))


@st.composite
def piston_kwargs(draw) -> dict:
    """A PistonConfig's keywords in each shape: a constant-speed wall
    stopped by l_end or by t_end, and a sudden jump, timed or not."""
    l0 = draw(st.floats(min_value=0.1, max_value=10.0))
    v0 = draw(st.floats(min_value=0.1, max_value=10.0))
    crossing = l0 / v0
    shape = draw(st.sampled_from(["l_end", "t_end", "sudden_jump"]))
    if shape == "l_end":
        u = draw(_SHARE) * v0
        factor = draw(st.floats(min_value=1.01, max_value=4.0))
        return dict(l0=l0, v0=v0, u=u,
                    l_end=l0 * (factor if u > 0 else 1.0 / factor))
    if shape == "t_end":
        u = draw(st.one_of(st.just(0.0), _SHARE)) * v0
        return dict(l0=l0, v0=v0, u=u, t_end=crossing * draw(
            st.floats(min_value=0.01, max_value=50.0)))
    kwargs = dict(l0=l0, v0=v0, mode="sudden_jump",
                  l_end=l0 * draw(st.floats(min_value=1.01, max_value=5.0)))
    if draw(st.booleans()):
        kwargs["t_jump"] = crossing * draw(
            st.floats(min_value=0.01, max_value=6.0))
    if draw(st.booleans()):
        kwargs["t_end"] = crossing * draw(
            st.floats(min_value=0.02, max_value=30.0))
    return kwargs


_CONSTANTS = st.one_of(
    st.just(natural_units()), st.just(si_units()),
    st.builds(lambda m, k, f_ref: replace(natural_units(), mass=m,
                                          k_boltz=k, f_ref=f_ref),
              *[st.floats(min_value=1e-3, max_value=1e3)] * 3))


@given(runs=st.lists(piston_kwargs(), min_size=1, max_size=3),
       consts=_CONSTANTS)
def test_scan_matches_full_records(runs, consts):
    # the scan builds a few rows per run; its values are those of the full
    # records, bit for bit
    configs = []
    for kwargs in runs:
        try:
            configs.append(PistonConfig(**kwargs))
        except (ValueError, ModelViolationError):
            assume(False)
    assume(sum(cfg.n_events for cfg in configs) <= 100_000)
    scan = adiabatic_scan(configs, consts)
    viol, ds = old_scan(configs, consts)
    assert scan.delta_ln_pl.tobytes() == viol.tobytes()
    assert scan.delta_s_over_k.tobytes() == ds.tobytes()


def test_scan_memory_is_independent_of_events(consts):
    # the 9.8M-event run near the cap: its full record took hundreds of MB
    configs = scan_configs([5.1e-8])
    assert configs[0].n_events > 9_800_000
    tracemalloc.start()
    try:
        scan = adiabatic_scan(configs, consts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert 0.0 < scan.delta_ln_pl[0] < 1e-6


@given(ratio=st.floats(min_value=1.1, max_value=20.0))
def test_free_expansion_entropy_any_ratio(ratio):
    # dS = k ln(L2/L1) exactly for sudden jumps
    consts = natural_units()
    rec = piston_simulate(
        PistonConfig(l0=1.0, v0=1.0, mode="sudden_jump", l_end=ratio), consts)
    assert rec.total_delta_s() == pytest.approx(
        consts.k_boltz * math.log(ratio), rel=1e-12)


@given(u=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.3),
                   st.floats(min_value=-0.3, max_value=-1e-3)),
       v0=st.floats(min_value=0.5, max_value=2.0))
def test_log_form_residual_any_piston(u, v0):
    # d ln f = d ln p + d ln L holds at round-off on every record
    consts = natural_units()
    if abs(u) >= v0:
        return
    if u == 0.0:
        cfg = PistonConfig(l0=1.0, v0=v0, u=0.0, t_end=8.0)
    else:
        cfg = PistonConfig(l0=1.0, v0=v0, u=u,
                           l_end=2.0 if u > 0 else 0.5)
    rec = piston_simulate(cfg, consts)
    if len(rec.right_wall_indices()) < 2:
        return
    _, log_res = heat_theorem_residual(rec)
    assert np.max(np.abs(log_res)) <= 1e-12


def test_compression_speeds_up_isentropically(consts):
    rec = piston_simulate(PistonConfig(l0=1.0, v0=1.0, u=-0.01, l_end=0.5),
                          consts)
    # slow compression pumps the particle while conserving p*L
    assert rec.speed[-1] > 1.5 * rec.speed[0]
    assert abs(rec.total_delta_s()) / consts.k_boltz <= 0.05


@given(l0=st.integers(2, 32), v0=st.integers(4, 16), u=st.integers(-31, 31),
       t_end=st.integers(1, 32))
def test_right_wall_count_closed_form(l0, v0, u, t_end):
    # dyadic inputs are exact floats; hit k precedes t_end iff
    # 2k - 1 < v0*t_end/L(t_end), counted here in rational arithmetic
    l0, v0, u, t_end = Q(l0, 8), Q(v0, 8), Q(u, 64), Q(t_end, 4)
    assume(l0 + u * t_end >= l0 / 4)  # keep short of closure: few events
    reach = v0 * t_end / (l0 + u * t_end)
    count = math.ceil((reach + 1) / 2) - 1
    kwargs = dict(l0=float(l0), v0=float(v0), u=float(u), t_end=float(t_end))
    if any(v0 == 2 * k * u for k in range(1, count + 1)):
        # the particle would stop at a right-wall hit before t_end
        with pytest.raises(ModelViolationError, match="at rest"):
            PistonConfig(**kwargs)
        return
    cfg = PistonConfig(**kwargs)
    rec = piston_simulate(cfg, natural_units())
    assert cfg.n_right_hits == len(rec.right_wall_indices()) == count
    assert len(rec.t) == cfg.n_events


def test_wall_that_stops_particle_rejected():
    # oracle: the exact event loop brings v0 = 1 to rest at the second
    # right-wall hit of a wall moving at u = 1/4 (speed 1 - 2*2/4 = 0)
    ref = exact_events(Q(1), Q(1), Q(1, 4), Q(76))
    assert [w for _, w, _, tag in ref if tag == WallEvent.RIGHT][1] == 0
    with pytest.raises(ModelViolationError,
                       match="right-wall collision 2 leaves the particle "
                             "at rest"):
        PistonConfig(l0=1.0, v0=1.0, u=0.25, l_end=20.0)
    for ratios, expansion in (([0.1, 0.5], 3.0), ([0.1], 20.0)):
        with pytest.raises(ModelViolationError, match="at rest"):
            scan_configs(ratios, expansion=expansion)
    # the stopping hit k falls at L = 2k*l0: a run ending there, or
    # before it, keeps a moving particle
    for u, l_end in ((0.25, 4.0), (0.5, 2.0)):
        cfg = PistonConfig(l0=1.0, v0=1.0, u=u, l_end=l_end)
        assert np.all(piston_simulate(cfg, natural_units()).speed > 0)
