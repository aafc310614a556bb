"""Acceptance criteria for the laboratory, run as check tables.

Each criterion function returns a list of Check rows; the CLI suite and
the pytest acceptance module both consume them.  Tolerances are pinned
here, not configurable: they are the exit contract of the artifact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import (
    Grid1D,
    GridProblem,
    IntegratorConfig,
    PistonConfig,
    Potential,
    RegimeLabel,
    Trajectory,
    WaveFunction,
    action_and_variation,
    adiabatic_scan,
    appendix_a_consistency,
    cr_bound_check,
    custom_variation,
    dispersion_checks,
    extended_quantities,
    first_order_dL,
    fisher_metrics,
    heat_theorem_residual,
    info_ledger,
    integrate_hamilton,
    local_wkb_profile,
    natural_units,
    piston_regime_metrics,
    piston_simulate,
    rate_bounds,
    regime_classify,
    si_units,
    solve_tise,
    special_variation,
    trajectory_regime_metrics,
    variational_ground_state,
    wkb_regime_metrics,
)
from .info import LN2
from .quantum import admitted_block
from .thermo import scan_configs


@dataclass(frozen=True)
class Check:
    """One measured value against its pinned tolerance.

    A wall_clock check measures run time: its bound still decides pass or
    fail, but its value is reported with the timings, not in the
    byte-deterministic report.
    """

    name: str
    value: float
    tolerance: float
    comparator: str = "<="
    wall_clock: bool = False

    @property
    def passed(self) -> bool:
        if self.comparator == "<=":
            return bool(self.value <= self.tolerance)
        if self.comparator == ">=":
            return bool(self.value >= self.tolerance)
        if self.comparator == "==":
            return bool(self.value == self.tolerance)
        raise ValueError(f"unknown comparator {self.comparator!r}")


def _le(name, value, tol):
    return Check(name=name, value=float(value), tolerance=float(tol))


def _runtime(name, seconds, bound):
    return Check(name=name, value=seconds, tolerance=float(bound),
                 wall_clock=True)


def _ge(name, value, tol):
    return Check(name=name, value=float(value), tolerance=float(tol),
                 comparator=">=")


def _harmonic_10_periods(consts, dt=1e-3, periods=10):
    n = int(round(periods * 2.0 * math.pi / dt))
    return integrate_hamilton(Potential("harmonic"), 1.0, 0.0,
                              IntegratorConfig(dt=dt, n_steps=n), consts)


def _perturbed(traj: Trajectory) -> Trajectory:
    t = traj.t
    q = traj.q + 0.01 * np.sin(3.0 * t)
    p = traj.p + traj.consts.mass * 0.03 * np.cos(3.0 * t)
    return Trajectory(t=t, q=q, p=p, dt=traj.dt, pot=traj.pot,
                      consts=traj.consts)


def criterion_1_stationarity() -> list[Check]:
    """First-order Lagrangian change under the special variation."""
    consts = natural_units()
    t0 = time.perf_counter()
    traj = _harmonic_10_periods(consts)
    eps = 1e-6 * consts.f
    energy = float(traj.energy_e[0])
    bound = 1e-4 * eps * energy

    def max_dl_of(traj: Trajectory) -> float:
        dl = first_order_dL(traj, special_variation(traj, eps))
        away = np.isfinite(dl) & (np.abs(traj.p) >= 0.5 * np.abs(traj.p).max())
        return float(np.max(np.abs(dl[away])))

    max_dl = max_dl_of(traj)
    max_dl_p = max_dl_of(_perturbed(traj))
    elapsed = time.perf_counter() - t0
    return [
        _le("stationarity/actual_max_dL_over_bound", max_dl / bound, 1.0),
        _ge("stationarity/perturbed_max_dL_over_bound", max_dl_p / bound, 100.0),
        _runtime("stationarity/runtime_s", elapsed, 1.0),
    ]


def criterion_2_action_decomposition() -> list[Check]:
    """Boundary + bulk = direct action variation, and each term's size."""
    consts = natural_units()
    eps = 1e-6 * consts.f
    checks = []

    harmonic = _harmonic_10_periods(consts, periods=2)
    energy = float(harmonic.energy_e[0])
    dt = harmonic.dt
    i1, i2 = int(round(0.6 / dt)), int(round(2.2 / dt))
    span = (i2 - i1) * dt

    free = integrate_hamilton(Potential("free"), 0.0, 2.0,
                              IntegratorConfig(dt=1e-3, n_steps=2000), consts)
    fixtures = {
        "free_special": (free, special_variation(free, eps), 100, 1900),
        "harmonic_special": (harmonic, special_variation(harmonic, eps), i1, i2),
    }
    t = harmonic.t
    # sin^2 window: vanishes with its slope at both ends, so the discrete
    # delta_qdot stays clean across the window edges
    window = np.where((t >= t[i1]) & (t <= t[i2]),
                      eps * np.sin(np.pi * (t - t[i1]) / (t[i2] - t[i1])) ** 2,
                      0.0)
    fixtures["harmonic_custom"] = (
        harmonic, custom_variation(harmonic, window), i1, i2)
    pert = _perturbed(harmonic)
    fixtures["perturbed_special"] = (pert, special_variation(pert, eps), i1, i2)

    bulk_bound = 1e-4 * eps * energy * span
    for name, (traj, var, a, b) in fixtures.items():
        action, d_bnd, d_blk, d_dir = action_and_variation(traj, var, a, b)
        ident = abs(d_dir - d_bnd - d_blk)
        checks.append(_le(f"action/{name}_identity",
                          ident / (abs(action) + eps), 1e-8))
        if name.endswith("_special") and not name.startswith("perturbed"):
            checks.append(_le(f"action/{name}_boundary", abs(d_bnd), 1e-12 * eps))
            checks.append(_le(f"action/{name}_bulk", abs(d_blk), bulk_bound))
        if name == "harmonic_custom":
            checks.append(_le("action/harmonic_custom_direct",
                              abs(d_dir), bulk_bound))
        if name == "perturbed_special":
            checks.append(_ge("action/perturbed_bulk_over_bound",
                              abs(d_blk) / bulk_bound, 10.0))
    return checks


def criterion_3_eigensolver() -> list[Check]:
    consts = natural_units()
    t0 = time.perf_counter()
    grid = Grid1D(-10.0, 10.0, 2000)
    sol = solve_tise(Potential("harmonic"), grid, 6, consts)
    worst = max(abs(sol.energies[n] - (n + 0.5)) / (n + 0.5) for n in range(6))

    well = solve_tise(Potential("infinite_well", width=1.0), Grid1D(0.0, 1.0, 2000),
                      1, consts)
    well_err = abs(well.energies[0] - math.pi**2 / 2.0) / (math.pi**2 / 2.0)

    fine = solve_tise(Potential("harmonic"), Grid1D(-10.0, 10.0, 3999), 1, consts)
    ratio = abs(sol.energies[0] - 0.5) / abs(fine.energies[0] - 0.5)
    elapsed = time.perf_counter() - t0
    return [
        _le("eigensolver/harmonic_rel_err_n_le_5", worst, 1e-3),
        _le("eigensolver/well_E1_rel_err", well_err, 1e-3),
        _ge("eigensolver/halving_ratio_low", ratio, 3.5),
        _le("eigensolver/halving_ratio_high", ratio, 4.5),
        _runtime("eigensolver/runtime_s", elapsed, 10.0),
    ]


def criterion_4_cramer_rao() -> list[Check]:
    checks = []
    g = Grid1D(-12.0, 12.0, 96001)
    gauss = WaveFunction.gaussian(g, sigma=1.0)
    fm = fisher_metrics(gauss)
    _, sd = gauss.mean_and_std()
    checks.append(_le("cramer_rao/gaussian_equality_margin",
                      abs(cr_bound_check(fm, sd)), 1e-6))
    checks.append(_le("cramer_rao/gaussian_decomposition",
                      fm.decomposition_residual / fm.fi_generalized, 1e-8))

    k = 2.0
    pg = Grid1D(0.0, 4.0 * 2.0 * math.pi / k, 1025)
    plane = WaveFunction.plane_wave(pg, k)
    fp = fisher_metrics(plane)
    checks.append(_le("cramer_rao/plane_fisher_length_err",
                      abs(fp.fisher_length - 1.0 / (2.0 * k)), 1e-8))
    checks.append(_le("cramer_rao/plane_decomposition",
                      fp.decomposition_residual / fp.fi_generalized, 1e-8))
    checks.append(_le("cramer_rao/plane_equality_margin",
                      abs(cr_bound_check(fp, 1.0 / (2.0 * k))), 1e-8))

    gx = Grid1D(-12.0, 12.0, 8001)
    gpw = WaveFunction.gaussian(gx, sigma=1.0, k=3.0)
    fg = fisher_metrics(gpw)
    checks.append(_le("cramer_rao/gauss_plane_decomposition",
                      fg.decomposition_residual / fg.fi_generalized, 1e-8))
    checks.append(_le("cramer_rao/gauss_plane_fi_value",
                      abs(fg.fi_generalized - 37.0) / 37.0, 1e-3))
    return checks


def criterion_5_variational() -> list[Check]:
    consts = natural_units()
    checks = []
    for name, pot, grid in (
            ("harmonic", Potential("harmonic"), Grid1D(-10.0, 10.0, 2000)),
            ("well", Potential("infinite_well", width=1.0), Grid1D(0.0, 1.0, 2000))):
        sol = solve_tise(pot, grid, 1, consts)
        res = variational_ground_state(GridProblem(pot, grid, consts),
                                       max_iters=5000)
        rel = abs(res.energy - sol.energies[0]) / abs(sol.energies[0])
        checks.append(_le(f"variational/{name}_rel_err", rel, 1e-4))
        checks.append(_le(f"variational/{name}_iterations", res.iterations, 5000))
    return checks


def criterion_6_appendix_a() -> list[Check]:
    consts = natural_units()

    def residual(pot, energy, grid):
        profile = local_wkb_profile(GridProblem(pot, grid, consts), energy)
        return appendix_a_consistency(profile, admitted_block(profile))

    harm = residual(Potential("harmonic"), 10.0, Grid1D(-4.2, 4.2, 8401))
    lin = residual(Potential("linear", f0=1.0), 5.0, Grid1D(-4.5, 5.0, 9501))
    return [
        _le("force_recovery/harmonic_E10", harm, 1e-3),
        _le("force_recovery/linear_E5", lin, 1e-3),
    ]


# The slow constant-speed doubling and the sudden doubling of criteria 7-9.
_SLOW_DOUBLING = PistonConfig(l0=1.0, v0=1.0, u=1e-3, l_end=2.0)
_SUDDEN_DOUBLING = PistonConfig(l0=1.0, v0=1.0, mode="sudden_jump", l_end=2.0)


def criterion_7_thermo_bridge() -> list[Check]:
    consts = natural_units()
    checks = []
    jump = piston_simulate(_SUDDEN_DOUBLING, consts)
    ds_over_k = jump.total_delta_s() / consts.k_boltz
    checks.append(_le("thermo/sudden_doubling_dS_err",
                      abs(ds_over_k - LN2), 1e-9))

    slow = piston_simulate(_SLOW_DOUBLING, consts)
    checks.append(_le("thermo/slow_piston_dln_pL",
                      slow.aligned_delta_ln_pl(), 5e-3))

    scan = adiabatic_scan(
        scan_configs([1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1]), consts)
    worst_drop = float(np.min(np.diff(scan.delta_ln_pl)))
    checks.append(_ge("thermo/scan_monotonicity_min_step", worst_drop, -1e-12))

    for name, rec in (("slow", slow), ("jump", jump)):
        _, logres = heat_theorem_residual(rec)
        checks.append(_le(f"thermo/log_form_residual_{name}",
                          float(np.max(np.abs(logres))), 1e-12))
    return checks


def criterion_8_extended_quantities() -> list[Check]:
    consts = natural_units()
    checks = []
    series = {name: extended_quantities(piston_simulate(cfg, consts))
              for name, cfg in (("slow", _SLOW_DOUBLING),
                                ("jump", _SUDDEN_DOUBLING))}
    for name, ts in series.items():
        scale = np.maximum(np.abs(ts.f_dot), 1e-300)
        checks.append(_le(f"extended/{name}_dLe_vs_fdot",
                          float(np.max(np.abs(ts.d_l_ext - ts.f_dot) / scale)),
                          1e-2))
        checks.append(_le(f"extended/{name}_dLe_vs_entropy_rate",
                          float(np.max(np.abs(ts.d_l_ext - ts.s_dot_based) / scale)),
                          1e-2))
    ts = series["slow"]
    checks.append(_le("extended/action_entropy_cumulative",
                      abs(ts.action_entropy_lhs - ts.delta_s_over_k)
                      / abs(ts.delta_s_over_k), 1e-2))
    return checks


def criterion_9_pzie() -> list[Check]:
    consts = natural_units()
    cum = info_ledger(_harmonic_10_periods(consts)).total
    checks = [_le("pzie/conservative_cumulative_bits", abs(cum), 1e-6)]
    for name, cfg in (("slow", _SLOW_DOUBLING), ("jump", _SUDDEN_DOUBLING)):
        rec = piston_simulate(cfg, consts)
        total = info_ledger(rec).total
        expected = -rec.total_delta_s() / (consts.k_boltz * LN2)
        checks.append(_le(f"pzie/piston_{name}_ledger_vs_entropy",
                          abs(total - expected), 1e-3))
    return checks


def criterion_10_rate_bounds() -> list[Check]:
    consts = si_units()
    rb = rate_bounds(1.0, 300.0, consts)
    return [
        _le("bounds/bound_h_arithmetic",
            abs(rb.bound_h - 2.736e34) / 2.736e34, 1e-4),
        _le("bounds/bound_f_equals_bound_h",
            abs(rb.bound_f / rb.bound_h - 1.0), 1e-12),
        _le("bounds/per_interval_cap_exact",
            abs(rb.per_interval_cap - 1.0 / (2.0 * LN2)), 0.0),
        _ge("bounds/ordering_bremermann_lt_bound_h",
            rb.bound_h - rb.bremermann, 0.0),
        _ge("bounds/ordering_bound_h_lt_bekenstein",
            rb.bekenstein - rb.bound_h, 0.0),
    ]


def criterion_11_dispersion() -> list[Check]:
    consts = natural_units()
    rest = dispersion_checks(0.0, 1.0, consts)
    massless = dispersion_checks(2.0, 0.0, consts)
    nr = dispersion_checks(2.0, 1.0, consts)
    return [
        _le("dispersion/kg_residual_rest", rest.kg_residual, 1e-12),
        _le("dispersion/rest_frequency_err", abs(rest.omega_kg - 1.0), 1e-12),
        _le("dispersion/massless_lightcone_err",
            abs(massless.omega_kg - 2.0), 1e-12),
        _le("dispersion/nr_residual", nr.nr_residual, 1e-12),
        _le("dispersion/nr_frequency_err", abs(nr.omega_nr - 2.0), 1e-12),
    ]


def regime_fixture_metrics(name: str, consts):
    """The four quadrant fixtures used by the regime criterion and CLI."""
    if name == "classical_trajectory":
        n = int(round(2.0 * math.pi / 1e-3))
        traj = integrate_hamilton(Potential("harmonic"), 100.0, 0.0,
                                  IntegratorConfig(dt=1e-3, n_steps=n), consts)
        return trajectory_regime_metrics(traj)
    if name == "quantum_profile":
        pot = Potential("soft_well", v0=50.0, a=0.2)
        grid = Grid1D(-3.0, 3.0, 4001)
        sol = solve_tise(pot, grid, 1, consts)
        return wkb_regime_metrics(local_wkb_profile(
            GridProblem(pot, grid, consts), float(sol.energies[0])))
    if name == "slow_piston":
        rec = piston_simulate(PistonConfig(l0=1.0, v0=1.0, u=0.01, l_end=2.0),
                              consts)
        return piston_regime_metrics(rec)
    if name == "fast_piston":
        rec = piston_simulate(PistonConfig(l0=1.0, v0=1.0, u=0.2, l_end=4.0),
                              consts)
        return piston_regime_metrics(rec)
    raise ValueError(f"unknown regime fixture {name!r}")


REGIME_EXPECTED = {
    "classical_trajectory": RegimeLabel.CLASSICAL_MECHANICS_OR_ADIABATIC_EQ,
    "quantum_profile": RegimeLabel.QUANTUM_MECHANICS,
    "slow_piston": RegimeLabel.NONADIABATIC_EQUILIBRIUM_TD,
    "fast_piston": RegimeLabel.NONADIABATIC_NONEQUILIBRIUM,
}


def criterion_12_regime() -> list[Check]:
    consts = natural_units()
    checks = []
    labels = set()
    for name, expected in REGIME_EXPECTED.items():
        report = regime_classify(*regime_fixture_metrics(name, consts))
        labels.add(report.label)
        checks.append(Check(name=f"regime/{name}_is_{expected.value}",
                            value=float(report.label is expected),
                            tolerance=1.0, comparator="=="))
    checks.append(Check(name="regime/four_distinct_labels",
                        value=float(len(labels)), tolerance=4.0,
                        comparator="=="))
    return checks


CRITERIA = [
    ("1_stationarity", ("variational",), criterion_1_stationarity),
    ("2_action_decomposition", ("variational",), criterion_2_action_decomposition),
    ("3_eigensolver", ("quantum",), criterion_3_eigensolver),
    ("4_cramer_rao", ("quantum",), criterion_4_cramer_rao),
    ("5_variational_ground_state", ("quantum",), criterion_5_variational),
    ("6_force_recovery", ("quantum",), criterion_6_appendix_a),
    ("7_thermo_bridge", ("thermo",), criterion_7_thermo_bridge),
    ("8_extended_quantities", ("thermo",), criterion_8_extended_quantities),
    ("9_pzie", ("info", "dynamics"), criterion_9_pzie),
    ("10_rate_bounds", ("info",), criterion_10_rate_bounds),
    ("11_dispersion", ("quantum",), criterion_11_dispersion),
    ("12_regime_classifier", ("info",), criterion_12_regime),
]


def run_criteria(filter_tag: str | None = None):
    """Run (a filtered subset of) the criteria.

    Returns a list of (criterion_name, [Check, ...], seconds).
    """
    results = []
    for name, tags, func in CRITERIA:
        if filter_tag is not None and filter_tag not in tags:
            continue
        started = time.perf_counter()
        checks = func()
        seconds = time.perf_counter() - started
        results.append((name, checks, seconds))
    return results
