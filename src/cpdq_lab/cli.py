"""Scenario-driven command line: validate a JSON config, run it, report.

Each scenario kind is one entry of KINDS: the schema of its params, a
build that turns them into the models its run uses, and a runner that
returns its checks and artifacts without doing any I/O.

Reports are byte-deterministic: fixed key ordering, shortest round-trip
float repr in strict JSON, %.17g in CSV (a constant column's text formatted
once), and no timestamps -- wall-clock timing (compute and write seconds)
goes to a sibling timing.json excluded from determinism claims.

Exit codes: 0 all checks pass, 1 computation error (a RuntimeWarning
counts as one), 2 parse or schema error, 3 at least one check failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_csv
from ._schema import _NUMBER, _POSITIVE, _schema_errors, field_schemas
from .acceptance import Check, REGIME_EXPECTED, regime_fixture_metrics, run_criteria
from .core import MAX_SIZE, Constants, Potential, natural_units, si_units
from .dynamics import (IntegratorConfig, TrajectoryProblem, cpdq_diagnostics,
                       energy_budget, integrate_hamilton)
from .info import (LN2, _RATE_BOUNDS_ARGS, _REGIME_ARGS, _REGIME_METRICS,
                   info_ledger, rate_bounds, regime_classify)
from .quantum import (_ADMITTED_ARGS, _DISPERSION_ARGS, _MAX_ITERS,
                      _TISE_ARGS, _VARIATIONAL_ARGS, Grid1D, GridProblem, _dot,
                      admitted_block, appendix_a_consistency,
                      bohm_adiabaticity_report, dispersion_checks,
                      local_wkb_profile, solve_tise, variational_ground_state)
from .thermo import (_SCAN_ARGS, PistonConfig, adiabatic_scan,
                     extended_quantities, heat_theorem_residual,
                     piston_simulate, scan_configs)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_SCHEMA = 2
EXIT_CHECK = 3

def _object(properties: dict, required: tuple = ()) -> dict:
    """Schema of a JSON object that rejects unknown keys."""
    schema = {"type": "object", "additionalProperties": False}
    if required:
        schema["required"] = list(required)
    schema["properties"] = properties
    return schema


# the models declare their fields' schemas (_schema.field_schemas)
_POTENTIAL_SCHEMA = _object(field_schemas(Potential), ("kind",))
_GRID_SCHEMA = _object(field_schemas(Grid1D), ("x_min", "x_max", "n"))


class ScenarioError(ValueError):
    """Config failed validation; message names the offending key."""


def _check_schema(schema: dict, instance, prefix: str = "") -> None:
    """Raise ScenarioError naming the first offending key, if any: the
    error with the smallest path, the first yielded among those."""
    err = min(_schema_errors(schema, instance), key=lambda e: e[0],
              default=None)
    if err is not None:
        where = "/".join(map(str, err[0])) or "top level"
        raise ScenarioError(f"{prefix}{err[1]} at {where}")


def validate_scenario(cfg: dict) -> tuple[Constants, dict]:
    """Check a parsed config and build what its run needs, once.

    Returns the run's Constants (its unit system with its overrides
    applied) and a copy of params in which `potential` is a Potential and
    the kind's build (KINDS) has put its models.  Raises ScenarioError,
    naming the offending key, for a config that the schema, a model or a
    rule of the kind rejects.
    """
    _check_schema(SCHEMA, cfg)
    kind, params = cfg["kind"], dict(cfg["params"])
    schema, build, _ = KINDS[kind]
    _check_schema(schema, params, f"params for kind {kind!r}: ")
    base = si_units() if cfg.get("units") == "si" else natural_units()
    consts = dataclasses.replace(base, **cfg.get("constants", {}))
    if "potential" in params:
        params["potential"] = _model("potential: ", Potential,
                                     **params["potential"])
    try:
        build(params, consts)
    except ValueError as exc:
        raise ScenarioError(exc) from None
    return consts, params


def _model(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs); its ValueError as a ScenarioError whose
    message follows prefix."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{prefix}{exc}") from None


def _build_trajectory(params: dict, consts: Constants) -> None:
    params["problem"] = TrajectoryProblem(
        params["potential"], params["q0"], params["p0"],
        IntegratorConfig(params["dt"], params["n_steps"]), consts)


def _build_grid(params: dict, consts: Constants,
                operator: bool = True) -> GridProblem:
    """Put params' GridProblem in params and read its sample and, with
    operator, its kinetic term, which checks them."""
    grid = _model("grid: ", Grid1D, **params["grid"])
    problem = params["problem"] = GridProblem(params["potential"], grid,
                                              consts)
    if operator:
        problem.kinetic
    problem.sample
    return problem


def _build_tise(params: dict, consts: Constants) -> None:
    expected = params.get("expected_energies", [])
    if len(expected) > params["n_states"] or 0 in expected:
        raise ScenarioError("expected_energies takes at most n_states "
                            "values, none of them zero")
    if params["n_states"] * params["grid"]["n"] > MAX_SIZE:
        raise ScenarioError(f"n_states * grid n exceeds {MAX_SIZE}")
    _build_grid(params, consts).check_n_states(params["n_states"])
    params["n_states"] = int(params["n_states"])


def _build_wkb(params: dict, consts: Constants) -> None:
    # the Bohm report's eigensolve forms the operator
    problem = _build_grid(params, consts, params.get("with_bohm_report", False))
    profile = params["profile"] = _model("wkb: ", local_wkb_profile, problem,
                                         params["energy"])
    params["seg"] = _model("wkb: ", admitted_block, profile,
                           **_given(params, "kinetic_fraction"))


def _build_piston(params: dict, consts: Constants) -> None:
    if "scan" in params:
        extra = [k for k in ("u", "mode", "l_end", "t_end", "t_jump")
                 if k in params]
        if extra:
            raise ScenarioError(f"piston scan takes no single-run "
                                f"key(s) {extra}")
        params["configs"] = _model("piston scan: ", scan_configs,
                                   **params["scan"],
                                   **_given(params, "l0", "v0"))
        return
    if not {"l0", "v0"} <= params.keys():
        raise ScenarioError("piston without scan needs l0 and v0")
    piston = params["piston"] = _model("piston: ", PistonConfig, **params)
    if piston.n_right_hits < 2:
        raise ScenarioError("piston: the run stops before its second "
                            "right-wall collision")


def _build_regime(params: dict, consts: Constants) -> None:
    if ("fixture" in params) == ("metrics" in params):
        raise ScenarioError("regime needs exactly one of fixture/metrics")


def _no_rules(params: dict, consts: Constants) -> None:
    """The schema holds every rule of the kind."""


def _given(params: dict, *keys: str) -> dict:
    """The keys a config sets; the model's defaults stand for the rest."""
    return {k: params[k] for k in keys if k in params}


def _write_artifacts(out: Path, artifacts: dict) -> None:
    """Write a dict as strict sorted JSON, (header, columns) as CSV."""
    out.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        if isinstance(content, dict):
            (out / name).write_text(json.dumps(
                content, indent=2, sort_keys=True, allow_nan=False) + "\n")
        else:
            write_csv(out / name, *content)


def _check_rows(checks: list[Check]) -> list[dict]:
    """Report rows; a wall-clock check's value goes to timing.json instead."""
    return [{"name": c.name, "tolerance": float(c.tolerance),
             "comparator": c.comparator, "pass": c.passed,
             **({} if c.wall_clock else {"value": float(c.value)})}
            for c in checks]


def _failure(exc: Exception) -> str:
    """One line naming the exception, its message and any solver payload."""
    payload = "".join(
        f" {key}={getattr(exc, key)!r}"
        for key in ("iterations", "energy")
        if getattr(exc, key, None) is not None)
    return f"error: computation failed: {type(exc).__name__}: {exc}{payload}"


def _run_trajectory(params, consts):
    problem = params["problem"]
    traj = integrate_hamilton(problem.potential, problem.q0, problem.p0,
                              problem.integrator, consts)
    # the ledger's arrays are gone before the energy series are cached
    drift = cpdq_diagnostics(traj)
    bits = info_ledger(traj).total
    checks = [
        Check("cpdq_max_rel_drift", drift, 1e-12),
        Check("max_energy_drift", energy_budget(traj),
              params.get("energy_drift_tol", 1e-6)),
        Check("pzie_cumulative_bits", abs(bits),
              params.get("pzie_tol_bits", 1e-6)),
    ]
    series = (["t", "q", "p", "delta_q", "f", "T", "V", "E"],
              [traj.t, traj.q, traj.p, traj.delta_q_series, traj.f_series,
               traj.energy_t, traj.energy_v, traj.energy_e])
    return checks, {"series.csv": series}


def _run_piston(params, consts):
    if "scan" in params:
        scan = adiabatic_scan(params["configs"], consts)
        ratios = params["scan"]["ratios"]  # as configured, bit for bit
        # the violation must grow with the ratio, in whatever order given
        order = np.argsort(ratios, kind="stable")
        worst = float(np.min(np.diff(scan.delta_ln_pl[order])))
        table = (["ratio", "delta_ln_pL", "delta_S_over_k"],
                 [ratios, scan.delta_ln_pl, scan.delta_s_over_k])
        return ([Check("scan_monotonicity_min_step", -worst, 1e-12)],
                {"scan.csv": table})

    cfg = params["piston"]
    rec = piston_simulate(cfg, consts)
    _, log_res = heat_theorem_residual(rec)
    ledger = info_ledger(rec)
    ds_over_k = rec.total_delta_s() / consts.k_boltz
    checks = [
        Check("log_form_residual", float(np.max(np.abs(log_res))), 1e-12),
        Check("ledger_matches_entropy",
              abs(ledger.total + ds_over_k / LN2), 1e-3),
    ]
    if cfg.mode == "sudden_jump":
        checks.append(Check("sudden_jump_dS_over_k",
                            abs(ds_over_k - math.log(cfg.l_end / cfg.l0)),
                            1e-9))
    ts = extended_quantities(rec)
    return checks, {
        "events.csv": (
            ["t", "speed", "L", "event", "f", "S"],
            [rec.t, rec.speed, rec.box_l, rec.event,
             rec.f_values, rec.entropy]),
        "cycles.csv": (
            ["dt", "dE", "dS", "dVol", "theta", "P", "dL_ext", "f_dot",
             "s_dot_based"],
            [ts.dt, ts.d_e, ts.d_s, ts.d_vol, ts.theta, ts.pressure,
             ts.d_l_ext, ts.f_dot, ts.s_dot_based]),
    }


def _run_tise(params, consts):
    grid = params["problem"].grid
    sol = solve_tise(params["potential"], grid, params["n_states"], consts)
    vals = np.stack([s.values.real for s in sol.states])
    ortho = float(np.max(np.abs(_dot(vals, vals.T) * grid.h
                                - np.eye(len(vals)))))
    nodes_ok = 1.0
    for n, s in enumerate(sol.states):
        v = s.values.real
        sig = v[np.abs(v) > 1e-6 * np.abs(v).max()]
        if int(np.sum(np.diff(np.sign(sig)) != 0)) != n:
            nodes_ok = 0.0
    checks = [
        Check("orthonormality_defect", ortho, 1e-8),
        Check("node_counts_match", nodes_ok, 1.0, comparator="=="),
    ]
    expected = params.get("expected_energies")
    if expected:
        worst = max(abs(sol.energies[i] - e) / abs(e)
                    for i, e in enumerate(expected))
        checks.append(Check("expected_energy_rel_err", worst,
                            params.get("energy_rel_tol", 1e-3)))
    header = ["x"]
    cols = [grid.x]
    for n, s in enumerate(sol.states):
        header += [f"re_psi_{n}", f"im_psi_{n}", f"prob_{n}"]
        cols += [s.values.real, s.values.imag, s.prob]
    return checks, {
        "energies.csv": (["n", "E"], [np.arange(len(sol.energies)),
                                      sol.energies]),
        "states.csv": (header, cols),
    }


def _run_variational(params, consts):
    problem, grid = params["problem"], params["problem"].grid
    max_iters = params.get("max_iters", _MAX_ITERS)
    res = variational_ground_state(problem, max_iters=max_iters,
                                   **_given(params, "tol"))
    sol = solve_tise(problem.potential, grid, 1, consts)
    rel = abs(res.energy - sol.energies[0]) / abs(sol.energies[0])
    checks = [
        Check("variational_vs_eigensolver_rel", rel, 1e-4),
        Check("iterations", float(res.iterations), float(max_iters)),
    ]
    return checks, {"ground_state.csv": (["x", "psi"],
                                         [grid.x, res.psi.values.real])}


def _run_wkb(params, consts):
    profile, grid = params["profile"], params["problem"].grid
    residual = appendix_a_consistency(profile, params["seg"])
    checks = [Check("force_recovery_max_rel_residual", residual, 1e-3)]
    artifacts = {"profile.csv": (
        ["x", "k", "delta_x", "validity"],
        [grid.x, profile.k_of_x, profile.delta_x_of_x,
         profile.validity_metric])}
    if params.get("with_bohm_report"):
        sol = solve_tise(params["potential"], grid, 2, consts)
        artifacts["bohm_report.json"] = bohm_adiabaticity_report(profile, sol)
    return checks, artifacts


def _run_dispersion(params, consts):
    res = dispersion_checks(params["k"], params["m0"], consts)
    checks = [
        Check("kg_plane_wave_residual", res.kg_residual, 1e-12),
        Check("nr_plane_wave_residual", res.nr_residual, 1e-12),
    ]
    payload = {"omega_kg": res.omega_kg, "omega_nr": res.omega_nr,
               "c": consts.c, "f": consts.f, **params}
    return checks, {"dispersion.json": payload}


def _run_bounds(params, consts):
    rb = rate_bounds(params["energy"], params["theta"], consts)
    checks = [
        Check("comparator_ordering",
              float(rb.bremermann < rb.bound_h < rb.bekenstein), 1.0,
              comparator="=="),
        Check("per_interval_cap_bits",
              abs(rb.per_interval_cap - 1.0 / (2.0 * LN2)), 0.0),
    ]
    if abs(consts.f - consts.hbar / 2.0) < 1e-300:
        checks.append(Check("bound_f_equals_bound_h",
                            abs(rb.bound_f / rb.bound_h - 1.0), 1e-12))
    payload = dataclasses.asdict(rb)
    payload["constants"] = {k: getattr(consts, k) for k in
                            ("f", "hbar", "h", "k_boltz", "c", "mass")}
    return checks, {"bounds.json": payload}


def _run_regime(params, consts):
    thresholds = _given(params, "thresholds")
    if "fixture" in params:
        name = params["fixture"]
        report = regime_classify(*regime_fixture_metrics(name, consts),
                                 **thresholds)
        expected = REGIME_EXPECTED[name]
        checks = [Check(f"label_is_{expected.value}",
                        float(report.label is expected), 1.0,
                        comparator="==")]
    else:
        report = regime_classify(**params["metrics"], **thresholds)
        checks = []
    payload = {**dataclasses.asdict(report), "label": report.label.value}
    return checks, {"regime.json": payload}


# kind -> (params schema, build, runner); a build puts the models a run
# uses in its params and checks the kind's own rules
KINDS = {
    "trajectory": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "q0": _NUMBER,
        "p0": _NUMBER,
        **field_schemas(IntegratorConfig),
        "energy_drift_tol": _POSITIVE,
        "pzie_tol_bits": _POSITIVE,
    }, required=("potential", "q0", "p0", "dt", "n_steps")),
        _build_trajectory, _run_trajectory),
    "piston": (_object({
        **field_schemas(PistonConfig),
        "scan": _object({
            "ratios": {"type": "array", "minItems": 2,
                       "items": _SCAN_ARGS["ratios"]["items"]},
            "expansion": _SCAN_ARGS["expansion"],
        }, required=("ratios",)),
    }), _build_piston, _run_piston),
    "tise": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "grid": _GRID_SCHEMA,
        **_TISE_ARGS,
        "expected_energies": {"type": "array", "items": _NUMBER},
        "energy_rel_tol": _POSITIVE,
    }, required=("potential", "grid", "n_states")), _build_tise, _run_tise),
    "variational": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "grid": _GRID_SCHEMA,
        **_VARIATIONAL_ARGS,
    }, required=("potential", "grid")), _build_grid, _run_variational),
    "wkb": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "energy": _NUMBER,
        "grid": _GRID_SCHEMA,
        **_ADMITTED_ARGS,
        "with_bohm_report": {"type": "boolean"},
    }, required=("potential", "energy", "grid")), _build_wkb, _run_wkb),
    "dispersion": (_object(_DISPERSION_ARGS, required=("k", "m0")),
                   _no_rules, _run_dispersion),
    "bounds": (_object(_RATE_BOUNDS_ARGS, required=("energy", "theta")),
               _no_rules, _run_bounds),
    "regime": (_object({
        "fixture": {"enum": sorted(REGIME_EXPECTED)},
        "metrics": _object(_REGIME_METRICS, required=tuple(_REGIME_METRICS)),
        "thresholds": _REGIME_ARGS["thresholds"],
    }), _build_regime, _run_regime),
    "suite": (_object({"filter": {"type": "string"}}), _no_rules, None),
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "cpdq-lab scenario",
    **_object({
        "kind": {"enum": sorted(KINDS)},
        "units": {"enum": ["natural", "si"]},
        "constants": _object(field_schemas(Constants)),
        "params": {"type": "object"},
        "out_dir": {"type": "string"},
    }, required=("kind", "params")),
}


def _finite(text: str) -> float:
    """A JSON number or constant as a float; NaN, Infinity and overflow fail."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _int(text: str) -> int:
    """A JSON integer; one beyond the double range fails like 1e999 does."""
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"integer of {len(text.lstrip('-'))} digits is "
                         f"beyond the double range") from None
    return value


def run_scenario(path: str | Path, out_dir: str | Path | None = None) -> tuple[dict | None, int]:
    """Execute one scenario file; returns (report dict, exit_code)."""
    path = Path(path)
    reading = time.perf_counter()
    try:
        cfg = json.loads(path.read_text(), parse_constant=_finite,
                         parse_float=_finite, parse_int=_int)
    except (OSError, ValueError) as exc:
        print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
        return None, EXIT_SCHEMA
    started = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            consts, params = validate_scenario(cfg)
            validated = time.perf_counter()
            if out_dir is None:
                out_dir = cfg.get("out_dir", path.parent / (path.stem + "_out"))
            if cfg["kind"] == "suite":
                return None, acceptance_suite(params.get("filter"), out_dir)
            checks, artifacts = KINDS[cfg["kind"]][2](params, consts)
        elapsed = time.perf_counter() - validated
        report = {"version": __version__, "scenario": cfg,
                  "checks": _check_rows(checks),
                  "artifacts": sorted(artifacts)}
        writing = time.perf_counter()
        _write_artifacts(Path(out_dir), {**artifacts, "report.json": report})
        _write_artifacts(Path(out_dir), {"timing.json": {
            "elapsed_s": elapsed, "parse_s": started - reading,
            "validate_s": validated - started,
            "write_s": time.perf_counter() - writing}})
    except ScenarioError as exc:
        print(f"error: invalid scenario {path}: {exc}", file=sys.stderr)
        return None, EXIT_SCHEMA
    except Exception as exc:
        print(_failure(exc), file=sys.stderr)
        return None, EXIT_COMPUTE
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status:4s}  {c.name}  value={c.value:.6g}  "
              f"{c.comparator} {c.tolerance:.6g}")
    return report, EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK


def acceptance_suite(filter_tag: str | None = None,
                     out_dir: str | Path | None = None) -> int:
    """Run the acceptance criteria and print one row per check."""
    started = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = run_criteria(filter_tag)
        elapsed = time.perf_counter() - started
        if results and out_dir is not None:
            report = {"version": __version__, "criteria": [
                {"name": name, "checks": _check_rows(checks)}
                for name, checks, _ in results]}
            timing = {"elapsed_s": elapsed,
                      "criterion_s": {name: s for name, _, s in results},
                      "wall_clock_checks": {
                          c.name: c.value for _, checks, _ in results
                          for c in checks if c.wall_clock}}
            _write_artifacts(Path(out_dir), {
                "acceptance_report.json": report, "timing.json": timing})
    except Exception as exc:
        print(_failure(exc), file=sys.stderr)
        return EXIT_COMPUTE
    if not results:
        print(f"error: no criteria tagged {filter_tag!r}", file=sys.stderr)
        return EXIT_SCHEMA

    width = max(len(c.name) for _, checks, _ in results for c in checks)
    failures = sum(not c.passed for _, checks, _ in results for c in checks)
    print(f"{'criterion/check':{width}s}  {'measured':>13s}  "
          f"{'tolerance':>13s}  status")
    for _, checks, _ in results:
        for c in checks:
            print(f"{c.name:{width}s}  {c.value:13.6g}  "
                  f"{c.comparator}{c.tolerance:12.6g}  "
                  f"{'pass' if c.passed else 'FAIL'}")
    print(f"# {len(results)} criteria, {failures} failing checks, "
          f"{elapsed:.1f}s")
    return EXIT_OK if failures == 0 else EXIT_CHECK


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line parses argv

    parser = argparse.ArgumentParser(
        prog="cpdq-lab",
        description="scenario runner for the uncertainty-product mechanics lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one JSON scenario")
    p_run.add_argument("config", help="path to scenario JSON")
    p_run.add_argument("--out", default=None, help="output directory")

    p_suite = sub.add_parser("suite", help="run the acceptance suite")
    p_suite.add_argument("--filter", default=None,
                         help="only criteria carrying this tag")
    p_suite.add_argument("--out", default=None, help="output directory")

    sub.add_parser("schema", help="print the scenario config schema")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.config, args.out)[1]
    if args.command == "suite":
        return acceptance_suite(args.filter, args.out)
    print(json.dumps(SCHEMA, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
