"""Scenario-driven command line: validate a JSON config, run it, report.

Each scenario kind is one entry of KINDS: the schema of its params and a
runner that returns its checks and artifacts without doing any I/O.

Reports are byte-deterministic: fixed key ordering, shortest round-trip
float repr in strict JSON, %.17g in CSV, and no timestamps -- wall-clock
timing goes to a sibling timing.json excluded from determinism claims.

Exit codes: 0 all checks pass, 1 computation error, 2 parse or schema
error, 3 at least one check failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .acceptance import Check, REGIME_EXPECTED, regime_fixture_metrics, run_criteria
from .core import Potential, PotentialKind, natural_units, si_units
from .dynamics import IntegratorConfig, cpdq_diagnostics, energy_budget, integrate_hamilton
from .info import LN2, info_ledger, rate_bounds, regime_classify
from .quantum import (
    DispersionParams,
    Grid1D,
    appendix_a_consistency,
    bohm_adiabaticity_report,
    check_grid_in_well,
    dispersion_checks,
    local_wkb_profile,
    solve_tise,
    variational_ground_state,
)
from .thermo import (
    PistonConfig,
    adiabatic_scan,
    extended_quantities,
    heat_theorem_residual,
    piston_simulate,
    scan_configs,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_SCHEMA = 2
EXIT_CHECK = 3

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_FRACTION = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}


def _object(properties: dict, required: tuple = ()) -> dict:
    """Schema of a JSON object that rejects unknown keys."""
    schema = {"type": "object", "additionalProperties": False}
    if required:
        schema["required"] = list(required)
    schema["properties"] = properties
    return schema


_POTENTIAL_SCHEMA = _object({
    "kind": {"enum": [k.value for k in PotentialKind]},
    "f0": _NUMBER,
    "m": _POSITIVE,
    "omega": _POSITIVE,
    "width": _POSITIVE,
    "v0": _POSITIVE,
    "a": _POSITIVE,
}, required=("kind",))

_GRID_SCHEMA = _object({
    "x_min": _NUMBER,
    "x_max": _NUMBER,
    "n": {"type": "integer", "minimum": 64},
}, required=("x_min", "x_max", "n"))

class ScenarioError(ValueError):
    """Config failed validation; message names the offending key."""


def _check_schema(schema: dict, instance, prefix: str = "") -> None:
    """Raise ScenarioError naming the first offending key, if any."""
    err = min(Draft202012Validator(schema).iter_errors(instance),
              key=lambda e: list(e.absolute_path), default=None)
    if err is None:
        return
    where = "/".join(str(p) for p in err.absolute_path) or "top level"
    if err.validator == "additionalProperties":
        offending = sorted(set(err.instance) - set(err.schema["properties"]))
        raise ScenarioError(f"{prefix}unknown key(s) {offending} at {where}")
    raise ScenarioError(f"{prefix}{err.message} at {where}")


def validate_scenario(cfg: dict) -> None:
    _check_schema(SCHEMA, cfg)
    kind, params = cfg["kind"], cfg["params"]
    _check_schema(KINDS[kind][0], params, f"params for kind {kind!r}: ")
    if kind == "regime" and ("fixture" in params) == ("metrics" in params):
        raise ScenarioError("regime needs exactly one of fixture/metrics")
    if kind == "tise":
        expected = params.get("expected_energies", [])
        if len(expected) > params["n_states"] or 0 in expected:
            raise ScenarioError("expected_energies takes at most n_states "
                                "values, none of them zero")
        if params["n_states"] > params["grid"]["n"] - 2:
            raise ScenarioError("n_states exceeds interior grid dimension")
    if kind == "trajectory" and not _potential(
            params["potential"]).contains(params["q0"]):
        raise ScenarioError("q0 lies outside the potential's domain")
    if kind == "piston" and "scan" in params:
        extra = [k for k in ("u", "mode", "l_end", "t_end", "t_jump")
                 if k in params]
        if extra:
            raise ScenarioError(f"piston scan takes no single-run "
                                f"key(s) {extra}")
        try:
            scan_configs(**params["scan"], **_given(params, "l0", "v0", "m"))
        except ValueError as exc:
            raise ScenarioError(f"piston scan: {exc}") from None
    elif kind == "piston":
        try:
            piston = PistonConfig(**params)
        except TypeError:
            raise ScenarioError("piston without scan needs l0 and v0") from None
        except ValueError as exc:
            raise ScenarioError(f"piston: {exc}") from None
        if piston.n_right_hits < 2:
            raise ScenarioError("piston: the run stops before its second "
                                "right-wall collision")
    if "grid" in params:
        try:
            check_grid_in_well(_potential(params["potential"]),
                               Grid1D(**params["grid"]))
        except ValueError as exc:
            raise ScenarioError(f"grid: {exc}") from None


def _potential(spec: dict) -> Potential:
    return Potential(**{**spec, "kind": PotentialKind(spec["kind"])})


def _given(params: dict, *keys: str) -> dict:
    """The keys a config sets; the model's defaults stand for the rest."""
    return {k: params[k] for k in keys if k in params}


_CSV_BLOCK_ROWS = 1000


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns as CSV, every value as float in %.17g.

    Rows go out in blocks of _CSV_BLOCK_ROWS, each formatted by one `%` on
    a repeated row template, so the per-float loop runs in C with the same
    conversion as "%.17g" % float(x); the whole table is never stacked.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length "
                         f"{sorted(lengths)}")
    n_rows = max(lengths, default=0)
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[i:i + _CSV_BLOCK_ROWS] for c in cols])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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
        for key in ("iterations", "energy", "last_valid_index")
        if getattr(exc, key, None) is not None)
    return f"error: computation failed: {type(exc).__name__}: {exc}{payload}"


def _run_trajectory(params, consts):
    pot = _potential(params["potential"])
    cfg = IntegratorConfig(dt=params["dt"], n_steps=params["n_steps"])
    rec = integrate_hamilton(pot, params["q0"], params["p0"], cfg, consts)
    drift = cpdq_diagnostics(rec)
    _, e_drift = energy_budget(rec)
    ledger = info_ledger(rec)
    checks = [
        Check("cpdq_max_rel_drift", drift, 1e-12),
        Check("max_energy_drift", e_drift,
              params.get("energy_drift_tol", 1e-6)),
        Check("pzie_cumulative_bits", abs(ledger.total),
              params.get("pzie_tol_bits", 1e-6)),
    ]
    t = rec.traj
    series = (["t", "q", "p", "delta_q", "f", "T", "V", "E"],
              [t.t, t.q, t.p, rec.delta_q_series, rec.f_series,
               rec.energy_t, rec.energy_v, rec.energy_e])
    return checks, {"series.csv": series}


def _run_piston(params, consts):
    if "scan" in params:
        scan = adiabatic_scan(consts=consts, **params["scan"],
                              **_given(params, "l0", "v0", "m"))
        worst = float(np.min(np.diff(scan.delta_ln_pl)))
        table = (["ratio", "delta_ln_pL", "delta_S_over_k"],
                 [scan.ratios, scan.delta_ln_pl, scan.delta_s_over_k])
        return ([Check("scan_monotonicity_min_step", -worst, 1e-12)],
                {"scan.csv": table})

    cfg = PistonConfig(**params)
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
    pot = _potential(params["potential"])
    grid = Grid1D(**params["grid"])
    sol = solve_tise(pot, grid, params["n_states"], consts)
    vals = np.stack([s.values.real for s in sol.states])
    ortho = float(np.max(np.abs(vals @ vals.T * grid.h - np.eye(len(vals)))))
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
    pot = _potential(params["potential"])
    grid = Grid1D(**params["grid"])
    max_iters = params.get("max_iters", 5000)
    res = variational_ground_state(pot, grid, consts, max_iters=max_iters,
                                   **_given(params, "tol"))
    sol = solve_tise(pot, grid, 1, consts)
    rel = abs(res.energy - sol.energies[0]) / abs(sol.energies[0])
    checks = [
        Check("variational_vs_eigensolver_rel", rel, 1e-4),
        Check("iterations", float(res.iterations), float(max_iters)),
    ]
    return checks, {"ground_state.csv": (["x", "psi"],
                                         [grid.x, res.psi.values.real])}


def _run_wkb(params, consts):
    pot = _potential(params["potential"])
    grid = Grid1D(**params["grid"])
    energy = params["energy"]
    profile = local_wkb_profile(pot, energy, grid, consts)
    residual = appendix_a_consistency(pot, energy, grid, consts,
                                      **_given(params, "kinetic_fraction"))
    checks = [Check("force_recovery_max_rel_residual", residual, 1e-3)]
    artifacts = {"profile.csv": (
        ["x", "k", "delta_x", "validity"],
        [grid.x, profile.k_of_x, profile.delta_x_of_x,
         profile.validity_metric])}
    if params.get("with_bohm_report"):
        artifacts["bohm_report.json"] = bohm_adiabaticity_report(
            pot, energy, grid, consts)
    return checks, artifacts


def _run_dispersion(params, consts):
    p = DispersionParams(**{"c": consts.c, "f": consts.f, **params})
    res = dispersion_checks(p, consts)
    checks = [
        Check("kg_plane_wave_residual", res.kg_residual, 1e-12),
        Check("nr_plane_wave_residual", res.nr_residual, 1e-12),
    ]
    payload = {"omega_kg": res.omega_kg, "omega_nr": res.omega_nr,
               **dataclasses.asdict(p)}
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


# kind -> (params schema, runner); the suite kind runs acceptance_suite
KINDS = {
    "trajectory": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "q0": _NUMBER,
        "p0": _NUMBER,
        "dt": _POSITIVE,
        "n_steps": {"type": "integer", "minimum": 4},
        "energy_drift_tol": _POSITIVE,
        "pzie_tol_bits": _POSITIVE,
    }, required=("potential", "q0", "p0", "dt", "n_steps")), _run_trajectory),
    "piston": (_object({
        "l0": _POSITIVE,
        "v0": _POSITIVE,
        "u": _NUMBER,
        "m": _POSITIVE,
        "mode": {"enum": ["constant_speed", "sudden_jump"]},
        "l_end": _POSITIVE,
        "t_end": _POSITIVE,
        "t_jump": _POSITIVE,
        "scan": _object({
            "ratios": {"type": "array", "minItems": 2, "items": _FRACTION},
            "expansion": {"type": "number", "exclusiveMinimum": 1},
        }, required=("ratios",)),
    }), _run_piston),
    "tise": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "grid": _GRID_SCHEMA,
        "n_states": {"type": "integer", "minimum": 1},
        "expected_energies": {"type": "array", "items": _NUMBER},
        "energy_rel_tol": _POSITIVE,
    }, required=("potential", "grid", "n_states")), _run_tise),
    "variational": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "grid": _GRID_SCHEMA,
        "max_iters": {"type": "integer", "minimum": 2},
        "tol": _POSITIVE,
    }, required=("potential", "grid")), _run_variational),
    "wkb": (_object({
        "potential": _POTENTIAL_SCHEMA,
        "energy": _NUMBER,
        "grid": _GRID_SCHEMA,
        "kinetic_fraction": _FRACTION,
        "with_bohm_report": {"type": "boolean"},
    }, required=("potential", "energy", "grid")), _run_wkb),
    "dispersion": (_object({
        "k": _NUMBER,
        "m0": _NON_NEGATIVE,
        "c": _POSITIVE,
        "f": _POSITIVE,
    }, required=("k", "m0")), _run_dispersion),
    "bounds": (_object({
        "energy": _POSITIVE,
        "theta": _POSITIVE,
    }, required=("energy", "theta")), _run_bounds),
    "regime": (_object({
        "fixture": {"enum": sorted(REGIME_EXPECTED)},
        "metrics": _object({
            "mean_abs_d_i": _NON_NEGATIVE,
            "max_step_d_i_q": _NON_NEGATIVE,
            "max_step_d_i_p": _NON_NEGATIVE,
        }, required=("mean_abs_d_i", "max_step_d_i_q", "max_step_d_i_p")),
        "thresholds": {"type": "array", "minItems": 2, "maxItems": 2,
                       "items": _POSITIVE},
    }), _run_regime),
    "suite": (_object({"filter": {"type": "string"}}), None),
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "cpdq-lab scenario",
    **_object({
        "kind": {"enum": sorted(KINDS)},
        "units": {"enum": ["natural", "si"]},
        "constants": _object(dict.fromkeys(
            ("f", "hbar", "k_boltz", "mass", "c", "f_ref", "p_floor"),
            _POSITIVE)),
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


def run_scenario(path: str | Path, out_dir: str | Path | None = None) -> tuple[dict | None, int]:
    """Execute one scenario file; returns (report dict, exit_code)."""
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(), parse_constant=_finite,
                         parse_float=_finite)
    except (OSError, ValueError) as exc:
        print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
        return None, EXIT_SCHEMA
    try:
        validate_scenario(cfg)
    except ScenarioError as exc:
        print(f"error: invalid scenario {path}: {exc}", file=sys.stderr)
        return None, EXIT_SCHEMA

    if out_dir is None:
        out_dir = cfg.get("out_dir", path.parent / (path.stem + "_out"))
    if cfg["kind"] == "suite":
        return None, acceptance_suite(cfg["params"].get("filter"), out_dir)
    base = si_units() if cfg.get("units") == "si" else natural_units()
    consts = dataclasses.replace(base, **cfg.get("constants", {}))
    started = time.perf_counter()
    try:
        checks, artifacts = KINDS[cfg["kind"]][1](cfg["params"], consts)
        elapsed = time.perf_counter() - started
        report = {"version": __version__, "scenario": cfg,
                  "checks": _check_rows(checks),
                  "artifacts": sorted(artifacts)}
        _write_artifacts(Path(out_dir), {
            **artifacts, "report.json": report,
            "timing.json": {"elapsed_s": elapsed}})
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
