"""Spans and work counts around the public calls into each layer.

The tracer is installed from the benchmark, not from the program.  Callers
in the package bind functions at import time (`from .dynamics import
integrate_hamilton`), so a function is replaced under every name that
refers to it in every loaded `cpdq_lab` module, and the acceptance
criteria are replaced in the CRITERIA table itself.  `uninstall` puts the
originals back, so traced and untraced passes alternate in one process.

A span is [name, start, end, parent index].  Spans stay in memory; the
worker writes them out when the run ends.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import scipy.fft

# metric -> the "module.function" spans whose self time it sums
TIMED = {
    "cli.write_csv_s": ["cli.write_csv"],
    "cli.validate_s": ["cli.validate_scenario"],
    "cli.run_scenario_self_s": ["cli.run_scenario"],
    "cli.acceptance_suite_self_s": ["cli.acceptance_suite"],
    "dynamics.integrate_s": ["dynamics.integrate_hamilton"],
    "dynamics.diagnostics_s": ["dynamics.cpdq_diagnostics",
                               "dynamics.energy_budget",
                               "dynamics.newton_uncertainty_residual"],
    "thermo.simulate_s": ["thermo.piston_simulate"],
    "thermo.extended_s": ["thermo.extended_quantities"],
    "thermo.heat_theorem_s": ["thermo.heat_theorem_residual"],
    "thermo.scan_self_s": ["thermo.adiabatic_scan"],
    "quantum.descent_s": ["quantum.variational_ground_state"],
    "quantum.eigensolve_s": ["quantum.solve_tise"],
    "quantum.fisher_s": ["quantum.fisher_metrics", "quantum.cr_bound_check"],
    "quantum.wkb_s": ["quantum.local_wkb_profile",
                      "quantum.appendix_a_consistency",
                      "quantum.bohm_adiabaticity_report"],
    "quantum.dispersion_s": ["quantum.dispersion_checks"],
    "info.ledger_s": ["info.info_ledger"],
    "info.regime_s": ["info.regime_classify", "info.trajectory_regime_metrics",
                      "info.piston_regime_metrics", "info.wkb_regime_metrics"],
    "info.bounds_s": ["info.rate_bounds"],
    "variational.special_variation_s": ["variational.special_variation",
                                        "variational.custom_variation"],
    "variational.first_order_dL_s": ["variational.first_order_dL"],
    "variational.action_s": ["variational.action_and_variation"],
    "core.eval_potential_s": ["core.eval_potential"],
}

CRITERIA = ["1_stationarity", "2_action_decomposition", "3_eigensolver",
            "4_cramer_rao", "5_variational_ground_state", "6_force_recovery",
            "7_thermo_bridge", "8_extended_quantities", "9_pzie",
            "10_rate_bounds", "11_dispersion", "12_regime_classifier"]

COUNTS = ["cli.csv_floats", "cli.csv_bytes", "dynamics.steps", "thermo.events",
          "quantum.descent_iters", "quantum.dst_transforms", "quantum.dst_len",
          "quantum.dst_slow_transforms", "quantum.eigen_dim",
          "quantum.fisher_points", "info.ledger_points",
          "core.eval_potential_calls"]


def _csv(c, a, result):
    c["cli.csv_floats"] += len(a["columns"]) * len(a["columns"][0])
    c["cli.csv_bytes"] += os.path.getsize(a["path"])


def _transform(c, a, result):
    n = len(a["x"])
    c["quantum.dst_transforms"] += 1
    c["quantum.dst_len"] = max(c["quantum.dst_len"], n)
    # scipy computes a DST-I of length n through an FFT of length 2(n+1)
    fft_len = 2 * (n + 1)
    c["quantum.dst_slow_transforms"] += scipy.fft.next_fast_len(fft_len) != fft_len


def _add(metric, amount):
    def hook(c, a, result):
        c[metric] += amount(a, result)
    return hook


HOOKS = {
    "cli.write_csv": _csv,
    "dynamics.integrate_hamilton":
        _add("dynamics.steps", lambda a, r: a["cfg"].n_steps),
    "thermo.piston_simulate": _add("thermo.events", lambda a, r: len(r.t)),
    "quantum.variational_ground_state":
        _add("quantum.descent_iters", lambda a, r: r.iterations),
    "quantum.solve_tise":
        _add("quantum.eigen_dim", lambda a, r: a["grid"].n - 2),
    "quantum.fisher_metrics":
        _add("quantum.fisher_points", lambda a, r: len(a["psi"].values)),
    "info.info_ledger":
        _add("info.ledger_points", lambda a, r: len(r.d_i_q) + 1),
    "core.eval_potential": _add("core.eval_potential_calls", lambda a, r: 1),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._criteria = None

    def _wrap(self, name, fn, hook=None, span=True):
        bind = inspect.signature(fn).bind if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0,
                                   self._stack[-1] if self._stack else -1])
                self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    self.spans[idx][1:3] = start, time.perf_counter()
                    self._stack.pop()
            if hook:
                hook(self.counts, bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def _replace(self, original, wrapper, extra=()):
        modules = [m for n, m in sys.modules.items()
                   if n == "cpdq_lab" or n.startswith("cpdq_lab.")]
        for mod in modules + list(extra):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        for names in TIMED.values():
            for full in names:
                mod_name, attr = full.split(".")
                original = getattr(sys.modules[f"cpdq_lab.{mod_name}"], attr)
                self._replace(original, self._wrap(full, original,
                                                   HOOKS.get(full)))
        # counted, not timed: the descent's span keeps the transform time
        for attr in ("dst", "idst"):
            original = getattr(scipy.fft, attr)
            self._replace(original, self._wrap(attr, original, _transform,
                                               span=False), extra=[scipy.fft])
        table = sys.modules["cpdq_lab.acceptance"].CRITERIA
        self._criteria = list(table)
        table[:] = [(name, tags, self._wrap(f"acceptance.{name}", func))
                    for name, tags, func in table]

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        sys.modules["cpdq_lab.acceptance"].CRITERIA[:] = self._criteria

    def take(self) -> tuple[list, dict]:
        """Spans and counts recorded since the last take, then reset."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def self_times(spans: list) -> dict[str, float]:
    """Self time per metric: span durations minus their children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    metric_of = {full: metric for metric, names in TIMED.items()
                 for full in names}
    metric_of.update({f"acceptance.{c}": f"acceptance.{c}_s" for c in CRITERIA})
    out = dict.fromkeys(list(TIMED) + [f"acceptance.{c}_s" for c in CRITERIA],
                        0.0)
    for i, (name, start, end, _) in enumerate(spans):
        out[metric_of[name]] += end - start - child[i]
    return out
