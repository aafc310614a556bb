import contextlib
import copy
import dataclasses
import functools
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from cpdq_lab import (Grid1D, IntegratorConfig, PistonConfig, Potential,
                      _csv, _schema, acceptance, cli, core, dynamics, quantum,
                      thermo)
from cpdq_lab.dynamics import TrajectoryProblem
from cpdq_lab.quantum import GridProblem, admitted_block
from cpdq_lab.thermo import scan_configs
from test_csv import EDGE_FLOATS, assert_no_child_left, old_csv_rows


SCENARIOS = Path(str(resources.files("cpdq_lab") / "scenarios"))


def scenario_path(name: str) -> Path:
    return SCENARIOS / name


def run(name, out):
    return cli.main(["run", str(scenario_path(name)), "--out", str(out)])


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


# every bundled scenario but the negative fixture and the suite kind,
# which TestSuite covers
RUNNABLE_SCENARIOS = sorted(
    p.name for p in SCENARIOS.glob("*.json")
    if p.name != "bad_schema.json"
    and json.loads(p.read_text())["kind"] != "suite")

TISE_WELL = {"potential": {"kind": "infinite_well"},
             "grid": {"x_min": 0.0, "x_max": 1.0, "n": 200}}
HARMONIC = {"potential": {"kind": "harmonic"},
            "grid": {"x_min": -10.0, "x_max": 10.0, "n": 2000}}
# reaches past the default width-1 well of TISE_WELL
WELL_OVERRUN = {"x_min": 0.0, "x_max": 2.0, "n": 200}


class TestValidation:
    def test_unknown_top_level_key_named(self, tmp_path, capsys):
        code = run("bad_schema.json", tmp_path)
        assert code == cli.EXIT_SCHEMA
        assert "paramters" in capsys.readouterr().err

    # the particle mass, c and f are set only in the constants block
    @pytest.mark.parametrize("kind,params,key", [
        ("bounds", {"energy": 1.0, "theta": 1.0, "extra_knob": 2},
         "extra_knob"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": 1e-3, "l_end": 2.0, "m": 2.0},
         "m"),
        ("dispersion", {"k": 1.0, "m0": 1.0, "c": 3.0}, "c"),
        ("dispersion", {"k": 1.0, "m0": 1.0, "f": 0.5}, "f"),
    ], ids=["bounds.extra_knob", "piston.m", "dispersion.c", "dispersion.f"])
    def test_unknown_param_key(self, tmp_path, capsys, kind, params, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": kind, "params": params}))
        out = tmp_path / "o"
        code = cli.main(["run", str(bad), "--out", str(out)])
        assert code == cli.EXIT_SCHEMA
        assert f"unknown key(s) [{key!r}]" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = cli.main(["run", str(bad), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA

    def test_missing_file(self, tmp_path):
        code = cli.main(["run", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_SCHEMA

    def test_regime_needs_one_source(self, tmp_path):
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps({"kind": "regime", "params": {}}))
        assert cli.main(["run", str(bad)]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("kind,params,named", [
        ("tise", dict(TISE_WELL, n_states=1,
                      expected_energies=[4.93, 19.7]), "expected_energies"),
        ("tise", dict(TISE_WELL, n_states=1,
                      expected_energies=[0.0]), "expected_energies"),
        ("piston", {"v0": 1.0, "u": 0.1, "l_end": 2.0}, "l0 and v0"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": 0.1, "l_end": 0.5}, "l_end"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": -0.5, "t_end": 10.0},
         "t_end < l0/|u|"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": 0.5, "mode": "sudden_jump",
                    "scan": {"ratios": [0.01, 0.1]}}, "'u', 'mode'"),
        ("piston", {"l0": 1.0, "v0": 1.0, "mode": "sudden_jump", "l_end": 2.0,
                    "t_jump": 5.0, "t_end": 3.0}, "t_jump < t_end"),
        ("piston", {"l0": 1.0, "v0": 1.0, "t_end": 1.5},
         "second right-wall collision"),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": -0.5, "t_end": 1.99999999},
         "10000000"),
        ("tise", dict(TISE_WELL, n_states=1,
                      grid={"x_min": 1.0, "x_max": -1.0, "n": 200}),
         "x_max must exceed x_min"),
        ("piston", {"l0": 1, "v0": 1, "scan": {"ratios": [1e-9, 0.1]}},
         "piston scan: more than 10000000"),
        ("variational", dict(HARMONIC, max_iters=1), "minimum of 2"),
        ("tise", dict(TISE_WELL, n_states=1, grid=WELL_OVERRUN),
         "grid: grid must lie inside the well"),
        ("variational", dict(TISE_WELL, grid=WELL_OVERRUN),
         "grid: grid must lie inside the well"),
        ("wkb", dict(TISE_WELL, energy=1.0, grid=WELL_OVERRUN),
         "grid: grid must lie inside the well"),
        # a grid 1.8e8 widths wide: the walls' slack is relative to the width
        ("tise", {"potential": {"kind": "infinite_well", "width": 1e-20},
                  "grid": {"x_min": -9e-13, "x_max": 9e-13, "n": 200},
                  "n_states": 2},
         "grid: grid must lie inside the well"),
        ("tise", {"potential": {"kind": "harmonic"},
                  "grid": {"x_min": -5.0, "x_max": 5.0, "n": 64},
                  "n_states": 63}, "n_states exceeds interior grid dimension"),
        ("trajectory", {"potential": {"kind": "infinite_well", "width": 1.0},
                        "q0": 2.0, "p0": 1.0, "dt": 0.01, "n_steps": 10},
         "q0 lies outside the potential's domain"),
        # u = v0/(2k) stops the particle at right-wall hit k, which these
        # runs reach: f = 0 and S = -inf from there on
        ("piston", {"l0": 1, "v0": 1, "scan": {"ratios": [0.1, 0.5],
                                                "expansion": 3}},
         "piston scan: right-wall collision 1 leaves the particle at rest"),
        ("piston", {"l0": 1, "v0": 1, "u": 0.25, "l_end": 20},
         "piston: right-wall collision 2 leaves the particle at rest"),
        ("trajectory", {"potential": {"kind": "harmonic"}, "q0": 1.0,
                        "p0": 0.0, "dt": 1e-3, "n_steps": 10_000_001},
         "greater than the maximum of 10000000 at n_steps"),
        ("tise", dict(TISE_WELL, n_states=1, grid={
            "x_min": 0.0, "x_max": 1.0, "n": 1_000_001}),
         "greater than the maximum of 1000000 at grid/n"),
        ("tise", {"potential": {"kind": "harmonic"},
                  "grid": {"x_min": -5.0, "x_max": 5.0, "n": 100_000},
                  "n_states": 99_998}, "n_states * grid n exceeds 10000000"),
        # k*dt^2/mass is about 1.1e24 for an SI electron
        (("trajectory", "si"), {"potential": {"kind": "harmonic"},
                                "q0": 1.0, "p0": 0.0, "dt": 1e-3,
                                "n_steps": 1000},
         "trajectory: harmonic leapfrog step is unstable"),
        ("trajectory", {"potential": {"kind": "harmonic", "omega": 2.0},
                        "q0": 1.0, "p0": 0.0, "dt": 1.0, "n_steps": 10},
         "trajectory: harmonic leapfrog step is unstable"),
        # omega**2 is past the float range
        ("trajectory", {"potential": {"kind": "harmonic", "omega": 1e200},
                        "q0": 1.0, "p0": 0.0, "dt": 0.01, "n_steps": 10},
         "trajectory: harmonic leapfrog step is unstable"),
        ("piston", {"l0": 1, "v0": 1, "u": 0.5, "mode": "sudden_jump",
                    "l_end": 2}, "piston: sudden_jump takes no wall speed u"),
        ("piston", {"l0": 1, "v0": 1, "u": 0.01, "l_end": 2, "t_jump": 1},
         "piston: t_jump applies only to mode sudden_jump"),
        # a potential key its kind does not read
        ("trajectory", {"potential": {"kind": "free", "omega": 3}, "q0": 1,
                        "p0": 1, "dt": 0.01, "n_steps": 100},
         "potential: free potential takes no omega"),
        ("trajectory", {"potential": {"kind": "harmonic", "f0": 2},
                        "q0": 1, "p0": 0, "dt": 0.01, "n_steps": 100},
         "potential: harmonic potential takes no f0"),
        ("wkb", {"potential": {"kind": "linear", "f0": 1, "width": 2},
                 "energy": 5, "grid": {"x_min": -4, "x_max": 4, "n": 100}},
         "potential: linear potential takes no width"),
        ("tise", dict(TISE_WELL, n_states=1,
                      potential={"kind": "infinite_well", "m": 2}),
         "potential: infinite_well potential takes no m"),
        ("variational", dict(HARMONIC, potential={
            "kind": "soft_well", "v0": 2, "a": 0.5, "omega": 1}),
         "potential: soft_well potential takes no omega"),
        # the force-recovery check needs 5 contiguous admitted points
        ("wkb", {"potential": {"kind": "harmonic"}, "energy": -1,
                 "grid": {"x_min": -4, "x_max": 4, "n": 100}},
         "wkb: no classically allowed region at this energy"),
        ("wkb", {"potential": {"kind": "harmonic"}, "energy": 0.001,
                 "grid": {"x_min": -4, "x_max": 4, "n": 100}},
         "wkb: admitted region too short for stencils"),
        # the grid spacing overflows to inf or underflows to 0
        ("wkb", {"potential": {"kind": "harmonic"}, "energy": 1,
                 "grid": {"x_min": -1e308, "x_max": 1e308, "n": 100}},
         "grid: x_max must exceed x_min"),
        ("tise", {"potential": {"kind": "harmonic"}, "n_states": 1,
                  "grid": {"x_min": 0, "x_max": 5e-324, "n": 64}},
         "grid: x_max must exceed x_min"),
        ("wkb", {"potential": {"kind": "harmonic"}, "energy": 1,
                 "grid": {"x_min": 0, "x_max": 5e-324, "n": 64}},
         "grid: x_max must exceed x_min"),
        # h is a double but h**2 overflows or underflows to 0
        ("tise", {"potential": {"kind": "infinite_well", "width": 1e308},
                  "n_states": 1, "grid": {"x_min": 0, "x_max": 1e308, "n": 64}},
         "grid: grid spacing h = 1.5873015873015875e+306 has no positive "
         "finite square"),
        ("variational", {"potential": {"kind": "infinite_well",
                                       "width": 1e308},
                         "grid": {"x_min": 0, "x_max": 1e308, "n": 64}},
         "grid: grid spacing h = 1.5873015873015875e+306 has no positive "
         "finite square"),
        ("tise", {"potential": {"kind": "harmonic"}, "n_states": 1,
                  "grid": {"x_min": 0, "x_max": 1e-170, "n": 64}},
         "grid: grid spacing h = 1.5873015873015874e-172 has no positive "
         "finite square"),
        # E - V passes the double range on the grid
        ("wkb", {"potential": {"kind": "linear", "f0": 1e308}, "energy": 1e308,
                 "grid": {"x_min": -1, "x_max": 1, "n": 64}},
         "wkb: E - V overflows on the grid"),
        ("wkb", {"potential": {"kind": "linear", "f0": 1e308},
                 "energy": -1e308, "grid": {"x_min": -1, "x_max": 1, "n": 64}},
         "wkb: E - V overflows on the grid"),
        # the Bohm report's eigensolve forms the operator
        ("wkb", {"potential": {"kind": "linear"}, "energy": 1,
                 "grid": {"x_min": -1e-170, "x_max": 1e-170, "n": 64},
                 "with_bohm_report": True},
         "grid: grid spacing h = 3.174603174603175e-172 has no positive "
         "finite square"),
        # 2 f^2/mass = 2e-320 is finite, (E - V)/(2 f^2/mass) is not
        (("wkb", "natural", {"f": 1e-160}),
         {"potential": {"kind": "harmonic"}, "energy": 10,
          "grid": {"x_min": -4.2, "x_max": 4.2, "n": 841}},
         "wkb: k^2 = (E - V)/(2 f^2/mass) is not positive and finite on "
         "the grid"),
        # 2 f^2/mass = 2e306: E - V = 1e-20 over it underflows to 0
        (("wkb", "natural", {"f": 1e153}),
         {"potential": {"kind": "free"}, "energy": 1e-20,
          "grid": {"x_min": -1, "x_max": 1, "n": 64}},
         "wkb: k^2 = (E - V)/(2 f^2/mass) is not positive and finite on "
         "the grid"),
        # 2 f^2/mass underflows to 0
        (("wkb", "natural", {"f": 1e-170}),
         {"potential": {"kind": "harmonic"}, "energy": 10,
          "grid": {"x_min": -4, "x_max": 4, "n": 64}},
         "wkb: k^2 = (E - V)/(2 f^2/mass) is not positive and finite on "
         "the grid"),
    ], ids=["tise_too_many_energies", "tise_zero_energy", "piston_no_l0",
            "piston_l_end_unreachable", "piston_collapsing_box",
            "piston_scan_with_run_keys", "piston_jump_after_end",
            "piston_one_right_hit", "piston_near_closure", "grid_reversed",
            "piston_scan_event_cap", "variational_one_application",
            "tise_grid_past_well", "variational_grid_past_well",
            "wkb_grid_past_well", "tise_grid_past_tiny_well",
            "tise_n_states_past_grid",
            "trajectory_q0_outside_well", "piston_scan_stops_particle",
            "piston_stops_particle", "trajectory_too_many_steps",
            "tise_grid_too_large", "tise_states_too_large",
            "trajectory_si_electron_blowup", "trajectory_harmonic_step_at_4",
            "trajectory_harmonic_omega_overflow",
            "piston_jump_with_u", "piston_constant_speed_with_t_jump",
            "free_potential_omega", "harmonic_potential_f0",
            "linear_potential_width", "infinite_well_potential_m",
            "soft_well_potential_omega", "wkb_no_allowed_region",
            "wkb_admitted_region_too_short", "wkb_grid_spacing_overflows",
            "tise_grid_spacing_underflows", "wkb_grid_spacing_underflows",
            "tise_spacing_square_overflows",
            "variational_spacing_square_overflows",
            "tise_spacing_square_underflows", "wkb_e_minus_v_overflows",
            "wkb_e_minus_v_overflows_below", "wkb_bohm_spacing_underflows",
            "wkb_k_squared_overflows", "wkb_k_squared_underflows",
            "wkb_kinetic_coefficient_underflows"])
    def test_config_error_exits_2(self, tmp_path, capsys, monkeypatch, kind,
                                  params, named):
        # kind names the scenario kind, or is (kind, units) or
        # (kind, units, constants); validation builds a wkb run's profile
        kind, units, *constants = (kind if isinstance(kind, tuple)
                                   else (kind, "natural"))
        def never(*args, **kwargs):
            raise AssertionError("computed a rejected config")
        for name in ("solve_tise", "piston_simulate", "adiabatic_scan",
                     "variational_ground_state", "appendix_a_consistency",
                     "bohm_adiabaticity_report", "integrate_hamilton"):
            monkeypatch.setattr(cli, name, never)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": kind, "units": units,
                                   "constants": dict(*constants),
                                   "params": params}))
        out = tmp_path / "o"
        assert cli.main(["run", str(bad), "--out", str(out)]) \
            == cli.EXIT_SCHEMA
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"kind": "piston", "params": {"l0": NaN, "v0": 1, "u": 0.01, '
        '"l_end": 2}}',
        '{"kind": "trajectory", "params": {"potential": {"kind": '
        '"harmonic"}, "q0": 1, "p0": 0, "dt": NaN, "n_steps": 10}}',
        '{"kind": "dispersion", "params": {"k": Infinity, "m0": 1}}',
        '{"kind": "bounds", "params": {"energy": 1e999, "theta": 300}}',
    ], ids=["nan_l0", "nan_dt", "infinite_k", "overflowing_energy"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["run", str(bad), "--out", str(out)]) \
            == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cannot parse" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"kind": "piston", "params": {"l0": 1%s, "v0": 1, "u": 0.01, '
        '"l_end": 2}}',
        '{"kind": "bounds", "params": {"energy": 1%s, "theta": 300}}',
        '{"kind": "dispersion", "params": {"k": 1%s, "m0": 1}}',
        '{"kind": "trajectory", "params": {"potential": {"kind": '
        '"harmonic"}, "q0": -1%s, "p0": 0, "dt": 0.01, "n_steps": 10}}',
    ], ids=["int_l0", "int_energy", "int_k", "int_q0"])
    def test_integer_beyond_double_range_exits_2(self, tmp_path, capsys,
                                                 text):
        # 10**400 written out as an integer: json parses it exactly, and
        # float() of it overflows, as 1e400 does
        bad = tmp_path / "bad.json"
        bad.write_text(text % ("0" * 400))
        out = tmp_path / "o"
        assert cli.main(["run", str(bad), "--out", str(out)]) \
            == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cannot parse" in err, err
        assert "401 digits is beyond the double range" in err
        assert not out.exists()

    def test_integer_fields_stay_integers(self, tmp_path):
        # the largest integer float() takes is still parsed; integer
        # fields reach the model and the report as ints
        cfg = {"kind": "trajectory", "params": {
            "potential": {"kind": "harmonic"}, "q0": 1, "p0": 0,
            "dt": 0.01, "n_steps": 10}}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(cfg))
        report, code = cli.run_scenario(path, tmp_path / "o")
        assert code == cli.EXIT_OK
        params = report["scenario"]["params"]
        assert [type(params[k]) for k in ("q0", "p0", "n_steps")] == [int] * 3
        assert cli._int(str(2 ** 1023)) == 2 ** 1023
        with pytest.raises(ValueError, match="310 digits"):
            cli._int("-" + "9" * 310)

    @pytest.mark.parametrize("kind,params,path", [
        ("tise", {"potential": {"kind": "harmonic"}, "n_states": 1,
                  "grid": {"x_min": -5, "x_max": 5, "n": 64}}, ("grid", "n")),
        ("tise", {"potential": {"kind": "harmonic"}, "n_states": 1,
                  "grid": {"x_min": -5, "x_max": 5, "n": 64}}, ("n_states",)),
        ("wkb", {"potential": {"kind": "harmonic"}, "energy": 10,
                 "grid": {"x_min": -4.2, "x_max": 4.2, "n": 100}},
         ("grid", "n")),
        ("trajectory", {"potential": {"kind": "soft_well"}, "q0": 0.1,
                        "p0": 0.5, "dt": 0.01, "n_steps": 100}, ("n_steps",)),
    ], ids=["tise_grid_n", "tise_n_states", "wkb_grid_n",
            "soft_well_n_steps"])
    def test_integral_float_counts_run_as_integers(self, tmp_path, capsys,
                                                   kind, params, path):
        # the schema admits 64.0 as an integer; the run is its twin's
        floated = copy.deepcopy(params)
        *inner, key = path
        target = functools.reduce(dict.__getitem__, inner, floated)
        target[key] = float(target[key])
        outputs = []
        for name, cfg in (("int", params), ("float", floated)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"kind": kind, "params": cfg}))
            code = cli.main(["run", str(config), "--out",
                             str(tmp_path / name)])
            csvs = {p.name: p.read_bytes()
                    for p in sorted((tmp_path / name).glob("*.csv"))}
            outputs.append((code, csvs))
        assert "error" not in capsys.readouterr().err
        assert outputs[0][1] and outputs[1] == outputs[0]

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        # without --out the output directory is resolved only after the
        # config is known to be an object
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert cli.main(["run", str(bad)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "is not of type 'object'" in err[0], err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("kind,params,built", [
        ("trajectory", {"potential": {"kind": "harmonic"}, "q0": 1.0,
                        "p0": 0.0, "dt": 0.01, "n_steps": 100},
         lambda c: {"potential": Potential("harmonic"),
                    "problem": TrajectoryProblem(
                        Potential("harmonic"), 1.0, 0.0,
                        IntegratorConfig(0.01, 100), c)}),
        ("piston", {"l0": 1.0, "v0": 1.0, "u": 0.01, "l_end": 2.0},
         lambda c: {"piston": PistonConfig(l0=1.0, v0=1.0, u=0.01,
                                           l_end=2.0)}),
        ("piston", {"v0": 3.0, "scan": {"ratios": [0.3, 0.1],
                                        "expansion": 1.5}},
         lambda c: {"configs": scan_configs([0.3, 0.1], v0=3.0,
                                            expansion=1.5)}),
        ("tise", dict(TISE_WELL, n_states=1),
         lambda c: {"potential": Potential("infinite_well"),
                    "problem": GridProblem(Potential("infinite_well"),
                                           Grid1D(0.0, 1.0, 200), c)}),
        ("variational", HARMONIC,
         lambda c: {"potential": Potential("harmonic"),
                    "problem": GridProblem(Potential("harmonic"),
                                           Grid1D(-10.0, 10.0, 2000), c)}),
    ], ids=["trajectory", "piston", "scan", "tise", "variational"])
    def test_validation_builds_the_models(self, kind, params, built):
        consts, run_params = cli.validate_scenario(
            {"kind": kind, "units": "si", "constants": {"mass": 2.0},
             "params": params})
        assert consts == dataclasses.replace(core.si_units(), mass=2.0)
        built = built(consts)
        assert run_params == {**params, **built}
        assert all(type(run_params[k]) is type(v) for k, v in built.items())

    def test_validation_samples_the_wkb_potential(self):
        params = {"potential": {"kind": "linear", "f0": 2.0}, "energy": 5.0,
                  "grid": {"x_min": -2.0, "x_max": 2.0, "n": 64}}
        consts, run_params = cli.validate_scenario(
            {"kind": "wkb", "params": params})
        assert consts == core.natural_units()
        grid = run_params["problem"].grid
        assert grid == Grid1D(-2.0, 2.0, 64)
        v, dv = run_params["problem"].sample
        assert np.array_equal(v, -2.0 * grid.x)
        assert np.array_equal(dv, np.full(64, -2.0))
        # and builds the run's one profile from them
        profile = run_params["profile"]
        assert profile.problem is run_params["problem"]
        assert profile.energy == 5.0
        assert np.array_equal(profile.k_of_x, np.sqrt((5.0 - v) / 0.5))
        assert np.array_equal(run_params["seg"], admitted_block(profile))
        # the config itself is left as parsed
        assert params["grid"] == {"x_min": -2.0, "x_max": 2.0, "n": 64}

    def test_well_grid_within_slack_runs(self, tmp_path):
        # 1e-13 past the wall is inside the 1e-12 slack of Potential.contains
        path = tmp_path / "slack.json"
        path.write_text(json.dumps({"kind": "wkb", "params": dict(
            TISE_WELL, energy=10.0,
            grid={"x_min": 0.0, "x_max": 1.0000000000001, "n": 64})}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_OK


def strict_csv(path: Path, header: list[str]) -> None:
    """Every line ends in a newline, the first is the header, and every
    other has one float-parsable field per header column."""
    lines = path.read_text().splitlines(keepends=True)
    assert all(line.endswith("\n") for line in lines)
    assert lines[0] == ",".join(header) + "\n"
    for line in lines[1:]:
        fields = line[:-1].split(",")
        assert len(fields) == len(header)
        for field in fields:
            float(field)


# run beside the bundled scenarios: no bundled one has these shapes (an
# infinite-well trajectory's p, delta_q, f, T, V and E take at most two
# values each)
EXTRA_SCENARIOS = {"trajectory_infinite_well.json": {
    "kind": "trajectory", "params": {
        "potential": {"kind": "infinite_well", "width": 1.3},
        "q0": 0.4, "p0": -2.5, "dt": 0.001, "n_steps": 5000}}}


class TestRun:
    @pytest.mark.parametrize("params", [
        None,
        {"potential": {"kind": "soft_well"}, "q0": 0.5, "p0": 0.0},
        {"potential": {"kind": "infinite_well"}, "q0": 0.3, "p0": 1.7},
    ], ids=["harmonic_pzie", "soft_well", "infinite_well"])
    def test_trajectory_peak_is_its_columns(self, tmp_path, params):
        # a run holds t, q, p, the five derived series and the gap mask;
        # its checks reduce them with at most one column-sized temporary
        path = scenario_path("harmonic_pzie.json")
        n_steps = json.loads(path.read_text())["params"]["n_steps"]
        if params is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"kind": "trajectory", "params": {
                **params, "dt": 1e-3, "n_steps": n_steps}}))
        tracemalloc.start()
        try:
            _, code = cli.run_scenario(path, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 8 * 8 * (n_steps + 1) + 2e6

    @pytest.mark.parametrize("name",
                             RUNNABLE_SCENARIOS + sorted(EXTRA_SCENARIOS))
    def test_bundled_scenarios_pass(self, tmp_path, monkeypatch, name):
        tables = {}
        write_csv = cli.write_csv

        def recording(path, header, columns):
            tables[Path(path).name] = header, columns
            write_csv(path, header, columns)
        monkeypatch.setattr(cli, "write_csv", recording)
        # a scan's runs are built once, in validation
        scans = []

        def counting(*args, **kwargs):
            scans.append(args)
            return scan_configs(*args, **kwargs)
        for module in (cli, thermo):
            monkeypatch.setattr(module, "scan_configs", counting)
        path = scenario_path(name)
        if name in EXTRA_SCENARIOS:
            path = tmp_path / name
            path.write_text(json.dumps(EXTRA_SCENARIOS[name]))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_OK
        assert len(scans) == (name == "piston_scan.json")
        report = strict_json(out / "report.json")
        assert all(c["pass"] for c in report["checks"])
        assert report["artifacts"]
        for artifact in report["artifacts"]:
            assert (out / artifact).exists()
            if artifact.endswith(".json"):
                strict_json(out / artifact)
            else:
                header, columns = tables[artifact]
                strict_csv(out / artifact, header)
                assert (out / artifact).read_text() \
                    == ",".join(header) + "\n" + old_csv_rows(columns)

    def test_harmonic_pzie_scenario(self, tmp_path):
        assert run("harmonic_pzie.json", tmp_path / "out") == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert "pzie_cumulative_bits" in names
        assert (tmp_path / "out" / "series.csv").exists()

    def test_check_failure_exits_3(self, tmp_path):
        cfg = json.loads(scenario_path("harmonic_pzie.json").read_text())
        cfg["params"]["energy_drift_tol"] = 1e-300
        cfg["params"]["n_steps"] = 5000
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CHECK

    def test_computation_error_exits_1(self, tmp_path):
        # at rest at the bottom of the well |p| stays below p_floor, so
        # no sample has a defined delta_q
        cfg = {"kind": "trajectory", "params": {
            "potential": {"kind": "harmonic"},
            "q0": 0.0, "p0": 0.0, "dt": 0.01, "n_steps": 100}}
        path = tmp_path / "err.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_COMPUTE

    def test_descending_scan_checks_in_ratio_order(self, tmp_path):
        # the violation grows with u/v0 however the ratios are listed;
        # scan.csv keeps the order given
        values = {}
        for name, ratios in (("up", [0.01, 0.1, 0.3]),
                             ("down", [0.3, 0.1, 0.01])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"kind": "piston", "params": {
                "l0": 1.0, "v0": 1.0, "scan": {"ratios": ratios}}}))
            report, code = cli.run_scenario(path, tmp_path / name)
            assert code == cli.EXIT_OK
            values[name] = report["checks"][0]["value"]
            table = np.loadtxt(tmp_path / name / "scan.csv", delimiter=",",
                               skiprows=1)
            assert list(table[:, 0]) == ratios
        assert values["down"] == values["up"]

    def test_negative_energy_wkb_is_finite(self, tmp_path):
        # E < 0 under V = -q: only q > 1 is allowed, and only those points
        # enter the force-recovery check
        path = tmp_path / "below.json"
        path.write_text(json.dumps({"kind": "wkb", "params": {
            "potential": {"kind": "linear", "f0": 1.0}, "energy": -1.0,
            "grid": {"x_min": -4.5, "x_max": 5.0, "n": 400}}}))
        report, code = cli.run_scenario(path, tmp_path / "o")
        assert code == cli.EXIT_CHECK
        assert math.isfinite(report["checks"][0]["value"])
        strict_json(tmp_path / "o" / "report.json")

    def test_solver_failure_payload_exits_1(self, tmp_path, capsys):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps({"kind": "variational", "params": dict(
            HARMONIC, max_iters=3, tol=1e-16)}))
        out = tmp_path / "o"
        assert cli.main(["run", str(path), "--out", str(out)]) \
            == cli.EXIT_COMPUTE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "ConvergenceError" in err and "iterations=3" in err
        assert math.isfinite(float(re.search(r"energy=(\S+)", err)[1]))
        assert not (out / "report.json").exists()

    def test_eigensolver_failure_exits_1(self, tmp_path, capsys,
                                         monkeypatch):
        """A LAPACK info that reports unconverged vectors ends the run as
        one computation-error line naming the routine."""
        real = quantum._lapack()

        def dstein(*args):
            z, _ = real.dstein(*args)
            return z, 1
        monkeypatch.setattr(quantum, "_lapack", lambda: types.SimpleNamespace(
            dstebz=real.dstebz, dstein=dstein))
        out = tmp_path / "o"
        assert cli.main(["run", str(scenario_path("tise_infinite_well.json")),
                         "--out", str(out)]) == cli.EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "ConvergenceError" in err[0], err
        assert "dstein" in err[0] and "info=1" in err[0], err
        assert not out.exists()

    def test_piston_reads_constants_mass(self, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({
            "kind": "piston", "constants": {"mass": 2.0},
            "params": {"l0": 1.0, "v0": 1.0, "u": 1e-2, "l_end": 2.0}}))
        out = tmp_path / "o"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_OK
        events = np.loadtxt(out / "events.csv", delimiter=",", skiprows=1)
        speed, box, f = events[:, 1], events[:, 2], events[:, 4]
        assert np.max(np.abs(f / (2.0 * speed * box) - 1.0)) \
            <= 8 * np.finfo(float).eps

    def test_dispersion_reads_constants_c(self, tmp_path):
        path = tmp_path / "fast_light.json"
        path.write_text(json.dumps({"kind": "dispersion",
                                    "constants": {"c": 2.0},
                                    "params": {"k": 3.0, "m0": 0.0}}))
        out = tmp_path / "o"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_OK
        payload = strict_json(out / "dispersion.json")
        # massless: omega = c*|k|
        assert payload["omega_kg"] == 2.0 * 3.0
        assert (payload["c"], payload["f"]) == (2.0, 0.5)

    def test_report_deterministic(self, tmp_path):
        run("piston_sudden_jump.json", tmp_path / "a")
        run("piston_sudden_jump.json", tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() \
            == (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "events.csv").read_bytes() \
            == (tmp_path / "b" / "events.csv").read_bytes()

    def test_timing_outside_report(self, tmp_path):
        run("bounds_si_1joule.json", tmp_path / "out")
        report = (tmp_path / "out" / "report.json").read_text()
        assert "elapsed" not in report
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert sorted(timing) \
            == ["elapsed_s", "parse_s", "validate_s", "write_s"]
        assert all(seconds >= 0.0 for seconds in timing.values())


class TestWriteCsv:
    @pytest.mark.parametrize("name,table", [
        ("tise_harmonic.json", "states.csv"),
        ("piston_slow_doubling.json", "cycles.csv"),
        ("variational_harmonic.json", "ground_state.csv")])
    def test_kernel_formats_every_bundled_value(self, tmp_path, monkeypatch,
                                                name, table):
        # a wave function's tails and a slow piston's cycle times print in
        # scientific notation; none of them is left to `%`
        left = {}
        write_csv, slots = cli.write_csv, _csv._csv_slots

        def recording(path, header, columns):
            left[Path(path).name] = []
            write_csv(path, header, columns)

        def leaving(v):
            out, rest = slots(v)
            left[list(left)[-1]].append(int(rest.sum()))
            return out, rest
        monkeypatch.setattr(cli, "write_csv", recording)
        monkeypatch.setattr(_csv, "_csv_slots", leaving)
        monkeypatch.setattr(_csv, "_usable_cpus", lambda: 1)
        out = tmp_path / "out"
        assert run(name, out) == cli.EXIT_OK
        assert "e-" in (out / table).read_text()
        assert left[table] and not any(left[table])

    def test_short_tables_go_through_the_kernel(self, tmp_path, monkeypatch):
        # the kernel formats every table, however short: a sudden-jump
        # piston run's 10-row events.csv and 3-row cycles.csv, a 1-row
        # table and a 7-row table of literal and edge-float columns
        tables = {}
        write_csv = cli.write_csv

        def recording(path, header, columns):
            tables[Path(path).name] = header, columns
            write_csv(path, header, columns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "write_csv", recording)
            assert run("piston_sudden_jump.json", tmp_path / "out") \
                == cli.EXIT_OK
        assert [len(tables[name][1][0]) for name in ("events.csv",
                                                     "cycles.csv")] == [10, 3]
        tables["one_row.csv"] = ["a", "b"], [np.array([0.5]),
                                             np.array([-1e-7])]
        tables["mixed.csv"] = ["a", "b", "c"], [
            np.roll(np.resize(EDGE_FLOATS, 7), 2), np.full(7, 0.25),
            np.linspace(-3.0, 3.0, 7)]
        formatted = []
        slots = _csv._csv_slots

        def counting(v):
            formatted.append(len(v))
            return slots(v)
        monkeypatch.setattr(_csv, "_csv_slots", counting)
        for name, (header, columns) in tables.items():
            formatted.clear()
            cli.write_csv(tmp_path / name, header, columns)
            k = sum(_csv._csv_literal(c) is None for c in columns)
            assert formatted and sum(formatted) == k * len(columns[0]), name
            assert (tmp_path / name).read_bytes() == (
                ",".join(header) + "\n" + old_csv_rows(columns)).encode()

    def test_ragged_artifact_exits_1(self, tmp_path, monkeypatch, capsys):
        def ragged(params, consts):
            return [], {"t.csv": (["a", "b"], [np.zeros(3), np.zeros(2)])}
        monkeypatch.setitem(cli.KINDS, "bounds",
                            (*cli.KINDS["bounds"][:2], ragged))
        code = run("bounds_si_1joule.json", tmp_path / "out")
        assert code == cli.EXIT_COMPUTE
        assert "columns differ in length" in capsys.readouterr().err

    def test_split_run_reaps_its_child(self, tmp_path, monkeypatch, forks):
        # of harmonic_pzie's tables only series.csv reaches the threshold
        monkeypatch.setattr(_csv, "_usable_cpus", lambda: 2)
        out = tmp_path / "out"
        assert run("harmonic_pzie.json", out) == cli.EXIT_OK
        assert len(forks) == 1
        assert_no_child_left()
        assert sorted(os.listdir(out)) \
            == ["report.json", "series.csv", "timing.json"]

    def test_failed_child_exits_1(self, tmp_path, monkeypatch, capsys, forks):
        # the child's first write into its temporary file raises; the
        # parent reaps it and ends the run with one line naming the table
        temporary = tempfile.TemporaryFile

        def failing(*args, **kwargs):
            tail = temporary(*args, **kwargs)

            def write(text):
                raise OSError("no space left on device")
            tail.write = write
            return tail
        monkeypatch.setattr(tempfile, "TemporaryFile", failing)
        monkeypatch.setattr(_csv, "_usable_cpus", lambda: 2)
        out = tmp_path / "out"
        assert run("harmonic_pzie.json", out) == cli.EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "OSError" in err[0], err
        assert str(out / "series.csv") in err[0]
        assert len(forks) == 1
        assert_no_child_left()
        # the first half stays in series.csv; the temporary file is gone
        assert os.listdir(out) == ["series.csv"]


def tighten(monkeypatch, name):
    """Patch criterion `name` so that its first upper bound on a nonzero
    value becomes 0 (a zero value meets any such bound)."""
    def tightened(func):
        def run():
            checks = func()
            k = next(k for k, c in enumerate(checks)
                     if c.comparator == "<=" and c.value > 0.0)
            checks[k] = dataclasses.replace(checks[k], tolerance=0.0)
            return checks
        return run
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (n, tags, tightened(func) if n == name else func)
        for n, tags, func in acceptance.CRITERIA])


class TestSuite:
    def test_filtered_suite_passes(self, tmp_path, capsys):
        code = cli.main(["suite", "--filter", "thermo",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "thermo/sudden_doubling_dS_err" in out
        report = json.loads((tmp_path / "acceptance_report.json").read_text())
        assert {c["name"] for crit in report["criteria"]
                for c in crit["checks"]}

    def test_unknown_filter(self, capsys):
        assert cli.main(["suite", "--filter", "nonsense"]) == cli.EXIT_SCHEMA

    def test_suite_report_deterministic(self, tmp_path, capsys):
        for side in ("a", "b"):
            assert cli.main(["suite", "--out", str(tmp_path / side)]) \
                == cli.EXIT_OK
        report = (tmp_path / "a" / "acceptance_report.json").read_bytes()
        assert report \
            == (tmp_path / "b" / "acceptance_report.json").read_bytes()
        rows = {c["name"]: c for crit in json.loads(report)["criteria"]
                for c in crit["checks"]}
        timing = json.loads((tmp_path / "a" / "timing.json").read_text())
        assert sorted(timing["wall_clock_checks"]) \
            == ["eigensolver/runtime_s", "stationarity/runtime_s"]
        for name, seconds in timing["wall_clock_checks"].items():
            assert "value" not in rows[name] and rows[name]["pass"] is True
            assert 0.0 < seconds <= rows[name]["tolerance"]
        assert len(timing["criterion_s"]) == 12
        assert all(s > 0.0 for s in timing["criterion_s"].values())

    def test_runtime_bound_still_gates(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "_runtime", lambda name, seconds,
                            bound: acceptance.Check(name, 2.0 * bound, bound,
                                                    wall_clock=True))
        code = cli.main(["suite", "--filter", "variational",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CHECK
        report = json.loads((tmp_path / "acceptance_report.json").read_text())
        rows = {c["name"]: c for crit in report["criteria"]
                for c in crit["checks"]}
        assert rows["stationarity/runtime_s"]["pass"] is False
        assert "value" not in rows["stationarity/runtime_s"]

    def test_tightened_stationarity_fails(self, monkeypatch, capsys):
        tighten(monkeypatch, "1_stationarity")
        code = cli.main(["suite", "--filter", "variational"])
        assert code == cli.EXIT_CHECK

    def test_tightened_suite_fails(self, monkeypatch, capsys):
        tighten(monkeypatch, "7_thermo_bridge")
        code = cli.main(["suite", "--filter", "thermo"])
        assert code == cli.EXIT_CHECK
        out = capsys.readouterr().out
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert len(failing) == 1


def test_schema_subcommand_prints_valid_json(capsys):
    assert cli.main(["schema"]) == cli.EXIT_OK
    schema = json.loads(capsys.readouterr().out)
    assert schema["properties"]["kind"]["enum"]


def test_potential_schema_matches_model():
    """The potential schema offers exactly the parameters some kind reads,
    positive where the model requires it, and every kind."""
    props = cli._POTENTIAL_SCHEMA["properties"]
    params = set().union(*core._PARAMS.values())
    assert set(core._PARAMS) == set(core.PotentialKind)
    assert set(props) == {"kind"} | params
    assert {k for k, v in props.items() if "exclusiveMinimum" in v} \
        == params - {"f0"}
    assert props["kind"]["enum"] == [k.value for k in core.PotentialKind]


# The schema validator against jsonschema, the reference implementation of
# JSON Schema 2020-12, which the package itself does not import.
def reference_check(schema: dict, instance) -> str | None:
    """The message cli._check_schema gives, computed by jsonschema: that of
    the error with the smallest path, the first yielded among those."""
    err = min(Draft202012Validator(schema).iter_errors(instance),
              key=lambda e: list(e.absolute_path), default=None)
    if err is None:
        return None
    where = "/".join(str(p) for p in err.absolute_path) or "top level"
    if err.validator == "additionalProperties":
        offending = sorted(set(err.instance) - set(err.schema["properties"]))
        return f"unknown key(s) {offending} at {where}"
    return f"{err.message} at {where}"


def walker_check(schema: dict, instance) -> str | None:
    try:
        cli._check_schema(schema, instance)
    except cli.ScenarioError as exc:
        return str(exc)
    return None


def kind_schema(kind: str) -> dict:
    return cli.KINDS[kind][0]


@pytest.mark.parametrize("schema,instance,message", [
    # 1.0 is an integer, 64.5 is not, and true is not a number
    (kind_schema("trajectory"), {"potential": {"kind": "harmonic"}, "q0": 1,
                                 "p0": 0, "dt": 0.01, "n_steps": 4.0}, None),
    (cli._GRID_SCHEMA, {"x_min": 0, "x_max": 1, "n": 64.5},
     "64.5 is not of type 'integer' at n"),
    (kind_schema("bounds"), {"energy": True, "theta": 1},
     "True is not of type 'number' at energy"),
    # an enum of strings tells none of these from a string
    (cli.SCHEMA, {"kind": 1, "params": {}},
     f"1 is not one of {sorted(cli.KINDS)} at kind"),
    (cli.SCHEMA, {"kind": True, "params": {}},
     f"True is not one of {sorted(cli.KINDS)} at kind"),
    (cli.SCHEMA, {"kind": ["bounds"], "params": {}},
     f"['bounds'] is not one of {sorted(cli.KINDS)} at kind"),
    (kind_schema("bounds"), {"energy": -0.0, "theta": 1},
     "-0.0 is less than or equal to the minimum of 0 at energy"),
    # an unknown key is reported before a missing one at the same path
    (cli.SCHEMA, {"kind": "bounds", "extra": 1},
     "unknown key(s) ['extra'] at top level"),
    (kind_schema("regime"), {"thresholds": [1.0]},
     "[1.0] is too short at thresholds"),
    (kind_schema("regime"), {"thresholds": [1.0, 2.0, 3.0]},
     "[1.0, 2.0, 3.0] is too long at thresholds"),
], ids=["float_integer", "fractional_integer", "bool_number", "enum_int",
        "enum_bool", "enum_list", "negative_zero", "unknown_before_missing",
        "too_short", "too_long"])
def test_schema_traps(schema, instance, message):
    assert walker_check(schema, instance) == message
    assert reference_check(schema, instance) == message


# the keywords _schema._schema_errors checks, and the annotations it skips
WALKED = {"type", "enum", "minimum", "maximum", "exclusiveMinimum",
          "exclusiveMaximum", "required", "properties", "additionalProperties",
          "items", "minItems", "maxItems"}


def subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


def test_schema_keywords_are_walked():
    """Every keyword the schemas use is one the validator checks, in the
    form it checks: a keyword added later fails here, not silently."""
    for root in [cli.SCHEMA, *(kind_schema(kind) for kind in cli.KINDS)]:
        for schema in subschemas(root):
            assert set(schema) <= WALKED | {"$schema", "title"}, schema
            assert schema.get("type", "object") in _schema._TYPES, schema
            assert all(isinstance(e, str) for e in schema.get("enum", []))
            if "additionalProperties" in schema:
                assert schema["additionalProperties"] is False
                assert "properties" in schema


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.cache
def bases() -> list[dict]:
    """Bundled and benchmark-shaped configs.  perfbench's workloads are
    loaded on the first draw, so only the tests that draw configs need a
    checkout with perfbench/."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [json.loads(p.read_text())
               for p in sorted(SCENARIOS.glob("*.json"))]
    configs += [cfg for name in workloads.NAMES
                for cfg in workloads.scenarios(name, 0).values()]
    return configs + list(workloads.MINIMAL.values())


# The pieces mutations put in.
POOL = [None, True, False, 0, 1, -1, 2, 4, 63, 64, 64.0, 64.5, 1.0, -0.0, 0.0,
        0.5, 0.99, 1.5, 5e-324, 1e300, -1e300, 10_000_000, 10_000_001,
        1_000_001, 2 ** 64, "", "si", "harmonic", "sudden_jump", "bounds",
        *sorted(acceptance.REGIME_EXPECTED), [], [0.5], [0.1, 0.3],
        [1.0, 2.0, 3.0], [True, 1], ["x"], {}, {"kind": "free"},
        {"x_min": 0, "x_max": 1, "n": 64}, {"ratios": [0.1, 0.3]}]
KEYS = ["extra", "m", "c", "f", "u", "n", "kind", "grid", "scan", "fixture"]


def containers(x):
    if isinstance(x, (dict, list)):
        yield x
        for child in x.values() if isinstance(x, dict) else x:
            yield from containers(child)


@st.composite
def mutated_configs(draw):
    """A bundled or benchmark config with 1-4 values swapped for pool
    values, keys or items deleted, or unknown keys or items added."""
    box = [copy.deepcopy(draw(st.sampled_from(bases())))]
    for _ in range(draw(st.integers(1, 4))):
        node = draw(st.sampled_from(list(containers(box))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["swap"] if node is box
                                  else ["swap", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(POOL)))
        if op == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = value
            else:
                node.append(value)
        elif op == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = value
    return box[0]


@settings(max_examples=300, deadline=None)
@given(cfg=mutated_configs())
def test_schema_check_matches_jsonschema(cfg):
    """The config against SCHEMA, and its params against every kind's
    schema: accepted or rejected as jsonschema decides, with its message."""
    params = cfg.get("params") if isinstance(cfg, dict) else cfg
    pairs = [(cli.SCHEMA, cfg)]
    pairs += [(kind_schema(kind), params) for kind in cli.KINDS]
    for schema, instance in pairs:
        assert walker_check(schema, instance) \
            == reference_check(schema, instance), instance


def fresh_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports this package, with
    the environment variables `env` set."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


# Run a bundled scan and `cpdq-lab schema` where jsonschema cannot be imported.
NO_JSONSCHEMA = """
import contextlib, io, json, sys
sys.modules["jsonschema"] = None
from cpdq_lab import cli
schema = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()):
    _, run_code = cli.run_scenario(sys.argv[1], sys.argv[2])
with contextlib.redirect_stdout(schema):
    schema_code = cli.main(["schema"])
print(json.dumps([run_code, schema_code, schema.getvalue()]))
"""


def test_runs_without_jsonschema(tmp_path, capsys):
    """jsonschema is a test dependency only: the package neither imports
    it nor needs it to validate and run a scenario."""
    proc = fresh_python("-c", NO_JSONSCHEMA,
                        str(scenario_path("piston_scan.json")), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    run_code, schema_code, schema = json.loads(proc.stdout)
    assert (run_code, schema_code) == (cli.EXIT_OK, cli.EXIT_OK)
    assert cli.main(["schema"]) == cli.EXIT_OK
    assert schema == capsys.readouterr().out
    assert (tmp_path / "scan.csv").exists()
    proc = fresh_python("-c", "import sys, cpdq_lab.cli; "
                              "print('jsonschema' in sys.modules)")
    assert proc.stdout.split() == ["False"], proc.stderr


# Run `cpdq-lab ARGS` in a fresh interpreter pinned to one CPU.
PINNED_CLI = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from cpdq_lab.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pinning to one CPU needs sched_setaffinity")
def test_series_bytes_independent_of_usable_cpus(tmp_path):
    """harmonic_pzie's series.csv is written by two processes where two
    CPUs are usable, with a second OpenBLAS thread in the one that forks,
    and by one process when the run is pinned to one CPU: same bytes."""
    scenario = str(scenario_path("harmonic_pzie.json"))
    runs = {"split": ("-m", "cpdq_lab.cli"), "pinned": ("-c", PINNED_CLI)}
    for name, command in runs.items():
        proc = fresh_python(*command, "run", scenario,
                            "--out", str(tmp_path / name),
                            OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert (tmp_path / "split" / "series.csv").read_bytes() \
        == (tmp_path / "pinned" / "series.csv").read_bytes()


# Run in a fresh interpreter: which scipy modules are loaded after importing
# the package, and again after running the scenario named in argv.
SCIPY_PROBE = """
import contextlib, io, json, sys
import cpdq_lab, cpdq_lab.cli

def loaded():
    return [m for m in ("scipy", "scipy.linalg", "scipy.fft")
            if m in sys.modules]

seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    _, code = cpdq_lab.cli.run_scenario(sys.argv[1], sys.argv[2])
print(json.dumps([code, seen + [loaded()]]))
"""


@pytest.mark.parametrize("name,loads", [
    ("piston_scan.json", []),
    ("harmonic_pzie.json", []),
    # solve_tise loads LAPACK from its file, without scipy.linalg
    ("tise_infinite_well.json", ["scipy"]),
    # the variational runner also calls solve_tise for its reference
    ("variational_harmonic.json", ["scipy", "scipy.fft"]),
])
def test_scipy_loads_only_with_its_solvers(tmp_path, name, loads):
    """Kinds that call no scipy solver start and run without scipy; the
    tise run shows the probe sees the import when it happens."""
    proc = fresh_python("-c", SCIPY_PROBE, str(scenario_path(name)),
                        str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    code, (after_import, after_run) = json.loads(proc.stdout)
    assert code == cli.EXIT_OK
    assert after_import == []
    assert after_run == loads


def test_suite_runs_without_scipy_linalg(tmp_path):
    """The info criteria reach solve_tise through criterion 12's
    quantum_profile fixture, and still leave scipy.linalg unloaded."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"kind": "suite", "params": {"filter": "info"}}))
    proc = fresh_python("-c", SCIPY_PROBE, str(path), str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    code, (after_import, after_run) = json.loads(proc.stdout)
    assert code == cli.EXIT_OK
    assert after_import == [] and after_run == ["scipy"]


def test_variational_solver_loads_scipy_fft_only():
    """The ground-state solve takes its Ritz pairs from numpy, so of scipy
    it loads only the transforms."""
    proc = fresh_python("-c", """
import sys
from cpdq_lab import (Grid1D, GridProblem, Potential, natural_units,
                      variational_ground_state)
variational_ground_state(GridProblem(Potential("harmonic"),
                                     Grid1D(-6.0, 6.0, 200), natural_units()))
print(sorted(m for m in ("scipy.linalg", "scipy.fft") if m in sys.modules))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['scipy.fft']"]


@pytest.mark.parametrize("cfg", [
    {"kind": "tise", "params": dict(TISE_WELL, n_states=1,
                                    expected_energies=[1e-310])},
    # stable steps and a finite V(q0), but p^2 overflows in the kinetic
    # energy
    {"kind": "trajectory", "params": {
        "potential": {"kind": "harmonic"}, "q0": 1.8e154, "p0": 0,
        "dt": 1e-3, "n_steps": 1000}},
], ids=["tise_tiny_expected_energy", "trajectory_energy_overflow"])
def test_runtime_warning_is_one_exit_1_line(tmp_path, cfg):
    """A RuntimeWarning ends the run as a computation error.  Run in a
    fresh interpreter, where warnings print unless the CLI turns them
    into errors (pytest's own filter would hide the difference)."""
    lines = fresh_run_stderr(tmp_path, cfg)
    assert len(lines) == 1 and "RuntimeWarning" in lines[0], lines


def fresh_run_stderr(tmp_path, cfg, code=cli.EXIT_COMPUTE) -> list[str]:
    """stderr lines of `cpdq-lab run` on cfg in a fresh interpreter, which
    must end in exit code (1 unless given)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = fresh_python("-m", "cpdq_lab.cli", "run", str(path),
                        "--out", str(tmp_path / "o"))
    assert proc.returncode == code
    return proc.stderr.splitlines()


@pytest.mark.parametrize("cfg", [
    {"kind": "tise", "params": {
        "potential": {"kind": "soft_well", "v0": 1, "a": 0.5},
        "grid": {"x_min": -5, "x_max": 5, "n": 400}, "n_states": 30}},
    # the report's level spacing takes the two lowest states
    {"kind": "wkb", "params": {
        "potential": {"kind": "soft_well", "v0": 0.5, "a": 0.2},
        "energy": 0.3, "grid": {"x_min": -3, "x_max": 3, "n": 400},
        "with_bohm_report": True}},
], ids=["tise_states_above_well", "wkb_bohm_states_above_well"])
def test_unbound_states_are_one_exit_1_line(tmp_path, cfg):
    """States above the edge potential are not the bound states asked
    for: the run ends as a computation error, not a printed warning."""
    lines = fresh_run_stderr(tmp_path, cfg)
    assert len(lines) == 1 and "UnboundStateWarning" in lines[0], lines


@pytest.mark.parametrize("kind,extra", [
    ("tise", {"n_states": 2}), ("variational", {}), ("wkb", {"energy": 1}),
], ids=["tise", "variational", "wkb"])
@pytest.mark.parametrize("potential", [
    # omega**2 raises OverflowError; the other two overflow in numpy
    {"kind": "harmonic", "omega": 1e200},
    {"kind": "linear", "f0": 1e308},
    {"kind": "soft_well", "a": 1e-320},
    # m * omega**2 is inf without an error, and so is V everywhere
    {"kind": "harmonic", "m": 1e300, "omega": 1e10},
], ids=["harmonic_omega_overflow", "linear_f0_overflow",
        "soft_well_subnormal_a", "harmonic_infinite_stiffness"])
def test_potential_overflow_is_one_exit_2_line(tmp_path, kind, extra,
                                               potential):
    """V or V' that overflows on the grid is rejected by validation, with
    one line naming the potential, before any solve and before a warning
    can print."""
    lines = fresh_run_stderr(tmp_path, {"kind": kind, "params": {
        "potential": potential, **extra,
        "grid": {"x_min": -4, "x_max": 4, "n": 100}}}, cli.EXIT_SCHEMA)
    assert len(lines) == 1, lines
    assert f"potential: {potential['kind']} V or V' overflows on the grid" \
        in lines[0], lines


@pytest.mark.parametrize("kind,params", [
    ("tise", dict(TISE_WELL, n_states=1)),
    ("variational", HARMONIC),
    ("wkb", dict(HARMONIC, energy=10)),
], ids=["tise", "variational", "wkb"])
@pytest.mark.parametrize("f", [1e154, 1e160])
def test_infinite_kinetic_coefficient_is_one_exit_2_line(tmp_path, kind,
                                                         params, f):
    """Constants whose kinetic coefficient 2 f^2/mass, or the operator's
    2 f^2/(mass h^2), passes the double range are rejected by validation
    with one line naming them, before any solve."""
    lines = fresh_run_stderr(tmp_path, {
        "kind": kind, "constants": {"f": f}, "params": params},
        cli.EXIT_SCHEMA)
    assert len(lines) == 1, lines
    assert "constants: 2 f^2/mass overflows on the grid" in lines[0], lines


@pytest.mark.parametrize("potential,q0", [
    # cosh(q0/a) passes the double range; at 0.4 only its square does
    ({"kind": "soft_well", "v0": 1, "a": 1e-3}, 0.9),
    ({"kind": "soft_well", "v0": 1, "a": 1e-3}, 0.4),
    # V(q0) = q0^2/2 passes it, though the force does not
    ({"kind": "harmonic"}, 1e160),
], ids=["soft_well_cosh", "soft_well_square", "harmonic_energy"])
def test_overflow_at_q0_is_one_exit_2_line(tmp_path, potential, q0):
    """A trajectory whose V or V' overflows where it starts is rejected by
    validation, with one line naming the potential."""
    lines = fresh_run_stderr(tmp_path, {"kind": "trajectory", "params": {
        "potential": potential, "q0": q0, "p0": 0.0, "dt": 0.01,
        "n_steps": 1000}}, cli.EXIT_SCHEMA)
    assert len(lines) == 1, lines
    assert f"potential: {potential['kind']} V or V' overflows at q0" \
        in lines[0], lines


GRID = {"x_min": -4, "x_max": 4, "n": 100}


@pytest.mark.parametrize("cfg,call", [
    ({"kind": "tise", "params": {"potential": {"kind": "harmonic",
                                               "omega": 1e200},
                                 "grid": GRID, "n_states": 2}},
     lambda c: quantum.solve_tise(Potential("harmonic", omega=1e200),
                                  Grid1D(**GRID), 2, c)),
    ({"kind": "variational", "params": {"potential": {"kind": "harmonic",
                                                      "omega": 1e200},
                                        "grid": GRID}},
     lambda c: quantum.variational_ground_state(GridProblem(
         Potential("harmonic", omega=1e200), Grid1D(**GRID), c))),
    ({"kind": "tise", "params": {"potential": {"kind": "linear", "f0": 1e308},
                                 "grid": {"x_min": -10, "x_max": 10, "n": 100},
                                 "n_states": 2}},
     lambda c: quantum.solve_tise(Potential("linear", f0=1e308),
                                  Grid1D(-10, 10, 100), 2, c)),
    ({"kind": "tise", "constants": {"f": 1e160},
      "params": dict(TISE_WELL, n_states=1)},
     lambda c: quantum.solve_tise(Potential("infinite_well"),
                                  Grid1D(0.0, 1.0, 200), 1,
                                  dataclasses.replace(c, f=1e160))),
    # 2 f^2/mass underflows to 0: the operator would have no kinetic term
    ({"kind": "tise", "constants": {"f": 1e-170},
      "params": dict(TISE_WELL, n_states=2)},
     lambda c: quantum.solve_tise(Potential("infinite_well"),
                                  Grid1D(0.0, 1.0, 200), 2,
                                  dataclasses.replace(c, f=1e-170))),
    ({"kind": "variational", "params": dict(TISE_WELL, grid=WELL_OVERRUN)},
     lambda c: quantum.variational_ground_state(GridProblem(
         Potential("infinite_well"), Grid1D(**WELL_OVERRUN), c))),
    ({"kind": "tise", "params": {"potential": {"kind": "harmonic"},
                                 "n_states": 1, "grid": {
                                     "x_min": 0, "x_max": 1e-170, "n": 64}}},
     lambda c: quantum.solve_tise(Potential("harmonic"),
                                  Grid1D(0, 1e-170, 64), 1, c)),
    ({"kind": "wkb", "constants": {"f": 1e200}, "params": {
        "potential": {"kind": "harmonic"}, "energy": 10,
        "grid": {"x_min": -4.2, "x_max": 4.2, "n": 841}}},
     lambda c: quantum.local_wkb_profile(GridProblem(
         Potential("harmonic"), Grid1D(-4.2, 4.2, 841),
         dataclasses.replace(c, f=1e200)), 10.0)),
    ({"kind": "trajectory", "params": {
        "potential": {"kind": "linear", "f0": 1e308}, "q0": -10.0,
        "p0": 0.0, "dt": 0.01, "n_steps": 10}},
     lambda c: dynamics.integrate_hamilton(
         Potential("linear", f0=1e308), -10.0, 0.0,
         IntegratorConfig(0.01, 10), c)),
    ({"kind": "trajectory", "params": {
        "potential": {"kind": "infinite_well"}, "q0": 2.0, "p0": 1.0,
        "dt": 0.01, "n_steps": 10}},
     lambda c: dynamics.integrate_hamilton(
         Potential("infinite_well"), 2.0, 1.0, IntegratorConfig(0.01, 10), c)),
    ({"kind": "trajectory", "params": {
        "potential": {"kind": "harmonic", "omega": 2.0}, "q0": 1.0,
        "p0": 0.0, "dt": 1.0, "n_steps": 10}},
     lambda c: dynamics.integrate_hamilton(
         Potential("harmonic", omega=2.0), 1.0, 0.0,
         IntegratorConfig(1.0, 10), c)),
], ids=["tise_v_overflow", "variational_v_overflow", "tise_linear_overflow",
        "tise_kinetic_coefficient", "tise_kinetic_underflow",
        "variational_grid_past_well",
        "tise_spacing", "wkb_kinetic_coefficient",
        "trajectory_v_overflow_at_q0",
        "trajectory_q0_outside_well", "trajectory_unstable_step"])
def test_library_raises_the_cli_line(tmp_path, capsys, cfg, call):
    """A library call that breaks a problem model's rule raises the
    ValueError whose message is the line the CLI prints for its config,
    before any warning."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_SCHEMA
    line = capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(core.natural_units())
    assert line == f"error: invalid scenario {path}: {info.value}\n"


@pytest.mark.parametrize("q0,p0", [(0.0, 1.0)], ids=["mid_run"])
def test_soft_well_cosh_overflow_is_one_exit_1_line(tmp_path, q0, p0):
    """A soft well so narrow that cosh(q/a) passes the double range after
    some steps ends the run as one computation-error line."""
    lines = fresh_run_stderr(tmp_path, {"kind": "trajectory", "params": {
        "potential": {"kind": "soft_well", "v0": 1, "a": 1e-3},
        "q0": q0, "p0": p0, "dt": 0.01, "n_steps": 1000}})
    assert len(lines) == 1 and "OverflowError" in lines[0], lines


# A dot product of 20,000 terms, summed by quantum._dot, as hex.
DOT_PROBE = """
import numpy as np
from cpdq_lab.quantum import _dot
x, y = np.random.default_rng(1).standard_normal((2, 20_000))
print(float(_dot(x, y)).hex(), float(_dot(x, x)).hex())
"""


@pytest.mark.parametrize("n", [20_000, 60_000])
def test_large_grid_bytes_independent_of_blas_threads(tmp_path, n):
    """OpenBLAS splits a dot product of more than about 10,000 terms across
    its threads.  quantum._dot sums 8192-term pieces in order instead, so
    a variational run writes the same bytes under one and two BLAS threads,
    and so does the dot product itself.  At 60,000 points OpenBLAS also
    splits the Lanczos block's products with an n-long output, which
    quantum._dot_wide computes in 8192-column pieces."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "variational", "params": {
        "potential": {"kind": "harmonic"},
        "grid": {"x_min": -10.0, "x_max": 10.0, "n": n}}}))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = fresh_python("-m", "cpdq_lab.cli", "run", str(path), "--out",
                            str(out), OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        dot = fresh_python("-c", DOT_PROBE, OPENBLAS_NUM_THREADS=threads)
        assert dot.returncode == 0, dot.stderr
        runs.append((dot.stdout, {p.name: p.read_bytes() for p in out.iterdir()
                                  if p.name != "timing.json"}))
    assert sorted(runs[0][1]) == ["ground_state.csv", "report.json"]
    assert runs[0] == runs[1]


# Schema fuzz: configs the schema admits, bounded so that no run is slow
# (n_steps <= 2000, grid n <= 256, scan ratios >= 1e-3, |u| <= v0/2).
def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_POTENTIALS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("free")}),
    st.fixed_dictionaries({"kind": st.just("linear"), "f0": _finite(-5, 5)}),
    st.fixed_dictionaries({"kind": st.just("harmonic"),
                           "m": _finite(0.2, 5), "omega": _finite(0.2, 5)}),
    st.fixed_dictionaries({"kind": st.just("infinite_well"),
                           "width": _finite(0.2, 5)}),
    st.fixed_dictionaries({"kind": st.just("soft_well"),
                           "v0": _finite(0.2, 50), "a": _finite(0.2, 3)}))


@st.composite
def _grid_for(draw, potential):
    if potential["kind"] == "infinite_well" and draw(st.booleans()):
        lo, hi = 0.0, potential["width"]
    else:
        lo = draw(_finite(-8, 8))
        hi = lo + draw(_finite(0.5, 16))
    return {"x_min": lo, "x_max": hi, "n": draw(st.integers(64, 256))}


@st.composite
def _trajectory(draw):
    return {"potential": draw(_POTENTIALS), "q0": draw(_finite(-3, 3)),
            "p0": draw(_finite(-3, 3)), "dt": draw(_finite(1e-3, 0.2)),
            "n_steps": draw(st.integers(4, 2000)),
            **draw(st.fixed_dictionaries({}, optional={
                "energy_drift_tol": _POSITIVE, "pzie_tol_bits": _POSITIVE}))}


@st.composite
def _tise(draw):
    potential = draw(_POTENTIALS)
    grid = draw(_grid_for(potential))
    n_states = draw(st.integers(1, 6))
    return {"potential": potential, "grid": grid, "n_states": n_states,
            **draw(st.fixed_dictionaries({}, optional={
                "expected_energies": st.lists(_finite(-100, 100),
                                              max_size=n_states),
                "energy_rel_tol": _POSITIVE}))}


@st.composite
def _wkb(draw):
    potential = draw(_POTENTIALS)
    return {"potential": potential, "grid": draw(_grid_for(potential)),
            "energy": draw(_finite(-60, 60)),
            **draw(st.fixed_dictionaries({}, optional={
                "kinetic_fraction": st.floats(0.0, 1.0, exclude_min=True,
                                              exclude_max=True),
                "with_bohm_report": st.booleans()}))}


@st.composite
def _variational(draw):
    potential = draw(_POTENTIALS)
    return {"potential": potential, "grid": draw(_grid_for(potential)),
            **draw(st.fixed_dictionaries({}, optional={
                "max_iters": st.integers(2, 400), "tol": _POSITIVE}))}


@st.composite
def _piston(draw):
    v0 = draw(_finite(0.2, 4))
    params = {"l0": draw(_finite(0.5, 4)), "v0": v0}
    if draw(st.booleans()):
        params["scan"] = draw(st.fixed_dictionaries(
            {"ratios": st.lists(_finite(1e-3, 0.99), min_size=2, max_size=4)},
            optional={"expansion": _finite(1.01, 4)}))
        return params
    if draw(st.booleans()):
        return {**params, "mode": "sudden_jump", **draw(st.fixed_dictionaries(
            {}, optional={"l_end": _finite(0.5, 8), "t_end": _finite(0.1, 20),
                          "t_jump": _finite(0.1, 20)}))}
    ratio = draw(st.one_of(st.just(0.0), _finite(1e-3, 0.5),
                           _finite(-0.5, -1e-3)))
    return {**params, "u": ratio * v0, **draw(st.fixed_dictionaries(
        {}, optional={"l_end": _finite(0.2, 4), "t_end": _finite(0.1, 20)}))}


def _config(kind, params, **constants):
    optional = {"units": st.sampled_from(["natural", "si"])}
    if constants:
        optional["constants"] = st.fixed_dictionaries({}, optional=constants)
    return st.fixed_dictionaries(
        {"kind": st.just(kind), "params": params}, optional=optional)


_CONFIGS = st.one_of(
    _config("bounds", st.fixed_dictionaries(
        {"energy": _POSITIVE, "theta": _POSITIVE})),
    _config("dispersion", st.fixed_dictionaries(
        {"k": _finite(-1e300, 1e300), "m0": _finite(0, 1e300)}),
        c=_POSITIVE, f=_POSITIVE),
    _config("regime", st.fixed_dictionaries(
        {"metrics": st.fixed_dictionaries({
            key: _finite(0, 1e300) for key in
            ("mean_abs_d_i", "max_step_d_i_q", "max_step_d_i_p")})},
        optional={"thresholds": st.lists(_POSITIVE, min_size=2,
                                         max_size=2)})),
    _config("piston", _piston(), mass=_finite(0.2, 5)),
    _config("trajectory", _trajectory()),
    _config("tise", _tise()),
    _config("variational", _variational()),
    _config("wkb", _wkb()))


@settings(max_examples=150, deadline=None)
@given(cfg=_CONFIGS)
def test_admitted_configs_end_cleanly(tmp_path_factory, cfg):
    """Every admitted config ends in exit 0-3; an error exit (1 or 2)
    writes one stderr line, a finished run none (exit 3 reports its
    failing checks on stdout); every file written is strict JSON or CSV."""
    cli._check_schema(cli.SCHEMA, cfg)
    cli._check_schema(cli.KINDS[cfg["kind"]][0], cfg["params"])
    base = tmp_path_factory.mktemp("fuzz")
    path, out = base / "cfg.json", base / "out"
    path.write_text(json.dumps(cfg, allow_nan=False))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        code = cli.main(["run", str(path), "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_COMPUTE, cli.EXIT_SCHEMA,
                    cli.EXIT_CHECK)
    # outside pytest a warning that escapes the run prints on stderr
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert len(lines) == (1 if code in (cli.EXIT_COMPUTE, cli.EXIT_SCHEMA)
                          else 0), lines
    for artifact in out.glob("*") if out.exists() else ():
        if artifact.suffix == ".json":
            strict_json(artifact)
        else:
            header = artifact.read_text().split("\n", 1)[0].split(",")
            strict_csv(artifact, header)
