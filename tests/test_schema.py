"""The field schemas the models declare, and the argument schemas the
library functions declare, checked against jsonschema."""

import ast
import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import cpdq_lab
from cpdq_lab import (Constants, Grid1D, IntegratorConfig, PistonConfig,
                      Potential, _schema, cli, info, natural_units, quantum,
                      thermo)

# valid keyword arguments of each model; together they set every field
VALID = {
    Constants: [dataclasses.asdict(natural_units())],
    Potential: [{"kind": "linear", "f0": 1.0},
                {"kind": "harmonic", "m": 1.0, "omega": 1.0},
                {"kind": "infinite_well", "width": 1.0},
                {"kind": "soft_well", "v0": 1.0, "a": 1.0}],
    Grid1D: [{"x_min": -1.0, "x_max": 1.0, "n": 64}],
    IntegratorConfig: [{"dt": 0.01, "n_steps": 10}],
    PistonConfig: [{"l0": 1.0, "v0": 1.0, "u": 0.01,
                    "mode": "constant_speed", "l_end": 2.0},
                   {"l0": 1.0, "v0": 1.0, "u": 0.01, "t_end": 5.0},
                   {"l0": 1.0, "v0": 1.0, "mode": "sudden_jump",
                    "l_end": 2.0, "t_jump": 1.0}],
}
BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def past(schema: dict, keyword: str):
    """A value of a number or integer schema just past one of its bounds:
    an exclusive bound itself, the next integer or double otherwise."""
    bound = schema[keyword]
    if keyword.startswith("exclusive"):
        return bound if schema["type"] == "integer" else float(bound)
    step = -1 if keyword == "minimum" else 1
    if schema["type"] == "integer":
        return bound + step
    return math.nextafter(bound, step * math.inf)


# each model field whose schema has a bound or an enum
BOUNDED = [(Constants, f.name) for f in dataclasses.fields(Constants)] + [
    (Potential, "kind"), (Potential, "m"), (Potential, "omega"),
    (Potential, "width"), (Potential, "v0"), (Potential, "a"),
    (Grid1D, "n"), (IntegratorConfig, "dt"), (IntegratorConfig, "n_steps"),
    (PistonConfig, "l0"), (PistonConfig, "v0"), (PistonConfig, "mode"),
    (PistonConfig, "l_end"), (PistonConfig, "t_end"),
    (PistonConfig, "t_jump")]


def bounds(cls, name: str) -> tuple[dict, list[str]]:
    """A field's schema and its keywords that bound or enumerate values."""
    schema = dict(next(f for f in dataclasses.fields(cls)
                       if f.name == name).metadata)
    return schema, [k for k in schema if k in BOUNDS or k == "enum"]


def test_bounded_fields_are_listed():
    assert {(cls, f.name) for cls in VALID for f in dataclasses.fields(cls)
            if bounds(cls, f.name)[1]} == set(BOUNDED)


@pytest.mark.parametrize("cls,name", BOUNDED, ids=[
    f"{cls.__name__}.{name}" for cls, name in BOUNDED])
def test_value_past_each_bound_is_rejected(cls, name):
    """The message is jsonschema's for the field's schema, then the field;
    an inclusive bound itself is admitted."""
    schema, keywords = bounds(cls, name)
    assert keywords
    kwargs = next(kw for kw in VALID[cls] if name in kw)
    cls(**kwargs)
    for keyword in keywords:
        value = "other" if keyword == "enum" else past(schema, keyword)
        reference = next(
            Draft202012Validator(schema).iter_errors(value)).message
        with pytest.raises(ValueError) as err:
            cls(**{**kwargs, name: value})
        assert str(err.value) == f"{reference} at {name}"
        if keyword in ("minimum", "maximum"):
            cls(**{**kwargs, name: schema[keyword]})


def test_integral_floats_are_stored_as_ints():
    assert type(Grid1D(0.0, 1.0, 64.0).n) is int
    assert type(IntegratorConfig(0.01, 10.0).n_steps) is int
    assert Grid1D(0.0, 1.0, 64.0) == Grid1D(0.0, 1.0, 64)


def test_schema_imports_only_the_standard_library():
    # cli and every model import this module
    tree = ast.parse(Path(_schema.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "operator", "dataclasses", "numbers"}


def test_numpy_scalars_are_numbers(consts):
    """numpy's integer and float scalars pass as JSON numbers, and a count
    is stored as an int; numpy's bool, like bool, is no number."""
    grid = Grid1D(0.0, 1.0, np.int64(64))
    assert grid == Grid1D(0.0, 1.0, 64) and type(grid.n) is int
    assert IntegratorConfig(np.float32(0.01), 10).dt == np.float32(0.01)
    assert Potential("harmonic", omega=np.float32(2.0)).omega == 2.0
    pot, grid = Potential("harmonic"), Grid1D(-5.0, 5.0, 64)
    assert np.array_equal(
        quantum.solve_tise(pot, grid, np.int64(2), consts).energies,
        quantum.solve_tise(pot, grid, 2, consts).energies)
    assert info.rate_bounds(np.float32(1.0), 1.0, consts).bound_h \
        == pytest.approx(info.rate_bounds(1.0, 1.0, consts).bound_h)
    assert quantum.dispersion_checks(np.int64(2), 1.0, consts) \
        == quantum.dispersion_checks(2, 1.0, consts)
    with pytest.raises(ValueError, match="^np.True_ is not of type "
                                         "'integer' at n$"):
        Grid1D(0.0, 1.0, np.True_)


# each module's argument tables (the `_*_ARGS` names), by module.name;
# cli imports them, so it is not searched
TABLES = {f"{module.name}.{name}": table
          for module in pkgutil.iter_modules(cpdq_lab.__path__)
          if module.name != "cli"
          for name, table in vars(importlib.import_module(
              f"cpdq_lab.{module.name}")).items()
          if name.startswith("_") and name.endswith("_ARGS")}
# the function that checks each table, and valid keyword arguments of it
_HARMONIC = {"pot": Potential("harmonic"), "grid": Grid1D(-5.0, 5.0, 64),
             "consts": natural_units()}
CALLS = {
    "quantum._TISE_ARGS": (quantum.solve_tise,
                           {**_HARMONIC, "n_states": 1}),
    "quantum._VARIATIONAL_ARGS": (quantum.variational_ground_state,
                                  {"problem": quantum.GridProblem(
                                      *_HARMONIC.values()),
                                   "max_iters": 5000, "tol": 1e-10}),
    "quantum._ADMITTED_ARGS": (quantum.admitted_block,
                               {"profile": quantum.local_wkb_profile(
                                   quantum.GridProblem(*_HARMONIC.values()),
                                   1.0),
                                "kinetic_fraction": 0.1}),
    "quantum._DISPERSION_ARGS": (quantum.dispersion_checks,
                                 {"k": 2.0, "m0": 1.0,
                                  "consts": natural_units()}),
    "info._RATE_BOUNDS_ARGS": (info.rate_bounds,
                               {"energy": 1.0, "theta": 1.0,
                                "consts": natural_units()}),
    "info._REGIME_ARGS": (info.regime_classify,
                          {"mean_abs_d_i": 0.1, "max_step_d_i_q": 0.1,
                           "max_step_d_i_p": 0.1, "thresholds": [1e-6, 0.1]}),
    "thermo._SCAN_ARGS": (thermo.scan_configs,
                          {"ratios": [0.1, 0.3], "expansion": 2.0}),
}
# each argument whose schema, or whose items' schema, has a bound
BOUNDED_ARGS = [
    ("quantum._TISE_ARGS", "n_states"),
    ("quantum._VARIATIONAL_ARGS", "max_iters"),
    ("quantum._VARIATIONAL_ARGS", "tol"),
    ("quantum._ADMITTED_ARGS", "kinetic_fraction"),
    ("quantum._DISPERSION_ARGS", "m0"),
    ("info._RATE_BOUNDS_ARGS", "energy"),
    ("info._RATE_BOUNDS_ARGS", "theta"),
    ("info._REGIME_ARGS", "mean_abs_d_i"),
    ("info._REGIME_ARGS", "max_step_d_i_q"),
    ("info._REGIME_ARGS", "max_step_d_i_p"),
    ("info._REGIME_ARGS", "thresholds"),
    ("thermo._SCAN_ARGS", "ratios"),
    ("thermo._SCAN_ARGS", "expansion")]


def past_values(schema: dict, valid):
    """(keyword, value) for each bound of an argument's schema: a value
    just past it, an array's first item just past its items' bound, or an
    array one item too short or too long."""
    if schema["type"] != "array":
        return [(k, past(schema, k)) for k in schema if k in BOUNDS]
    items = schema["items"]
    cases = [(k, [past(items, k), *valid[1:]]) for k in items if k in BOUNDS]
    if "minItems" in schema:
        cases.append(("minItems", valid[:schema["minItems"] - 1]))
    if "maxItems" in schema:
        cases.append(("maxItems", valid[:1] * (schema["maxItems"] + 1)))
    return cases


def call(function, kwargs: dict) -> None:
    """function(**kwargs); a ConvergenceError has passed the checks."""
    try:
        function(**kwargs)
    except quantum.ConvergenceError:
        pass


def test_bounded_arguments_are_listed():
    assert set(TABLES) == set(CALLS)
    assert {(t, name) for t, table in TABLES.items()
            for name, schema in table.items()
            if past_values(schema, [1.0])} == set(BOUNDED_ARGS)


@pytest.mark.parametrize("table,name", BOUNDED_ARGS, ids=[
    f"{table.split('.')[1]}.{name}" for table, name in BOUNDED_ARGS])
def test_argument_past_each_bound_is_rejected(table, name):
    """The message is jsonschema's for the argument's schema, then the
    argument; an inclusive bound itself is admitted, and NaN is not."""
    schema = TABLES[table][name]
    function, kwargs = CALLS[table]
    call(function, kwargs)
    for keyword, value in past_values(schema, kwargs[name]):
        reference = next(
            Draft202012Validator(schema).iter_errors(value)).message
        with pytest.raises(ValueError) as err:
            function(**{**kwargs, name: value})
        assert str(err.value) == f"{reference} at {name}"
        if keyword in ("minimum", "maximum"):
            call(function, {**kwargs, name: schema[keyword]})
    nan = ([math.nan, *kwargs[name][1:]] if schema["type"] == "array"
           else math.nan)
    with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
        function(**{**kwargs, name: nan})


def test_regime_thresholds_may_be_a_tuple():
    """The default thresholds are a tuple, checked as the array it is."""
    metrics = (0.1, 0.1, 0.1)
    assert info.regime_classify(*metrics, (1e-6, 0.1)) \
        == info.regime_classify(*metrics)
    with pytest.raises(ValueError, match=r"^-1.0 is less than or equal to "
                                         r"the minimum of 0 at thresholds$"):
        info.regime_classify(*metrics, (-1.0, 0.1))


def kind_property(kind: str, *path: str) -> dict:
    schema = cli.KINDS[kind][0]
    for key in path:
        schema = schema["properties"][key]
    return schema


def test_kinds_read_the_argument_tables():
    """Each argument of each table is a params schema of some kind, the
    table's own object; a scan's ratios add minItems in the CLI only."""
    found = set()
    for kind, path, table in [
            ("tise", (), "quantum._TISE_ARGS"),
            ("variational", (), "quantum._VARIATIONAL_ARGS"),
            ("wkb", (), "quantum._ADMITTED_ARGS"),
            ("dispersion", (), "quantum._DISPERSION_ARGS"),
            ("bounds", (), "info._RATE_BOUNDS_ARGS"),
            ("regime", ("metrics",), "info._REGIME_ARGS"),
            ("regime", (), "info._REGIME_ARGS"),
            ("piston", ("scan",), "thermo._SCAN_ARGS")]:
        properties = kind_property(kind, *path)["properties"]
        for name, schema in TABLES[table].items():
            if name not in properties:
                continue
            found.add((table, name))
            if name == "ratios":
                assert properties[name]["minItems"] == 2
                assert properties[name]["items"] is schema["items"]
            else:
                assert properties[name] is schema, (kind, name)
    assert found == {(t, name) for t, table in TABLES.items()
                     for name in table}


def test_schemas_are_valid_2020_12():
    for schema in [cli.SCHEMA, *(v[0] for v in cli.KINDS.values())]:
        Draft202012Validator.check_schema(schema)
