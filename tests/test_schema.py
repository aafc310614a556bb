"""The field schemas the models declare, checked against jsonschema."""

import ast
import dataclasses
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from cpdq_lab import (Constants, Grid1D, IntegratorConfig, PistonConfig,
                      Potential, _schema, natural_units)

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
# the step from a bound to a value just past it: the models' inclusive
# bounds are all on integer fields
PAST = {"minimum": -1, "maximum": 1, "exclusiveMinimum": 0,
        "exclusiveMaximum": 0}


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
    return schema, [k for k in schema if k in PAST or k == "enum"]


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
        value = ("other" if keyword == "enum"
                 else schema[keyword] + PAST[keyword])
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
    assert imported == {"__future__", "operator", "dataclasses"}
