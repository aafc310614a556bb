"""JSON Schema checks shared by the scenario CLI, the models and functions.

A model field declares its schema once, as its dataclasses.field metadata;
check_fields checks it in __post_init__ and field_schemas gives it to cli.
A function's bounded arguments are declared once, in a table of schemas
beside it; check_args checks them on each call and cli reads the table.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_FRACTION = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}


def _is_number(x) -> bool:
    """A real number, numpy's scalars included, but not a bool; int and
    float come first, as the abstract class is slower to test."""
    return (isinstance(x, (int, float, numbers.Real))
            and not isinstance(x, bool))


# JSON Schema 2020-12 types and numeric bounds, worded as the Python
# reference validator words them
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (
        isinstance(x, (int, numbers.Integral)) or x.is_integer()),
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _schema_errors(schema: dict, x, path: tuple = ()):
    """Yield (path, message) for each way x fails schema.

    Follows JSON Schema 2020-12 for the keywords SCHEMA and the KINDS
    params schemas use (enums of strings, additionalProperties false) and
    yields in the order the Python reference validator does: keywords in
    dict order, properties in schema order.  Other keywords are
    annotations.
    """
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](x):
                yield path, f"{x!r} is not of type {value!r}"
        elif key == "enum":
            if x not in value:
                yield path, f"{x!r} is not one of {value!r}"
        elif key in _BOUNDS:
            below, text = _BOUNDS[key]
            if _is_number(x) and below(x, value):
                yield path, f"{x!r} is {text} of {value!r}"
        elif isinstance(x, dict):
            if key == "additionalProperties":
                unknown = sorted(set(x) - set(schema["properties"]))
                if unknown:
                    yield path, f"unknown key(s) {unknown}"
            elif key == "required":
                yield from ((path, f"{k!r} is a required property")
                            for k in value if k not in x)
            elif key == "properties":
                for k, sub in value.items():
                    if k in x:
                        yield from _schema_errors(sub, x[k], path + (k,))
        elif isinstance(x, list):
            if key == "items":
                for i, item in enumerate(x):
                    yield from _schema_errors(value, item, path + (i,))
            elif key == "minItems" and len(x) < value:
                yield path, f"{x!r} is too short"
            elif key == "maxItems" and len(x) > value:
                yield path, f"{x!r} is too long"


def check_args(schemas: dict, values) -> None:
    """Raise ValueError for the first name in schemas whose entry in values
    fails its schema; None is unset.  NaN, or a list holding NaN, raises
    `<name> must not be NaN`, any other failure the walker's message and
    ` at <name>`."""
    for name, schema in schemas.items():
        value = values[name]
        if value is None:
            continue
        if value != value or (isinstance(value, list)
                              and any(v != v for v in value)):
            raise ValueError(f"{name} must not be NaN")
        for _, message in _schema_errors(schema, value):
            raise ValueError(f"{message} at {name}")


def check_fields(obj) -> None:
    """check_args on the fields of a frozen dataclass that declare a
    schema; an integral number in an integer field is stored as an int."""
    schemas = {f.name: f.metadata for f in dataclasses.fields(obj)
               if f.metadata}
    values = vars(obj)
    check_args(schemas, values)
    for name, schema in schemas.items():
        if schema.get("type") == "integer" and values[name] is not None:
            object.__setattr__(obj, name, int(values[name]))


def field_schemas(cls) -> dict:
    """The schema of each field of cls that declares one, in field order."""
    return {f.name: dict(f.metadata) for f in dataclasses.fields(cls)
            if f.metadata}
