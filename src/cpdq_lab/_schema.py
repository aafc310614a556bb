"""JSON Schema checks shared by the scenario CLI and the model types.

A model field declares its schema once, as its dataclasses.field metadata;
check_fields checks it in __post_init__ and field_schemas gives it to cli.
"""

from __future__ import annotations

import dataclasses
import operator

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# JSON Schema 2020-12 types and numeric bounds, worded as the Python
# reference validator words them
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int)
                                            or x.is_integer()),
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


def check_fields(obj) -> None:
    """Raise ValueError for the first field of a frozen dataclass that
    fails its schema; a field at None is unset.  An integral float in an
    integer field is stored as an int."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not f.metadata or value is None:
            continue
        if value != value:
            raise ValueError(f"{f.name} must not be NaN")
        for _, message in _schema_errors(f.metadata, value):
            raise ValueError(f"{message} at {f.name}")
        if f.metadata.get("type") == "integer":
            object.__setattr__(obj, f.name, int(value))


def field_schemas(cls) -> dict:
    """The schema of each field of cls that declares one, in field order."""
    return {f.name: dict(f.metadata) for f in dataclasses.fields(cls)
            if f.metadata}
