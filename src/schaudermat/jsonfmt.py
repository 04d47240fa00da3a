"""Deterministic JSON serialization, the one place where a report becomes JSON.

Floats take their shortest round-trip spelling. A report dataclass is written
as its fields in declaration order, each under its camelCase name
(t0_per_level becomes t0PerLevel); json writes nested reports and tuples. A
+inf that is a field, or an element of a tuple field, is written "inf".
"""

import dataclasses
import json
import math


def inf_as_text(x):
    """*x*, or the string "inf" if *x* is +inf."""
    return "inf" if x == math.inf else x


def _fields(obj):
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    out = {}
    for field in dataclasses.fields(obj):
        head, *rest = field.name.split("_")
        value = getattr(obj, field.name)
        out[head + "".join(map(str.capitalize, rest))] = (
            [inf_as_text(x) for x in value] if isinstance(value, tuple) else inf_as_text(value))
    return out


def dumps(obj):
    """*obj* as two-space-indented JSON text; any other NaN or infinity raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_fields) + "\n"
