"""Deterministic JSON serialization: floats in their shortest round-trip spelling."""

import json


def dumps(obj):
    """*obj* as two-space-indented JSON text; NaN and infinities raise ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
