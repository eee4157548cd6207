"""The shipped JSON schemas and a small structural validator for them."""

from __future__ import annotations

import json
import os

__all__ = ["load_schema", "validate_against_schema"]


def load_schema(name: str) -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        f"{name}.schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int, "null": type(None)}


def validate_against_schema(doc, schema, where="$"):
    """Small structural validator for the shipped schemas (types,
    required keys, items, enums).  A bool is only a boolean, though
    Python also counts it as an int."""
    stype = schema.get("type")
    if stype is not None and (
            not isinstance(doc, _TYPES[stype])
            or isinstance(doc, bool) and stype != "boolean"):
        raise ValueError(f"{where}: expected {stype}, "
                         f"got {type(doc).__name__}")
    if "enum" in schema and doc not in schema["enum"]:
        raise ValueError(f"{where}: {doc!r} not in {schema['enum']}")
    if stype == "object":
        for key in schema.get("required", ()):
            if key not in doc:
                raise ValueError(f"{where}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                validate_against_schema(doc[key], sub, f"{where}.{key}")
    if stype == "array" and "items" in schema:
        for i, item in enumerate(doc):
            validate_against_schema(item, schema["items"], f"{where}[{i}]")
    return True
