"""Deterministic JSON and CSV output with fixed float formatting.

Reports and configs are reproducibility artifacts: floats are written with
17 significant digits (full round-trip precision), keys keep insertion
order, and two runs on the same inputs produce byte-identical files. A
dataclass is written as its fields in order, so reports need no serializer.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["dumps", "dump", "dump_csv", "load_json"]


def _format(value, level):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return '"nan"'
        if v in (float("inf"), float("-inf")):
            return f'"{v}"'
        return f"{v:.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    pad = "  " * level
    pad_in = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f'{pad_in}"{k}": {_format(v, level + 1)}' for k, v in value.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = (pad_in + _format(v, level + 1) for v in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, np.ndarray):
        return _format(value.tolist(), level)
    if is_dataclass(value) and not isinstance(value, type):
        return _format({f.name: getattr(value, f.name) for f in fields(value)}, level)
    return json.dumps(str(value))


def dumps(obj):
    """Serialize to a deterministic JSON string (trailing newline included)."""
    return _format(obj, 0) + "\n"


def dump(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def dump_csv(row_type, rows, path):
    """CSV of dataclass ``rows`` under a header of ``row_type``'s fields (also with
    no rows): ints as they are, floats to 17 significant digits, CRLF line ends."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            values = (getattr(row, name) for name in names)
            writer.writerow([x if isinstance(x, int) else f"{x:.17g}" for x in values])


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
