"""Deterministic JSON and CSV output on the standard library.

Reports and configs are reproducibility artifacts: ``json`` and ``csv``
write each float in Python's shortest round-trip form, so it loads back
as the float written (``10.0`` stays a float). Keys keep insertion order,
and two runs on the same inputs give byte-identical files. A dataclass is
written as its fields in order, so reports need no serializer. NaN and
infinities are the strings "nan", "inf" and "-inf": the JSON is strict.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["dumps", "dump", "dump_csv", "load_json"]


def _plain(value):
    """``value`` as JSON-ready Python data: dicts, lists, str, int, float, bool, None."""
    kind = type(value)  # exact types first: np.float64 is a float subclass
    if kind is float:
        return value if math.isfinite(value) else str(value)
    if kind in (str, int, bool) or value is None:
        return value
    if isinstance(value, np.generic):
        return _plain(value.item())  # never repr() a numpy scalar
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if is_dataclass(value) and not isinstance(value, type):
        return _plain(vars(value))  # a dataclass's __dict__ holds its fields in order
    return value


def dumps(obj):
    """Serialize to a deterministic JSON string (trailing newline included)."""
    return json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"


def dump(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def dump_csv(row_type, rows, path):
    """CSV of dataclass ``rows`` under a header of ``row_type``'s fields (also with
    no rows), each plain value as ``csv`` writes it, CRLF line ends."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([_plain(getattr(row, name)) for name in names] for row in rows)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
