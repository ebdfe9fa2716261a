"""CSV / JSON / raw-float writers.

CSV uses '.' decimals, LF line endings, and 17 significant digits so every
double round-trips; identical inputs therefore produce byte-identical
output.  The f64le format is a bare little-endian stream of 64-bit floats
for feeding external test batteries.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

FLOAT_FORMAT = ".17g"


def format_float(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def _rows(columns: Mapping[str, np.ndarray]):
    """The cells of each row, as Python ints and floats."""
    return zip(*(column.tolist() for column in columns.values()))


def table_csv(columns: Mapping[str, np.ndarray]) -> str:
    """A header of the column names, then one row per index: integer
    columns as integers, float columns with 17 significant digits."""
    row = ",".join(
        "{}" if np.issubdtype(column.dtype, np.integer) else "{:" + FLOAT_FORMAT + "}"
        for column in columns.values()
    )
    lines = [",".join(columns)] + [row.format(*cells) for cells in _rows(columns)]
    return "\n".join(lines) + "\n"


def table_json(columns: Mapping[str, np.ndarray]) -> str:
    """The rows as a list of objects, laid out as json.dumps(rows, indent=2).

    Cells are ints and finite floats, whose repr is what json.dumps writes.
    """
    fields = ",\n".join(f"    {json.dumps(name)}: {{!r}}" for name in columns)
    row = "  {{\n" + fields + "\n  }}"
    rows = [row.format(*cells) for cells in _rows(columns)]
    return ("[\n" + ",\n".join(rows) + "\n]\n") if rows else "[]\n"


def f64le_bytes(values: np.ndarray | Sequence[float]) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
