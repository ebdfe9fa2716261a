"""CSV / JSON / raw-float writers.

CSV uses '.' decimals, LF line endings, and 17 significant digits so every
double round-trips; identical inputs therefore produce byte-identical
output.  The f64le format is a bare little-endian stream of 64-bit floats
for feeding external test batteries.

The table writers format rows in blocks of at most `_BLOCK_ROWS`: a block's
cells are interleaved into one list, row-major, and formatted by a single
`%` on the row template repeated once per row (`%d` for integer columns,
`%.17g` for float columns in csv and `%r` in json, the C formatters behind
`str`, `"{:.17g}"` and `repr`).  The blocks and the surrounding text are
joined once, so a table costs about twice its output length in memory, and
no per-row string or per-row tuple is ever built.

A table can also be written one window of rows at a time: `first` and
`last` say whether a window opens the table (the csv header, json's `[`;
a later window opens with the row separator) and whether it closes it.
The texts of consecutive windows, the first with `first` and the last
with `last`, concatenate to the whole table's text.  Every window but the
whole table of an empty stream holds at least one row.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

# Rows per `%` call: large enough that the per-block Python overhead
# vanishes, small enough that a block's cells stay a few MB.
_BLOCK_ROWS = 2**14


def _cell(column: np.ndarray, float_format: str) -> str:
    return "%d" if np.issubdtype(column.dtype, np.integer) else float_format


def _length(columns: Mapping[str, np.ndarray]) -> int:
    """Rows of the table: its shortest column's length, 0 without columns."""
    return min((len(column) for column in columns.values()), default=0)


def _table(columns: Mapping[str, np.ndarray], row: str, sep: str, head: str, tail: str) -> str:
    """head, then every row formatted by the printf template `row`, rows
    separated by `sep`, then tail: one `%` per block and one join."""
    values = list(columns.values())
    width = len(values)
    count = _length(columns)
    parts = [head]
    for lo in range(0, count, _BLOCK_ROWS):
        rows = min(count - lo, _BLOCK_ROWS)
        cells = [None] * (rows * width)
        for j, column in enumerate(values):
            cells[j::width] = column[lo : lo + rows].tolist()
        if lo:
            parts.append(sep)
        parts.append(sep.join([row] * rows) % tuple(cells))
    parts.append(tail)
    return "".join(parts)


def table_csv(columns: Mapping[str, np.ndarray], first: bool = True, last: bool = True) -> str:
    """A header of the column names, then one row per index: integer
    columns as integers, float columns with 17 significant digits."""
    row = ",".join(_cell(column, "%.17g") for column in columns.values())
    return _table(columns, "\n" + row, "", ",".join(columns) if first else "", "\n" if last else "")


def table_json(columns: Mapping[str, np.ndarray], first: bool = True, last: bool = True) -> str:
    """The rows as a list of objects, laid out as json.dumps(rows, indent=2).

    Cells are ints and finite floats, whose repr is what json.dumps writes.
    """
    if first and last and not _length(columns):
        return "[]\n"
    fields = ",\n".join(
        f"    {json.dumps(name).replace('%', '%%')}: {_cell(column, '%r')}"
        for name, column in columns.items()
    )
    return _table(columns, "  {\n" + fields + "\n  }", ",\n",
                  "[\n" if first else ",\n", "\n]\n" if last else "")


def f64le_bytes(values: np.ndarray | Sequence[float]) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
