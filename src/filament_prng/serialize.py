"""CSV / JSON / raw-float writers.

CSV uses '.' decimals, LF line endings, and 17 significant digits so every
double round-trips; identical inputs therefore produce byte-identical
output.  The f64le format is a bare little-endian stream of 64-bit floats
for feeding external test batteries.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .filament import CirclePoint
from .prng import Stream


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def unit_samples_csv(stream: Stream, x_column: bool = True) -> str:
    """Rows (n, x, u), or (n, u) without the integer state column."""
    n, x, u = stream.n.tolist(), stream.x.tolist(), stream.u.tolist()
    if x_column:
        lines = ["n,x,u"] + [f"{a},{b},{format_float(c)}" for a, b, c in zip(n, x, u)]
    else:
        lines = ["n,u"] + [f"{a},{format_float(c)}" for a, c in zip(n, u)]
    return "\n".join(lines) + "\n"


def unit_samples_json(stream: Stream, x_column: bool = True) -> str:
    n, x, u = stream.n.tolist(), stream.x.tolist(), stream.u.tolist()
    if x_column:
        rows = [{"n": a, "x": b, "u": c} for a, b, c in zip(n, x, u)]
    else:
        rows = [{"n": a, "u": c} for a, c in zip(n, u)]
    return json.dumps(rows, indent=2) + "\n"


def circle_points_csv(points: Sequence[CirclePoint]) -> str:
    lines = ["p,re,im"]
    lines += [
        f"{pt.p},{format_float(pt.re)},{format_float(pt.im)}" for pt in points
    ]
    return "\n".join(lines) + "\n"


def circle_points_json(points: Sequence[CirclePoint]) -> str:
    rows = [{"p": pt.p, "re": pt.re, "im": pt.im} for pt in points]
    return json.dumps(rows, indent=2) + "\n"


def f64le_bytes(values: np.ndarray | Sequence[float]) -> bytes:
    return np.asarray(values).astype("<f8").tobytes()


def polygon_csv(vertices: np.ndarray) -> str:
    lines = ["index,x,y,z"]
    for i, (x, y, z) in enumerate(vertices):
        lines.append(
            f"{i},{format_float(x)},{format_float(y)},{format_float(z)}"
        )
    return "\n".join(lines) + "\n"


def polygon_json(vertices: np.ndarray) -> str:
    rows = [
        {"index": i, "x": float(x), "y": float(y), "z": float(z)}
        for i, (x, y, z) in enumerate(vertices)
    ]
    return json.dumps(rows, indent=2) + "\n"


def report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
