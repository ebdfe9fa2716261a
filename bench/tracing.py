"""Span tracing for the benchmark's traced passes.

While installed, a Tracer wraps every call that crosses from one of the
package's modules into another module's public function.  The modules import
each other with `from .x import y`, so each such call goes through the
importing module's own binding, and that binding is what gets wrapped;
patching only the defining module would miss it.  Calls inside one module
are not layer boundaries and stay unwrapped, except for the few named in
INTERNAL, which carry their own metrics.  Each wrapped call records one span
(name, start, end, parent) in flat arrays kept in memory; `layer_metrics`
turns the spans into per-layer self times, and a few wrappers also count
the work passed through them.
"""

from __future__ import annotations

import gc
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from loader import LAYERS, PACKAGE

ROOT = "bench.op"  # the span the benchmark opens around each operation
# Functions wrapped also where their own module calls them: the CLI entry
# point (called by the benchmark), its file writes (cli.emit_s), the star
# discrepancy (stattest.star_s) and the RANDU plane scan.
INTERNAL = {
    "cli": ("main", "_emit"),
    "stattest": ("star_discrepancy", "randu_plane_labels"),
}


# Per-layer metrics of a traced pass and their units, as in BENCHMARK.json.
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.emit_s": "s",
    "cli.emit_bytes": "bytes",
    "serialize.bytes": "bytes",
    "prng.samples": "count",
    "prng.spec_s": "s",
    "prng.lcg_skip_steps": "count",
    "prng.lcg_useful_frac": "ratio",
    "prng.compound_yield": "ratio",
    "modular.calls": "count",
    "gauss.row_elems": "count",
    "filament.corners": "count",
    "filament.z_closed_calls": "count",
    "stattest.star_s": "s",
    "stattest.star_boxes": "count",
    "stattest.randu_samples": "count",
    "verify.cases": "count",
    "process.gc_s": "s",
    "process.gc_collections": "count",
    "process.cpu_s": "s",
}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - children


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _corner_count(args, kwargs, result) -> dict:
    return {"filament.corners": _arg(args, kwargs, 0, "config").corner_count}


def _star_boxes(args, kwargs, result) -> dict:
    points = _arg(args, kwargs, 0, "cloud").points
    boxes = 1
    for column in points.T:
        boxes *= len(np.unique(column)) + 1
    return {"stattest.star_boxes": boxes}


def _samples(args, kwargs, result) -> dict:
    return {"prng.samples": len(result)}


def _lcg(args, kwargs, result) -> dict:
    start = args[2] if len(args) > 2 else kwargs.get("start", 0)
    return {"prng.samples": len(result), "prng.lcg_samples": len(result),
            "prng.lcg_skip_steps": start}


def _compound(args, kwargs, result) -> dict:
    # The generator walks p = 1, 2, ... up to the last index it emits.
    return {"prng.samples": len(result), "prng.compound_emitted": len(result),
            "prng.compound_scanned": result[-1].n if result else 0}


def _verify_cases(args, kwargs, result) -> dict:
    suites = result if isinstance(result, list) else [result]
    return {"verify.cases": sum(s.cases for s in suites)}


def _row_elems(args, kwargs, result) -> dict:
    return {"gauss.row_elems": result.size}


def _emit_bytes(args, kwargs, result) -> dict:
    return {"cli.emit_bytes": len(_arg(args, kwargs, 0, "payload"))}


def _serialized_bytes(args, kwargs, result) -> dict:
    return {"serialize.bytes": len(result)}


COUNTERS = {
    "cli._emit": _emit_bytes,
    "serialize.*": _serialized_bytes,
    "prng.lcg_stream": _lcg,
    "prng.compound_stream": _compound,
    "prng.eicg_stream": _samples,
    "prng.eicg_pow2_stream": _samples,
    "prng.vfe_stream": _samples,
    "prng.vfe_unit_samples": _samples,
    "gauss.gauss_direct_row": _row_elems,
    "gauss.closed_odd_row": _row_elems,
    "gauss.closed_2mod4_row": _row_elems,
    "gauss.closed_0mod4_row": _row_elems,
    # theta_sequence evaluates one full Gauss-sum row of length q.
    "gauss.theta_sequence": lambda a, k, r: {"gauss.row_elems": _arg(a, k, 1, "q")},
    "filament.corner_products": _corner_count,
    "filament.closure_residual": _corner_count,
    "stattest.star_discrepancy": _star_boxes,
    "stattest.randu_plane_labels":
        lambda a, k, r: {"stattest.randu_samples": _arg(a, k, 0, "sample_count")},
    "verify.verify_gauss": _verify_cases,
    "verify.verify_theorem1": _verify_cases,
    "verify.verify_closure": _verify_cases,
    "verify.verify_compound": _verify_cases,
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self.cpu_s = 0.0
        self._gc_started = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name_id: int) -> int:
        sid = len(self.parent)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name) or COUNTERS.get(f"{layer}.*")
        open_, close = self._open, self._close
        counts = self.counts

        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    @contextmanager
    def installed(self, modules: dict):
        """Wrap the traced bindings of the package modules for the duration.

        `modules` maps each name of LAYERS to the imported module.
        """
        wrappers = {}  # function -> its wrapper, shared by every binding
        patched = []
        for owner, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                package, _, layer = value.__module__.rpartition(".")
                if package != PACKAGE or layer not in LAYERS:
                    continue
                fname = value.__name__
                internal = fname in INTERNAL.get(layer, ())
                if fname.startswith("_") and not internal:
                    continue
                if layer == owner and not internal:
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(f"{layer}.{fname}", value)
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))
        spec = modules["prng"].StreamSpec
        spec_init = spec.__init__
        spec.__init__ = self.wrap("prng.StreamSpec", spec_init)
        gc.callbacks.append(self._on_gc)
        cpu0 = time.process_time()
        try:
            yield self
        finally:
            self.cpu_s += time.process_time() - cpu0
            gc.callbacks.remove(self._on_gc)
            spec.__init__ = spec_init
            for module, attr, value in patched:
                setattr(module, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    spans = tracer.arrays()
    n_names = len(tracer.names)
    own = np.bincount(spans["name"], minlength=n_names,
                      weights=self_times(spans["parent"], spans["start"], spans["end"]))
    dur = np.bincount(spans["name"], weights=spans["end"] - spans["start"], minlength=n_names)
    calls = np.bincount(spans["name"], minlength=n_names)

    def total(values: np.ndarray, prefix: str) -> float:
        return float(sum(v for v, n in zip(values, tracer.names) if n.startswith(prefix)))

    c = tracer.counts
    lcg_work = c["prng.lcg_samples"] + c["prng.lcg_skip_steps"]
    scanned = c["prng.compound_scanned"]
    out = {f"{layer}.self_s": total(own, f"{layer}.") for layer in LAYERS}
    out.update({
        "cli.emit_s": total(dur, "cli._emit"),
        "cli.emit_bytes": c["cli.emit_bytes"],
        "serialize.bytes": c["serialize.bytes"],
        "prng.samples": c["prng.samples"],
        "prng.spec_s": total(dur, "prng.StreamSpec"),
        "prng.lcg_skip_steps": c["prng.lcg_skip_steps"],
        # No LCG or compound call wastes nothing: the ratios read 1.
        "prng.lcg_useful_frac": c["prng.lcg_samples"] / lcg_work if lcg_work else 1.0,
        "prng.compound_yield": c["prng.compound_emitted"] / scanned if scanned else 1.0,
        "modular.calls": int(total(calls, "modular.")),
        "gauss.row_elems": c["gauss.row_elems"],
        "filament.corners": c["filament.corners"],
        "filament.z_closed_calls": int(total(calls, "filament.z_qm_closed")),
        "stattest.star_s": total(dur, "stattest.star_discrepancy"),
        "stattest.star_boxes": c["stattest.star_boxes"],
        "stattest.randu_samples": c["stattest.randu_samples"],
        "verify.cases": c["verify.cases"],
        "process.gc_s": tracer.gc_s,
        "process.gc_collections": tracer.gc_collections,
        "process.cpu_s": tracer.cpu_s,
    })
    return out
