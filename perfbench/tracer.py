"""Span recorder that wraps liplab's public functions from outside the package.

Tracer.install() replaces every public function of every liplab module with a
timing wrapper, in every module namespace (and module-level dispatch dict)
that holds a reference to it, and wraps numpy.linalg.{eigh, svd, qr} as
`lapack.*` child spans.  Each span records its name, start, end, parent and
whether it exited by an exception; LAPACK spans also record a work count
computed from the argument's shape.  Spans stay in memory until the pass ends.

aggregate() turns a span list into per-layer metrics: call counts, total and
self time (duration minus the time covered by child spans), errors, and the
computed work totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("linalg", "ideals", "functions", "doi", "measures", "certificate", "rng",
           "sweeps", "cli")


def _mnk(a, *args, **kwargs) -> int:
    """m * n * min(m, n) for an m x n argument: the shape-computed work of SVD and QR."""
    m, n = np.shape(a)[-2:]
    return m * n * min(m, n)


def _d3(a, *args, **kwargs) -> int:
    return np.shape(a)[-1] ** 3


LAPACK = {"eigh": _d3, "svd": _mnk, "qr": _mnk}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, work=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            amount = work(*args, **kwargs) if work else 0
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                spans[index] = (name_id, start, clock(), parent, failed, amount)
                stack.pop()

        return traced

    def install(self):
        """Wrap liplab's public functions and numpy's LAPACK entry points in place."""
        package = importlib.import_module("liplab")
        modules = {name: importlib.import_module(f"liplab.{name}") for name in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(namespace, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
        for attr, work in LAPACK.items():
            setattr(np.linalg, attr, self.wrap(f"lapack.{attr}", getattr(np.linalg, attr), work))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def aggregate(trace: dict) -> dict:
    """Per span name: calls, total_s, self_s, errors and work."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for index, (name_id, start, end, _, failed, work) in enumerate(spans):
        entry = stats.setdefault(names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                  "errors": 0, "work": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["errors"] += failed
        entry["work"] += work
    return stats
