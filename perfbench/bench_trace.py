"""Span tracer that wraps dyadlab's public functions from outside the package.

`Tracer.install` replaces every public module-level function of the layer
modules, wherever a dyadlab module has bound it by name, plus the method
`Grid1D.cell_range`, with a wrapper that records one span per call: name id,
start, end, parent span and op id.  Spans live in flat `array` buffers and are
written out once, at the end of the run.  Wrappers record nothing while no op
is open, so set-up and output checks leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("dyadic", "wavelets", "operators", "size_energy", "stopping",
                 "models", "multiplier", "harness")
# O(1) integer predicates, called up to 10^5 times per op: a span would cost
# more than the call, so their time stays in the caller's self time.
UNTRACED = ("dyadic.contains", "dyadic.disjoint", "dyadic.rect_contains")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1  # -1: no op open, wrappers pass straight through

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        perf = time.perf_counter
        start, end, stack, tracer = self.start, self.end, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            sid = tracer._open(nid)
            start[sid] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()

        return traced

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one timed op; every layer span inside carries op_id."""
        self.op_id = op_id
        sid = self._open(self._name_id(name))
        self.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()
            self.op_id = -1

    def install(self, modules: dict) -> int:
        """Wrap the layers' public functions in every module namespace."""
        wrapped = {}
        for short in LAYER_MODULES:
            mod = modules[short]
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__
                        and f"{short}.{attr}" not in UNTRACED):
                    wrapped[val] = self.wrap(f"{short}.{attr}", val)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
        grid = modules["dyadic"].Grid1D
        grid.cell_range = self.wrap("dyadic.cell_range", grid.cell_range)
        return len(wrapped) + 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_of, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def analyse(tracer: Tracer, ops: range) -> tuple[dict, list[str]]:
    """Per-name calls and self time over the given ops, and consistency problems.

    Self time is a span's duration minus the durations of its direct children;
    calls are sequential, so children never overlap.  Checks: every child lies
    inside its parent and shares its op id, every root span is an op span, and
    per op the self times sum to the op span's duration.
    """
    a = tracer.arrays()
    name, parent, op = a["name"], a["parent"], a["op"]
    dur = a["end"] - a["start"]
    has = parent >= 0
    p = parent[has]
    child = np.bincount(p, weights=dur[has], minlength=dur.size)
    self_t = dur - child

    problems = []
    outside = ((a["start"][has] < a["start"][p]) | (a["end"][has] > a["end"][p]))
    if outside.any():
        problems.append(f"{int(outside.sum())} spans lie outside their parent")
    if (op[has] != op[p]).any():
        problems.append("a child span carries another op id than its parent")
    op_names = {i for i, n in enumerate(tracer.names) if n.startswith("op.")}
    roots = np.flatnonzero(~has)
    if any(int(name[r]) not in op_names for r in roots):
        problems.append("a root span is not an op span")
    if (dur < 0).any():
        problems.append("a span ends before it starts")

    sel = np.isin(op, np.array(list(ops), dtype=np.int64))
    self_by_op = np.bincount(op[sel], weights=self_t[sel])
    for r in roots[np.isin(op[roots], np.array(list(ops), dtype=np.int64))]:
        k = int(op[r])
        if abs(self_by_op[k] - dur[r]) > 1e-9 + 1e-9 * dur[r]:
            problems.append(f"op {k}: self times sum to {self_by_op[k]!r}, "
                            f"op wall is {dur[r]!r}")

    n = len(tracer.names)
    calls = np.bincount(name[sel], minlength=n)
    self_s = np.bincount(name[sel], weights=self_t[sel], minlength=n)
    per_name = {tracer.names[i]: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i in range(n)}
    return per_name, problems
