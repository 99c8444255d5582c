"""Span recorder for the benchmark's traced runs.

The package itself carries no instrumentation. ``Tracer.install`` replaces
the public functions listed in ``TARGETS`` by wrappers on their modules, so
calls made through the module attribute (which is how the package calls its
own layers) open a span; ``uninstall`` puts the originals back. Spans are kept
in memory as plain tuples and written out once, at the end of a run.

A span is ``(id, name, start, end, parent, thread, attrs)`` with times from
``time.perf_counter``. The parent is the innermost open span of the same
thread; a worker thread with nothing open (``report.run_sweep`` runs its
cells on a pool) takes the innermost open span of the thread that installed
the tracer, so pool work is charged to the sweep that spawned it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict


def _build_tree_attrs(problem, grid, N, *args, **kwargs):
    return {"n": grid.n, "N": N}


def _optimize_grid_attrs(prev, *args, **kwargs):
    return {"k": prev.step}


def _save_tree_attrs(result, tree, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _run_sweep_attrs(result, *args, **kwargs):
    return {"cell_sum": float(result.timings.sum())}


# (module, function, attrs from the call's arguments, attrs from its result)
TARGETS = (
    ("quantbsde.rmq", "build_tree", _build_tree_attrs, None),
    ("quantbsde.rmq", "optimize_grid", _optimize_grid_attrs, None),
    ("quantbsde.rmq", "conditional_law", None, None),
    ("quantbsde.rmq", "transition_matrix", None, None),
    ("quantbsde.rmq", "save_tree", None, _save_tree_attrs),
    ("quantbsde.rmq", "load_tree", None, None),
    ("quantbsde.bsde_solver", "solve", None, None),
    ("quantbsde.bsde_solver", "backward_step", None, None),
    ("quantbsde.report", "run_sweep", None, _run_sweep_attrs),
    ("quantbsde.report", "emit_csv", None, None),
    ("quantbsde.report", "emit_json", None, None),
    ("quantbsde.cli", "main", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._stacks: dict = defaultdict(list)
        self._root_thread = threading.get_ident()
        self._originals: list = []

    def _wrap(self, name, fn, pre, post):
        tracer = self

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks[tid]
            if stack:
                parent = stack[-1]
            else:
                root = tracer._stacks.get(tracer._root_thread)
                parent = root[-1] if root and tid != tracer._root_thread else None
            sid = next(tracer._ids)
            attrs = pre(*args, **kwargs) if pre else {}
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tid, attrs))
            if post:
                attrs.update(post(result, *args, **kwargs))
            return result

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for modname, func, pre, post in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, func)
            self._originals.append((mod, func, fn))
            name = f"{modname.rsplit('.', 1)[-1]}.{func}"  # e.g. "rmq.build_tree"
            setattr(mod, func, self._wrap(name, fn, pre, post))

    def uninstall(self) -> None:
        for mod, func, fn in reversed(self._originals):
            setattr(mod, func, fn)
        self._originals.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        out, self.spans = self.spans, []
        return out

    def absorb(self, spans) -> None:
        """Add spans recorded by another process, renumbering their ids."""
        remap = {sp[0]: next(self._ids) for sp in spans}
        for sid, name, start, end, parent, tid, attrs in spans:
            self.spans.append(
                (remap[sid], name, start, end, remap.get(parent), tid, attrs)
            )


def dump(spans, path) -> None:
    keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(keys, sp)) for sp in spans], fh)


def load(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [
            (d["id"], d["name"], d["start"], d["end"], d["parent"], d["thread"], d["attrs"])
            for d in json.load(fh)
        ]


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (children on a pool can overlap each other).
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _, _, _ in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
    return dict(out)


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
