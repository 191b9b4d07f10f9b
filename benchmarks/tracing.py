"""Span tracer that measures the wcs layers from outside the package.

``Tracer.install`` wraps every public function of each layer module, plus
the public methods of ``core.PhiFunction`` and ``rng.SplitMix64``, in every
``wcs`` namespace that binds them: the modules use ``from .core import
sort_desc`` and friends, so patching only the defining module would miss
most callers. ``Tracer.restore`` puts every original object back.

Spans are recorded only while ``tracer.op`` is a non-negative op id, so
the benchmark's own correctness checks, which call into ``wcs`` too, stay
out of the trace. Each span is one row of parallel in-memory arrays
(name, parent span, start, end, op id, escaped-exception flag) in start
order, so a parent always precedes its children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "riskstats", "sensitivity", "worstcase", "dro", "oracle", "rng", "cli")
TRACED_CLASSES = {"core": ("PhiFunction",), "rng": ("SplitMix64",)}
# return values kept for counters that the solvers only report in their result
KEEP_RESULTS = ("dro.logreg_saa", "dro.logreg_wasserstein")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.op = -1
        self.span_names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._stack = [-1]
        self._cols = (array("q"), array("q"), array("d"), array("d"), array("q"), array("b"))
        self.kept: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for name, m in sys.modules.items() if name == prefix or name.startswith(prefix + ".")]
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", obj)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patches.append((ns, attr, obj))
                            setattr(ns, attr, wrapped)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(obj):
                        continue
                    self._patches.append((cls, name, obj))
                    setattr(cls, name, self._wrap(f"{layer}.{cls_name}.{name}", obj))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        idx = self._name_index.setdefault(name, len(self.span_names))
        if idx == len(self.span_names):
            self.span_names.append(name)
        names, parents, starts, ends, ops, errs = self._cols
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        kept = self.kept.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op < 0:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(op)
            errs.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[sid] = clock()
                errs[sid] = 1
                stack.pop()
                raise
            ends[sid] = clock()
            stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # span storage
    # ------------------------------------------------------------------

    def clear(self) -> None:
        for col in self._cols:
            del col[:]
        for results in self.kept.values():
            results.clear()

    def spans(self) -> "Spans":
        names, parents, starts, ends, ops, errs = (np.array(c) for c in self._cols)
        return Spans(self.span_names, names, parents, starts, ends, ops, errs.astype(bool))


class Spans:
    """One traced pass, with self time and ancestry queries."""

    def __init__(self, table, names, parents, starts, ends, ops, errs):
        self.table = list(table)
        self.names = names
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.ops = ops
        self.errs = errs
        dur = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=names.size)
        self.self_time = dur - covered

    def __len__(self) -> int:
        return int(self.names.size)

    def ids(self, pred) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.table) if pred(n)], dtype=np.int64)

    def mask(self, pred) -> np.ndarray:
        return np.isin(self.names, self.ids(pred))

    def under(self, pred) -> np.ndarray:
        """Spans that have an ancestor whose name satisfies pred."""
        target = self.mask(pred)
        has_parent = self.parents >= 0
        pp = self.parents[has_parent]
        flag = np.zeros(self.names.size, dtype=bool)
        while True:
            new = np.zeros_like(flag)
            new[has_parent] = target[pp] | flag[pp]
            if np.array_equal(new, flag):
                return flag
            flag = new

    def count(self, pred, where=None) -> int:
        m = self.mask(pred)
        return int(np.count_nonzero(m if where is None else m & where))

    def self_s(self, pred) -> float:
        return float(np.sum(self.self_time[self.mask(pred)]))

    def errors(self, pred) -> int:
        return int(np.count_nonzero(self.errs & self.mask(pred)))

    def save(self, path) -> None:
        np.savez(
            path,
            table=np.array(self.table),
            name=self.names,
            parent=self.parents,
            start=self.starts,
            end=self.ends,
            op=self.ops,
            error=self.errs,
        )
