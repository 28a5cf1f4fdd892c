"""Spans and op counters from wrappers the benchmark installs around the
library, so that nothing under ``src/`` changes.

Every public function defined in a ``jjcavity`` module is wrapped, and the
wrapper is bound in every namespace that holds the original (the package
re-exports and names bound by ``from .x import y`` alike), together with
``numpy.linalg.solve``, ``eigvals`` and ``eig``.  A span is (name, start,
end, parent span, op id); spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

import jjcavity
import jjcavity.builder
import jjcavity.model
import jjcavity.params
import jjcavity.sector
import jjcavity.simulate
import jjcavity.stability
import jjcavity.sweep

LAYER_MODULES = (
    jjcavity.builder,
    jjcavity.model,
    jjcavity.params,
    jjcavity.sector,
    jjcavity.simulate,
    jjcavity.stability,
    jjcavity.sweep,
)
NAMESPACES = (jjcavity,) + LAYER_MODULES
LINALG = ("solve", "eigvals", "eig")


def layer_functions() -> dict:
    """Original function -> span name, e.g. certify -> 'stability.certify'."""
    out = {}
    for mod in LAYER_MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                out[fn] = f"{short}.{name}"
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = -1
        self.active = False

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name: str, by_size: bool = False):
        tracer = self
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            k = tracer._id(f"{name}.n{np.shape(args[0])[-1]}") if by_size else nid
            i = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(k)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Bind a wrapper wherever an original is bound.  Call restore()."""
        wrappers = {fn: self._wrap(fn, name) for fn, name in layer_functions().items()}
        for mod in NAMESPACES:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._wrap(fn, f"linalg.{attr}", by_size=attr == "eigvals"))

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def arrays(self) -> dict:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {"name": name, "parent": parent, "op": np.frombuffer(self.op, dtype=np.int32),
                "start": start, "dur": dur, "self": dur - child}

    def summary(self, ops=None) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays(), ops)

    def write(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], parent=a["parent"],
                 op=a["op"], start=a["start"], dur=a["dur"])


class SpanSummary:
    """Counts and times per span name, optionally restricted to some ops."""

    def __init__(self, names, arrays, ops=None):
        keep = np.ones(arrays["name"].size, bool) if ops is None else np.isin(arrays["op"], list(ops))
        self._names = names
        self._a = arrays
        self._keep = keep
        k = len(names)
        nm = arrays["name"][keep]
        self._count = np.bincount(nm, minlength=k)
        self._total = np.bincount(nm, weights=arrays["dur"][keep], minlength=k)
        self._self = np.bincount(nm, weights=arrays["self"][keep], minlength=k)

    def _idx(self, name):
        return self._names.index(name) if name in self._names else None

    def count(self, name) -> int:
        i = self._idx(name)
        return 0 if i is None else int(self._count[i])

    def total(self, name) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self._total[i])

    def self_time(self, name) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self._self[i])

    def count_under(self, name, ancestor) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        i, j = self._idx(name), self._idx(ancestor)
        if i is None or j is None:
            return 0
        nm, parent = self._a["name"], self._a["parent"]
        n = 0
        for s in np.nonzero((nm == i) & self._keep)[0]:
            p = parent[s]
            while p >= 0 and nm[p] != j:
                p = parent[p]
            n += p >= 0
        return int(n)
