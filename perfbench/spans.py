"""In-memory spans around the calls one eregsim layer makes into another.

A span is (name, parent, start, end). The tracer keeps them in flat
arrays while an op runs, so recording one costs a few appends, and
computes per-name counts and self times afterwards. A span's self time
is its duration minus the durations of its direct children; a layer's
self time is the sum over the spans of that layer.

Spans come only from this directory: ``Tracer.wrap`` wraps a callable,
and ``Tracer.patch_engine`` wraps every name the ``eregsim.engine``
module imports from the other layers, so nothing under ``src/`` changes.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter

import numpy as np

# Package modules whose names the engine imports; each is one layer.
LAYER_MODULES = ("fluids", "control", "scenario", "telemetry")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # "layer.qualified_name"; index = name id
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop recorded spans in place; wrappers and the name table stay valid."""
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]
        self._stack[:] = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, layer: str, name: str, fn):
        """Return fn wrapped in a span named "layer.name"."""
        nid = self._id(f"{layer}.{name}")
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, target, attr: str, value) -> None:
        self._patched.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def patch_engine(self, engine) -> None:
        """Wrap each name ``engine`` imports from the other layers.

        Functions are replaced in the engine namespace. Classes are left in
        place and their own methods, class methods and static methods are
        wrapped on the class, so every caller of those methods is traced.
        Properties, dunder methods and constructors stay unwrapped.
        """
        package = engine.__name__.rpartition(".")[0]
        for attr, obj in sorted(vars(engine).items()):
            module = getattr(obj, "__module__", None) or ""
            layer = module.rpartition(".")[2]
            if module.rpartition(".")[0] != package or layer not in LAYER_MODULES:
                continue
            if inspect.isfunction(obj):
                self._set(engine, attr, self.wrap(layer, attr, obj))
            elif inspect.isclass(obj):
                self._patch_class(layer, obj)

    def _patch_class(self, layer: str, cls) -> None:
        for attr, member in sorted(vars(cls).items()):
            if attr.startswith("__"):
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self.wrap(layer, name, member))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self.wrap(layer, name, member.__func__)))
            elif isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(layer, name, member.__func__)))

    def unpatch(self) -> None:
        """Restore every attribute patch_engine replaced."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, total seconds, self seconds)} of the recorded spans."""
        return summarize(self.names, **self.arrays())


def summarize(names, name_id, parent, start, end) -> dict[str, tuple[int, float, float]]:
    """Per-name call count, total time and self time of a span forest.

    parent holds the index of each span's parent, or -1 for a root.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    n = len(duration)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - child_time
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=duration, minlength=k)
    own = np.bincount(name_id, weights=self_time, minlength=k)
    return {
        names[i]: (int(calls[i]), float(total[i]), float(own[i]))
        for i in range(k)
        if calls[i]
    }


def layer_self_time(summary: dict[str, tuple[int, float, float]], layer: str) -> float:
    return sum((own for name, (_, _, own) in summary.items() if name.split(".")[0] == layer), 0.0)


def layer_calls(summary: dict[str, tuple[int, float, float]], layer: str) -> int:
    return sum(calls for name, (calls, _, _) in summary.items() if name.split(".")[0] == layer)
