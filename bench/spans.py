"""Span tracing of the package's layers, installed from outside at run time.

``Tracer.install`` wraps every public function of the traced modules, and
the ``__init__`` of every class they define, by replacing module
attributes; no file of the package changes.  Each call records a span
(name, start, end, parent span, request id, whether it returned None) in
flat arrays kept in memory; ``summary`` reduces them to per-function and
per-module figures after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "io", "pipeline", "conditions", "qubit", "chart", "group", "states", "linalg")

#: callables a module imports from elsewhere that are traced under that module's name
FOREIGN = {"chart": ("nnls",)}


def _targets(module) -> dict[str, tuple[object, str, object]]:
    """Traced callables of one module: name -> (owner, attribute, original)."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out[attr] = (module, attr, obj)
        elif inspect.isclass(obj) and "__init__" in vars(obj) and not dataclasses.is_dataclass(obj):
            out[attr] = (obj, "__init__", vars(obj)["__init__"])
    for attr in FOREIGN.get(module.__name__.rsplit(".", 1)[-1], ()):
        if callable(getattr(module, attr, None)):
            out[attr] = (module, attr, getattr(module, attr))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.request: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.returned_none = bytearray()
        self.stack = [-1]
        self.request_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, returned_none, stack = self.start, self.end, self.returned_none, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(self.request_id)
            start.append(0.0)
            end.append(0.0)
            returned_none.append(0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned_none[sid] = result is None
                return result
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()

        return traced

    def install(self, package: str = "antidist") -> None:
        """Wrap every target; rebind each module attribute that held the original."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        everywhere = [m for k, m in sys.modules.items()
                      if k == package or k.startswith(package + ".")]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, (owner, slot, original) in sorted(_targets(module).items()):
                wrapped = self._wrap(f"{layer}.{attr}", original)
                if inspect.isclass(owner):
                    self._undo.append((owner, slot, original))
                    setattr(owner, slot, wrapped)
                    continue
                for other in everywhere:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._undo.append((other, key, original))
                            setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, slot, original in reversed(self._undo):
            setattr(owner, slot, original)
        self._undo.clear()

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self_s, total_s (outermost spans only), hits.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        returned = 1 - np.frombuffer(bytes(self.returned_none), dtype=np.uint8)
        hits = np.bincount(nid, weights=returned, minlength=k)
        total_s = np.bincount(nid, weights=dur * self._outermost(nid, parent), minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i]), "hits": int(hits[i])}
            for i, name in enumerate(names)
        }

    @staticmethod
    def _outermost(nid: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """1 for spans with no enclosing span of the same name, so recursion
        is not counted twice in total_s.  Spans are stored in call order."""
        out = np.ones(len(nid))
        names = nid.tolist()
        open_names: Counter = Counter()
        chain: list[int] = []
        for sid, (name, par) in enumerate(zip(names, parent.tolist())):
            while chain and chain[-1] != par:
                open_names[names[chain.pop()]] -= 1
            if open_names[name]:
                out[sid] = 0.0
            open_names[name] += 1
            chain.append(sid)
        return out
