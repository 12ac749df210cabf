"""Spans around the calls into each negabeta module, recorded from outside.

``Tracer.install`` wraps every public module-level function of each layer
module, and the public methods (plus ``__mul__``) of the base and point
types, at every place the package binds them: a name imported with
``from .numerics import floor_beta_times`` is replaced in
``negabeta.expansion`` too, and methods are replaced on their class, so
calls between modules and inside ``polys`` (which resolve through module
globals) are seen. ``uninstall`` restores every binding.

A span is (name, start, end, parent span, request id). Spans are kept in
memory and written out by ``write``; per-name calls, self time (duration
minus the durations of direct child spans) and raised exceptions are also
summed as calls return, so they cover spans past the storage cap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from pathlib import Path

PACKAGE = "negabeta"
LAYERS = ("polys", "numerics", "expansion", "order", "shiftspace",
          "measure", "matching", "solver", "cli")
METHOD_CLASSES = {"numerics": ("Beta", "FieldPoint")}
DUNDERS = ("__mul__",)
MAX_STORED_SPANS = 200_000

_FUNCTION_TYPES = (types.FunctionType, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self, capture: tuple[str, ...] = ()):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []
        self.captured: dict[str, list] = {name: [] for name in capture}
        self.active = False
        self.request = -1
        self.n_spans = 0
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("q")
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.errors.append(0)
        tracer, stack, clock = self, self._stack, time.perf_counter
        calls, self_s, errors = self.calls, self.self_s, self.errors
        captured = self.captured.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.n_spans
            tracer.n_spans = idx + 1
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if not ok:
                    errors[nid] += 1
                if idx < MAX_STORED_SPANS:
                    tracer.span_name.append(nid)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
                    tracer.span_parent.append(parent)
                    tracer.span_request.append(tracer.request)
            if captured is not None:
                captured.append(result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):  # keep an lru_cache usable
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and isinstance(obj, _FUNCTION_TYPES)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name in METHOD_CLASSES.get(layer, ()):
                self._install_methods(layer, getattr(mod, cls_name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])

    def _install_methods(self, layer: str, cls) -> None:
        done: dict[int, object] = {}
        for attr, obj in list(vars(cls).items()):
            kind = type(obj)
            fn = obj.__func__ if kind in (classmethod, staticmethod) else obj
            if not isinstance(fn, types.FunctionType):
                continue  # properties, slots and constants
            if fn.__name__.startswith("_") and fn.__name__ not in DUNDERS:
                continue
            if id(fn) not in done:  # aliases such as __rmul__ = __mul__ share one name
                done[id(fn)] = self._wrap(f"{layer}.{cls.__name__}.{fn.__name__}", fn)
            wrapped = done[id(fn)]
            self._rebind(cls, attr, kind(wrapped) if kind in (classmethod, staticmethod) else wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def clear_captured(self) -> None:
        for values in self.captured.values():
            values.clear()

    def totals(self) -> dict[str, tuple[int, float, int]]:
        """name -> (calls, self seconds, errors), summed over every span so far."""
        return {n: (self.calls[i], self.self_s[i], self.errors[i])
                for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as JSON, one array per field; ``name`` indexes ``names``
        and ``parent`` indexes the spans (-1 for none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans_total": self.n_spans,
            "clock": "time.perf_counter seconds",
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "request": self.span_request.tolist(),
        }))
