"""Spans around centropoly's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced layers with
a wrapper, in its own module and in every module that imported it by name
(``cli`` imports from ``duality``, ``pedal`` from ``duality``, and so on), so
calls inside the package are caught too.  Constructors of the public,
non-dataclass classes are wrapped the same way.  ``cyclic`` primitives are
only counted: a span around each of them would cost more than they do.

A span's self time is its duration minus the durations of its child spans.
A function that re-enters itself (``dump_json`` recurses) gets one span per
outermost call.  Spans are kept in memory, up to ``MAX_SPANS``, and written
by ``write``; the per-layer totals include every span, kept or not.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

SPAN_LAYERS = ("cli", "generators", "invariants", "duality", "pedal", "documents")
COUNT_LAYERS = ("cyclic",)
# private functions counted without spans: the generators' candidate draw
COUNTED = ("generators._convex_from_rng",)
MAX_SPANS = 200_000


def _public_callables(module):
    """(name, function) for functions, and (name, class) for classes, defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not dataclasses.is_dataclass(obj)):
            yield name, obj


class Tracer:
    """Per-layer self times and call counts; ``start`` and ``stop`` gate all recording."""

    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.request = -1
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._active: set[str] = set()
        self._next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)  # per function key
        self.calls: Counter = Counter()  # per function key, spans and counts
        self.dump_bytes = 0
        self.dump_s = 0.0
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- install

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items()) if m is not None and
                (name == self.package.__name__ or name.startswith(prefix))]

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        owners: set[type] = set()
        for layer in SPAN_LAYERS + COUNT_LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            spans = layer in SPAN_LAYERS
            for name, obj in _public_callables(module):
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj, spans)
                    continue
                # a constructor is patched on the class that defines it (NodeSeq
                # and EdgeSeq share one)
                owner = next(k for k in obj.__mro__ if "__init__" in vars(k))
                if owner.__module__ != module.__name__ or owner in owners:
                    continue
                owners.add(owner)
                init = vars(owner)["__init__"]
                self._undo.append((owner, "__init__", init))
                setattr(owner, "__init__", self._wrap(f"{layer}.{owner.__name__}", init, spans))
        for key in COUNTED:
            layer, name = key.split(".")
            fn = getattr(sys.modules[f"{self.package.__name__}.{layer}"], name)
            wrappers[id(fn)] = self._wrap(key, fn, spans=False)
        for module in self._modules():
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for target, name, obj in reversed(self._undo):
            setattr(target, name, obj)
        self._undo.clear()

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    # -------------------------------------------------------------- wrappers

    def _wrap(self, key: str, fn, spans: bool):
        tracer = self
        calls = self.calls

        if not spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        is_dump = key == "documents.dump_json"
        clock = time.perf_counter
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.enabled or key in active:
                return fn(*args, **kwargs)
            calls[key] += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            active.add(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active.discard(key)
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[key] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, tracer.request, key, frame[1], end))
                else:
                    tracer.dropped += 1
            if is_dump:
                tracer.dump_bytes += len(result)
                tracer.dump_s += duration
            return result

        return spanned

    # -------------------------------------------------------------- results

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))

    def write(self, path, header: dict) -> None:
        """Write the totals and the kept spans (times in microseconds from the first span)."""
        t0 = self.spans[0][4] if self.spans else 0.0
        doc = dict(header)
        doc["functions"] = {
            k: {"calls": self.calls[k], "self_ms": round(self.self_s.get(k, 0.0) * 1e3, 6)}
            for k in sorted(self.calls)
        }
        doc["spans_dropped"] = self.dropped
        doc["span_fields"] = ["id", "parent", "request", "name", "start_us", "end_us"]
        doc["spans"] = [
            [s, p, r, k, round((a - t0) * 1e6, 3), round((b - t0) * 1e6, 3)]
            for s, p, r, k, a, b in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


class NumpyCallCounter:
    """Counts C-level calls into numpy through ``sys.setprofile``.

    A call counts when the callee's module is numpy's, or when it is a method
    of an ndarray, a numpy scalar or a ufunc (``a.take``, ``np.add.reduce``).
    Operators such as ``a * b`` produce no profile event and are not counted.
    """

    def __init__(self, np):
        self.count = 0
        self._own = (np.ndarray, np.generic, np.ufunc)

    def _profile(self, frame, event, arg):
        if event != "c_call":
            return
        module = getattr(arg, "__module__", None)
        if (module and module.startswith("numpy")) or isinstance(getattr(arg, "__self__", None), self._own):
            self.count += 1

    def start(self) -> None:
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)
