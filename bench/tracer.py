"""In-process tracer for the toricfib layers, installed from outside the package.

Every public function of a layer module, and every public method, property,
classmethod and ``__init__`` of a public class defined there, is replaced by
a wrapper.  The module-level wrappers are also bound into every other
``toricfib`` module that imported the original with ``from .x import f``, so a
call through any binding is seen.

Each wrapped call is counted and timed.  Per function the tracer keeps calls
and self seconds (minus all wrapped children).  Per layer it
keeps calls and self seconds: the time of each span that enters the layer from
outside it, minus the spans of other layers nested under it.  Those entering
spans (name, start, end, parent span, pass id) are also kept in memory, up to
a cap, and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

PACKAGE = "toricfib"
LAYERS = (
    "jsonio",
    "exactlinalg",
    "dd",
    "polytope",
    "fans",
    "cy",
    "sympoly",
    "k3",
    "monodromy",
    "fibsearch",
)

# Functions whose arguments are remembered per pass, to count repeated work.
KEYED = ("exactlinalg.hermite_form", "dd.extreme_rays")

MAX_SPANS = 1_000_000


def _freeze_rows(args, kwargs):
    """Key of a call whose first argument is a matrix (rows of numbers)."""
    rows = args[0]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)  # materialize once so the call still sees every row
        args = (rows,) + tuple(args[1:])
    key = (tuple(tuple(r) for r in rows), args[1:], tuple(sorted(kwargs.items())))
    return key, args


class Tracer:
    """Counts and times calls into the toricfib layers while ``on`` is true."""

    def __init__(self):
        self.layers = LAYERS
        self.on = False
        self.names = []  # function id -> "layer.qualname"
        self._patches = []  # (owner, attribute, original value)
        self._stack = []
        self.pass_id = -1
        self.spans_dropped = 0
        self._span_id = array("q")
        self._span_fn = array("i")
        self._span_parent = array("q")
        self._span_pass = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._next_span = 0
        self.reset()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layers and rebind every imported alias; returns self."""
        pkg = importlib.import_module(PACKAGE)
        modules = [
            importlib.import_module(f"{PACKAGE}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        replaced = {}
        for layer_index, layer in enumerate(self.layers):
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrap(value, f"{layer}.{attr}", layer_index)
                    replaced[id(value)] = (value, wrapper)
                elif inspect.isclass(value):
                    self._wrap_class(value, layer, layer_index)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self.reset()
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self.on = False

    def _wrap_class(self, cls, layer, layer_index):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            if inspect.isfunction(value):
                new = self._wrap(value, name, layer_index)
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(value.__func__, name, layer_index))
            elif isinstance(value, staticmethod):
                new = staticmethod(self._wrap(value.__func__, name, layer_index))
            elif isinstance(value, property) and value.fget is not None:
                new = property(
                    self._wrap(value.fget, name, layer_index),
                    value.fset,
                    value.fdel,
                    value.__doc__,
                )
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, new)

    def _wrap(self, fn, name, layer_index):
        fid = len(self.names)
        self.names.append(name)
        enter, leave = self._enter, self._leave
        tracer = self

        if name in KEYED:

            @functools.wraps(fn)
            def keyed(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                key, args = _freeze_rows(args, kwargs)
                seen = tracer.seen[fid]
                if key in seen:
                    tracer.repeats[fid] += 1
                else:
                    seen.add(key)
                frame = enter(fid, layer_index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)

            return keyed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = enter(fid, layer_index)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    # -- accounting ----------------------------------------------------------

    def reset(self):
        """Clear the per-pass aggregates (spans are kept)."""
        n, nl = len(self.names), len(self.layers)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.repeats = [0] * n
        self.seen = [set() for _ in range(n)]
        self.layer_calls = [0] * nl
        self.layer_self_s = [0.0] * nl

    def _enter(self, fid, layer_index):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None or parent[1] != layer_index:
            span, entry = self._next_span, None  # this frame enters the layer
            self._next_span += 1
        else:
            span, entry = -1, parent if parent[5] is None else parent[5]
        # [fid, layer, child seconds, covered seconds, span id, entry frame, start]
        frame = [fid, layer_index, 0.0, 0.0, span, entry, 0.0]
        stack.append(frame)
        frame[6] = time.perf_counter()
        return frame

    def _leave(self, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        fid, layer_index, child, covered, span, entry, start = frame
        dur = end - start
        self.calls[fid] += 1
        self.self_s[fid] += dur - child
        self.layer_calls[layer_index] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if entry is None:
            self.layer_self_s[layer_index] += dur - covered
            parent_span = -1
            if parent is not None:
                parent_entry = parent if parent[5] is None else parent[5]
                parent_entry[3] += dur
                parent_span = parent_entry[4]
            self._record(span, fid, parent_span, start, end)

    def _record(self, span, fid, parent_span, start, end):
        if len(self._span_fn) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        self._span_fn.append(fid)
        self._span_parent.append(parent_span)
        self._span_pass.append(self.pass_id)
        self._span_start.append(start)
        self._span_end.append(end)
        self._span_id.append(span)

    # -- reading ---------------------------------------------------------------

    def snapshot(self):
        """Per-pass aggregates keyed by function and by layer name."""
        fns = {}
        for fid, name in enumerate(self.names):
            if self.calls[fid]:
                fns[name] = {
                    "calls": self.calls[fid],
                    "self_s": self.self_s[fid],
                    "repeats": self.repeats[fid],
                }
        layers = {
            layer: {"calls": self.layer_calls[i], "self_s": self.layer_self_s[i]}
            for i, layer in enumerate(self.layers)
        }
        return {"functions": fns, "layers": layers}

    def count(self, name):
        """Calls of one function so far in the current pass."""
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def nspans(self):
        return len(self._span_fn)

    def write_spans(self, path):
        """Write the kept spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            span=np.array(self._span_id, dtype=np.int64),
            fn=np.array(self._span_fn, dtype=np.int32),
            parent=np.array(self._span_parent, dtype=np.int64),
            pass_id=np.array(self._span_pass, dtype=np.int32),
            start=np.array(self._span_start, dtype=np.float64),
            end=np.array(self._span_end, dtype=np.float64),
        )
