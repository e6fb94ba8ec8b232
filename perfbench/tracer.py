"""In-memory span and call-count tracer for the drinfeld2 library layers.

The tracer wraps, from outside the library, every public function and method
of each library module (plus the arithmetic dunders of the polynomial
classes and the `DrinfeldModule` constructor).  Each layer is one module of
the package.

* Every wrapped call increments a call counter keyed ``layer.qualname``.
* A call opens a span only when it crosses into another layer, or when its
  name is in ``TIMED`` (those names also get inclusive time).  Calls that stay
  inside the caller's layer are counted but not timed, which keeps the hot
  field arithmetic from drowning in clock reads.
* A layer's self time is the duration of its spans minus the time covered by
  their child spans.
* Generator functions are timed on every resumption and their yields are
  counted.

Spans are kept in memory and written out by the caller at the end.  A span is
kept when it is shallow (depth <= ``KEEP_DEPTH``) or lasts at least
``KEEP_MIN_S``; a kept span's parent is always kept too, because a parent
lasts at least as long as its child.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = (
    "ff",
    "polyring",
    "ore",
    "linalg",
    "drinfeld",
    "frobenius",
    "classify",
    "census",
    "cli",
)

# Dunders that implement the public arithmetic of Poly and OrePoly.
_OPERATOR_DUNDERS = frozenset(
    ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__",
     "__mod__", "__floordiv__")
)
# Classes whose construction is itself a unit of work worth counting.
_COUNTED_CONSTRUCTORS = frozenset(("DrinfeldModule",))
# Calls that always get a span and an inclusive time, even when nested in
# their own layer.
TIMED = frozenset((
    "ff.least_irreducible",
    "ff.ext_make",
    "ff.field_make",
    "frobenius.charpoly",
    "polyring.is_irreducible",
    "classify.weil_admissible",
    "classify.endomorphism_order",
    "census.realize",
    "census.full_report",
))
KEEP_DEPTH = 2
KEEP_MIN_S = 5e-4


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.yields = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.spans = []
        self.op = None
        self._stack = []
        self._active = defaultdict(int)
        self._next_id = 0
        self._t0 = time.perf_counter()
        self._restore = []

    # --- span bookkeeping -------------------------------------------------

    def _enter(self, layer, key):
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][2] if stack else None
        frame = [layer, key, self._next_id, time.perf_counter(), 0.0, parent, len(stack)]
        stack.append(frame)
        if key in TIMED:
            self._active[key] += 1
        return frame

    def _leave(self, frame, start=None, record=True):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, key, sid, t_in, child, parent, depth = frame
        dur = end - t_in
        self.self_s[layer] += dur - child
        if stack:
            stack[-1][4] += dur
        if key in TIMED:
            self._active[key] -= 1
            if not self._active[key]:
                self.incl_s[key] += dur
        if start is None:
            start = t_in
        if record and (depth <= KEEP_DEPTH or end - start >= KEEP_MIN_S):
            self.spans.append(
                (self.op, sid, parent, key, start - self._t0, end - self._t0)
            )

    def span(self, layer, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, layer, layer + "." + name)

    # --- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer, qualname):
        key = layer + "." + qualname
        counts = self.counts
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, key)
        spanned = key in TIMED
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            counts[key] += 1
            if not spanned and stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = enter(layer, key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _wrap_generator(self, fn, layer, key):
        counts, yields = self.counts, self.yields
        tracer = self

        def traced_gen(*args, **kwargs):
            counts[key] += 1
            it = fn(*args, **kwargs)
            first = None
            while True:
                frame = tracer._enter(layer, key)
                if first is None:
                    first = frame
                else:
                    # one span per generator: reuse its id and parent
                    frame[2], frame[5] = first[2], first[5]
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    # the span (first resumption to exhaustion) is recorded once
                    tracer._leave(frame, start=first[3], record=done)
                if done:
                    return
                yields[key] += 1
                yield item

        traced_gen.__wrapped__ = fn
        traced_gen.__name__ = fn.__name__
        traced_gen.__qualname__ = fn.__qualname__
        return traced_gen

    def install(self):
        """Wrap the library in place; `uninstall` puts the originals back."""
        package = importlib.import_module("drinfeld2")
        modules = {name: importlib.import_module("drinfeld2." + name) for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(obj, layer, obj.__name__)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])
        return self

    def _wrap_class(self, cls, layer):
        for name in dir(cls):
            public = not name.startswith("_")
            if not (public or name in _OPERATOR_DUNDERS or
                    (name == "__init__" and cls.__name__ in _COUNTED_CONSTRUCTORS)):
                continue
            raw = inspect.getattr_static(cls, name)
            owner = next((k for k in cls.__mro__ if name in vars(k)), None)
            if owner is None or owner.__module__.split(".")[0] != "drinfeld2":
                continue
            qual = cls.__name__ + "." + name
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, layer, qual))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(raw, layer, qual)
            else:
                continue
            self._restore.append((cls, name, raw if name in vars(cls) else None))
            setattr(cls, name, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._restore = []


class _Span:
    def __init__(self, tracer, layer, key):
        self.tracer, self.layer, self.key = tracer, layer, key

    def __enter__(self):
        self.frame = self.tracer._enter(self.layer, self.key)
        return self

    def __exit__(self, *exc):
        self.tracer._leave(self.frame)
        return False

