"""Outside-in tracer for the oligoperm layers.

``install()`` wraps the public functions and methods of every layer module
from outside the package; nothing under ``src/`` is edited.  A wrapped
module-level function is re-bound in every ``oligoperm`` module that holds it
(``from .linmat import matmul`` copies the binding into several modules), and
a method is replaced on its class, so the wrapper sits outside any
``lru_cache`` on the method.  Private helpers (leading underscore) are never
wrapped, and a function that does not exist is simply not traced: the
metrics derived from it come out absent.

Every wrapped call pushes a frame on one stack.  A frame's self time is its
duration minus the part covered by the wrapped calls made inside it (they
run one after another, so that is the sum of their durations), and a layer's
self time is the sum over its functions.  Ordinary functions also
record one span each (id, parent span id, name, start, end, unit id).  The
primitives called up to about a million times per unit -- every ``coeff``
function and the functions in ``PRIMITIVES`` -- only accumulate counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYER_MODULES = {
    "oligoperm.coeff": "coeff",
    "oligoperm.gset.base": "gset",
    "oligoperm.gset.symmetric": "gset",
    "oligoperm.gset.line": "gset",
    "oligoperm.gset.finite": "gset",
    "oligoperm.gset.grammar": "gset",
    "oligoperm.gset.pregalois": "gset",
    "oligoperm.measure": "measure",
    "oligoperm.linmat": "linmat",
    "oligoperm.permcat": "permcat",
    "oligoperm.frob": "frob",
    "oligoperm.oracle": "oracle",
    "oligoperm.suite": "suite",
}

PRIMITIVES = {"product_factor", "product_decompose", "compose_maps",
              "identity_map", "multi_factor", "mu_map", "mu_atom"}

# calls whose argument tuple is remembered, for the repeat ratio
REPEAT_TRACKED = {"product_factor", "product_decompose", "tensor_space"}

# hand-written operators; like primitives they only count
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"}

CALLS, BUSY, SELF, DEPTH, REPEATS, ITEMS = range(6)


class Tracer:
    """Counters per wrapped function plus the spans of one process.

    Wrapping costs one to two microseconds a call.  Each wrapper reads the
    clock on entry and on exit as well as around the wrapped call, so it
    measures its own cost; ``calibrate()`` and ``recalibrate()`` add the part
    no stamp can see (the call into the wrapper and the return).  Busy and
    self seconds exclude the cost of the wrapped calls made inside a call;
    spans keep the raw clock stamps.
    """

    def __init__(self, clock=time.perf_counter, unit=0):
        self.clock = clock
        self.unit = unit
        self.stats = {}
        self.spans = []
        self.unseen_cost = 0.0  # per call, set by calibrate()
        # frame: [child seconds, span id, wrapping cost inside, of children]
        self._stack = [[0.0, None, 0.0, 0.0]]

    def wrap(self, key, fn, span=True, track_repeats=False,
             count_items=False):
        """Return a traced stand-in for ``fn`` recorded under ``key``."""
        st = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])
        clock = self.clock
        stack = self._stack
        spans = self.spans
        seen = set() if track_repeats else None

        def traced(*args, **kwargs):
            entered = clock()
            st[CALLS] += 1
            if seen is not None:
                # args[0] is the backend (or self); one per process
                try:
                    h = hash(tuple(tuple(a) if isinstance(a, list) else a
                                   for a in args[1:]))
                except TypeError:
                    h = None
                if h in seen:
                    st[REPEATS] += 1
                elif h is not None:
                    seen.add(h)
            parent = stack[-1]
            sid = len(spans) if span else parent[1]
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, sid, 0.0, 0.0]
            stack.append(frame)
            st[DEPTH] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_items:
                    st[ITEMS] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st[DEPTH] -= 1
                if not st[DEPTH]:
                    st[BUSY] += dur - frame[2]
                st[SELF] += dur - frame[0] - frame[3]
                if span:
                    spans[sid] = (sid, parent[1], key, start, end, self.unit)
                parent[0] += dur
                cost = clock() - entered - dur + self.unseen_cost
                parent[2] += frame[2] + cost
                parent[3] += cost

        return functools.update_wrapper(traced, fn)

    def calibrate(self, calls=10000, rounds=5):
        """Measure the per-call wrapping cost that the stamps do not see."""
        def noop(a, b):
            return a

        probe = Tracer(self.clock)
        wrapped = probe.wrap("calibrate", noop, span=False)
        unseen = []
        for _ in range(rounds):
            seen_before = probe._stack[0][3]
            t0 = self.clock()
            for _ in range(calls):
                noop(1, 2)
            t1 = self.clock()
            for _ in range(calls):
                wrapped(1, 2)
            t2 = self.clock()
            seen = probe._stack[0][3] - seen_before
            unseen.append(((t2 - t1) - (t1 - t0) - seen) / calls)
        self.unseen_cost = max(0.0, sorted(unseen)[rounds // 2])

    def recalibrate(self, calls=500):
        """Calibrate again, from a timer signal while traced work runs.

        The unseen cost is a matter of microseconds and the host's speed
        drifts, so it is re-measured every so often.  The time this takes
        is charged to no function.
        """
        began = self.clock()
        self.calibrate(calls, rounds=1)
        took = self.clock() - began
        top = self._stack[-1]
        top[2] += took
        top[3] += took

    def report(self):
        """Counters as plain data: key -> {calls, busy_s, self_s, ...}."""
        return {key: {"calls": st[CALLS], "busy_s": st[BUSY],
                      "self_s": st[SELF], "repeats": st[REPEATS],
                      "items": st[ITEMS]}
                for key, st in self.stats.items()}


def _traceable_methods(cls):
    """(name, raw attribute, kind) for the public methods defined on cls."""
    for name, raw in vars(cls).items():
        if name.startswith("_") and name not in OPERATORS:
            continue
        if isinstance(raw, staticmethod):
            yield name, raw.__func__, "static"
        elif callable(raw) and not inspect.isclass(raw):
            yield name, raw, "method"  # plain functions and lru_cache wrappers


def install(tracer):
    """Wrap every public function of the layer modules; return missing modules.

    Calibrates the tracer first.  Must run before the traced work starts.
    The wrapping is permanent for the process, which is one benchmark unit.
    """
    tracer.calibrate()
    missing = []
    modules = {}
    for modname, layer in LAYER_MODULES.items():
        try:
            modules[modname] = (importlib.import_module(modname), layer)
        except ImportError:
            missing.append(modname)
    importlib.import_module("oligoperm.cli")  # so its imported names re-bind

    replaced = {}
    for modname, (module, layer) in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                span = _spans(layer, name)
                replaced[id(obj)] = tracer.wrap(
                    f"{layer}:{name}", obj, span=span,
                    track_repeats=name in REPEAT_TRACKED)
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)

    for modname, module in list(sys.modules.items()):
        if modname != "oligoperm" and not modname.startswith("oligoperm."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(module, name, wrapper)
    return missing


def _wrap_class(tracer, layer, cls):
    if issubclass(cls, BaseException):
        return
    for name, fn, kind in list(_traceable_methods(cls)):
        traced = tracer.wrap(f"{layer}:{cls.__name__}.{name}", fn,
                             span=_spans(layer, name),
                             track_repeats=name in REPEAT_TRACKED,
                             count_items=name == "product_decompose")
        setattr(cls, name, staticmethod(traced) if kind == "static" else traced)


def _spans(layer, name):
    return not (layer == "coeff" or name in PRIMITIVES or name in OPERATORS)
