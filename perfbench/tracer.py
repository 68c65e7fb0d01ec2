"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the public functions of each etarho layer
module, a fixed set of ``CyclotomicValue`` and ``DenominatorRing`` methods,
and ``mpmath.quad`` with wrappers that record one span per call: name,
start, end, parent span and job id.  Spans are kept in flat arrays while the
run lasts and written out once at the end.  A layer's self time is a span's
duration minus the time its direct children cover (single thread, so child
spans nest inside their parent).

Nothing under ``src/`` changes: the wrappers are rebound in every loaded
``etarho`` module that refers to the original object, so calls made between
modules are traced as well as calls from the benchmark.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("cyclotomic", "exactlinalg", "chars", "rho", "lens", "circle", "zoo",
          "serialize", "cli")

# Public per-element helpers called from inner loops (millions of times in a
# BFS or a 10^5-term sum).  A span each would cost more than the work itself
# and would dominate the spans kept in memory; their time stays in the caller.
HOT_HELPERS = {
    "cyclotomic": {"cyclotomic_polynomial", "euler_phi"},
    "circle": {"closed_form_term", "kernel_value"},
    "zoo": {"q_mul", "q_inv", "q_in_A", "q_in_kernel", "q_alpha"},
}

# Methods traced by name; the dunder pairs share one span name, so that
# ``a * b`` and ``2 * a`` (``__rmul__``, bound separately) both count as mul.
CYCLOTOMIC_METHODS = {
    "__init__": "construct", "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "inverse": "inverse",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "galois": "galois", "conjugate": "conjugate", "lift": "lift",
    "minimal_polynomial": "minimal_polynomial", "embed": "embed",
    "__eq__": "eq", "__hash__": "hash", "to_json": "to_json", "__str__": "str",
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.on = False
        self.current_job = -1
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, observe=None):
        """A wrapper recording one span per call while ``self.on`` is set."""
        nid = self._id(name)
        tracer = self
        stack = self.stack
        name_ids, parents, jobs = self.name_id, self.parent, self.job
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.current_job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(tracer, args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions, the value methods and quad."""
        import mpmath

        from etarho.cyclotomic import CyclotomicValue

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "etarho" or name.startswith("etarho.")]
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"etarho.{layer}")
            if mod is None:
                continue
            skip = HOT_HELPERS.get(layer, set())
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or attr in skip or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                replacements[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}",
                                                        OBSERVERS.get(f"{layer}.{attr}")))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    setattr(mod, attr, replacements[id(obj)][1])

        for meth, short in CYCLOTOMIC_METHODS.items():
            orig = CyclotomicValue.__dict__.get(meth)
            if isinstance(orig, types.FunctionType):
                setattr(CyclotomicValue, meth, self.wrap(orig, f"cyclotomic.{short}"))
        ring_cls = getattr(sys.modules.get("etarho.rho"), "DenominatorRing", None)
        if ring_cls is not None and isinstance(ring_cls.__dict__.get("contains"),
                                               types.FunctionType):
            ring_cls.contains = self.wrap(ring_cls.__dict__["contains"], "rho.contains")
        mpmath.quad = self.wrap(mpmath.quad, "circle.quad")

    # -- derived metrics ---------------------------------------------------

    def self_times(self):
        """(durations, self times) per span, as numpy arrays."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur, dur - covered

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy .npz) for offline inspection."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


# -- per-call observers: counts taken where the work happens ---------------

def _observe_exact_rank(tracer, args, result):
    rows = args[0] if args else None
    if isinstance(rows, (list, tuple)) and rows and hasattr(rows[0], "__len__"):
        tracer.count("exactlinalg.exact_rank.cells", len(rows) * len(rows[0]))


def _observe_search(tracer, args, result):
    if result:
        tracer.count("lens.search_nonvanishing.witnesses")


def _observe_ball(tracer, args, result):
    tracer.count("zoo.bfs.nodes", len(result))


def _observe_counts(tracer, args, result):
    tracer.count("zoo.bfs.nodes", int(result[-1]) if len(result) else 0)


OBSERVERS = {
    "exactlinalg.exact_rank": _observe_exact_rank,
    "lens.search_nonvanishing": _observe_search,
    # each enumerator below runs its own search; the callers that reach them
    # (class_intersect_integers, growth_classify) are not counted again
    "zoo.word_ball": _observe_ball,
    "zoo.class_ball": _observe_ball,
    "zoo.class_ball_rationals": _observe_ball,
    "zoo.class_ball_counts": _observe_counts,
}
