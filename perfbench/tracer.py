"""Layer tracer for kahlerid, applied from outside the package.

`install()` wraps every public function of the wrapped modules and rebinds
it at every place the package bound it by name (so `from .operators import
compose` in `verifier` is traced too).  The constructors of the three zoo and
workspace classes and the arithmetic methods of `ExactMatrix` and
`FloatMatrix` are wrapped on the class.  `scalars` and `algebra` are not
wrapped: they run per entry and per blade, and their cost shows up as the
self time of their callers.

Each span is named `<module>.<function>` and keeps

    calls    number of calls
    busy_s   inclusive wall time (nested calls of the same span count once)
    self_s   busy time minus the time of directly nested traced spans

Exact matmuls are split by the path `ExactMatrix.__matmul__` takes: int64
(`matrices.matmul_i64`) or Python big integers (`matrices.matmul_obj`), using
the same bound the method checks.  Counters record the promotions (int64
operands sent down the object path), the summed m*k*n of exact matmuls, and
how many of them produced an all-zero matrix.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

MODULES = ("models", "operators", "matrices", "dirac", "zoo", "verifier", "cli")
CLASSES = (("dirac", "CliffordZoo"), ("zoo", "ExteriorZoo"), ("verifier", "Workspace"))
_I64_BOUND = 1 << 62


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    return max(-int(arr.min()), int(arr.max()), 0)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.depth: dict[str, int] = {}
        self.children: list[float] = []  # traced child time of each open span
        self.counters = {"matrices.promotions": 0, "matrices.matmul.mnk": 0,
                         "matrices.matmul.zero": 0}

    def call(self, name, fn, args, kwargs):
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = [0, 0.0, 0.0]
        depth = self.depth.get(name, 0)
        self.depth[name] = depth + 1
        self.children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self.children.pop()
            if self.children:
                self.children[-1] += dt
            self.depth[name] = depth
            stats[0] += 1
            if depth == 0:
                stats[1] += dt
            stats[2] += dt - child

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def wrap_matmul(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def traced(a, b):
            int64 = a.re.dtype == np.int64 and b.re.dtype == np.int64
            fast = int64 and (2 * a.shape[1] * max(_max_abs(a.re), _max_abs(a.im))
                              * max(_max_abs(b.re), _max_abs(b.im)) < _I64_BOUND)
            out = self.call("matrices.matmul_i64" if fast else "matrices.matmul_obj",
                            fn, (a, b), {})
            if int64 and not fast:
                counters["matrices.promotions"] += 1
            counters["matrices.matmul.mnk"] += a.shape[0] * a.shape[1] * b.shape[1]
            if out.is_zero():
                counters["matrices.matmul.zero"] += 1
            return out
        return traced

    def snapshot(self) -> dict:
        spans = {name: {"calls": c, "busy_s": busy, "self_s": own}
                 for name, (c, busy, own) in self.stats.items()}
        return {"spans": spans, "counters": dict(self.counters)}


def install() -> Tracer:
    """Wrap the package in the running interpreter; returns the tracer."""
    from kahlerid.matrices import ExactMatrix, FloatMatrix

    tracer = Tracer()
    wrapped: dict[int, object] = {}
    for short in MODULES:
        mod = importlib.import_module(f"kahlerid.{short}")
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrapped[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
    # rebind at every import site, including the package namespace
    for modname, mod in list(sys.modules.items()):
        if modname != "kahlerid" and not modname.startswith("kahlerid."):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])

    for short, cls_name in CLASSES:
        cls = getattr(sys.modules[f"kahlerid.{short}"], cls_name)
        cls.__init__ = tracer.wrap(f"{short}.{cls_name}", cls.__init__)
    ExactMatrix.__matmul__ = tracer.wrap_matmul(ExactMatrix.__matmul__)
    ExactMatrix.__add__ = tracer.wrap("matrices.add", ExactMatrix.__add__)
    ExactMatrix.__sub__ = tracer.wrap("matrices.add", ExactMatrix.__sub__)
    ExactMatrix.scale = tracer.wrap("matrices.scale", ExactMatrix.scale)
    ExactMatrix.frobenius_inner = tracer.wrap(
        "matrices.frobenius_inner", ExactMatrix.frobenius_inner)
    FloatMatrix.__matmul__ = tracer.wrap("matrices.float_matmul", FloatMatrix.__matmul__)
    return tracer
