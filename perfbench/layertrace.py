"""Layer tracing for one worker pass, installed from outside the library.

A layer is a gradedchi module. Every public function and method of a layer
is replaced by a wrapper at every gradedchi module attribute bound to it (so
`from .linalg import kernel_of_columns` in homology is wrapped too) and on
its class. Each call records a span (name, start, end, parent span,
operation id) in flat arrays, and adds to per-layer call counts, self time
and total time. Work counters that do not depend on timing are read from the
arguments and results of a few functions (see `_HOOKS`).

Hot value-type primitives are not wrapped: polynomial and coefficient
arithmetic, monomial helpers, the monomial order key, and the cache lookups
of GradedBasis. They run hundreds of thousands of times per pass and their
time belongs to the span of whoever called them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("session", "cli", "chi", "hilbert", "groebner", "rings", "homology", "linalg", "arith")

_SKIP_CLASSES = {"Poly", "IntPoly", "RatFun", "RationalField", "PrimeField", "Infinity"}
_SKIP_NAMES = {"wdeg", "key"}
_SKIP_METHODS = {("GradedBasis", n) for n in ("basis", "dim", "index", "nf_monomial")}


class Tracer:
    """Span store and per-layer accounting for one process."""

    def __init__(self):
        self.active = False
        self.op = -1  # operation id; -1 while setting up
        self.names: list = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span id, time spent in child spans]
        self._depth = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.total_s = [0.0] * len(LAYERS)
        self.fn_calls: dict = {}
        self.counters = {
            "linalg.kernel.calls": 0,
            "linalg.kernel.cols": 0,
            "linalg.kernel.rows": 0,
            "linalg.kernel.nnz": 0,
            "linalg.kernel.dim": 0,
            "linalg.rank.nnz": 0,
            "homology.betti_total": 0,
            "homology.min_gens_kept": 0,
            "homology.resolution.calls": 0,
            "homology.resolution.reused": 0,
            "rings.gb_cache.calls": 0,
            "rings.gb_cache.hits": 0,
        }
        self._seen_res: dict = {}
        self._seen_gb: dict = {}

    # -- wrapping

    def _wrap(self, fn, qualname: str, layer: int):
        nid = len(self.names)
        self.names.append(qualname)
        self.fn_calls[qualname] = 0
        hook = _HOOKS.get(qualname)
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr._stack
            sid = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_op.append(tr.op)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            depth = tr._depth
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                tr.span_start[sid] = t0
                tr.span_end[sid] = t1
                tr.calls[layer] += 1
                tr.fn_calls[qualname] += 1
                tr.self_s[layer] += dur - frame[1]
                if outer:
                    tr.total_s[layer] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                h0 = clock()
                hook(tr, args, result)
                if stack:  # counting is tracing overhead, not the caller's self time
                    stack[-1][1] += clock() - h0
            return result

        return wrapper

    def install(self):
        """Wrap every traced callable of the imported gradedchi modules."""
        modules = {n: m for n, m in sys.modules.items() if n == "gradedchi" or n.startswith("gradedchi.")}
        replace: dict = {}
        for li, layer in enumerate(LAYERS):
            mod = modules[f"gradedchi.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if name in _SKIP_NAMES or name.startswith("mono_"):
                        continue
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{name}", li)
                elif inspect.isclass(obj) and name not in _SKIP_CLASSES:
                    for mname, meth in list(vars(obj).items()):
                        if (
                            mname.startswith("_")
                            or not inspect.isfunction(meth)
                            or mname in _SKIP_NAMES
                            or (name, mname) in _SKIP_METHODS
                        ):
                            continue
                        setattr(obj, mname, self._wrap(meth, f"{layer}.{name}.{mname}", li))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                w = replace.get(id(obj))  # module attributes stay alive, so ids are unique
                if w is not None:
                    setattr(mod, name, w)

    # -- results

    def metrics(self) -> dict:
        out = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[li]
            out[f"{layer}.self_s"] = self.self_s[li]
            out[f"{layer}.total_s"] = self.total_s[li]
        c = self.counters
        out.update({k: v for k, v in c.items() if k.startswith("linalg.")})
        out["homology.multiply_nf.calls"] = self.fn_calls["homology.GradedBasis.multiply_nf"]
        out["homology.betti_total"] = c["homology.betti_total"]
        out["homology.min_gen_yield"] = _ratio(c["homology.min_gens_kept"], c["linalg.kernel.dim"])
        out["homology.resolution.reuse_ratio"] = _ratio(
            c["homology.resolution.reused"], c["homology.resolution.calls"]
        )
        out["rings.gb_cache.hit_ratio"] = _ratio(c["rings.gb_cache.hits"], c["rings.gb_cache.calls"])
        out["groebner.buchberger.calls"] = self.fn_calls["groebner.buchberger"]
        out["groebner.reduce.calls"] = self.fn_calls["groebner.reduce_against"]
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: id, name, start_s, end_s, parent id, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            names = self.names
            for sid, (n, s, e, p, o) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
            ):
                fh.write(f"{sid},{names[n]},{s:.9f},{e:.9f},{p},{o}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- work counters read from arguments and results


def _kernel(tr, args, result):
    cols, ncols = args[0], args[1]
    c = tr.counters
    rows = set()
    nnz = 0
    for col in cols:
        rows.update(col)
        nnz += len(col)
    c["linalg.kernel.calls"] += 1
    c["linalg.kernel.cols"] += ncols
    c["linalg.kernel.rows"] += len(rows)
    c["linalg.kernel.nnz"] += nnz
    c["linalg.kernel.dim"] += len(result)


def _rank(tr, args, result):
    tr.counters["linalg.rank.nnz"] += sum(len(v) for v in args[0])


def _resolution(tr, args, result):
    c = tr.counters
    c["homology.resolution.calls"] += 1
    if id(result) in tr._seen_res:
        c["homology.resolution.reused"] += 1
        return
    tr._seen_res[id(result)] = result
    c["homology.betti_total"] += sum(len(d) for d in result.degrees)
    # F_0 and F_1 come from the ideal's generators; kernels start at F_2
    c["homology.min_gens_kept"] += sum(len(d) for d in result.degrees[2:])


def _groebner(tr, args, result):
    c = tr.counters
    c["rings.gb_cache.calls"] += 1
    if id(result) in tr._seen_gb:
        c["rings.gb_cache.hits"] += 1
    else:
        tr._seen_gb[id(result)] = result


_HOOKS = {
    "linalg.kernel_of_columns": _kernel,
    "linalg.rank_of_vectors": _rank,
    "homology.truncated_resolution": _resolution,
    "rings.GradedRing.groebner": _groebner,
}
