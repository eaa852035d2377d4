"""Span tracing of wignerfluct from outside the package.

`install()` wraps the public functions of every wignerfluct module, the
sampling and trace-power seams of montecarlo, and the kernel methods named
in SPAN_METHODS, and rebinds each wrapper in every module that imported the
original by value. Constructors in COUNTED are wrapped with a bare counter.

Each wrapped call is a span with a name, start, end and parent. Spans are kept
in memory in flat arrays and written out by `Tracer.save`. A span's self time
is its duration minus the part covered by its children; a generator's span
covers only the time spent inside its `next` calls, and its children are the
calls made during them. The wrapper's own bookkeeping falls outside the
callee's [start, end], so it is charged to the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

# (module, class, method) -> span name
SPAN_METHODS = {
    ("permutations", "Permutation", "__mul__"): "permutations.mul",
    ("setpartitions", "SetPartition", "join"): "setpartitions.join",
    ("betapoly", "BetaPoly", "__add__"): "betapoly.add",
    ("betapoly", "BetaPoly", "__mul__"): "betapoly.mul",
    ("partitioned", "PartitionedPermutation", "__post_init__"): "partitioned.validate",
}
# Private functions that are the only seam for a layer split.
SPAN_PRIVATE = (("montecarlo", "_sample_batch"), ("montecarlo", "_trace_powers"))
# (module, class) -> counter name; counts __init__ calls.
COUNTED = {
    ("permutations", "Permutation"): "permutations.Permutation.built",
    ("setpartitions", "SetPartition"): "setpartitions.SetPartition.built",
    ("unionfind", "UnionFind"): "unionfind.UnionFind.built",
    ("betapoly", "BetaPoly"): "betapoly.BetaPoly.built",
}
# Generator span -> counter whose growth inside the span is recorded.
INNER_COUNTS = {"partitioned.enumerate_ps_nc": "permutations.Permutation.built"}


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.yielded: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.active: list[int] = []
        self.inner: list[int] = []
        self.counters: dict[str, list[int]] = {}
        self.stack: list[list[int]] = []  # frames [span index, child ns]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.gen_busy: dict[int, int] = {}

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.yielded, self.incl_ns, self.self_ns,
                          self.active, self.inner):
                table.append(0)
        return self.ids[name]

    def _open(self, nid: int) -> int:
        """Start a span under the innermost open one; return its index."""
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(self.clock())
        self.span_end.append(0)
        return idx

    def counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, name: str, fn):
        nid = self._id(name)
        if inspect.isgeneratorfunction(fn):
            inner = self.counters.setdefault(INNER_COUNTS[name], [0]) if name in INNER_COUNTS else None

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return _TracedIter(self, nid, fn(*args, **kwargs), inner)

            return traced_gen

        stack, clock = self.stack, self.clock
        calls, self_ns, incl_ns, active = self.calls, self.self_ns, self.incl_ns, self.active
        span_end = self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._open(nid), 0]
            stack.append(frame)
            active[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                span_end[frame[0]] = t1
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                active[nid] -= 1
                if not active[nid]:
                    incl_ns[nid] += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    # -- results ----------------------------------------------------------

    def stats(self, name: str) -> dict[str, float]:
        nid = self.ids.get(name)
        if nid is None:
            return {"calls": 0, "yielded": 0, "incl_s": 0.0, "self_s": 0.0, "inner": 0}
        return {
            "calls": self.calls[nid],
            "yielded": self.yielded[nid],
            "incl_s": self.incl_ns[nid] / 1e9,
            "self_s": self.self_ns[nid] / 1e9,
            "inner": self.inner[nid],
        }

    def count(self, name: str) -> int:
        return self.counters.get(name, [0])[0]

    def save(self, path: Path) -> None:
        """Write every span to an uncompressed .npz: `names` is the name
        table; span i has name names[name[i]], parent span parent[i] (-1 at
        the top), start[i] and end[i] in perf_counter nanoseconds. Generator
        spans are listed again in gen_span with their time inside next calls,
        gen_busy."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.int64),
            end=np.frombuffer(self.span_end, dtype=np.int64),
            gen_span=np.fromiter(self.gen_busy.keys(), dtype=np.int64),
            gen_busy=np.fromiter(self.gen_busy.values(), dtype=np.int64),
        )


class _TracedIter:
    """A generator whose span covers only the time inside its next calls."""

    __slots__ = ("tracer", "nid", "gen", "idx", "inner")

    def __init__(self, tracer: Tracer, nid: int, gen, inner: list[int] | None):
        self.tracer, self.nid, self.gen, self.inner = tracer, nid, gen, inner
        self.idx = -1

    def __iter__(self):
        return self

    def __next__(self):
        tr, nid = self.tracer, self.nid
        if self.idx < 0:
            self.idx = tr._open(nid)
            tr.gen_busy[self.idx] = 0
        frame = [self.idx, 0]
        tr.stack.append(frame)
        tr.active[nid] += 1
        before = self.inner[0] if self.inner is not None else 0
        t0 = tr.clock()
        try:
            item = next(self.gen)
        finally:
            t1 = tr.clock()
            tr.stack.pop()
            dur = t1 - t0
            tr.span_end[self.idx] = t1
            tr.gen_busy[self.idx] += dur
            tr.self_ns[nid] += dur - frame[1]
            tr.active[nid] -= 1
            if not tr.active[nid]:
                tr.incl_ns[nid] += dur
            if tr.stack:
                tr.stack[-1][1] += dur
            if self.inner is not None:
                tr.inner[nid] += self.inner[0] - before
        tr.yielded[nid] += 1
        return item

    def close(self) -> None:
        self.gen.close()


def _package_modules() -> dict[str, object]:
    return {
        name.split(".", 1)[1] if "." in name else "": mod
        for name, mod in sys.modules.items()
        if name == "wignerfluct" or name.startswith("wignerfluct.")
    }


def _is_public_function(mod, name: str, obj) -> bool:
    if name.startswith("_"):
        return False
    if inspect.isfunction(obj):
        return obj.__module__ == mod.__name__
    # lru_cache-wrapped functions
    return isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == mod.__name__


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap wignerfluct in place; return the originals by span name (for
    lru_cache statistics)."""
    import wignerfluct  # noqa: F401  (loads every module)
    import wignerfluct.cli  # noqa: F401

    modules = _package_modules()
    replaced: dict[int, object] = {}
    originals: dict[str, object] = {}
    for short, mod in sorted(modules.items()):
        if not short:
            continue
        for name, obj in list(vars(mod).items()):
            if _is_public_function(mod, name, obj) or (short, name) in SPAN_PRIVATE:
                span_name = f"{short}.{name}"
                originals[span_name] = obj
                replaced[id(obj)] = tracer.span(span_name, obj)
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
    for (short, cls, meth), span_name in SPAN_METHODS.items():
        klass = getattr(modules[short], cls)
        setattr(klass, meth, tracer.span(span_name, getattr(klass, meth)))
    for (short, cls), counter in COUNTED.items():
        klass = getattr(modules[short], cls)
        klass.__init__ = tracer.counter(counter, klass.__init__)
    return originals


# ---------------------------------------------------------------------------
# Per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, originals: dict[str, object], matrices: int
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), given the number of
    matrices the run sampled. A metric whose seam is missing from the package
    is left out."""
    s, c = tracer.stats, tracer.count
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    put("permutations.Permutation.built", c("permutations.Permutation.built"), "count")
    put("permutations.mul.calls", s("permutations.mul")["calls"], "count")
    put("permutations.mul.self_s", s("permutations.mul")["self_s"], "s")
    put("setpartitions.SetPartition.built", c("setpartitions.SetPartition.built"), "count")
    put("setpartitions.join.calls", s("setpartitions.join")["calls"], "count")
    put("setpartitions.join.self_s", s("setpartitions.join")["self_s"], "s")
    enum = s("setpartitions.enumerate_partitions")
    put("setpartitions.enumerate_partitions.yielded", enum["yielded"], "count")
    put("setpartitions.enumerate_partitions.self_s", enum["self_s"], "s")
    put("unionfind.UnionFind.built", c("unionfind.UnionFind.built"), "count")

    classify = originals.get("annular.classify_relative")
    put("annular.classify_relative.calls", s("annular.classify_relative")["calls"], "count")
    if classify is not None:
        info = classify.cache_info()
        put("annular.classify_relative.cache_hit_ratio",
            _ratio(info.hits, info.hits + info.misses), "ratio")

    put("graphs.quotient.calls", s("graphs.quotient")["calls"], "count")
    put("graphs.quotient.self_s", s("graphs.quotient")["self_s"], "s")
    put("graphs.edge_classes.self_s", s("graphs.edge_classes")["self_s"], "s")
    put("graphs.obstruction_set.incl_s", s("graphs.obstruction_set")["incl_s"], "s")

    ps = s("partitioned.enumerate_ps_nc")
    put("partitioned.enumerate_ps_nc.yielded", ps["yielded"], "count")
    put("partitioned.enumerate_ps_nc.incl_s", ps["incl_s"], "s")
    put("partitioned.enumerate_ps_nc.self_s", ps["self_s"], "s")
    put("partitioned.enumerate_ps_nc.useful_ratio", _ratio(ps["yielded"], ps["inner"]), "ratio")
    lf = s("partitioned.enumerate_ps_nc2_loopfree")
    put("partitioned.enumerate_ps_nc2_loopfree.yielded", lf["yielded"], "count")
    put("partitioned.enumerate_ps_nc2_loopfree.incl_s", lf["incl_s"], "s")
    put("partitioned.PartitionedPermutation.validated", s("partitioned.validate")["calls"], "count")
    put("partitioned.PartitionedPermutation.validate_s", s("partitioned.validate")["incl_s"], "s")
    put("partitioned.product_membership.calls", s("partitioned.product_membership")["calls"], "count")

    put("betapoly.BetaPoly.built", c("betapoly.BetaPoly.built"), "count")
    put("betapoly.arith_s", s("betapoly.add")["self_s"] + s("betapoly.mul")["self_s"], "s")

    for fn, fields in (
        ("free_cumulants", ("incl_s", "self_s")),
        ("fluctuation_moment", ("calls", "incl_s")),
        ("pseudo_cumulant", ("calls", "self_s")),
        ("moment_oracle", ("incl_s", "self_s")),
        ("finite_n_moment", ("calls", "incl_s", "self_s")),
    ):
        st = s(f"moments.{fn}")
        for field in fields:
            put(f"moments.{fn}.{field}", st[field], "count" if field == "calls" else "s")

    emp = s("montecarlo.empirical_fluctuation")
    put("montecarlo.empirical_fluctuation.incl_s", emp["incl_s"], "s")
    for metric, seam in (("sample_s", "_sample_batch"), ("trace_powers_s", "_trace_powers")):
        if f"montecarlo.{seam}" in originals:
            put(f"montecarlo.{metric}", s(f"montecarlo.{seam}")["incl_s"], "s")
        else:
            print(f"trace: montecarlo.{seam} is gone; montecarlo.{metric} is missing",
                  file=sys.stderr)
    put("montecarlo.cumulant_s", s("montecarlo.plugin_joint_cumulant")["incl_s"], "s")
    put("montecarlo.matrices_per_s", _ratio(matrices, emp["incl_s"]), "1/s")

    put("cli.main.self_s", s("cli.main")["self_s"], "s")
    return out
