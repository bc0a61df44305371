"""Outside-in tracing of trusshom's layers.

``Tracer.install`` wraps the public functions and public methods of each
layer module in a span recorder, then rebinds every module attribute that
aliases a wrapped function: the modules import each other's functions by
name (``from .sparse import rank``), so patching only the defining module
would miss most calls.  Spans are kept in memory as
``[name, start, end, parent]`` and dumped by the job launcher when the
job ends; ``summarize`` turns the spans of a pass into per-layer metrics.

A span's self time is its duration minus the durations of its direct
child spans.  Nothing under the package's source tree is modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "documents", "complexes", "cosheaves", "sparse", "homology",
    "statics", "duality", "svg", "cli",
)

# Trivial accessors: tens of thousands of calls per job and no work of
# their own, so a span on each would cost more than it tells.
SKIP = frozenset({
    "complexes.vcell", "complexes.ecell", "complexes.fcell",
    "complexes.Embedding.p", "complexes.CellComplex.vertex_ids",
    "complexes.CellComplex.edge_ids", "complexes.CellComplex.face_ids",
    "cosheaves.Cosheaf.stalk", "cosheaves.CosheafMap.component",
    "documents.format_coord", "duality.FormDiagram.edge_vec",
    "sparse.SparseMatrix.get", "sparse.SparseMatrix.is_zero",
})

# Entry points into elimination: the matrix each one eliminates is
# inspected for the sparse.* counters.
ELIMINATION = frozenset({
    "sparse.rank", "sparse.kernel_basis", "sparse.cokernel_reps",
    "sparse.image_basis", "sparse.solve_particular", "sparse.row_space_reducer",
})
REDUCE = ELIMINATION - {"sparse.rank"}
TINY = 4  # matrices of at most TINY x TINY count as tiny eliminations


def _matrix_content(name, args):
    """(rows, cols, nonzeros) of the matrix an elimination call receives."""
    if name == "sparse.row_space_reducer":
        vectors, length = args[0], args[1]
        nz = frozenset(
            ((i, j), v) for j, vec in enumerate(vectors) for i, v in enumerate(vec) if v
        )
        return length, len(vectors), nz
    m = args[0]
    return m.rows, m.cols, frozenset(m.entries.items())


def _max_bits(result) -> int:
    if not isinstance(result, list):
        return 0
    vectors = result if result and isinstance(result[0], list) else [result]
    best = 0
    for vec in vectors:
        for v in vec:
            if v:
                best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.seen: set = set()
        self.counters = {
            "sparse.eliminations": 0,
            "sparse.repeats": 0,
            "sparse.nnz_in": 0,
            "sparse.tiny_calls": 0,
            "sparse.out_max_bits": 0,
        }

    def _eliminated(self, name, args, result):
        rows, cols, nz = _matrix_content(name, args)
        c = self.counters
        c["sparse.eliminations"] += 1
        key = (rows, cols, nz)
        if key in self.seen:
            c["sparse.repeats"] += 1
        self.seen.add(key)
        c["sparse.nnz_in"] += len(nz)
        if rows <= TINY and cols <= TINY:
            c["sparse.tiny_calls"] += 1
        c["sparse.out_max_bits"] = max(c["sparse.out_max_bits"], _max_bits(result))

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = self._eliminated if name in ELIMINATION else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                probe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's entry points and rebind their aliases."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"trusshom.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in SKIP:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "trusshom" and not modname.startswith("trusshom."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in SKIP:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def dump(self, t0: float, t1: float) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "t0": t0,
            "t1": t1,
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
            "counters": self.counters,
        }


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus its direct children."""
    out = [b - a for _, a, b, _ in spans]
    for _, a, b, p in spans:
        if p >= 0:
            out[p] -= b - a
    return out


def summarize(jobs: list[dict], traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``jobs`` are the launcher's dumps, one per job of the pass;
    ``traced_s`` is the traced pass's wall time and ``untraced_s`` the
    median untraced pass, for ``trace.overhead``."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    by_name_self: dict[str, float] = {}
    by_name_calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    coverage = 1.0
    for job in jobs:
        names = job["names"]
        spans = job["spans"]
        own = self_times(spans)
        top = 0.0
        for (ni, a, b, p), st in zip(spans, own):
            name = names[ni]
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += st
            m[f"{layer}.calls"] += 1
            by_name_self[name] = by_name_self.get(name, 0.0) + st
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            if p < 0:
                top += b - a
        total = job["t1"] - job["t0"]
        coverage = min(coverage, top / total if total > 0 else 0.0)
        for k, v in job["counters"].items():
            if k == "sparse.out_max_bits":
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v

    m["sparse.rank.self_s"] = by_name_self.get("sparse.rank", 0.0)
    m["sparse.reduce.self_s"] = sum(by_name_self.get(n, 0.0) for n in REDUCE)
    elim = counters.get("sparse.eliminations", 0)
    m["sparse.repeat_ratio"] = counters.get("sparse.repeats", 0) / elim if elim else 0.0
    m["sparse.nnz_in"] = counters.get("sparse.nnz_in", 0)
    m["sparse.out_max_bits"] = counters.get("sparse.out_max_bits", 0)
    m["sparse.tiny_calls"] = counters.get("sparse.tiny_calls", 0)
    m["complexes.segment_tests"] = by_name_calls.get("complexes.segments_conflict", 0)
    m["complexes.face_table_builds"] = by_name_calls.get(
        "complexes.CellComplex.edge_face_signs", 0
    )
    m["complexes.poincare_dual.calls"] = by_name_calls.get("complexes.poincare_dual", 0)
    m["cosheaves.assemblies"] = by_name_calls.get("cosheaves.boundary_matrices", 0)
    m["cosheaves.quotient_cosheaf.self_s"] = by_name_self.get("cosheaves.quotient_cosheaf", 0.0)
    m["homology.betti_numbers.calls"] = by_name_calls.get("homology.betti_numbers", 0)
    m["homology.homology.calls"] = by_name_calls.get("homology.homology", 0)
    m["duality.integrations"] = by_name_calls.get(
        "duality.force_diagram_from_stress", 0
    ) + by_name_calls.get("duality.relative_force_diagram", 0)
    m["trace.coverage"] = coverage
    m["trace.overhead"] = traced_s / untraced_s - 1 if untraced_s > 0 else 0.0
    return m
