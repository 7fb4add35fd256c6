"""Per-layer tracing of qtk from outside, by rebinding its public functions.

`install` replaces each traced function with a wrapper wherever qtk holds
it: the module attribute and every name another qtk module bound with
`from ... import`.  Span wrappers record (name, start, end, parent) in
memory; the hottest small functions only count calls.  `aggregate` turns the
records of many jobs into per-layer metrics.  Nothing in qtk changes.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# Spanned functions, as "<qtk module>.<attribute>".
SPANS = (
    "cli.resolve_instance", "cli.render",
    "charpair.validate",
    "exact.rank", "exact.kernel_basis", "exact.solve_exact", "exact.det",
    "kernels.echelon_int",
    "srbundle.relation_vectors", "srbundle.reduce", "srbundle.evaluate_top",
    "srbundle.betti", "srbundle.quotient_algebra",
    "ppbrion.brion_bundle_dims", "ppbrion.brion_quotient_dims", "ppbrion.pp_basis",
    "ppbrion.multiply", "ppbrion.is_compatible",
    "invsys.bundle_potential_integral", "invsys.ann_hilbert", "invsys.ann_generators",
    "invsys.apply_operator",
    "multipoly.bkk_check", "multipoly.integrate_polynomial",
    "multipoly.integrate_monomial_symbolic",
)
# Count-only functions: metric name -> (qtk module, class or None, attribute).
COUNTED = {
    "basealg.mul": ("basealg", "GradedBaseAlgebra", "mul"),
    "poly.substitute": ("poly", "MultiPoly", "substitute"),
    "poly.apply_derivative": ("poly", "MultiPoly", "apply_derivative"),
    "charpair.is_face": ("charpair", None, "is_face"),
}
# Count-only, plus the number of distinct arguments (none of them is cached).
DISTINCT = ("charpair.dual_edge_frame", "charpair.cone_sign", "charpair.dual_character")
LAYERS = ("cli", "charpair", "srbundle", "exact", "kernels", "ppbrion", "invsys",
          "multipoly", "job")
ROOT = "job.run"


class Tracer:
    """Spans and counters of one job, kept in memory until the job ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.kernel = {"cells": 0, "nnz": 0, "max_rows": 0, "max_cols": 0,
                       "max_bits": 0, "rows_in": 0}
        self.rows_seen: set[tuple] = set()

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_distinct(self, name: str, fn):
        counts, seen = self.counts, self.distinct[name]

        @functools.wraps(fn)
        def wrapper(cp, *args, **kwargs):
            counts[name] += 1
            # The pair object lives for the whole job, so its id is a stable key.
            seen.add((id(cp),) + tuple(tuple(a) if isinstance(a, (list, tuple)) else a
                                       for a in (*args, *kwargs.values())))
            return fn(cp, *args, **kwargs)
        return wrapper

    def kernel_input(self, rows, ncols: int) -> None:
        k = self.kernel
        k["cells"] += len(rows) * ncols
        k["max_rows"] = max(k["max_rows"], len(rows))
        k["max_cols"] = max(k["max_cols"], ncols)
        k["rows_in"] += len(rows)
        for row in rows:
            key = tuple(row)
            self.rows_seen.add(key)
            if key:
                k["nnz"] += len(key) - key.count(0)
                k["max_bits"] = max(k["max_bits"], max(key).bit_length(),
                                    (-min(key)).bit_length())

    def run(self, fn):
        """Call fn inside the root span of the job."""
        return self.span(ROOT, fn)()

    def record(self) -> dict:
        """Everything the parent needs, as JSON-ready data."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "kernel": dict(self.kernel, rows_distinct=len(self.rows_seen)),
        }


def _rebind(original, replacement) -> None:
    """Point every qtk global that holds `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "qtk" and not name.startswith("qtk."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap qtk's traced functions; qtk.cli must already be imported."""
    mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
            if name.startswith("qtk.")}
    for qual in SPANS:
        mod, attr = qual.split(".")
        original = getattr(mods[mod], attr)
        wrapped = tracer.span(qual, original)
        if qual == "kernels.echelon_int":
            wrapped = _with_kernel_stats(tracer, wrapped)
        _rebind(original, wrapped)
    for qual, (mod, cls, attr) in COUNTED.items():
        owner = getattr(mods[mod], cls) if cls else mods[mod]
        original = getattr(owner, attr)
        wrapped = tracer.counted(qual, original)
        if cls:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    for qual in DISTINCT:
        mod, attr = qual.split(".")
        original = getattr(mods[mod], attr)
        _rebind(original, tracer.counted_distinct(qual, original))


def _with_kernel_stats(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(rows, ncols):
        tracer.kernel_input(rows, ncols)
        return fn(rows, ncols)
    return wrapper


# ---------------------------------------------------------------------------
# Aggregation (parent side).

def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cur = 0.0, None
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur is None or cs > cur[1]:
                if cur is not None:
                    covered += cur[1] - cur[0]
                cur = [cs, ce]
            else:
                cur[1] = max(cur[1], ce)
        if cur is not None:
            covered += cur[1] - cur[0]
        out.append((end - start) - covered)
    return out


def aggregate(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the jobs' trace records."""
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    distinct: dict[str, int] = defaultdict(int)
    kernel = {"cells": 0, "nnz": 0, "max_rows": 0, "max_cols": 0, "max_bits": 0,
              "rows_in": 0, "rows_distinct": 0}
    for rec in records:
        for span, own in zip(rec["spans"], self_times(rec["spans"])):
            calls[span[0]] += 1
            selfs[span[0]] += own
        for k, v in rec["counts"].items():
            counts[k] += v
        for k, v in rec["distinct"].items():
            distinct[k] += v
        for k, v in rec["kernel"].items():
            kernel[k] = max(kernel[k], v) if k.startswith("max_") else kernel[k] + v

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        # The kernel calls nothing traced, so its self time is its whole time.
        out[f"{name}.s" if name == "kernels.echelon_int" else f"{name}.self_s"] = selfs[name]
    for name in (*COUNTED, *DISTINCT):
        out[f"{name}.calls"] = counts[name]
    for name in DISTINCT:
        out[f"{name}.calls_per_distinct"] = counts[name] / max(distinct[name], 1)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in selfs.items()
                                           if k.split(".")[0] == layer)
    out["layer.total_s"] = sum(selfs.values())
    for k in ("cells", "nnz", "max_rows", "max_cols", "max_bits"):
        out[f"kernels.{k}"] = kernel[k]
    out["kernels.density"] = kernel["nnz"] / max(kernel["cells"], 1)
    out["exact.rows_in"] = kernel["rows_in"]
    out["exact.rows_distinct"] = kernel["rows_distinct"]
    out["exact.rerank_ratio"] = kernel["rows_in"] / max(kernel["rows_distinct"], 1)
    return out
