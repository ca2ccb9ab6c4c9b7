"""Outside-in tracing of the tvlab layers for the traced benchmark run.

The tracer replaces public library functions by timing wrappers from the
outside: every module attribute (and, for methods, the class attribute)
bound to the original object is swapped, so calls made through
``from .homology import solve_integer_system`` or ``linalg.rref`` are seen
as well.  Per-cell helpers (``act_on_cell``, ``cell_boundary``, ``chi``,
``symgroup.sign``, ``complexes.boundary_chain``, ``locate``) run millions of
times and are deliberately not wrapped; their cost shows up as the self
time of their callers.  ``plmaps.disjoint_tuples`` is also left unwrapped,
so that it is what ``plmaps.cocycle_self_s`` measures.

Spans are kept in memory as (name, start, end, parent, query id) and
reduced to the per-layer metrics after the pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

PRIME_LABEL = "homology.homology[mod p]"


def _homology_label(args, kwargs):
    coefficients = kwargs.get("coefficients", args[2] if len(args) > 2 else "Z")
    return "homology.homology" if coefficients == "Z" else PRIME_LABEL


def _count_cells(counts, args, result):
    counts["deleted_product.cells"] += result.total_cells()


def _count_nnz(counts, args, result):
    counts["deleted_product.boundary_nnz"] += len(result)


def _count_snf_entries(counts, args, result):
    M = args[0]
    counts["homology.snf_entries"] += M.rows * M.cols


def _count_coboundary(counts, args, result):
    A = result[0]
    counts["obstruction.coboundary_entries"] += A.rows * A.cols


def _count_rfold_hit(counts, args, result):
    if result is not None:
        counts["plmaps.rfold_hits"] += 1


def _count_tverberg_answer(counts, args, result):
    counts["convexity.answers"] += 1


# (module, attribute or "Class.method", span label or None, result hook or None)
TARGETS = [
    ("deleted_product", "deleted_product", None, _count_cells),
    ("deleted_product", "DeletedProductComplex.boundary_matrix", None, _count_nnz),
    ("homology", "smith_normal_form", None, _count_snf_entries),
    ("homology", "smith_diagonal", None, None),
    ("homology", "_rank_mod_p", None, None),
    ("homology", "homology", _homology_label, None),
    ("homology", "dp_homology", None, None),
    ("homology", "solve_integer_system", None, None),
    ("obstruction", "orbit_reps", None, None),
    ("obstruction", "cocycle_from_table", None, None),
    ("obstruction", "coboundary_matrix", None, _count_coboundary),
    ("obstruction", "is_null_cohomologous", None, None),
    ("plmaps", "intersection_cocycle", None, None),
    ("plmaps", "global_r_fold_points", None, None),
    ("plmaps", "tuple_r_fold_point", None, _count_rfold_hit),
    ("plmaps", "positive_normal_frame", None, None),
    ("linalg", "rref", None, None),
    ("linalg", "rank", None, None),
    ("linalg", "nullspace", None, None),
    ("linalg", "orthogonal_complement", None, None),
    ("linalg", "det", None, None),
    ("linalg", "det_sign", None, None),
    ("convexity", "lp_feasible", None, None),
    ("convexity", "hulls_intersect", None, None),
    ("convexity", "radon_partition", None, None),
    ("convexity", "tverberg_search", None, _count_tverberg_answer),
]

# The per-layer metrics: name -> (unit, how it is reduced from one pass).
# "total" is the summed duration of the named spans (children included),
# "self" subtracts the time of wrapped child spans, "calls" counts spans.
LAYER_METRICS = {
    "deleted_product.build_s": ("s", ("total", "deleted_product.deleted_product")),
    "deleted_product.cells": ("count", ("count", "deleted_product.cells")),
    "deleted_product.boundary_s": ("s", ("total", "deleted_product.DeletedProductComplex.boundary_matrix")),
    "deleted_product.boundary_nnz": ("count", ("count", "deleted_product.boundary_nnz")),
    "homology.smith_diagonal_s": ("s", ("total", "homology.smith_diagonal")),
    "homology.smith_diagonal_calls": ("count", ("calls", "homology.smith_diagonal")),
    "homology.modp_s": ("s", ("total", PRIME_LABEL)),
    "homology.rank_mod_p_s": ("s", ("total", "homology._rank_mod_p")),
    "homology.homology_self_s": ("s", ("self", "homology.homology", PRIME_LABEL)),
    "homology.snf_s": ("s", ("total", "homology.smith_normal_form")),
    "homology.snf_entries": ("count", ("count", "homology.snf_entries")),
    "homology.solve_s": ("s", ("total", "homology.solve_integer_system")),
    "obstruction.orbit_reps_s": ("s", ("total", "obstruction.orbit_reps")),
    "obstruction.cocycle_from_table_s": ("s", ("total", "obstruction.cocycle_from_table")),
    "obstruction.coboundary_s": ("s", ("total", "obstruction.coboundary_matrix")),
    "obstruction.coboundary_entries": ("count", ("count", "obstruction.coboundary_entries")),
    "obstruction.decide_self_s": ("s", ("self", "obstruction.is_null_cohomologous")),
    "plmaps.cocycle_self_s": ("s", ("self", "plmaps.intersection_cocycle", "plmaps.global_r_fold_points")),
    "plmaps.rfold_solve_s": ("s", ("total", "plmaps.tuple_r_fold_point")),
    "plmaps.tuples_tried": ("count", ("calls", "plmaps.tuple_r_fold_point")),
    "plmaps.rfold_hit_ratio": ("ratio", ("ratio", "plmaps.rfold_hits", "plmaps.tuple_r_fold_point")),
    "plmaps.frame_s": ("s", ("total", "plmaps.positive_normal_frame")),
    "plmaps.notgeneric_retries": ("count", ("count", "plmaps.notgeneric_retries")),
    "linalg.rref_s": ("s", ("total", "linalg.rref")),
    "linalg.rref_calls": ("count", ("calls", "linalg.rref")),
    "linalg.det_s": ("s", ("total", "linalg.det")),
    "linalg.nullspace_s": ("s", ("total", "linalg.nullspace")),
    "convexity.lp_s": ("s", ("total", "convexity.lp_feasible")),
    "convexity.lp_calls": ("count", ("calls", "convexity.lp_feasible")),
    "convexity.partitions_tried": ("count", ("calls", "convexity.hulls_intersect")),
    "convexity.hit_ratio": ("ratio", ("ratio", "convexity.answers", "convexity.hulls_intersect")),
    "convexity.hulls_self_s": ("s", ("self", "convexity.hulls_intersect")),
    "convexity.search_self_s": ("s", ("self", "convexity.tverberg_search")),
    "convexity.radon_s": ("s", ("total", "convexity.radon_partition")),
}


class Tracer:
    """Timing wrappers around the TARGETS, with in-memory spans and counts."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, query id]
        self.counts = Counter()
        self._stack = []
        self._qid = None
        self._undo = []      # (owner, attribute, original object)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def install(self):
        for module_name, attr, label, hook in TARGETS:
            module = sys.modules["tvlab." + module_name]
            name = module_name + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = vars(owner)[meth]
                self._swap(owner, meth, self._wrap(orig, name, label, hook))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, label, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tvlab" or mod_name.startswith("tvlab."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._swap(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _swap(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, orig, name, label, hook):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [label(args, kwargs) if label else name,
                              start, end, parent, tracer._qid]
            if hook:
                hook(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @contextmanager
    def query(self, qid):
        """A root span around one query of the pass."""
        self._qid = qid
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = ["query", start, time.perf_counter(), -1, qid]
            self._qid = None


def layer_metrics(spans, counts, factors=None) -> dict:
    """Reduce one traced pass to {metric name: value}; ``factors`` maps a
    query id to the factor that scales its span times to the reference
    speed."""
    factors = factors or {}
    duration = [(end - start) * factors.get(qid, 1.0) for _, start, end, _, qid in spans]
    total = Counter()
    calls = Counter()
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    self_time = Counter()
    for i, (name, _, _, _, _) in enumerate(spans):
        total[name] += duration[i]
        calls[name] += 1
        self_time[name] += duration[i] - child_time[i]
    out = {}
    for metric, (_, rule) in LAYER_METRICS.items():
        kind, *names = rule
        if kind == "total":
            out[metric] = total[names[0]]
        elif kind == "self":
            out[metric] = sum(self_time[n] for n in names)
        elif kind == "calls":
            out[metric] = calls[names[0]]
        elif kind == "count":
            out[metric] = counts[names[0]]
        else:  # ratio of a count to a number of calls
            tried = calls[names[1]]
            out[metric] = counts[names[0]] / tried if tried else 0.0
    return out
