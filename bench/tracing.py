"""Spans around calls into graphonlab's public functions.

The tracer wraps each public function listed in LAYER_FUNCTIONS at every
binding a graphonlab module holds for it (for example both
``graphonlab.density.hom_density`` and ``graphonlab.search.hom_density``), so
calls between modules are seen from outside without editing the package.
StepGraphon construction is seen by wrapping ``StepGraphon.__init__``.

A span is recorded only while the worker has an operation open.  Each span
keeps (name, start, end, parent, operation id, block count n, self time), where
self time is the duration minus the time covered by child spans.  Counts that
are computed rather than measured (contraction cells, QP supports) are taken
after the span ends and charged to neither the span nor its parent.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

from graphonlab import density, verify
from graphonlab.graphs import Graph
from graphonlab.stepgraphon import StepGraphon

CHECK_KINDS = tuple(verify.SUITE_CHECK_ORDER)

# (defining module, public function); spans are named "<module>.<function>"
LAYER_FUNCTIONS = (
    ("graphs", "subdivide"),
    ("stepgraphon", "gen_regular"),
    ("stepgraphon", "restrict"),
    ("operators", "path_power"),
    ("operators", "path_function"),
    ("density", "hom_density"),
    ("density", "grad_hom_density"),
    ("density", "hom_density_naive"),
    ("density", "hom_density_subdivided"),
    ("density", "hom_density_weighted"),
    ("localdensity", "local_density_exact"),
    ("localdensity", "local_density_subgradient"),
    ("search", "minimize_hom_density"),
    ("search", "probe_even_subdivision"),
) + tuple(("verify", "check_" + kind) for kind in CHECK_KINDS)

CONSTRUCTOR = "stepgraphon.StepGraphon"

# hom_density delegates to hom_density_weighted inside density; wrapping that
# binding would report every hom_density call twice.
SKIPPED_BINDINGS = {("density", "hom_density_weighted"): ("graphonlab.density",)}

# Block-count buckets for the per-n split: n <= 4, 5..8, 9..12, 13..16, 17 and up.
N_BUCKETS = ((4, "n4"), (8, "n8"), (12, "n12"), (16, "n16"), (10**9, "n32"))
SPLIT_BY_N = (
    "localdensity.local_density_exact",
    "density.hom_density",
    "density.grad_hom_density",
)
SEARCH_FUNCTIONS = ("search.minimize_hom_density", "search.probe_even_subdivision")


def n_bucket(n: int) -> str:
    return next(label for upper, label in N_BUCKETS if n <= upper)


def _graphon_n(args, kwargs) -> int:
    for a in args:
        if isinstance(a, StepGraphon):
            return a.n
    for a in kwargs.values():
        if isinstance(a, StepGraphon):
            return a.n
    return 0


def _search_n(args, kwargs) -> int:
    # the workloads pass the search's block count as the keyword n
    return int(kwargs.get("n", 0))


class Tracer:
    """Records spans and computed counts for the operations it is told about."""

    def __init__(self):
        self.spans = []
        self.counts = {"density.cells": 0.0, "localdensity.supports": 0.0}
        self.plan_hits = 0
        self.plan_misses = 0
        self._stack = []
        self._op = -1
        self._patches = []
        self._cells_memo = {}

    # --- operations --------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._plan_before = density.plan_elimination.cache_info()
        # root frame: [span index, child time, top-level layer name]
        self._stack = [[-1, 0.0, None]]

    def end_op(self) -> None:
        after = density.plan_elimination.cache_info()
        self.plan_hits += after.hits - self._plan_before.hits
        self.plan_misses += after.misses - self._plan_before.misses
        self._stack = []

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, n_of, count=None):
        spans = self.spans

        def wrapper(*args, **kwargs):
            frames = self._stack
            if not frames:
                return fn(*args, **kwargs)
            parent = frames[-1]
            frame = [len(spans), 0.0, parent[2] or name]
            spans.append(None)
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                n = n_of(args, kwargs)
                spans[frame[0]] = (name, start, end, parent[0], self._op, n, end - start - frame[1], frame[2])
                if count is not None:
                    count(args, kwargs, n)
                parent[1] += perf_counter() - start

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_cells(self, args, kwargs, n):
        H = args[0]
        key = (H, n)
        cells = self._cells_memo.get(key)
        if cells is None:
            cells = density.plan_elimination.__wrapped__(H, n).cost if H.vertex_count else 0.0
            self._cells_memo[key] = cells
        self.counts["density.cells"] += cells

    def _count_grad_cells(self, args, kwargs, n):
        H = args[0]
        key = ("grad", H, n)
        cells = self._cells_memo.get(key)
        if cells is None:
            # same pinned plans grad_hom_density builds, one per edge
            cells = 0.0
            for edge in H.edge_list:
                rest = Graph(H.vertex_count, frozenset(e for e in H.edge_list if e != edge))
                cells += density.plan_elimination.__wrapped__(rest, n, pinned=edge).cost
            self._cells_memo[key] = cells
        self.counts["density.cells"] += cells

    def _count_supports(self, args, kwargs, n):
        self.counts["localdensity.supports"] += 2.0**n - 1.0

    def install(self) -> None:
        """Put wrappers on every graphonlab binding of the layer functions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphonlab" or name.startswith("graphonlab."))
        ]
        counters = {
            "density.hom_density": self._count_cells,
            "density.hom_density_weighted": self._count_cells,
            "density.grad_hom_density": self._count_grad_cells,
            "localdensity.local_density_exact": self._count_supports,
            "localdensity.local_density_subgradient": self._count_supports,
        }
        for module_name, fn_name in LAYER_FUNCTIONS:
            name = f"{module_name}.{fn_name}"
            original = getattr(sys.modules["graphonlab." + module_name], fn_name)
            n_of = _search_n if module_name == "search" else _graphon_n
            wrapper = self._wrap(name, original, n_of, counters.get(name))
            skipped = SKIPPED_BINDINGS.get((module_name, fn_name), ())
            for m in modules:
                if m.__name__ in skipped:
                    continue
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        original_init = StepGraphon.__init__
        self._patches.append((StepGraphon, "__init__", original_init))
        StepGraphon.__init__ = self._wrap(CONSTRUCTOR, original_init, lambda a, k: 0)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- results -----------------------------------------------------------

    def write_spans(self, path: str, origin: float) -> None:
        """One line per span: id, parent, op, name, n, start_us, end_us, self_us."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,n,start_us,end_us,self_us\n")
            for i, (name, start, end, parent, op, n, self_t, _top) in enumerate(self.spans):
                fh.write(
                    f"{i},{parent},{op},{name},{n},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{self_t * 1e6:.3f}\n"
                )


def _percentiles_us(durations):
    if not durations:
        return 0.0, 0.0
    p50, p90 = np.percentile(np.asarray(durations) * 1e6, [50, 90])
    return float(p50), float(p90)


def layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in [f"{m}.{f}" for m, f in LAYER_FUNCTIONS if m != "verify"] + [CONSTRUCTOR]:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.us_p50", "us"), (f"{name}.us_p90", "us")]
    for name in SPLIT_BY_N:
        out += [(f"{name}.{label}.us_p50", "us") for _, label in N_BUCKETS]
    out += [("verify.calls", "count"), ("verify.self_s", "s")]
    out += [(f"verify.{kind}.us_p50", "us") for kind in CHECK_KINDS]
    out += [
        ("search.evaluations", "count"),
        ("search.gradients", "count"),
        ("search.evals_per_gradient", "ratio"),
        ("density.plan_cache.hit_ratio", "ratio"),
        ("density.cells", "count"),
        ("localdensity.supports", "count"),
        ("cli.import_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer values; calls, self times and counts are per traced round."""
    durations = {}
    self_time = {}
    split = {}
    evaluations = gradients = 0
    for name, start, end, _parent, _op, n, self_t, top in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + self_t
        if name in SPLIT_BY_N:
            split.setdefault((name, n_bucket(n)), []).append(end - start)
        if top in SEARCH_FUNCTIONS:
            if name == "localdensity.local_density_subgradient":
                evaluations += 1
            elif name == "density.grad_hom_density":
                gradients += 1
    per_round = 1.0 / max(rounds, 1)
    values = {}
    for name in [f"{m}.{f}" for m, f in LAYER_FUNCTIONS if m != "verify"] + [CONSTRUCTOR]:
        d = durations.get(name, [])
        p50, p90 = _percentiles_us(d)
        values[f"{name}.calls"] = len(d) * per_round
        values[f"{name}.self_s"] = self_time.get(name, 0.0) * per_round
        values[f"{name}.us_p50"] = p50
        values[f"{name}.us_p90"] = p90
    for name in SPLIT_BY_N:
        for _, label in N_BUCKETS:
            values[f"{name}.{label}.us_p50"] = _percentiles_us(split.get((name, label), []))[0]
    checks = [f"verify.check_{kind}" for kind in CHECK_KINDS]
    values["verify.calls"] = sum(len(durations.get(c, [])) for c in checks) * per_round
    values["verify.self_s"] = sum(self_time.get(c, 0.0) for c in checks) * per_round
    for kind, c in zip(CHECK_KINDS, checks):
        values[f"verify.{kind}.us_p50"] = _percentiles_us(durations.get(c, []))[0]
    values["search.evaluations"] = evaluations * per_round
    values["search.gradients"] = gradients * per_round
    values["search.evals_per_gradient"] = evaluations / gradients if gradients else 0.0
    lookups = tracer.plan_hits + tracer.plan_misses
    values["density.plan_cache.hit_ratio"] = tracer.plan_hits / lookups if lookups else 0.0
    values["density.cells"] = tracer.counts["density.cells"] * per_round
    values["localdensity.supports"] = tracer.counts["localdensity.supports"] * per_round
    return values
