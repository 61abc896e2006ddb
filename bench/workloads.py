"""The benchmark's three workloads, built from a seed.

Each workload is a list of rounds; a round is the workload's fixed unit of
work, a list of operations run one after another by one caller (a closed loop
with one client).  An operation calls graphonlab through module attributes at
call time, so the tracer's wrappers see it, and carries a check of its output
that the worker runs outside the timed region.

* search: the four criterion-10 penalty searches (K3 and K2 at d = 0.2 and
  0.5, n = 4, uniform measures) with the full lambda schedule but 2 starts and
  2 inner iterations, plus one even-subdivision probe for K3 with k = 1, each
  twice with different start seeds: ten searches of about 0.06 s.  Every round
  repeats the same searches, so counts such as evaluations repeat exactly and
  elimination-plan caches stay hot, as in a real search.
* verify: the ten paper-default check kinds, each at every n in 2..10 with
  Dirichlet measures; fresh instances every round.  The n schedule is fixed
  and only values depend on the seed, so rounds of different seeds cost alike.
* exact: single large solves.  local_density_exact at n = 12, 13, 14, 14;
  hom_density at n = 16, 24, 32 and grad_hom_density at n = 16, 24 on random
  relabelings of fixed patterns (distinct labeled graphs, so plan caches miss,
  at a cost that does not depend on the relabeling); hom_density_naive at
  small n.  Fresh inputs every round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from graphonlab import density, graphs, localdensity, search, stepgraphon, verify
from graphonlab.graphs import Graph

WORKLOADS = ("search", "verify", "exact")


@dataclass
class Op:
    """One timed call; check(result) returns whether the output is correct."""

    label: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    round_ops: Callable[[int], list]  # round index -> operations of that round
    warmup: Op  # untimed, on inputs no round uses


# --- shared input generators -------------------------------------------------------


def _symmetric(rng: np.random.Generator, n: int, low: float = 0.0) -> np.ndarray:
    upper = low + (1.0 - low) * rng.uniform(0.0, 1.0, size=(n, n))
    out = np.triu(upper)
    return out + np.triu(out, 1).T


def _graphon_inputs(rng: np.random.Generator, n: int, low: float = 0.0):
    """(values, measures) for a random step graphon with Dirichlet measures."""
    return _symmetric(rng, n, low), rng.dirichlet(np.ones(n))


def _relabel(H: Graph, rng: np.random.Generator) -> Graph:
    perm = rng.permutation(H.vertex_count)
    return Graph(H.vertex_count, frozenset(
        tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in H.edges
    ))


def _rel_close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b))


# --- search ------------------------------------------------------------------------

SEARCH_N = 4
SEARCH_CASES = ((3, 0.2), (3, 0.5), (2, 0.2), (2, 0.5))  # (clique size, d)
PROBE_CASE = (3, 1, 0.5)  # (clique size, k, d)
# Each search runs this many times per round, with different start seeds: the
# start sets how long a search takes, and more searches average that out.
# Searches stay short (2 inner iterations, about 0.06 s), so that each is
# repeated often enough within a run to be timed at least once while the
# shared machine is quiet.
SEARCH_REPEATS = 2


def _search_ok(result) -> bool:
    return bool(result.feasible) and result.best_ratio >= 1.0 - 1e-6


def _minimize_op(size: int, d: float, cfg, seed: int) -> Op:
    H = graphs.clique(size)
    return Op(
        f"minimize:K{size}:d{d}",
        SEARCH_N,
        lambda: search.minimize_hom_density(H, d, n=SEARCH_N, config=cfg, seed=seed),
        _search_ok,
    )


def _probe_op(size: int, k: int, d: float, cfg, seed: int) -> Op:
    H = graphs.clique(size)
    return Op(
        f"probe:K{size}:k{k}:d{d}",
        SEARCH_N,
        lambda: search.probe_even_subdivision(H, k, d, n=SEARCH_N, config=cfg, seed=seed),
        _search_ok,
    )


def search_workload(seed: int, tiny: bool = False) -> Workload:
    cfg = search.SearchConfig(starts=2, inner_iterations=1 if tiny else 2)
    reps = 1 if tiny else SEARCH_REPEATS
    seeds = iter(int(s) for s in np.random.default_rng([seed, 0]).integers(2**31, size=5 * reps + 1))
    ops = []
    for _ in range(reps):
        ops += [_minimize_op(size, d, cfg, next(seeds)) for size, d in SEARCH_CASES]
        ops.append(_probe_op(*PROBE_CASE, cfg, next(seeds)))
    return Workload(lambda r: ops, _minimize_op(2, 0.2, cfg, next(seeds)))


# --- verify ------------------------------------------------------------------------

VERIFY_N = tuple(range(2, 11))
TRANSFORM_PATTERNS = (("clique", 3), ("clique", 4), ("cycle", 5))
SIDORENKO_PATTERNS = (("path", 2), ("path", 3), ("cycle", 4), ("cycle", 6))
REGISTRY_PATTERNS = (("clique", 3), ("cycle", 5), ("clique", 4), ("complete_multipartite", 2, 3))
REGULAR_PATTERNS = (("clique", 3), ("cycle", 5), ("clique", 4))


def _pattern(specs, i: int) -> Graph:
    name, *args = specs[i % len(specs)]
    return graphs.catalog(name, *args)


def _report_ok(report) -> bool:
    return bool(report.passed or report.advisory)


def _verify_call(kind: str, i: int, n: int, rng: np.random.Generator):
    """Zero-argument call running one check on instance i at n blocks; the
    instance is drawn now, the graphon is built inside the timed call."""
    meta = {"trial": i}
    if kind == "even_subdivision_sidorenko":
        H = _pattern((("clique", 3), ("clique", 4)), i)
        k, d = 1 + i % 2, (0.2, 0.5, 0.8)[i % 3]
        regular_seed = int(rng.integers(2**32))
        return lambda: verify.check_even_subdivision_sidorenko(
            H, k, stepgraphon.gen_regular(n, d, seed=regular_seed), metadata=meta
        )
    values, measures = _graphon_inputs(rng, n, low=0.05 if kind == "superlevel_restriction" else 0.0)

    def W():
        return stepgraphon.StepGraphon(values, measures)

    if kind == "transform":
        H, s = _pattern(TRANSFORM_PATTERNS, i), 1 + i % 4
        return lambda: verify.check_transform(H, s, W(), metadata=meta)
    if kind == "sidorenko":
        H = _pattern(SIDORENKO_PATTERNS, i)
        return lambda: verify.check_sidorenko(H, W(), metadata=meta)
    if kind == "knrs":
        H = _pattern(REGISTRY_PATTERNS, i)
        return lambda: verify.check_knrs(H, W(), metadata=meta)
    if kind == "weakly_knrs":
        H, k = graphs.clique(3), 1 + i % 2
        return lambda: verify.check_weakly_knrs(H, k, W(), metadata=meta)
    if kind == "regular_subdivision_knrs":
        H, k = _pattern(REGULAR_PATTERNS, i), 1 + i % 2
        return lambda: verify.check_regular_subdivision_knrs(H, k, W(), metadata=meta)
    if kind == "superlevel_restriction":
        k = 1 + i % 2
        return lambda: verify.check_superlevel_restriction(W(), k, metadata=meta)
    if kind == "reiher":
        f = rng.uniform(0.0, 2.0, size=n)
        return lambda: verify.check_reiher(W(), f, metadata=meta)
    if kind == "extended_reiher":
        H, omega = _pattern(REGISTRY_PATTERNS, i), rng.uniform(0.0, 2.0, size=n)
        return lambda: verify.check_extended_reiher(H, W(), omega, metadata=meta)
    if kind == "restriction_pullback":
        a = rng.uniform(0.0, 1.0, size=n)
        b_prime = rng.uniform(0.0, 1.0, size=int(np.count_nonzero(a > 0.0)))
        return lambda: verify.check_restriction_pullback(W(), a, b_prime, metadata=meta)
    raise ValueError(f"unknown check kind {kind!r}")


def verify_workload(seed: int, tiny: bool = False) -> Workload:
    ns = (2, 3) if tiny else VERIFY_N

    def round_ops(r: int) -> list:
        rng = np.random.default_rng([seed, 1, r])
        ops = []
        for kind in verify.SUITE_CHECK_ORDER:
            for j, n in enumerate(ns):
                i = r * len(ns) + j
                ops.append(Op(kind, n, _verify_call(kind, i, n, rng), _report_ok))
        return ops

    warm_rng = np.random.default_rng([seed, 11])
    warmup = Op("knrs", ns[-1], _verify_call("knrs", 0, ns[-1], warm_rng), _report_ok)
    return Workload(round_ops, warmup)


# --- exact -------------------------------------------------------------------------


def _graph(v: int, edges) -> Graph:
    return Graph(v, frozenset(tuple(sorted(e)) for e in edges))


# Patterns whose greedy elimination cost does not change under relabeling.
WHEEL6 = _graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(6, i) for i in range(6)])
C7_CHORDS = _graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (1, 5), (2, 6)])
K4_SUBDIVIDED = _graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 3), (2, 5), (5, 3), (3, 6), (6, 0)])
C6_CHORDS = _graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)])

LDX_N = (12, 13, 14, 14)
HOM_CASES = ((16, WHEEL6), (24, C7_CHORDS), (32, K4_SUBDIVIDED))
GRAD_CASES = ((16, C7_CHORDS), (24, K4_SUBDIVIDED))
NAIVE_CASES = ((6, C6_CHORDS), (5, K4_SUBDIVIDED))
TINY = {"ldx": (5, 6), "hom": ((6, WHEEL6),), "grad": ((5, C7_CHORDS),), "naive": ((3, C6_CHORDS),)}


def _ldx_op(values, measures) -> Op:
    n = len(measures)

    def check(cert) -> bool:
        B = values
        x = np.asarray(cert.witness, dtype=float)
        on_simplex = bool(np.all(x >= -1e-12)) and abs(float(x.sum()) - 1.0) <= 1e-9
        value_ok = abs(float(x @ B @ x) - cert.d_star) <= 1e-9
        kkt_ok = float(np.min(B @ x)) >= cert.d_star - 1e-9
        # upper bound: x^T B x at the vertices, pair midpoints and barycenter,
        # the deterministic start points of local_density_estimate
        diag = np.diag(B)
        midpoints = (diag[:, None] + 2.0 * B + diag[None, :]) / 4.0
        upper = min(float(midpoints.min()), float(B.sum()) / n**2)
        return on_simplex and value_ok and kkt_ok and cert.d_star <= upper + 1e-9

    return Op(
        "local_density_exact", n,
        lambda: localdensity.local_density_exact(stepgraphon.StepGraphon(values, measures)),
        check,
    )


def _hom_op(H: Graph, template: Graph, values, measures) -> Op:
    def check(t) -> bool:
        # the unrelabeled template has the same density
        return _rel_close(t, density.hom_density(template, stepgraphon.StepGraphon(values, measures)), 1e-10)

    return Op(
        "hom_density", len(measures),
        lambda: density.hom_density(H, stepgraphon.StepGraphon(values, measures)),
        check,
    )


def _grad_op(H: Graph, values, measures) -> Op:
    def check(G) -> bool:
        # Euler: t is homogeneous of degree e(H) in the values
        t = density.hom_density(H, stepgraphon.StepGraphon(values, measures))
        euler = float(np.sum(density.per_entry_gradient(G) * values))
        return _rel_close(euler, H.edge_count * t, 1e-9)

    return Op(
        "grad_hom_density", len(measures),
        lambda: density.grad_hom_density(H, stepgraphon.StepGraphon(values, measures)),
        check,
    )


def _naive_op(H: Graph, values, measures) -> Op:
    def check(t) -> bool:
        return _rel_close(t, density.hom_density(H, stepgraphon.StepGraphon(values, measures)), 1e-10)

    return Op(
        "hom_density_naive", len(measures),
        lambda: density.hom_density_naive(H, stepgraphon.StepGraphon(values, measures)),
        check,
    )


def _exact_ops(rng: np.random.Generator, tiny: bool) -> list:
    ldx_n = TINY["ldx"] if tiny else LDX_N
    hom = TINY["hom"] if tiny else HOM_CASES
    grad = TINY["grad"] if tiny else GRAD_CASES
    naive = TINY["naive"] if tiny else NAIVE_CASES
    ops = [_ldx_op(*_graphon_inputs(rng, n)) for n in ldx_n]
    ops += [_hom_op(_relabel(T, rng), T, *_graphon_inputs(rng, n)) for n, T in hom]
    ops += [_grad_op(_relabel(T, rng), *_graphon_inputs(rng, n)) for n, T in grad]
    ops += [_naive_op(_relabel(T, rng), *_graphon_inputs(rng, n)) for n, T in naive]
    return ops


def exact_workload(seed: int, tiny: bool = False) -> Workload:
    def round_ops(r: int) -> list:
        return _exact_ops(np.random.default_rng([seed, 2, r]), tiny)

    warmup = _exact_ops(np.random.default_rng([seed, 12]), True)[0]
    return Workload(round_ops, warmup)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    builders = {"search": search_workload, "verify": verify_workload, "exact": exact_workload}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return builders[name](seed, tiny)
