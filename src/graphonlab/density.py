"""Homomorphism densities of graphs in step graphons.

Two engines compute t(H, W) = sum over block maps of the product of edge
values times the product of block measures:

* hom_density_naive enumerates all n^v(H) maps with compensated summation.
  It is the oracle and stays a direct transcription of the definition.
* hom_density eliminates one pattern vertex at a time (bucket elimination;
  greedy minimum degree, ties to the lowest vertex id), which turns
  subdivision-heavy patterns from exponential into low-order polynomial work.

The elimination engine compiles once and runs many times.  For each pattern
and block count n, the plan is replayed symbolically into a program: which
factor slots every step multiplies, and the transpose and broadcast shape
that line each one up with the eliminated vertex on the summed axis.  A
gradient's program holds one such program per edge, with that edge deleted
and its endpoints pinned.  Programs are cached by (pattern, n), so a call
only runs array arithmetic: one product per step and one np.dot against
the weights.  hom_density, hom_density_weighted and grad_hom_density, and
through hom_density the walk-kernel shortcut, all run on this one engine.

Work is accounted in block-tensor cells touched; every call charges the
plan's cell count to the budget (budget.charge) before any arithmetic runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .budget import DEFAULT_CELL_BUDGET, DEFAULT_ENUMERATION_BUDGET, charge
from .graphs import Graph, subdivide
from .operators import path_power
from .stepgraphon import StepGraphon, as_step_function

# Bound of each compiled-program cache (density, gradient, shared layouts).
# The working sets fit: the verify checks use 12 patterns at n = 2..10, 108
# density programs (paper-default alone needs 23), and a search a handful of
# gradient programs.  A gradient program of a 10-edge pattern holds about
# 20 KB, so full caches stay near 3 MB.
PROGRAM_CACHE_SIZE = 128


@dataclass(frozen=True)
class EliminationPlan:
    """Vertex elimination order with per-step working-factor arities.

    cost is the total number of cells the contraction will touch,
    sum of n^arity over the steps.
    """

    order: tuple
    arities: tuple
    block_count: int
    cost: float


@lru_cache(maxsize=4096)
def plan_elimination(H: Graph, n: int, pinned: tuple = ()) -> EliminationPlan:
    """Greedy minimum-degree elimination order over the non-pinned vertices.

    Simulates fill-in on the interaction graph: eliminating v joins its
    current neighbors into a clique.  Pinned vertices are never eliminated
    but do count toward factor arities.
    """
    alive = set(range(H.vertex_count))
    adj = {v: set() for v in alive}
    for u, v in H.edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = alive - set(pinned)
    order = []
    arities = []
    cost = 0.0
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        neigh = adj[v]
        order.append(v)
        arities.append(len(neigh) + 1)
        cost += float(n) ** (len(neigh) + 1)
        for a in neigh:
            adj[a].discard(v)
        for a in neigh:
            for b in neigh:
                if a != b:
                    adj[a].add(b)
        del adj[v]
        remaining.discard(v)
    return EliminationPlan(tuple(order), tuple(arities), n, cost)


class _Step(NamedTuple):
    """One elimination step of a compiled program.

    slots are the factors touching the eliminated vertex, in factor-list
    order, and layouts their (transpose permutation, broadcast shape); no
    slots means an isolated vertex, which contributes the weight sum.  The
    merged factor puts the eliminated vertex on its last axis, or on its
    first when that vertex is the lowest of the step (lead), and np.dot then
    gets its column-major transpose.  That is the layout np.tensordot would
    pass; row- and column-major dot round differently, so this keeps results
    bitwise equal to a tensordot contraction.  out is the slot receiving the
    summed factor of shape out_shape, or None when the sum is a scalar.
    """

    slots: tuple
    layouts: tuple
    lead: bool
    out: int | None
    out_shape: tuple


class _Program(NamedTuple):
    """An elimination plan compiled for one (pattern, n).

    Slots 0..edge_count-1 start as the value matrix, one per edge in the
    order compiled; step outputs fill the later slots.  cost is the plan's
    cell count.  tail_slots and tail_layouts line up the factors left over
    the pinned vertices.
    """

    cost: float
    edge_count: int
    steps: tuple
    pinned: tuple
    tail_slots: tuple
    tail_layouts: tuple


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _layout(positions: tuple, width: int, n: int) -> tuple:
    """(permutation, shape) broadcasting a factor whose axes go to positions
    of a width-axis product; shared by every program that needs it."""
    shape = [1] * width
    for p in positions:
        shape[p] = n
    return tuple(sorted(range(len(positions)), key=positions.__getitem__)), tuple(shape)


def _layouts(factors, order: tuple, n: int) -> tuple:
    return tuple(
        _layout(tuple(order.index(w) for w in vars_), len(order), n) for vars_, _ in factors
    )


def _compile(edges: tuple, plan: EliminationPlan, n: int, pinned: tuple = ()) -> _Program:
    """Replay plan.order on factor scopes only; no values are involved."""
    factors = [(edge, slot) for slot, edge in enumerate(edges)]
    next_slot = len(edges)
    steps = []
    for v in plan.order:
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        if not touching:
            steps.append(_Step((), (), False, None, ()))
            continue
        union = sorted(set().union(*(vars_ for vars_, _ in touching)))
        rest = tuple(w for w in union if w != v)
        lead = bool(rest) and v == union[0]
        order = (v,) + rest if lead else rest + (v,)
        out = None
        if rest:
            out = next_slot
            next_slot += 1
            factors.append((rest, out))
        slots = tuple(slot for _, slot in touching)
        steps.append(_Step(slots, _layouts(touching, order, n), lead, out, (n,) * len(rest)))
    # a factor left off the pinned vertices would be a planning bug
    assert all(set(vars_) <= set(pinned) for vars_, _ in factors)
    tail_slots = tuple(slot for _, slot in factors)
    tail_layouts = _layouts(factors, pinned, n)
    return _Program(plan.cost, len(edges), tuple(steps), pinned, tail_slots, tail_layouts)


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _density_program(H: Graph, n: int) -> _Program:
    return _compile(H.edge_list, plan_elimination(H, n), n)


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _gradient_program(H: Graph, n: int) -> tuple:
    """One program per edge (u, v) of H: H without that edge, u and v pinned.

    The edge-deleted graphs are planned without the plan cache, since no
    other call asks for them.
    """
    programs = []
    for edge in H.edge_list:
        rest_edges = tuple(e for e in H.edge_list if e != edge)
        rest = Graph(H.vertex_count, frozenset(rest_edges))
        plan = plan_elimination.__wrapped__(rest, n, pinned=edge)
        programs.append(_compile(rest_edges, plan, n, pinned=edge))
    return tuple(programs)


def _run(program: _Program, B: np.ndarray, weight: np.ndarray):
    """Run program on value matrix B with the unary weight at every vertex.

    Returns (scalar, factor over the pinned vertices); the factor is None
    when nothing is pinned, and pinned weights are left to the caller.
    """
    n = len(weight)
    column = weight.reshape(n, 1)
    slots = [B] * program.edge_count + [None] * len(program.steps)
    scalar = 1.0
    for step_slots, layouts, lead, out, out_shape in program.steps:
        if not step_slots:
            scalar *= float(weight.sum())
            continue
        merged = None
        for slot, (perm, shape) in zip(step_slots, layouts):
            arr = slots[slot].transpose(perm).reshape(shape)
            slots[slot] = None
            merged = arr if merged is None else merged * arr
        merged = np.ascontiguousarray(merged)
        matrix = merged.reshape(n, -1).T if lead else merged.reshape(-1, n)
        summed = np.dot(matrix, column)
        if out is None:
            scalar *= float(summed[0, 0])
        else:
            slots[out] = summed.reshape(out_shape)
    if not program.pinned:
        return scalar, None
    # seeded with ones: the tail may be empty (K2) or span one pinned vertex
    factor = np.ones((n,) * len(program.pinned))
    for slot, (perm, shape) in zip(program.tail_slots, program.tail_layouts):
        factor = factor * slots[slot].transpose(perm).reshape(shape)
    return scalar, factor


def hom_density(H: Graph, W: StepGraphon) -> float:
    """t(H, W) by greedy variable elimination."""
    return hom_density_weighted(H, W, None)


def hom_density_weighted(H: Graph, W: StepGraphon, omega) -> float:
    """Vertex-weighted density: each map picks up omega at every vertex."""
    program = _density_program(H, W.n)
    # a step touches n^arity cells and the plan's cost sums them over all
    # steps, so passing this charge bounds the whole run
    charge(program.cost, DEFAULT_CELL_BUDGET, "elimination plan", "cells")
    if H.vertex_count == 0:
        return 1.0
    if omega is None:
        weight = W.measures
    else:
        weight = as_step_function(omega, W).values * W.measures
    scalar, _ = _run(program, W.values, weight)
    return float(scalar)


def hom_density_naive(H: Graph, W: StepGraphon) -> float:
    """t(H, W) by full enumeration of all n^v(H) block maps.

    Per-map products are formed in float64; the final accumulation is exact
    compensated summation over all maps.
    """
    n = W.n
    vH = H.vertex_count
    total = n**vH
    charge(total, DEFAULT_ENUMERATION_BUDGET, "enumeration", "maps")
    if vH == 0:
        return 1.0
    B = W.values
    mu = W.measures
    edges = H.edge_list
    chunk = 1 << 18
    partials = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = [(idx // n**p) % n for p in range(vH)]
        acc = np.ones(len(idx))
        for u, v in edges:
            acc *= B[digits[u], digits[v]]
        for p in range(vH):
            acc *= mu[digits[p]]
        partials.append(math.fsum(acc.tolist()))
    return math.fsum(partials)


def hom_density_subdivided(H: Graph, s: int, W: StepGraphon) -> float:
    """t of the s-subdivision of H, computed as t(H, W_{s+1}).

    Replacing every edge of H by a path with s internal vertices multiplies
    each edge factor by a length-(s+1) walk, so the subdivided density equals
    the density of H in the (s+1)-walk kernel.
    """
    if s < 0:
        raise ValueError("subdivision count must be nonnegative")
    if s == 0:
        return hom_density(H, W)
    return hom_density(H, path_power(W, s + 1))


def grad_hom_density(H: Graph, W: StepGraphon) -> np.ndarray:
    """Gradient of t(H, .) in the symmetric parametrization.

    Entry (i, j) is the derivative with respect to the single parameter
    controlling both values[i][j] and values[j][i]; off-diagonal entries
    therefore accumulate both orientations of every pinned edge.
    """
    n = W.n
    mu = W.measures
    programs = _gradient_program(H, n)
    # each pinned program runs on its own, so the costliest one is charged
    cost = max((program.cost for program in programs), default=0.0)
    charge(cost, DEFAULT_CELL_BUDGET, "elimination plan", "cells")
    G = np.zeros((n, n))
    outer_mu = np.outer(mu, mu)
    for program in programs:
        scalar, factor = _run(program, W.values, mu)
        T = scalar * factor * outer_mu
        S = T + T.T
        np.fill_diagonal(S, T.diagonal())
        G += S
    return G


def per_entry_gradient(G: np.ndarray) -> np.ndarray:
    """Convert a symmetric-parameter gradient to its per-entry form.

    The per-entry matrix E satisfies d t(B + h D) / dh = sum_ij E_ij D_ij for
    symmetric directions D.
    """
    E = G / 2.0
    np.fill_diagonal(E, np.diag(G))
    return E
