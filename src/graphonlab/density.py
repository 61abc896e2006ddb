"""Homomorphism densities of graphs in step graphons.

Two engines compute t(H, W) = sum over block maps of the product of edge
values times the product of block measures:

* hom_density_naive enumerates all n^v(H) maps with compensated summation.
  It is the oracle and stays a direct transcription of the definition.
* hom_density eliminates one pattern vertex at a time (bucket elimination;
  greedy minimum degree, ties to the lowest vertex id), which turns
  subdivision-heavy patterns from exponential into low-order polynomial work.

The elimination engine plans once and runs many times.  For each pattern
and block count n, plan_elimination picks the order and, in the same pass,
lays it out as a program: which factor slots every step multiplies, and the
transpose and broadcast shape that line each one up with the eliminated
vertex on the summed axis.  A gradient holds one such plan per edge, with
that edge deleted and its endpoints pinned.  Plans are cached by (pattern,
n), so a call only runs array arithmetic: one product per step and one
np.matmul against the weights.

The engine (_run) runs a program over a stack of value matrices at once,
behind a leading stack axis.  hom_densities and grad_hom_densities take
such stacks, as the penalty search evaluates its trial points;
hom_density, hom_density_weighted and grad_hom_density, and through
hom_density the walk-kernel shortcut, are the stack of one.  np.matmul
over the stack axis rounds each matrix as a lone np.dot would (a property
of the numpy/BLAS build that the tests pin), so an entry of a stack is,
bit for bit, the one-graphon result.

Work is accounted in block-tensor cells touched; every call charges the
plan's cell count to the budget (budget.charge) before any arithmetic runs,
once per stack: the budget caps the work on one matrix.
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

# Bound of each plan cache (density plans, gradient plans, shared layouts).
# The working sets fit: the verify checks use 12 patterns at n = 2..10, 108
# density plans (paper-default alone needs 23), and a search a handful of
# gradient plans.  A gradient's plans for a 10-edge pattern hold about
# 20 KB, so full caches stay near 3 MB.
PROGRAM_CACHE_SIZE = 128


class _Step(NamedTuple):
    """One elimination step of a plan.

    slots are the factors touching the eliminated vertex, in factor-list
    order, and layouts their (transpose permutation, broadcast shape) behind
    the stack axis; no slots means an isolated vertex, which contributes the
    weight sum.  The merged factor puts the eliminated vertex on its last
    axis, or on its first when that vertex is the lowest of the step (lead),
    and np.matmul then gets its column-major transpose.  That is the layout
    np.tensordot would pass; row- and column-major products round
    differently, so this keeps results bitwise equal to a tensordot
    contraction.  out is the slot receiving the summed factor, of shape
    out_shape per matrix, or None when the sum is a scalar.
    """

    slots: tuple
    layouts: tuple
    lead: bool
    out: int | None
    out_shape: tuple


@dataclass(frozen=True)
class EliminationPlan:
    """A vertex elimination order, laid out as a program over factor slots.

    arities are the per-step working-factor arities, and cost is the total
    number of cells the contraction will touch, sum of n^arity over the
    steps.  Slots 0..edge_count-1 start as the value matrix, one per edge in
    edge_list order; step outputs fill the later slots.  tail_slots and
    tail_layouts line up the factors left over the pinned vertices.
    """

    order: tuple
    arities: tuple
    cost: float
    edge_count: int
    steps: tuple
    pinned: tuple
    tail_slots: tuple
    tail_layouts: tuple


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _layout(positions: tuple, width: int, n: int) -> tuple:
    """(permutation, shape) broadcasting a stack of factors, each with its
    axes going to positions of a width-axis product, behind the leading
    stack axis; shared by every plan that needs it."""
    shape = [1] * width
    for p in positions:
        shape[p] = n
    perm = sorted(range(len(positions)), key=positions.__getitem__)
    return (0,) + tuple(p + 1 for p in perm), (-1,) + tuple(shape)


def _layouts(factors, order: tuple, n: int) -> tuple:
    return tuple(
        _layout(tuple(order.index(w) for w in vars_), len(order), n) for vars_, _ in factors
    )


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def plan_elimination(H: Graph, n: int, pinned: tuple = ()) -> EliminationPlan:
    """Greedy minimum-degree elimination over the non-pinned vertices.

    Simulates fill-in on the interaction graph: eliminating v joins its
    current neighbors into a clique.  The same step lays out the factors
    touching v, whose scopes cover v and exactly those neighbors, and
    replaces them by one factor over the neighbors.  Pinned vertices are
    never eliminated but do count toward factor arities.
    """
    adj = {v: set() for v in range(H.vertex_count)}
    for u, v in H.edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(adj) - set(pinned)
    factors = [(edge, slot) for slot, edge in enumerate(H.edge_list)]
    next_slot = len(factors)
    order, arities, steps = [], [], []
    cost = 0.0
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        rest = tuple(sorted(adj[v]))
        order.append(v)
        arities.append(len(rest) + 1)
        cost += float(n) ** (len(rest) + 1)
        for a in rest:
            adj[a].discard(v)
            adj[a].update(b for b in rest if b != a)
        del adj[v]
        remaining.discard(v)
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        if not touching:
            steps.append(_Step((), (), False, None, ()))
            continue
        lead = bool(rest) and v < rest[0]
        out = None
        if rest:
            out = next_slot
            next_slot += 1
            factors.append((rest, out))
        layouts = _layouts(touching, (v,) + rest if lead else rest + (v,), n)
        steps.append(_Step(tuple(s for _, s in touching), layouts, lead, out, (n,) * len(rest)))
    # a factor left off the pinned vertices would be a planning bug
    assert all(set(vars_) <= set(pinned) for vars_, _ in factors)
    return EliminationPlan(
        tuple(order), tuple(arities), cost, H.edge_count, tuple(steps), pinned,
        tuple(s for _, s in factors), _layouts(factors, pinned, n),
    )


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _gradient_program(H: Graph, n: int) -> tuple:
    """One plan per edge e of H: H without e, the endpoints of e pinned.

    The edge-deleted graphs are planned without the plan cache, since no
    other call asks for them.
    """
    return tuple(
        plan_elimination.__wrapped__(Graph(H.vertex_count, H.edges - {edge}), n, pinned=edge)
        for edge in H.edge_list
    )


def _run(program: EliminationPlan, Bs: np.ndarray, weight: np.ndarray):
    """Run program on each value matrix of the stack Bs (shape (k, n, n))
    with the unary weight at every vertex.

    Returns (scalars, factors over the pinned vertices), each with the stack
    axis first; the factors are None when nothing is pinned, and pinned
    weights are left to the caller.
    """
    k, n = len(Bs), len(weight)
    column = weight.reshape(n, 1)
    slots = [Bs] * program.edge_count + [None] * len(program.steps)
    scalar = np.ones(k)
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
        matrix = merged.reshape(k, n, -1).transpose(0, 2, 1) if lead else merged.reshape(k, -1, n)
        summed = np.matmul(matrix, column)
        if out is None:
            scalar = scalar * summed[:, 0, 0]
        else:
            slots[out] = summed.reshape((k,) + out_shape)
    if not program.pinned:
        return scalar, None
    # seeded with ones: the tail may be empty (K2) or span one pinned vertex
    factor = np.ones((k,) + (n,) * len(program.pinned))
    for slot, (perm, shape) in zip(program.tail_slots, program.tail_layouts):
        factor = factor * slots[slot].transpose(perm).reshape(shape)
    return scalar, factor


def hom_density(H: Graph, W: StepGraphon) -> float:
    """t(H, W) by greedy variable elimination."""
    return hom_density_weighted(H, W, None)


def _charged_plan(H: Graph, n: int) -> EliminationPlan:
    plan = plan_elimination(H, n)
    # a step touches n^arity cells and the plan's cost sums them over all
    # steps, so passing this charge bounds the whole run on one matrix
    charge(plan.cost, DEFAULT_CELL_BUDGET, "elimination plan", "cells")
    return plan


def hom_density_weighted(H: Graph, W: StepGraphon, omega) -> float:
    """Vertex-weighted density: each map picks up omega at every vertex."""
    plan = _charged_plan(H, W.n)
    if H.vertex_count == 0:
        return 1.0
    if omega is None:
        weight = W.measures
    else:
        weight = as_step_function(omega, W).values * W.measures
    scalars, _ = _run(plan, W.values[None], weight)
    return float(scalars[0])


def hom_densities(H: Graph, Bs: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """t(H, W) for each value matrix of the stack Bs (shape (k, n, n)), all
    on the block measures given: bit for bit hom_density of the graphon
    with those values and measures.  Nothing is validated; the matrices and
    measures must be what StepGraphon stores."""
    return _run(_charged_plan(H, len(measures)), Bs, measures)[0]


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
    return grad_hom_densities(H, W.values[None], W.measures)[0]


def grad_hom_densities(H: Graph, Bs: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """grad_hom_density for each value matrix of the stack Bs, as a stack,
    on the block measures given; unvalidated, as in hom_densities."""
    n = len(measures)
    plans = _gradient_program(H, n)
    # each pinned plan runs on its own, so the costliest one is charged
    cost = max((plan.cost for plan in plans), default=0.0)
    charge(cost, DEFAULT_CELL_BUDGET, "elimination plan", "cells")
    G = np.zeros((len(Bs), n, n))
    outer_mu = np.outer(measures, measures)
    diagonal = np.arange(n)
    for plan in plans:
        scalars, factors = _run(plan, Bs, measures)
        T = scalars[:, None, None] * factors * outer_mu
        S = T + T.transpose(0, 2, 1)
        S[:, diagonal, diagonal] = T[:, diagonal, diagonal]
        G += S
    return G


def per_entry_gradient(G: np.ndarray) -> np.ndarray:
    """Convert a symmetric-parameter gradient, or a stack of them, to its
    per-entry form.

    The per-entry matrix E satisfies d t(B + h D) / dh = sum_ij E_ij D_ij for
    symmetric directions D.
    """
    E = G / 2.0
    diagonal = np.arange(G.shape[-1])
    E[..., diagonal, diagonal] = G[..., diagonal, diagonal]
    return E
