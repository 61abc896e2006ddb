"""Homomorphism densities of graphs in step graphons.

Two engines compute t(H, W) = sum over block maps of the product of edge
values times the product of block measures:

* hom_density_naive forms the product of every one of the n^v(H) maps,
  broadcast over a tensor with one axis per pattern vertex, sums the terms
  exactly by exponent and rounds once by math.fsum: bit for bit one
  correctly rounded math.fsum of all maps.  It is the oracle and stays a
  direct transcription of the definition.
* hom_density eliminates one pattern vertex at a time (bucket elimination;
  greedy minimum degree, ties to the lowest vertex id), which turns
  subdivision-heavy patterns from exponential into low-order polynomial work.

The elimination engine plans once and runs many times.  For each pattern
and block count n, plan_elimination picks the order and, in the same pass,
lays it out as a program: which factor slots every step multiplies, and the
transpose and broadcast shape that line each one up with the eliminated
vertex on the summed axis.  Plans are cached by (pattern, n), so a call only
runs array arithmetic: one product per step and one np.matmul against the
weights.

A gradient runs the same plan forward, keeping every step's factors, then
sends the adjoint back through the steps once (reverse mode; Baur &
Strassen, Theor. Comput. Sci. 22, 1983): a factor's adjoint contracts the
adjoint of its step's sum, times the weight, with the step's other factors
(np.einsum, subscripts laid out in the plan on its first gradient).  Edge
factors add into one gradient matrix; a step output passes its adjoint to
the step that made it.

The engine (_run) runs a program over a stack of value matrices at once,
behind a leading stack axis.  hom_densities and grad_hom_densities take
such stacks, as the penalty search evaluates its trial points, and so do
their walk-kernel twins hom_densities_subdivided and
grad_hom_densities_subdivided, t of the s-subdivision of H as t(H, W_{s+1});
hom_density, hom_density_weighted, hom_density_subdivided and
grad_hom_density are the stack of one.  np.matmul and
np.einsum over the stack axis round each matrix as a lone call would (a
property of the numpy/BLAS build that the tests pin), so an entry of a
stack is, bit for bit, the one-graphon result.

Work is accounted in block-tensor cells touched; every call charges the
plan's cell count (a gradient: forward and reverse pass together) to the
budget (budget.charge) before any arithmetic runs, once per stack: the
budget caps the work on one matrix.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, product
from operator import mul
from typing import NamedTuple

import numpy as np

from .budget import DEFAULT_CELL_BUDGET, DEFAULT_ENUMERATION_BUDGET, charge
from .graphs import Graph
from .operators import path_powers
from .stepgraphon import StepGraphon, as_step_function

# Bound of each plan cache (plans and shared layouts).  The working sets
# fit: the verify checks use 12 patterns at n = 2..10, 108 density plans
# (paper-default alone needs 23), and a search a handful; density and
# gradient share them.
PROGRAM_CACHE_SIZE = 128

# einsum's axis labels, the first for the stack axis; a wider step (n = 1
# only, else it would not fit in memory) gets '?', on which einsum raises
_LABELS = string.ascii_letters


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
    edge_list order; step outputs fill the later slots, every factor with
    its axes in increasing vertex order.

    scopes hold, per step, the eliminated vertex, its neighbors and the
    scopes of the factors touching it in slot order: what the reverse pass
    (adjoints) is laid out from, on the plan's first gradient.
    gradient_cost adds n^arity cells to cost per distinct scope of each
    step, the cells of that step's adjoint einsums.
    """

    order: tuple
    arities: tuple
    cost: float
    edge_count: int
    steps: tuple
    n: int
    scopes: tuple
    gradient_cost: float

    @cached_property
    def adjoints(self) -> tuple:
        """Each step's reverse pass, one (members, subscripts, weight_shape)
        per distinct scope of its factors; members are their positions in
        the step's slots.  A member's adjoint is the product of its scope
        mates times one einsum, of the adjoint of the step's sum and each
        other scope's product, times the weight broadcast by weight_shape.
        With one scope (weight_shape None) the weight is the einsum's second
        operand instead, supplying the eliminated axis.  One operand per
        scope keeps einsum off its slow loop for four or more operands."""
        return tuple(_adjoints(touching, v, rest, self.n) for v, rest, touching in self.scopes)


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


def _adjoints(touching: tuple, v: int, rest: tuple, n: int) -> tuple:
    """The adjoints entry of the step eliminating v, whose factors have the
    scopes touching: one per distinct scope, in first-seen order."""
    label = dict(zip((v,) + rest, _LABELS[1:] + "?" * len(rest)))
    scopes = list(dict.fromkeys(touching))
    subscripts = [_LABELS[0] + "".join(label[w] for w in scope) for scope in scopes]
    head = _LABELS[0] + "".join(label[w] for w in rest)
    adjoints = []
    for j, scope in enumerate(scopes):
        members = tuple(i for i, vars_ in enumerate(touching) if vars_ == scope)
        if len(scopes) == 1:
            operands, weight_shape = [head, label[v]], None
        else:
            operands = [head] + subscripts[:j] + subscripts[j + 1:]
            weight_shape = tuple(n if w == v else 1 for w in scope)
        adjoints.append((members, ",".join(operands) + "->" + subscripts[j], weight_shape))
    return tuple(adjoints)


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def plan_elimination(H: Graph, n: int, pinned: tuple = ()) -> EliminationPlan:
    """Greedy minimum-degree elimination over the non-pinned vertices.

    Simulates fill-in on the interaction graph: eliminating v joins its
    current neighbors into a clique.  The same step lays out the factors
    touching v, whose scopes cover v and exactly those neighbors, and
    replaces them by one factor over the neighbors.  Pinned vertices are
    never eliminated but do count toward factor arities; they shape the
    order and cost only, since the engine runs unpinned plans.
    """
    adj = {v: set() for v in range(H.vertex_count)}
    for u, v in H.edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(adj) - set(pinned)
    factors = [(edge, slot) for slot, edge in enumerate(H.edge_list)]
    next_slot = len(factors)
    order, arities, steps, scopes = [], [], [], []
    cost = reverse_cost = 0.0
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
        scopes.append((v, rest, tuple(vars_ for vars_, _ in touching)))
        reverse_cost += len(set(scopes[-1][2])) * float(n) ** (len(rest) + 1)
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
        tuple(order), tuple(arities), cost, H.edge_count, tuple(steps), n, tuple(scopes),
        cost + reverse_cost,
    )


def _run(program: EliminationPlan, Bs: np.ndarray, weight: np.ndarray, keep: bool = False):
    """Run program on each value matrix of the stack Bs (shape (k, n, n))
    with the unary weight at every vertex.

    Returns (scalars, record), the scalars with the stack axis first.  With
    keep, record is (slots, parts) for the reverse pass: every slot's array,
    and the scalar of each step that ends in one (an isolated vertex or a
    component's last sum) in step order; scalars is their product.
    """
    k, n = len(Bs), len(weight)
    if k == 0:
        # reshape cannot infer the axes of an empty stack
        return np.zeros(0), None
    column = weight.reshape(n, 1)
    slots = [Bs] * program.edge_count + [None] * len(program.steps)
    parts = []
    scalar = np.ones(k)
    for step_slots, layouts, lead, out, out_shape in program.steps:
        if not step_slots:
            parts.append(float(weight.sum()))
            scalar *= parts[-1]
            continue
        merged = None
        for slot, (perm, shape) in zip(step_slots, layouts):
            arr = slots[slot].transpose(perm).reshape(shape)
            if not keep:
                slots[slot] = None
            merged = arr if merged is None else merged * arr
        merged = np.ascontiguousarray(merged)
        matrix = merged.reshape(k, n, -1).transpose(0, 2, 1) if lead else merged.reshape(k, -1, n)
        summed = np.matmul(matrix, column)
        if out is None:
            parts.append(summed[:, 0, 0])
            scalar = scalar * parts[-1]
        else:
            slots[out] = summed.reshape((k,) + out_shape)
    return scalar, (slots, parts) if keep else None


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


def _exact_partials(terms: np.ndarray) -> np.ndarray:
    """Nonzero float64 partials whose exact sum is that of the 1-D float64
    terms, for at most 2^26 terms of size at most 1 (Zhu & Hayes, SIAM J.
    Sci. Comput. 31, 2009): one math.fsum of them is math.fsum of the
    terms, bit for bit.

    A term of exponent field E splits exactly into hi, itself with the low 26
    mantissa bits cleared, and lo = term - hi.  Binned by E, each hi is a
    multiple of 2^(E-26) below 2^(E+1) in size and each lo a multiple of
    2^(E-52) below 2^(E-26) (unbiased E; subnormals, field 0, alike), so
    every partial sum of a bin fits in 53 bits and np.bincount adds exactly.
    """
    bits = terms.view(np.int64)
    field = (bits >> 52) & 0x7FF
    hi = (bits & (-1 << 26)).view(np.float64)
    sums = np.stack((np.bincount(field, weights=hi), np.bincount(field, weights=terms - hi)))
    return sums[sums != 0.0]


def hom_density_naive(H: Graph, W: StepGraphon) -> float:
    """t(H, W) by full enumeration of all n^v(H) block maps.

    The maps' terms fill a tensor whose axis p holds the block of vertex p:
    each edge (u, v) contributes the value matrix broadcast onto axes u and
    v, each vertex p the measures broadcast onto axis p, multiplied in that
    order (edges in edge_list order, then vertices 0..v(H)-1), so every
    map's product is formed explicitly in float64.  The tensor is built in
    blocks that fix the leading vertices, each at most 2^18 terms on at
    most 18 axes (numpy allows 64, which n = 1 could otherwise exceed).

    Each block's terms, all in [0, 1], are summed exactly by exponent
    (_exact_partials; Zhu & Hayes, SIAM J. Sci. Comput. 31, 2009): a term
    splits into hi, its low 26 mantissa bits cleared, and lo = term - hi,
    and np.bincount adds the hi and the lo parts by exponent field.  With at
    most 2^26 terms to a bin every partial sum fits in 53 bits, so each bin
    sum is exact, and one math.fsum of all blocks' nonzero bin sums is the
    correctly rounded sum over all maps (Shewchuk, Discrete Comput. Geom.
    18, 1997).  Correct rounding is unique, so these are the bits of one
    math.fsum over every map's term.
    """
    n = W.n
    vH = H.vertex_count
    charge(n**vH, DEFAULT_ENUMERATION_BUDGET, "enumeration", "maps")
    if vH == 0:
        return 1.0
    bits = 18
    width = min(vH, bits)
    while n**width > 1 << bits:
        width -= 1
    lead = vH - width
    factors = [(edge, W.values) for edge in H.edge_list] + [((p,), W.measures) for p in range(vH)]

    full = (n,) * width

    def block(fixed: tuple) -> np.ndarray:
        term = 1.0
        for scope, F in factors:
            # the fixed vertices index F; the others, in increasing order as
            # in every edge_list pair, keep their axes, which go to the block's
            F = F[tuple(fixed[w] if w < lead else slice(None) for w in scope)]
            shape = [1] * width
            for w in scope:
                if w >= lead:
                    shape[w - lead] = n
            if np.shape(term) == full:  # every axis present: multiply in place
                term *= F.reshape(shape)
            else:
                term = term * F.reshape(shape)
        return _exact_partials(term.ravel())

    return math.fsum(chain.from_iterable(map(block, product(range(n), repeat=lead))))


def hom_density_subdivided(H: Graph, s: int, W: StepGraphon) -> float:
    """t of the s-subdivision of H, computed as t(H, W_{s+1}).

    Replacing every edge of H by a path with s internal vertices multiplies
    each edge factor by a length-(s+1) walk, so the subdivided density equals
    the density of H in the (s+1)-walk kernel.
    """
    if s < 0:
        raise ValueError("subdivision count must be nonnegative")
    return float(hom_densities_subdivided(H, s, W.values[None], W.measures)[0])


def hom_densities_subdivided(
    H: Graph, s: int, Bs: np.ndarray, measures: np.ndarray
) -> np.ndarray:
    """hom_density_subdivided for each value matrix of the stack Bs, on the
    block measures given; unvalidated, as in hom_densities.  The walk kernel
    carries the measures normalized once more, as path_power's graphon does;
    that renormalization can move a bit, even of uniform measures (n = 6 or
    7, say)."""
    if s == 0:
        return hom_densities(H, Bs, measures)
    return hom_densities(H, path_powers(Bs, measures, s + 1), measures / float(measures.sum()))


def grad_hom_density(H: Graph, W: StepGraphon) -> np.ndarray:
    """Gradient of t(H, .) in the symmetric parametrization.

    Entry (i, j) is the derivative with respect to the single parameter
    controlling both values[i][j] and values[j][i]: with A the sum over the
    edges of H of the derivative by that edge's value matrix, G = A + A^T
    off the diagonal and A's own diagonal on it.
    """
    return grad_hom_densities(H, W.values[None], W.measures)[0]


def grad_hom_densities(H: Graph, Bs: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """grad_hom_density for each value matrix of the stack Bs, as a stack,
    on the block measures given; unvalidated, as in hom_densities.

    One forward run of the density plan, then its reverse pass; nothing is
    divided, since entries may be 0.
    """
    n, k = len(measures), len(Bs)
    plan = plan_elimination(H, n)
    charge(plan.gradient_cost, DEFAULT_CELL_BUDGET, "elimination plan", "cells")
    A = np.zeros((k, n, n))
    if k == 0:
        return A
    _, (slots, parts) = _run(plan, Bs, measures, keep=True)
    # a scalar's adjoint is the product of the others, by prefix and suffix;
    # a lone scalar's is 1
    seeds = [np.ones(k)]
    if len(parts) > 1:
        prefix, suffix = [np.ones(k)], [np.ones(k)]
        for part, back in zip(parts, reversed(parts)):
            prefix.append(prefix[-1] * part)
            suffix.append(suffix[-1] * back)
        seeds = [prefix[i] * suffix[len(parts) - 1 - i] for i in range(len(parts))]
    pending = {}
    for step, adjoints in zip(reversed(plan.steps), reversed(plan.adjoints)):
        bar = seeds.pop() if step.out is None else pending.pop(step.out)
        factors = [slots[slot] for slot in step.slots]
        if len(adjoints) > 1:
            products = [reduce(mul, (factors[i] for i in adjoint[0])) for adjoint in adjoints]
        for j, (members, subscripts, weight_shape) in enumerate(adjoints):
            if weight_shape is None:
                common = np.einsum(subscripts, bar, measures)
            else:
                common = np.einsum(subscripts, bar, *products[:j], *products[j + 1:])
                common *= measures.reshape(weight_shape)
            for i in members:
                adjoint = reduce(mul, (factors[m] for m in members if m != i), common)
                if step.slots[i] < plan.edge_count:
                    A += adjoint
                else:
                    pending[step.slots[i]] = adjoint
    G = A + A.transpose(0, 2, 1)
    _diagonal(G)[...] = _diagonal(A)
    return G


def grad_hom_densities_subdivided(
    H: Graph, s: int, Bs: np.ndarray, measures: np.ndarray
) -> np.ndarray:
    """The gradients of hom_densities_subdivided in the symmetric
    parametrization, as grad_hom_densities gives them.

    With C = diag(mu) B and D = B diag(mu), the walk kernel is V = B C^s,
    and E, the per-entry gradient of t(H, .) at V, pulls back to the
    per-entry gradient P = sum over p = 0..s of C^p E D^(s-p) (B being
    symmetric).
    """
    if s == 0:
        return grad_hom_densities(H, Bs, measures)
    V = path_powers(Bs, measures, s + 1)
    E = per_entry_gradient(grad_hom_densities(H, V, measures / float(measures.sum())))
    C, D = measures[:, None] * Bs, Bs * measures[None, :]
    c_pow, d_pow = [np.eye(len(measures))], [np.eye(len(measures))]
    for _ in range(s):
        c_pow.append(c_pow[-1] @ C)
        d_pow.append(d_pow[-1] @ D)
    P = sum(c_pow[p] @ E @ d_pow[s - p] for p in range(s + 1))
    G = P + P.transpose(0, 2, 1)
    _diagonal(G)[...] = _diagonal(P)
    return G


def per_entry_gradient(G: np.ndarray) -> np.ndarray:
    """Convert a symmetric-parameter gradient, or a stack of them, to its
    per-entry form.

    The per-entry matrix E satisfies d t(B + h D) / dh = sum_ij E_ij D_ij for
    symmetric directions D.
    """
    E = G / 2.0
    _diagonal(E)[...] = _diagonal(G)
    return E


def _diagonal(M: np.ndarray) -> np.ndarray:
    """The diagonal of a matrix, or of each matrix of a stack, as a strided
    view that writes through to M."""
    return np.einsum("...ii->...i", M)
