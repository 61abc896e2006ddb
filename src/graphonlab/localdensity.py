"""Local density of a step graphon as a standard quadratic program.

The local density d*(W) is the largest d such that every measurable set S
satisfies int_{S x S} W >= d |S|^2.  For a step graphon, writing a candidate
set through per-block masses x_i >= 0 and using scale invariance of the ratio
reduces this to minimizing x^T B x over the probability simplex.

The minimum of a quadratic over the simplex is attained either at a vertex or
at a point in the relative interior of a face where the equality-constrained
stationarity system holds.  Only some faces can hold a minimizer.  If x is a
local minimizer and i, j lie in its support, e_i - e_j is a feasible direction
both ways, so the curvature along it, c_ij = b_ii + b_jj - 2 b_ij, is not
negative.  The support of every local minimizer, and so of every global one,
is therefore a clique of the convexity graph: the graph on the blocks with an
edge wherever c_ij >= 0 (Scozzari and Tardella, "A clique algorithm for
standard quadratic programming", Discrete Appl. Math. 156, 2008).  The exact
solver decides each edge exactly, grows the cliques class by class from the
single blocks, the edges being the 2-cliques, and solves the stationarity
system of every clique support.  No other support is visited.  On uniform
random matrices of 14 blocks (gen_random, seeds 0 to 4) 62 to 223 of the
16 383 supports were cliques of two or more blocks, pairs included (27 to 172
of three or more); on a constant graphon or a walk kernel W_7 nearly all are.
The cliques are cached by convexity graph, as density's plans are by
(pattern, n): a search's graphs barely change from step to step, so most of
its solver calls skip the growth (_cliques).

An exactly singular stationarity system can be skipped: its face then holds
either no interior stationary point or a line of them, and in both cases the
face's minimum is attained on a sub-face too, whose support is enumerated.
Every other system is solved by LU with partial pivoting, which is backward
stable (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
chapter 9): the computed solution solves a system within O(u ||K||) of the
face's.  A solution with every entry positive therefore sums to 1 up to
rounding, so it is a point of the simplex, and its value, computed from its
entries, is one the quadratic takes there.  That holds whatever the system's
condition number, so no system is dropped for being ill-conditioned: for
W = 0.5 J + 1e-12 I the minimum 0.5 + 1e-12 / n is at the barycenter, whose
system is ill-conditioned but solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budget import DEFAULT_ESTIMATE_BUDGET, DEFAULT_GRID_BUDGET, DEFAULT_SUPPORT_BUDGET, charge
from .stepgraphon import StepGraphon

PGD_MAX_ITERATIONS = 10**4
PGD_STOP_TOL = 1e-10
ARMIJO_SIGMA = 1e-4  # sufficient-decrease coefficient
ARMIJO_FACTOR = 0.5  # step shrink per backtrack


def _armijo_ladder() -> np.ndarray:
    """The backtracking steps eta = 1, ARMIJO_FACTOR, ARMIJO_FACTOR^2, ...
    while above 1e-14."""
    etas = []
    eta = 1.0
    while eta > 1e-14:
        etas.append(eta)
        eta *= ARMIJO_FACTOR
    return np.array(etas)


ARMIJO_LADDER = _armijo_ladder()


def _decreases(f, f0, eta, sq):
    """The Armijo test of trials (scalars or arrays) of value f, step size
    eta and squared step norm sq from a point of value f0.  A strict decrease
    is required: once the sufficient-decrease term rounds to zero, a plain <=
    would accept ties forever."""
    return (f < f0) & (f <= f0 - (ARMIJO_SIGMA / eta) * sq)


@dataclass(eq=False)
class LocalDensityCertificate:
    d_star: float
    witness: np.ndarray
    method: str
    gap_bound: float

    def occupancy_witness(self, measures) -> np.ndarray:
        """Set witness: per-block occupancy t with max_i t_i = 1 achieving d_star."""
        mu = np.asarray(measures, dtype=float)
        ratio = self.witness / mu
        scale = float(ratio.max())
        if scale <= 0.0:
            return np.zeros_like(self.witness)
        return np.clip(ratio / scale, 0.0, 1.0)

    def to_json(self) -> dict:
        gap = float(self.gap_bound)
        return {
            "d_star": float(self.d_star),
            "witness": [float(x) for x in self.witness],
            "method": self.method,
            # an estimate carries no gap bound; inf is not valid JSON
            "gap_bound": gap if math.isfinite(gap) else None,
        }


def project_to_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorting method) of
    a vector, or of each row of a stack, each row as if projected alone."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    u = np.sort(y, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    # rho: the last index where u - css / (index + 1) > 0
    rho = n - 1 - np.argmax((u - css / np.arange(1, n + 1) > 0)[..., ::-1], axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho, axis=-1) / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


@lru_cache(maxsize=32)
def _upper(n: int) -> np.ndarray:
    """The pairs i < j of n blocks as a read-only boolean (n, n) mask, cached:
    masking a stack with it is cheaper than np.triu on the stack."""
    mask = ~np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _convexity_edges(Bs: np.ndarray) -> np.ndarray:
    """The convexity graph of each matrix of the stack Bs (shape (k, n, n)),
    as a boolean (k, n, n) array that holds its upper triangle: [h, i, j] for
    i < j says whether c_ij = b_ii + b_jj - 2 b_ij >= 0 in exact arithmetic
    on the stored entries.  The diagonal and the lower triangle are False.

    The float c = fl(fl(b_ii + b_jj) - 2 b_ij) never has the wrong sign:
    doubling is exact, rounding to nearest is monotone, so b_ii + b_jj below
    (above) 2 b_ij leaves fl(b_ii + b_jj) at most (at least) 2 b_ij, and a
    difference of two doubles is 0 only when they are equal.  Where c is 0,
    fl(b_ii + b_jj) = 2 b_ij, and the exact c is the rounding error of the
    sum, which TwoSum (Knuth, TAOCP vol. 2, 4.2.2) gives exactly.  So a
    rounding error never drops an edge, nor adds one.  The decision is made
    on the whole square, with no gather, and masked: that is fewer numpy
    calls than deciding the off-diagonal pairs alone."""
    d = np.diagonal(Bs, axis1=1, axis2=2)
    a, b = d[:, :, None], d[:, None, :]
    s = a + b
    c = s - 2.0 * Bs
    virtual = s - a
    c = np.where(c == 0.0, (a - (s - virtual)) + (b - virtual), c)
    return (c >= 0.0) & _upper(Bs.shape[1])


# Bound of the clique cache: its entries, and the bytes one entry may hold
# at worst (see _cliques)
CLIQUE_CACHE_SIZE = 64
CLIQUE_ENTRY_BYTES = 2**18


def _complete_bytes(n: int) -> int:
    """The bytes of the classes of a complete graph on n vertices: owner
    and sets of every clique of r >= 2 vertices, 8 (r + 1) bytes each."""
    return 8 * ((2**n - 1 - n) + n * (2 ** (n - 1) - 1))


def _cliques(edges: np.ndarray) -> list:
    """The cliques of two or more vertices of each graph of the stack edges
    (upper triangles, as from _convexity_edges), one non-empty class per
    cardinality r = 2, 3, ...: (owner, sets), each clique's matrix and its
    vertices as a row of sets (shape (m, r)), in (matrix, lexicographic)
    order.  The pairs are the first class, the edges themselves.

    The classes are cached by the stack (_cached_cliques).  A stack of k
    graphs on n vertices holds k * _complete_bytes(n) bytes at worst, when
    every graph is complete; one that could hold more than
    CLIQUE_ENTRY_BYTES is grown afresh each call.  So one graph is kept up
    to n = 12 (224 KiB) and not from n = 13 (480 KiB), and the cache holds
    at most CLIQUE_CACHE_SIZE * 256 KiB = 16 MiB."""
    k, n, _ = edges.shape
    if k * _complete_bytes(n) > CLIQUE_ENTRY_BYTES:
        return _grown_cliques(edges)
    return list(_cached_cliques(edges.shape, edges.tobytes()))


@lru_cache(maxsize=CLIQUE_CACHE_SIZE)
def _cached_cliques(shape: tuple, data: bytes) -> tuple:
    """_grown_cliques of the boolean stack of the given shape and bytes,
    its arrays read-only."""
    classes = tuple(_grown_cliques(np.frombuffer(data, dtype=bool).reshape(shape)))
    for owner, sets in classes:
        owner.flags.writeable = sets.flags.writeable = False
    return classes


def _grown_cliques(edges: np.ndarray) -> list:
    """The classes of _cliques, grown from the stack edges.

    Each r-clique is grown from the (r-1)-clique of its first r - 1 vertices
    by a common neighbour above its last vertex, starting from the single
    vertices; common holds those neighbours for every clique of a class.
    Children in parent order, new vertex ascending, are the lexicographic
    order, so no class is sorted and no other support is visited."""
    k, n, _ = edges.shape
    owner = np.arange(k).repeat(n)
    sets = np.tile(np.arange(n), k)[:, None]
    common = edges.reshape(k * n, n)
    classes = []
    while True:
        parent, new = np.nonzero(common)
        if len(parent) == 0:
            return classes
        owner = owner[parent]
        sets = np.concatenate([sets[parent], new[:, None]], axis=1)
        classes.append((owner, sets))
        common = common[parent] & edges[owner, new]


def _quadratic_values(xs: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """x^T S x for each row x of xs and S of subs, its terms x_i S_ij x_j
    added one by one in row-major order: the same order for every candidate,
    so a value does not depend on what else is solved."""
    m, r = xs.shape
    terms = (xs[:, :, None] * subs) * xs[:, None, :]
    return np.cumsum(terms.reshape(m, r * r), axis=1)[:, -1]


def _candidate_arrays(Bs: np.ndarray, cliques: list) -> tuple:
    """Candidate minimizers of the stack Bs (shape (k, n, n)) as three flat
    arrays (owner, values, witnesses): each candidate's matrix, its value and
    its witness.  Each matrix's candidates come in scan order, interleaved
    with the other matrices': vertices first, then the interior stationary
    points of the supports of cliques, class by class.

    This is the one enumerator.  cliques holds the supports of two or more
    blocks to solve, per cardinality (owner, sets) as from _cliques: each
    support's matrix and its blocks as a row of sets, in (matrix,
    lexicographic) order.  A support gets the same arithmetic whatever else
    is solved, so each candidate is bit for bit the one of enumerating every
    support.

    Each cardinality class of the whole stack is solved as one stacked KKT
    system, and the supports whose solution is strictly interior are kept,
    however ill-conditioned their system (module docstring).  Exactly
    singular systems, whose LU factorisation meets a zero pivot, get no
    solution and are dropped.

    Every step acts on each KKT system on its own, so a matrix's candidates
    are bit for bit the same whatever else is stacked with it."""
    k, n, _ = Bs.shape
    owners = [np.repeat(np.arange(k), n)]
    values = [Bs.diagonal(axis1=1, axis2=2).reshape(-1) + 0.0]  # a -0.0 diagonal gives d* = +0.0
    witnesses = [np.tile(np.eye(n), (k, 1))]
    for owner, sets in cliques:
        m, r = sets.shape
        subs = Bs[owner[:, None, None], sets[:, :, None], sets[:, None, :]]
        K = np.zeros((m, r + 1, r + 1))
        K[:, :r, :r] = 2.0 * subs
        K[:, :r, r] = -1.0
        K[:, r, :r] = 1.0
        rhs = np.zeros((m, r + 1, 1))
        rhs[:, r, 0] = 1.0
        try:
            sols = np.linalg.solve(K, rhs)[:, :r, 0]
        except np.linalg.LinAlgError:
            # slogdet and solve factorise alike, so the sign is 0 exactly at
            # a zero pivot (a det could underflow to 0 on a regular system);
            # those rows stay outside the simplex
            signs, _ = np.linalg.slogdet(K)
            regular = signs != 0.0
            sols = np.full((m, r), -1.0)
            sols[regular] = np.linalg.solve(K[regular], rhs[regular])[:, :r, 0]
        inner = np.nonzero(np.all(sols > 0.0, axis=1))[0]
        if len(inner) == 0:
            continue
        owner, sets, xs = owner[inner], sets[inner], sols[inner]
        picked = np.zeros((len(inner), n))
        picked[np.arange(len(inner))[:, None], sets] = xs
        owners.append(owner)
        values.append(_quadratic_values(xs, subs[inner]))
        witnesses.append(picked)
    return np.concatenate(owners), np.concatenate(values), np.concatenate(witnesses)


def _certified_stack(Bs: np.ndarray) -> tuple:
    """Guard and select for the stack Bs (shape (k, n, n)), after charging
    its 2^n supports per matrix: (owner, values, witnesses) as from
    _candidate_arrays, in scan order, and best, the row of each matrix's
    certificate, which is its first candidate of least value in scan order.

    Every matrix goes through _candidate_arrays, on the cliques of its
    convexity graph, pairs included: every candidate is a vertex or a
    stationary point interior to a clique support, and every local minimizer
    is among them (module docstring).  A pair off the graph is never solved:
    an interior stationary point of a pair with c_ij < 0 is a maximum along
    its edge.  A matrix with a zero diagonal entry has d* = 0, attained at
    that vertex, and no support can go below it, so its graph gets no edges
    and its candidates are its vertices.

    The charge stays 2^n supports per matrix, an upper bound on the supports
    visited, vertices included.  It is made before the graphs are known, and
    no smaller bound holds in advance: the convexity graph of a constant
    graphon is complete, so all 2^n - 1 of its supports are visited."""
    k, n, _ = Bs.shape
    charge(2**n, DEFAULT_SUPPORT_BUDGET, "exact solver", "supports")
    live = np.all(np.diagonal(Bs, axis1=1, axis2=2) != 0.0, axis=1)
    edges = _convexity_edges(Bs) & live[:, None, None]
    owner, values, witnesses = _candidate_arrays(Bs, _cliques(edges))
    # by matrix, then value; the sort is stable, so a tie keeps scan order
    order = np.lexsort((values, owner))
    best = order[np.searchsorted(owner[order], np.arange(k))]
    return owner, values, witnesses, best


def _certificate(values: np.ndarray, witnesses: np.ndarray, row: int) -> LocalDensityCertificate:
    return LocalDensityCertificate(float(values[row]), witnesses[row], "exact_support_enumeration", 0.0)


def local_density_exact(W: StepGraphon) -> LocalDensityCertificate:
    """Global minimum of x^T B x over the simplex by enumerating the vertices
    and the clique supports of the convexity graph, pairs included.

    Deterministic: supports are scanned by cardinality then lexicographically,
    and ties keep the first witness found.  Raises BudgetExceededError when
    2^n exceeds DEFAULT_SUPPORT_BUDGET (or GRAPHONLAB_BUDGET).
    """
    _, values, witnesses, best = _certified_stack(W.values[None])
    return _certificate(values, witnesses, int(best[0]))


def local_density_subgradient(W: StepGraphon, tie_tol: float = 1e-10):
    """(per-entry subgradient matrix, certificate): averaged witness outer
    products over the tie set, the global minimizers within tie_tol of the
    optimum.

    The tie set is every candidate within tie_tol of d*: the vertices and the
    stationary points interior to clique supports of the convexity graph
    (see local_density_subgradients), those of nearly degenerate faces
    included.  For symmetric directions D, the directional derivative of d*
    at W is sum_ij P_ij D_ij with P the returned matrix (exact when the
    minimizer is unique)."""
    return local_density_subgradients(W.values[None], tie_tol)[0]


def _averaged_outer(xs: np.ndarray) -> np.ndarray:
    """Mean of x x^T over the distinct rows x of xs (rows equal after
    rounding to 10 digits count once, by their first), summed in row order.

    A stable lexicographic sort puts equal keys next to each other, the
    first of them in front; np.sum along the leading axis adds the outer
    products one after another from 0.0, as a loop would."""
    keys = np.round(xs, 10) + 0.0  # -0.0 and 0.0 are one key
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    witnesses = xs[np.sort(order[first])]
    P = np.sum(witnesses[:, :, None] * witnesses[:, None, :], axis=0)
    P /= len(witnesses)
    return P


def local_density_subgradients(Bs, tie_tol: float = 1e-10) -> list:
    """local_density_subgradient for each value matrix of the stack Bs
    (shape (k, n, n)): a list of (P, certificate) pairs, bit for bit those of
    the one-graphon calls.  All matrices go through the support enumeration
    together.  The matrices are not validated: each must be symmetric with
    entries in [0, 1], as StepGraphon values are.

    The tie set of a matrix is its candidates within tie_tol of the optimum:
    its vertices, and its stationary points interior to the supports that are
    cliques of its convexity graph (pairs included), within tie_tol.  A
    stationary point on any other support is a saddle or a maximum, never a
    minimizer, so it is not in the tie set even when its value is within
    tie_tol.  A nearly degenerate clique face, whose KKT system is
    ill-conditioned, is solved like any other, so its interior stationary
    point enters the tie set too: on 0.5 J + 1e-12 I every support's
    barycenter lies within tie_tol = 1e-10.  A matrix with a zero diagonal
    entry has no clique supports, so its tie set is its vertices within
    tie_tol.  Most matrices have one candidate in it, the certificate's
    witness x, and P = x x^T for all of them at once: the same bits as
    averaging one outer product.  Real tie sets go through
    _averaged_outer one matrix at a time.

    The solver charges 2^n supports per stack, whatever the graphs: an upper
    bound on the supports it visits, which a constant graphon, whose
    convexity graph is complete, reaches but for one (see _certified_stack)."""
    Bs = np.asarray(Bs, dtype=float)
    if Bs.ndim != 3 or Bs.shape[1] != Bs.shape[2] or Bs.shape[1] < 1:
        raise ValueError(f"expected a stack of non-empty square matrices, got shape {Bs.shape}")
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    k = len(Bs)
    owner, values, witnesses, best = _certified_stack(Bs)
    tied = values <= values[best][owner] + tie_tol
    ties = np.bincount(owner[tied], minlength=k)
    x = witnesses[best]
    P = x[:, :, None] * x[:, None, :]
    for j in np.flatnonzero(ties > 1).tolist():
        P[j] = _averaged_outer(witnesses[tied & (owner == j)])
    return [(P[j], _certificate(values, witnesses, row)) for j, row in enumerate(best.tolist())]


def _dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """np.dot of each row of U with the same row of V, bit for bit on this
    numpy/BLAS build: np.matmul rounds each of a stack as alone (pinned)."""
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def _pgd(B: np.ndarray, X: np.ndarray) -> tuple:
    """Projected gradient descent on x^T B x with Armijo steps from each row
    of X in lockstep: (values, points), each bit for bit its descent alone.
    Each round, the starts on a new point get their gradient and leave once
    stationary or after PGD_MAX_ITERATIONS steps; every live start then tries
    its current rung of ARMIJO_LADDER, and leaves when the ladder runs out."""
    X = X.copy()
    values = _dots(np.matmul(X[:, None, :], B)[:, 0], X)
    G = np.empty_like(X)
    rungs = np.zeros(len(X), dtype=int)
    steps = np.zeros(len(X), dtype=int)
    live = fresh = np.arange(len(X))
    while len(live):
        x = X[fresh]
        G[fresh] = g = 2.0 * np.matmul(B, x[:, :, None])[:, :, 0]
        D = x - project_to_simplex(x - g)
        done = (steps[fresh] == PGD_MAX_ITERATIONS) | (np.sqrt(_dots(D, D)) <= PGD_STOP_TOL)
        live = np.setdiff1d(live, fresh[done], assume_unique=True)
        x, etas = X[live], ARMIJO_LADDER[rungs[live]]
        trials = project_to_simplex(x - etas[:, None] * G[live])
        S = trials - x
        f = _dots(np.matmul(trials[:, None, :], B)[:, 0], trials)
        passed = _decreases(f, values[live], etas, _dots(S, S))
        fresh = live[passed]
        X[fresh], values[fresh], steps[fresh] = trials[passed], f[passed], steps[fresh] + 1
        rungs[live] = np.where(passed, 0, rungs[live] + 1)
        live = live[rungs[live] < len(ARMIJO_LADDER)]
    return values, X


def local_density_estimate(W: StepGraphon, starts: int = 20, seed: int = 0) -> LocalDensityCertificate:
    """Upper bound on d* by projected gradient descent with Armijo steps.

    Runs from the barycenter, every vertex, every pair midpoint, and `starts`
    Dirichlet samples, all in lockstep (_pgd), and keeps the first start of
    least value; the extra deterministic starts make small instances agree
    with the exact solver in practice.  Deterministic for a fixed seed.
    Raises BudgetExceededError, before any descent, when the starts times
    n * n exceed DEFAULT_ESTIMATE_BUDGET (or GRAPHONLAB_BUDGET).
    """
    n = W.n
    count = 1 + n + n * (n - 1) // 2 + max(starts, 0)
    charge(count * n * n, DEFAULT_ESTIMATE_BUDGET, f"PGD with {count} starts on {n} blocks", "cells")
    vertices, (i, j) = np.eye(n), np.triu_indices(n, 1)
    dirichlet = np.random.default_rng(seed).dirichlet(np.ones(n), size=max(starts, 0))
    X = np.concatenate([np.full((1, n), 1.0 / n), vertices, 0.5 * (vertices[i] + vertices[j]), dirichlet])
    values, points = _pgd(W.values, X)
    best = int(np.argmin(values))
    return LocalDensityCertificate(float(values[best]), points[best], "projected_gradient", math.inf)


def _simplex_lattice(n: int, resolution: int) -> np.ndarray:
    """Every x in N^n summing to resolution, in lexicographic order: the gaps
    between n - 1 bars among resolution + n - 1 slots (stars and bars)."""
    slots = resolution + n - 1
    count = math.comb(slots, n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), n - 1)),
        dtype=np.int64,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    fences = np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, slots)))
    return np.diff(fences, axis=1) - 1


def grid_certificate(W: StepGraphon, resolution: int) -> LocalDensityCertificate:
    """Minimum of x^T B x over the simplex lattice with the given resolution,
    with its lattice point as witness.

    A brute-force upper bound used to sanity-check the exact solver."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    n = W.n
    charge(math.comb(resolution + n - 1, n - 1), DEFAULT_GRID_BUDGET, "grid", "lattice points")
    X = _simplex_lattice(n, resolution) / float(resolution)
    vals = np.einsum("ki,ki->k", X @ W.values, X)
    idx = int(np.argmin(vals))
    return LocalDensityCertificate(float(vals[idx]), X[idx], "grid", math.inf)


def local_density_grid_oracle(W: StepGraphon, resolution: int) -> float:
    """The value of grid_certificate."""
    return grid_certificate(W, resolution).d_star


def is_locally_dense(W: StepGraphon, d: float, tol: float = 1e-9) -> bool:
    """Whether d*(W) >= d - tol, decided by the exact solver."""
    return local_density_exact(W).d_star >= d - tol
