"""Local density of a step graphon as a standard quadratic program.

The local density d*(W) is the largest d such that every measurable set S
satisfies int_{S x S} W >= d |S|^2.  For a step graphon, writing a candidate
set through per-block masses x_i >= 0 and using scale invariance of the ratio
reduces this to minimizing x^T B x over the probability simplex.

The minimum of a quadratic over the simplex is attained either at a vertex or
at a point in the relative interior of a face where the equality-constrained
stationarity system holds.  Enumerating every support therefore yields the
exact optimum: boundary minimizers of one face reappear as interior or vertex
candidates of a sub-face, so singular or ill-conditioned stationarity systems
can be skipped safely.  Every support's system is solved first, and only the
solutions that are strictly interior are gated by condition number.  A
determinant bound clears almost all of them; the condition number itself, an
SVD, is computed only for the few the bound cannot clear.

From LOCATE_MIN_BLOCKS blocks on, the solve is locate-then-certify.

* Locate: every support's KKT inverse is grown from its parent's (the
  support without its last index) by a bordered update, O(r^2) per support
  where an LU costs O(r^3).  This gives an approximate value, the smallest
  component of the approximate solution, and the pivot of each support.
* Trust: a support whose pivot is not finite, is tiny next to the terms
  that make it, or whose inverse grows too large, is untrusted, and so is
  every support grown from it.  A trusted support carries an error margin.
* Certify: the one enumerator, _candidate_arrays, solves with its own
  arithmetic (stacked solve, gate, values) only every pair, every untrusted
  support, and every trusted support that may be interior and within the
  tie tolerance plus its margin of an upper bound on the optimum.  The pairs
  are all certified because the summation order of a pair's value depends
  on how many pair candidates its matrix keeps.  A matrix whose certified
  optimum exceeds the bound is certified again over the band of its
  certified optimum.
The candidates certified are bits of the full enumeration in its order, and
they hold the argmin and every candidate within the tie tolerance, so values,
witnesses and tie sets are those of full enumeration.  Below the threshold
the locate pass costs more than it saves, and every support is solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budget import DEFAULT_ESTIMATE_BUDGET, DEFAULT_GRID_BUDGET, DEFAULT_SUPPORT_BUDGET, charge
from .stepgraphon import StepGraphon

CONDITION_LIMIT = 1e12
LOCATE_MIN_BLOCKS = 10  # below this many blocks every support is certified
PIVOT_TOLERANCE = 1e-6  # a smaller pivot, relative to its terms, is untrusted
GROWTH_LIMIT = 1e6  # a KKT inverse this large in max norm is untrusted
LOCATE_SAFETY = 1e3  # margin over the modelled error of a located support
PGD_MAX_ITERATIONS = 10**4
PGD_STOP_TOL = 1e-10
ARMIJO_SIGMA = 1e-4  # sufficient-decrease coefficient
ARMIJO_FACTOR = 0.5  # step shrink per backtrack


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
    """Euclidean projection onto the probability simplex (sorting method)."""
    y = np.asarray(y, dtype=float)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(y) + 1)
    rho = np.nonzero(u - css / ind > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


@lru_cache(maxsize=32)
def _supports_by_cardinality(n: int) -> tuple:
    """One index array per cardinality r >= 2, rows in lexicographic order."""
    out = []
    for r in range(2, n + 1):
        combos = np.array(list(itertools.combinations(range(n), r)), dtype=np.intp)
        combos.flags.writeable = False
        out.append(combos)
    return tuple(out)


@lru_cache(maxsize=32)
def _parents(n: int) -> tuple:
    """For each class of _supports_by_cardinality(n): the row of each
    support's parent (the support without its last index) in the class
    before, or for the pairs the vertex; the parent's indices after a
    leading n; and the last index.  Children in parent order, last index
    ascending, are the lexicographic order, so each parent's children are one
    run."""
    out = []
    last = np.arange(n)
    for combos in _supports_by_cardinality(n):
        parent = np.repeat(np.arange(len(last)), n - 1 - last)
        border = np.concatenate([np.full((len(combos), 1), n), combos[:, :-1]], axis=1)
        last = combos[:, -1]
        for array in (parent, border):
            array.flags.writeable = False
        out.append((parent, border, last))
    return tuple(out)


def _locate(Bs: np.ndarray) -> list:
    """Approximate stationary points of every support of the stack Bs
    (shape (k, n, n)), per class of _supports_by_cardinality(n): arrays
    (value, lowest, margin, trusted), each of shape (k, m).

    Each support's KKT inverse is grown from its parent's by bordering.  With
    the symmetric KKT matrix M = [[0, 1^T], [1, 2 B_S]] (unknowns -lambda and
    x_S) and G its inverse, appending index j with border u = (1, 2 B_Sj) and
    corner d = 2 B_jj gives the pivot s = d - u^T G u and the inverse
    [[G + a a^T / s, -a / s], [-a^T / s, 1 / s]] with a = G u: O(r^2) per
    support instead of an O(r^3) LU.  The first column of the inverse is the
    solution: -2 times the value and then x.

    A support is trusted when its parent is, its pivot is finite and above
    PIVOT_TOLERANCE times the magnitude of the terms that make it, and its
    inverse stays below GROWTH_LIMIT in max norm.  The error of a trusted
    value or component is modelled as eps ||M|| max(||G||, 1)^2 in max
    norms (the first-order change of an inverse under a backward error
    eps ||M||; on random and near-singular families the measured error
    stayed below 0.7 times eps ||G||^2) and returned, times LOCATE_SAFETY,
    as its margin.  An untrusted support's margin is NaN, which keeps it out
    of every comparison; the pass runs under np.errstate, since a zero pivot
    makes infinities and NaNs there by design."""
    k, n, _ = Bs.shape
    # the border: row n holds the ones of the constraint, so u is one gather
    D = np.empty((k, n + 1, n))
    D[:, :n] = 2.0 * Bs
    D[:, n] = 1.0
    corners = np.diagonal(D, axis1=1, axis2=2)
    # a vertex: M = [[0, 1], [1, d]] has the inverse [[-d, 1], [1, 0]]
    G = np.empty((k * n, 2, 2))
    G[:, 0, 0] = -corners.reshape(-1)
    G[:, 0, 1] = G[:, 1, 0] = 1.0
    G[:, 1, 1] = 0.0
    # each trusted support's row in G, -1 for the others
    slot = np.arange(k * n).reshape(k, n)
    # entries in [0, 1] make ||M|| <= 2 in max norm
    scale = 2.0 * LOCATE_SAFETY * np.finfo(float).eps
    out = []
    with np.errstate(all="ignore"):
        for parent, border, last in _parents(n):
            m, r = border.shape
            rows = slot[:, parent].reshape(-1)
            # only the children of trusted supports are grown
            grown = np.flatnonzero(rows >= 0)
            if len(grown) == 0:  # so is every later class
                slot = np.full((k, m), -1)
                out.append((*np.full((3, k, m), np.nan), slot >= 0))
                continue
            u = D[:, border, last[:, None]].reshape(k * m, r)[grown]
            d = corners[:, last].reshape(-1)[grown]
            inverse = G[rows[grown]]
            a = np.einsum("mij,mj->mi", inverse, u)
            terms = u * a
            s = d - terms.sum(axis=1)
            h = a / -s[:, None]
            G = np.empty((len(grown), r + 1, r + 1))
            np.subtract(inverse, np.einsum("mi,mj->mij", a, h), out=G[:, :r, :r])
            G[:, :r, r] = h
            G[:, r, :r] = h
            G[:, r, r] = 1.0 / s
            size = np.abs(G).max(axis=(1, 2))
            pivot_ok = np.abs(s) > PIVOT_TOLERANCE * (np.abs(d) + np.abs(terms).sum(axis=1))
            trusted = pivot_ok & (size < GROWTH_LIMIT)
            value, lowest, margin = np.full((3, k * m), np.nan)
            value[grown] = -0.5 * G[:, 0, 0]
            lowest[grown] = G[:, 1:, 0].min(axis=1)
            # NaN margins keep untrusted supports out of every comparison
            margin[grown] = scale * np.maximum(np.where(trusted, size, np.nan), 1.0) ** 2
            slot = np.full(k * m, -1)
            slot[grown[trusted]] = np.arange(np.count_nonzero(trusted))
            if len(G) > np.count_nonzero(trusted):
                G = G[trusted]
            slot = slot.reshape(k, m)
            out.append((value.reshape(k, m), lowest.reshape(k, m), margin.reshape(k, m), slot >= 0))
    return out


def _band_rows(located: list, bound: np.ndarray, tie_tol: float) -> list:
    """The rows of each class (flat over the stack, as _candidate_arrays
    takes them) to certify, given an upper bound on each matrix's least
    value: every pair, every untrusted support, and every trusted one that
    may be interior and within tie_tol of the bound."""
    rows = []
    for value, lowest, margin, trusted in located:
        if not rows:  # the pairs
            rows.append(np.arange(value.size))
            continue
        near = (lowest > -margin) & (value - margin <= bound[:, None] + tie_tol)
        rows.append(np.flatnonzero(~trusted | near))
    return rows


def _located_candidates(Bs: np.ndarray, tie_tol: float) -> tuple:
    """_candidate_arrays(Bs) restricted to the candidates that can be a
    matrix's least value or within tie_tol of it: (owner, values, witnesses)
    with each matrix's candidates in scan order.

    The bound is the least of the diagonal and of value + margin over the
    trusted supports surely interior (lowest > margin).  After certifying,
    a matrix whose certified least value exceeds its bound (the bound rested
    on a support the gate dropped, or on a located value off by more than its
    margin) is certified again over the band of its certified least value,
    which holds the first band's rows: a bound too low costs work, never a
    candidate."""
    k = len(Bs)
    located = _locate(Bs)
    bound = np.diagonal(Bs, axis1=1, axis2=2).min(axis=1)
    for value, lowest, margin, trusted in located:
        sure = np.where(trusted & (lowest > margin), value + margin, np.inf)
        bound = np.minimum(bound, sure.min(axis=1))
    owner, values, witnesses = _candidate_arrays(Bs, _band_rows(located, bound, tie_tol))
    lows = np.full(k, np.inf)
    np.minimum.at(lows, owner, values)
    redo = np.flatnonzero(lows > bound)
    if len(redo):
        again = [tuple(array[redo] for array in arrays) for arrays in located]
        owner2, values2, witnesses2 = _candidate_arrays(Bs[redo], _band_rows(again, lows[redo], tie_tol))
        stays = ~np.isin(owner, redo)
        owner = np.concatenate([owner[stays], redo[owner2]])
        values = np.concatenate([values[stays], values2])
        witnesses = np.concatenate([witnesses[stays], witnesses2])
    return owner, values, witnesses


def _quadratic_values(xs: np.ndarray, subs: np.ndarray, owner: np.ndarray, k: int) -> np.ndarray:
    """x^T S x for each row x of xs and S of subs; owner is the row's matrix
    among k.

    The terms x_i S_ij x_j are added one by one in row-major order, except on
    a 2 x 2 system that is its matrix's only candidate of the class, which
    adds its two row sums.  That is the order np.einsum("mi,mij,mj->m", ...)
    takes over one matrix's candidates, so the values match the one-matrix
    computation bit for bit; one einsum over a whole stack would sum such lone
    rows differently."""
    m, r = xs.shape
    terms = (xs[:, :, None] * subs) * xs[:, None, :]
    if r == 2:
        lone = np.bincount(owner, minlength=k)[owner] == 1
        row_sums = terms[:, :, 0] + terms[:, :, 1]
        in_order = (row_sums[:, 0] + terms[:, 1, 0]) + terms[:, 1, 1]
        return np.where(lone, row_sums[:, 0] + row_sums[:, 1], in_order)
    return np.cumsum(terms.reshape(m, r * r), axis=1)[:, -1]


def _condition_bounds(K: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """||K||_F^m / |det K| for each m x m matrix of the stack K, given its
    determinant: an upper bound on its 2-norm condition number (inf or nan
    where the det is 0 or not finite)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.einsum("kij,kij->k", K, K) ** (K.shape[-1] / 2) / np.abs(dets)


def _candidate_arrays(Bs: np.ndarray, rows=None) -> tuple:
    """Candidate minimizers of the stack Bs (shape (k, n, n)) as three flat
    arrays (owner, values, witnesses): each candidate's matrix, its value and
    its witness.  Each matrix's candidates come in scan order, interleaved
    with the other matrices': vertices first, then interior stationary points
    of each support, by increasing cardinality with supports lexicographic.

    This is the one enumerator.  With rows None every support is solved;
    otherwise rows holds, per class of _supports_by_cardinality(n), the
    sorted rows of the flattened (k, m) stack to solve (matrix * m +
    support), and the other supports are left out.  The selected rows get
    exactly the arithmetic below, so their candidates are bits of the full
    enumeration, in its order.  A pair's value depends on how many pair
    candidates its matrix keeps (see _quadratic_values), so a selection must
    hold every pair of a matrix.

    Each cardinality class of the whole stack is solved as one stacked KKT
    system.  Only the supports whose solution is strictly interior are then
    gated: those whose system has condition number beyond CONDITION_LIMIT are
    dropped (their minimizers reappear on sub-supports).  Solving first and
    gating the few interior rows keeps the same candidates as gating every
    row.  Exactly singular systems, whose LU factorisation meets a zero pivot,
    get no solution and are dropped too.

    The gate clears most rows without an SVD.  For an m x m matrix K with
    singular values s_1 >= ... >= s_m, |det K| = s_1 ... s_m <= s_1^(m-1) s_m
    and s_1 <= ||K||_F, so cond_2(K) = s_1 / s_m <= ||K||_F^m / |det K|.  A row
    whose bound is finite and at most CONDITION_LIMIT / 100 is kept; every
    other row (bound above that, a zero or a non-finite det) is kept only if
    np.linalg.cond says so, as before.  The factor 100 is margin for
    rounding.  LU is backward stable: the computed det is the exact det of
    K + E with ||E|| <= c eps ||K|| for a small c, which moves each singular
    value by at most ||E||.  If cond(K) > CONDITION_LIMIT = 1e12, then
    s_m < 1e-12 s_1, the perturbed s_m stays below (1e-12 + c eps) s_1, and
    the computed bound stays above about 1 / (1e-12 + c eps).  That reaches
    CONDITION_LIMIT / 100 only for c above about 4e5, far beyond the growth
    of partial pivoting on these systems; so the computed det cannot clear a
    system whose true condition number is above about 1e10, let alone one
    beyond CONDITION_LIMIT.  On a cleared row the SVD's own relative error
    is near eps * 1e10, so np.linalg.cond would keep it too, and the kept
    rows are exactly those it keeps.

    Every step acts on each KKT system on its own, so a matrix's candidates
    are bit for bit the same whatever else is stacked with it."""
    k, n, _ = Bs.shape
    owners = [np.repeat(np.arange(k), n)]
    values = [Bs.diagonal(axis1=1, axis2=2).reshape(-1)]
    witnesses = [np.tile(np.eye(n), (k, 1))]
    for i, combos in enumerate(_supports_by_cardinality(n)):
        m, r = combos.shape
        if rows is None:
            chosen = np.arange(k * m)
            subs = Bs[:, combos[:, :, None], combos[:, None, :]].reshape(k * m, r, r)
        else:
            chosen = rows[i]
            if len(chosen) == 0:
                continue
            sets = combos[chosen % m]
            subs = Bs[(chosen // m)[:, None, None], sets[:, :, None], sets[:, None, :]]
        K = np.zeros((len(chosen), r + 1, r + 1))
        K[:, :r, :r] = 2.0 * subs
        K[:, :r, r] = -1.0
        K[:, r, :r] = 1.0
        rhs = np.zeros((len(chosen), r + 1, 1))
        rhs[:, r, 0] = 1.0
        dets = None
        try:
            sols = np.linalg.solve(K, rhs)[:, :r, 0]
        except np.linalg.LinAlgError:
            # det and solve factorise alike, so a zero pivot makes the det 0
            # (a det that underflows to 0 belongs to a system far beyond
            # CONDITION_LIMIT); those rows stay outside the simplex
            dets = np.linalg.det(K)
            regular = np.isfinite(dets) & (dets != 0.0)
            sols = np.full((len(chosen), r), -1.0)
            sols[regular] = np.linalg.solve(K[regular], rhs[regular])[:, :r, 0]
        inner = np.nonzero(np.all(sols > 0.0, axis=1))[0]
        if len(inner) == 0:
            continue
        gated = K[inner]
        bounds = _condition_bounds(gated, np.linalg.det(gated) if dets is None else dets[inner])
        keep = np.isfinite(bounds) & (bounds <= CONDITION_LIMIT / 100)
        unclear = np.flatnonzero(~keep)
        if len(unclear):
            with np.errstate(divide="ignore", invalid="ignore"):
                conds = np.linalg.cond(gated[unclear])
            keep[unclear] = np.isfinite(conds) & (conds <= CONDITION_LIMIT)
        inner = inner[keep]
        if len(inner) == 0:
            continue
        owner, support = np.divmod(chosen[inner], m)
        xs = sols[inner]
        picked = np.zeros((len(inner), n))
        picked[np.arange(len(inner))[:, None], combos[support]] = xs
        owners.append(owner)
        values.append(_quadratic_values(xs, subs[inner], owner, k))
        witnesses.append(picked)
    return np.concatenate(owners), np.concatenate(values), np.concatenate(witnesses)


def _certified_stack(Bs: np.ndarray, tie_tol: float = 0.0) -> tuple:
    """Guard and select for the stack Bs (shape (k, n, n)), after charging
    its 2^n supports per matrix: (owner, values, witnesses) as from
    _candidate_arrays but grouped by matrix, and best, the row of each
    matrix's certificate, which is its first candidate of least value in scan
    order.

    A matrix with a zero diagonal entry has d* = 0; its candidates are its
    zero-diagonal vertices and no support is enumerated.  The others go
    through _candidate_arrays together: below LOCATE_MIN_BLOCKS blocks over
    every support, from it on through _located_candidates, which keeps every
    candidate within tie_tol of the least value (all the tie set needs) and
    the same argmin.  All 2^n supports are charged either way, since the
    locate pass visits them all.

    The threshold exists because the locate pass has a fixed cost, about
    thirty numpy calls per class on top of its O(r^2) work per support,
    that pays only where the O(r^3) solves it saves dominate.  On one
    uniform random matrix (2-core machine, OpenBLAS) it broke even at n = 9
    and took 0.88, 0.63 and 0.56 of the full solve's time at n = 10, 12 and
    14.  On near-low-rank inputs such as the walk kernel W_7 most supports
    are untrusted and certified anyway, and the pass is overhead."""
    k, n, _ = Bs.shape
    charge(2**n, DEFAULT_SUPPORT_BUDGET, "exact solver", "supports")
    diags = np.diagonal(Bs, axis1=1, axis2=2)
    live = np.flatnonzero(np.all(diags != 0.0, axis=1))
    dead, vertex = np.nonzero(diags == 0.0)
    if n >= LOCATE_MIN_BLOCKS:
        owner, values, witnesses = _located_candidates(Bs[live], tie_tol)
    else:
        owner, values, witnesses = _candidate_arrays(Bs[live])
    owner = np.concatenate([live[owner], dead])
    # group by matrix; the stable sort keeps each matrix's scan order
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    values = np.concatenate([values, np.zeros(len(dead))])[order]
    witnesses = np.concatenate([witnesses, np.eye(n)[vertex]])[order]
    # every matrix has a candidate (its vertices), so each segment is non-empty
    matrices = np.arange(k)
    lows = np.minimum.reduceat(values, np.searchsorted(owner, matrices))
    hits = np.flatnonzero(values == lows[owner])
    best = hits[np.searchsorted(owner[hits], matrices)]
    return owner, values, witnesses, best


def _certificate(values: np.ndarray, witnesses: np.ndarray, row: int) -> LocalDensityCertificate:
    return LocalDensityCertificate(float(values[row]), witnesses[row], "exact_support_enumeration", 0.0)


def local_density_exact(W: StepGraphon) -> LocalDensityCertificate:
    """Global minimum of x^T B x over the simplex by support enumeration.

    Deterministic: supports are scanned by cardinality then lexicographically,
    and ties keep the first witness found.
    """
    _, values, witnesses, best = _certified_stack(W.values[None])
    return _certificate(values, witnesses, int(best[0]))


def local_density_subgradient(W: StepGraphon, tie_tol: float = 1e-10):
    """(per-entry subgradient matrix, certificate): averaged witness outer
    products over all global minimizers within tie_tol of the optimum.

    For symmetric directions D, the directional derivative of d* at W is
    sum_ij P_ij D_ij with P the returned matrix (exact when the minimizer is
    unique)."""
    return local_density_subgradients(W.values[None], tie_tol)[0]


def _averaged_outer(xs: np.ndarray) -> np.ndarray:
    """Mean of x x^T over the distinct rows x of xs (rows equal after
    rounding to 10 digits count once), summed in row order."""
    witnesses = []
    seen = set()
    for x in xs:
        key = tuple(np.round(x, 10))
        if key not in seen:
            seen.add(key)
            witnesses.append(x)
    P = np.zeros((xs.shape[1], xs.shape[1]))
    for x in witnesses:
        P += np.outer(x, x)
    P /= len(witnesses)
    return P


def local_density_subgradients(Bs, tie_tol: float = 1e-10) -> list:
    """local_density_subgradient for each value matrix of the stack Bs
    (shape (k, n, n)): a list of (P, certificate) pairs, bit for bit those of
    the one-graphon calls.  All matrices go through the support enumeration
    together.  The matrices are not validated: each must be symmetric with
    entries in [0, 1], as StepGraphon values are.

    The tie set of a matrix is its candidates within tie_tol of the optimum
    (at a zero diagonal, all the zero-diagonal vertices).  Most matrices have
    one, the certificate's witness x, and P = x x^T for all of them at once:
    the same bits as averaging one outer product.  Real tie sets go through
    _averaged_outer one matrix at a time."""
    Bs = np.asarray(Bs, dtype=float)
    if Bs.ndim != 3 or Bs.shape[1] != Bs.shape[2] or Bs.shape[1] < 1:
        raise ValueError(f"expected a stack of non-empty square matrices, got shape {Bs.shape}")
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    k = len(Bs)
    owner, values, witnesses, best = _certified_stack(Bs, tie_tol)
    tied = values <= values[best][owner] + tie_tol
    ties = np.bincount(owner[tied], minlength=k)
    x = witnesses[best]
    P = x[:, :, None] * x[:, None, :]
    for j in np.flatnonzero(ties > 1).tolist():
        P[j] = _averaged_outer(witnesses[tied & (owner == j)])
    return [(P[j], _certificate(values, witnesses, row)) for j, row in enumerate(best.tolist())]


def _pgd(B: np.ndarray, x0: np.ndarray):
    x = x0
    fx = float(x @ B @ x)
    for _ in range(PGD_MAX_ITERATIONS):
        g = 2.0 * (B @ x)
        mapped = project_to_simplex(x - g)
        if float(np.linalg.norm(x - mapped)) <= PGD_STOP_TOL:
            break
        eta = 1.0
        accepted = False
        while eta > 1e-14:
            xn = project_to_simplex(x - eta * g)
            step = xn - x
            fn = float(xn @ B @ xn)
            # the strict inequality matters: once the sufficient-decrease term
            # rounds to zero the test would accept ties forever without it
            if fn < fx and fn <= fx - (ARMIJO_SIGMA / eta) * float(step @ step):
                accepted = True
                break
            eta *= ARMIJO_FACTOR
        if not accepted:
            break
        x, fx = xn, fn
    return fx, x


def local_density_estimate(W: StepGraphon, starts: int = 20, seed: int = 0) -> LocalDensityCertificate:
    """Upper bound on d* by projected gradient descent with Armijo steps.

    Runs from the barycenter, every vertex, every pair midpoint, and `starts`
    Dirichlet samples; the extra deterministic starts make small instances
    agree with the exact solver in practice.  Deterministic for a fixed seed.
    Raises BudgetExceededError, before any descent, when the starts times
    n * n exceed DEFAULT_ESTIMATE_BUDGET (or GRAPHONLAB_BUDGET).
    """
    n = W.n
    B = W.values
    count = 1 + n + n * (n - 1) // 2 + max(starts, 0)
    charge(count * n * n, DEFAULT_ESTIMATE_BUDGET, f"PGD with {count} starts on {n} blocks", "cells")
    rng = np.random.default_rng(seed)
    points = [np.full(n, 1.0 / n)]
    for i in range(n):
        x = np.zeros(n)
        x[i] = 1.0
        points.append(x)
    for i, j in itertools.combinations(range(n), 2):
        x = np.zeros(n)
        x[i] = x[j] = 0.5
        points.append(x)
    for _ in range(starts):
        points.append(rng.dirichlet(np.ones(n)))
    best_value = math.inf
    best_x = None
    for x0 in points:
        value, x = _pgd(B, x0)
        if value < best_value:
            best_value = value
            best_x = x
    return LocalDensityCertificate(best_value, best_x, "projected_gradient", math.inf)


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
