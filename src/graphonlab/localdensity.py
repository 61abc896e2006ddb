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
can be skipped safely.  Every support's system is solved first; the condition
number, an SVD, is computed only for the solutions that are strictly
interior, which are the only ones kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budget import resolve_budget
from .errors import BudgetExceededError
from .stepgraphon import StepGraphon

DEFAULT_MAX_EXACT_BLOCKS = 18  # 2**18 supports
CONDITION_LIMIT = 1e12
DEFAULT_GRID_BUDGET = 10**7
PGD_MAX_ITERATIONS = 10**4
PGD_STOP_TOL = 1e-10
ARMIJO_SIGMA = 1e-4
ARMIJO_FACTOR = 0.5


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


def _candidate_arrays(Bs: np.ndarray) -> list:
    """Candidate minimizers for each matrix of the stack Bs (shape (k, n, n)):
    one (values, witnesses) array pair per matrix, in scan order: vertices
    first, then interior stationary points of each support, by increasing
    cardinality with supports lexicographic.

    Each cardinality class of the whole stack is solved as one stacked KKT
    system.  Only the supports whose solution is strictly interior are then
    gated: those whose system has condition number beyond CONDITION_LIMIT are
    dropped (their minimizers reappear on sub-supports).  Solving first and
    gating the few interior rows keeps the same candidates as gating every
    row, at a fraction of the SVDs.  Exactly singular systems, whose LU
    factorisation meets a zero pivot, get no solution and are dropped too.
    Every step acts on each KKT system on its own, so a matrix's candidates
    are bit for bit the same whatever else is stacked with it."""
    k, n, _ = Bs.shape
    owners = [np.repeat(np.arange(k), n)]
    values = [Bs.diagonal(axis1=1, axis2=2).reshape(-1)]
    witnesses = [np.tile(np.eye(n), (k, 1))]
    for combos in _supports_by_cardinality(n):
        m, r = combos.shape
        subs = Bs[:, combos[:, :, None], combos[:, None, :]].reshape(k * m, r, r)
        K = np.zeros((k * m, r + 1, r + 1))
        K[:, :r, :r] = 2.0 * subs
        K[:, :r, r] = -1.0
        K[:, r, :r] = 1.0
        rhs = np.zeros((k * m, r + 1, 1))
        rhs[:, r, 0] = 1.0
        try:
            sols = np.linalg.solve(K, rhs)[:, :r, 0]
        except np.linalg.LinAlgError:
            # det and solve factorise alike, so a zero pivot makes the det 0
            # (a det that underflows to 0 belongs to a system far beyond
            # CONDITION_LIMIT); those rows stay outside the simplex
            dets = np.linalg.det(K)
            regular = np.isfinite(dets) & (dets != 0.0)
            sols = np.full((k * m, r), -1.0)
            sols[regular] = np.linalg.solve(K[regular], rhs[regular])[:, :r, 0]
        rows = np.nonzero(np.all(sols > 0.0, axis=1))[0]
        if len(rows) == 0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            conds = np.linalg.cond(K[rows])
        rows = rows[np.isfinite(conds) & (conds <= CONDITION_LIMIT)]
        if len(rows) == 0:
            continue
        owner, support = np.divmod(rows, m)
        xs = sols[rows]
        picked = np.zeros((len(rows), n))
        np.put_along_axis(picked, combos[support], xs, axis=1)
        owners.append(owner)
        values.append(_quadratic_values(xs, subs[rows], owner, k))
        witnesses.append(picked)
    # group by matrix; the stable sort keeps each matrix's scan order
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    values = np.concatenate(values)[order]
    witnesses = np.concatenate(witnesses)[order]
    ends = np.cumsum(np.bincount(owner, minlength=k)).tolist()
    return [(values[a:b], witnesses[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _exact_block_limit(max_blocks: int | None) -> int:
    if max_blocks is not None:
        return int(max_blocks)
    budget = resolve_budget(None, float(2**DEFAULT_MAX_EXACT_BLOCKS))
    return max(1, int(math.floor(math.log2(budget))))


def _certified_stack(Bs: np.ndarray, max_blocks: int | None = None) -> list:
    """Guard and select for the stack Bs (shape (k, n, n)): one
    (certificate, values, witnesses) triple per matrix, after checking n
    against the exact-solver block limit.

    A matrix with a zero diagonal entry has d* = 0; its candidates are its
    zero-diagonal vertices and no support is enumerated.  The others go
    through _candidate_arrays together.  The certificate is the first
    candidate of least value, in scan order."""
    k, n, _ = Bs.shape
    max_blocks = _exact_block_limit(max_blocks)
    if n > max_blocks:
        raise BudgetExceededError(f"{n} blocks exceed the exact-solver limit of {max_blocks}")
    diags = np.diagonal(Bs, axis1=1, axis2=2)
    live = np.all(diags != 0.0, axis=1)
    found = iter(_candidate_arrays(Bs[live]) if np.any(live) else ())
    out = []
    for diag, is_live in zip(diags, live):
        if is_live:
            vals, xs = next(found)
        else:
            xs = np.eye(n)[diag == 0.0]
            vals = np.zeros(len(xs))
        i = int(np.argmin(vals))
        cert = LocalDensityCertificate(float(vals[i]), xs[i], "exact_support_enumeration", 0.0)
        out.append((cert, vals, xs))
    return out


def local_density_exact(W: StepGraphon, max_blocks: int | None = None) -> LocalDensityCertificate:
    """Global minimum of x^T B x over the simplex by support enumeration.

    Deterministic: supports are scanned by cardinality then lexicographically,
    and ties keep the first witness found.
    """
    ((cert, _, _),) = _certified_stack(W.values[None], max_blocks)
    return cert


def local_density_subgradient(W: StepGraphon, tie_tol: float = 1e-10):
    """(per-entry subgradient matrix, certificate): averaged witness outer
    products over all global minimizers within tie_tol of the optimum.

    For symmetric directions D, the directional derivative of d* at W is
    sum_ij P_ij D_ij with P the returned matrix (exact when the minimizer is
    unique)."""
    return local_density_subgradients(W.values[None], tie_tol)[0]


def local_density_subgradients(Bs, tie_tol: float = 1e-10) -> list:
    """local_density_subgradient for each value matrix of the stack Bs
    (shape (k, n, n)): a list of (P, certificate) pairs, bit for bit those of
    the one-graphon calls.  All matrices go through the support enumeration
    together.  The matrices are not validated: each must be symmetric with
    entries in [0, 1], as StepGraphon values are."""
    Bs = np.asarray(Bs, dtype=float)
    if Bs.ndim != 3 or Bs.shape[1] != Bs.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {Bs.shape}")
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    out = []
    for cert, vals, xs in _certified_stack(Bs):
        # distinct witnesses within tie_tol of the optimum; at a zero diagonal
        # these are all the zero-diagonal vertices
        witnesses = []
        seen = set()
        for j in np.nonzero(vals <= cert.d_star + tie_tol)[0]:
            key = tuple(np.round(xs[j], 10))
            if key not in seen:
                seen.add(key)
                witnesses.append(xs[j])
        P = np.zeros(Bs.shape[1:])
        for x in witnesses:
            P += np.outer(x, x)
        P /= len(witnesses)
        out.append((P, cert))
    return out


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
    """
    n = W.n
    B = W.values
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
    if n == 1:
        return np.array([[resolution]], dtype=np.int64)
    rows = []
    for first in range(resolution + 1):
        rest = _simplex_lattice(n - 1, resolution - first)
        block = np.empty((rest.shape[0], n), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


def grid_certificate(W: StepGraphon, resolution: int, budget: float | None = None) -> LocalDensityCertificate:
    """Minimum of x^T B x over the simplex lattice with the given resolution,
    with its lattice point as witness.

    A brute-force upper bound used to sanity-check the exact solver."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    budget = resolve_budget(budget, DEFAULT_GRID_BUDGET)
    n = W.n
    count = math.comb(resolution + n - 1, n - 1)
    if count > budget:
        raise BudgetExceededError(
            f"{count} grid points exceed budget {budget:g}"
        )
    X = _simplex_lattice(n, resolution) / float(resolution)
    vals = np.einsum("ki,ki->k", X @ W.values, X)
    idx = int(np.argmin(vals))
    return LocalDensityCertificate(float(vals[idx]), X[idx], "grid", math.inf)


def local_density_grid_oracle(W: StepGraphon, resolution: int, budget: float | None = None) -> float:
    """The value of grid_certificate."""
    return grid_certificate(W, resolution, budget).d_star


def is_locally_dense(W: StepGraphon, d: float, tol: float = 1e-9) -> bool:
    """Whether d*(W) >= d - tol, decided by the exact solver."""
    return local_density_exact(W).d_star >= d - tol
