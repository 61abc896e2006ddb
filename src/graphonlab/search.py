"""Constrained minimization of homomorphism densities over step graphons.

Hunts for violations of t(H, W) >= d^e(H) among graphons with local density
at least d: minimize t(H, W) + lambda * max(0, d - d*(W))^2 over symmetric
values in [0, 1]^(n x n) (measures stay uniform), escalating lambda through a
fixed schedule.  The subgradient of d* comes from the witness outer product;
at degenerate minimizers the outer products of all tied witnesses are
averaged.

A best-so-far iterate is tracked across the whole run, and start 0 is the
constant-d graphon, which is feasible with ratio exactly 1; a run can only
improve on it.  The penalty method parks a little short of the constraint
(residual of order |grad t| / lambda_max), so candidates inside the
feasibility tolerance are first restored to certified feasibility by blending
toward the all-ones graphon (safe because d* is concave) and only then
compared by value.  The tolerance itself decides the feasible/infeasible
flag, not which value wins.

Each gradient step backtracks along eta = 1, 1/2, 1/4, ... (Armijo).  The
local densities of the trial points, the dominant cost, are solved in
batches: eta = 1 alone first, then the remaining steps LADDER_BLOCK at a time.
The block is walked in order, the objective evaluated per step, and the first
step the sequential sufficient-decrease rule accepts is taken, so the accepted
eta, and with it the whole search path, is exactly that of trying one step at
a time; solves past the accepted step are the price of batching.  Trial
graphons skip the StepGraphon checks (their values are symmetric and clipped
by construction); the reported best graphon is rebuilt and re-verified in
full.

The starts are independent, so they run in lockstep.  Each start is a
generator (_start_path) that yields the stack it needs solved next (its start
point, an eta = 1 trial or a ladder block); each round, _lockstep solves the
pending stacks of all live starts as one local_density_subgradients call and
sends every start its own slice.  A start leaves the round when its own rules
end it.  The solver treats each matrix on its own, so every start's path is
bit for bit the one it takes alone.  All starts track their points in one
_Bests record, which ranks them by (value, start), so a tie goes to the
earlier start as in a one-by-one run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .density import grad_hom_density, hom_density, per_entry_gradient
from .graphs import Graph, graph_to_json, subdivide
from .localdensity import (
    ARMIJO_FACTOR, ARMIJO_SIGMA, local_density_exact, local_density_subgradients
)
from .operators import path_power
from .stepgraphon import (
    StepGraphon, _random_symmetric, _unchecked_graphon, _uniform_measures, graphon_to_json
)

LAMBDA_SCHEDULE = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
# Backtracking steps solved per batch after eta = 1.  On the benchmark's
# n = 4 search workload, blocks of 8 beat blocks of 4 or 16 and the whole
# 47-step ladder at once: a bigger block wastes more solves past the accepted
# step, a smaller one pays the per-call overhead more often.
LADDER_BLOCK = 8
FEASIBILITY_TOL = 1e-6  # residuals up to this count as feasible
STATIONARITY_TOL = 1e-10  # projected-step norm that ends a penalty level
PROGRESS_TOL = 1e-11  # decrease below which an accepted step counts as stalled
STALL_ITERATIONS = 5  # stalled steps in a row that end a penalty level
LOG_EVERY = 10  # trajectory sampling interval, in accepted steps


@dataclass
class SearchConfig:
    starts: int = 8
    lambda_schedule: tuple = LAMBDA_SCHEDULE
    inner_iterations: int = 500
    include_constant_start: bool = True


@dataclass(eq=False)
class SearchResult:
    best_graphon: StepGraphon
    best_value: float
    constraint_residual: float
    bound: float
    best_ratio: float
    trajectory: list
    seed: int
    config: dict
    feasible: bool
    weak_bound: float | None = None
    weak_ratio: float | None = None

    def to_json(self) -> dict:
        doc = {
            "best_graphon": graphon_to_json(self.best_graphon),
            "best_value": float(self.best_value),
            "constraint_residual": float(self.constraint_residual),
            "bound": float(self.bound),
            "best_ratio": float(self.best_ratio),
            "trajectory": [
                {"iteration": int(i), "value": float(v), "residual": float(r)}
                for i, v, r in self.trajectory
            ],
            "seed": int(self.seed),
            "config": self.config,
            "feasible": bool(self.feasible),
        }
        if self.weak_bound is not None:
            doc["weak_bound"] = float(self.weak_bound)
            doc["weak_ratio"] = float(self.weak_ratio)
        return doc


def _armijo_ladder() -> list:
    """The backtracking steps eta = 1, ARMIJO_FACTOR, ARMIJO_FACTOR^2, ...
    (while above 1e-14) as the arrays they are solved in: eta = 1 alone, since
    it is often accepted, then LADDER_BLOCK steps at a time."""
    etas = []
    eta = 1.0
    while eta > 1e-14:
        etas.append(eta)
        eta *= ARMIJO_FACTOR
    return np.split(np.array(etas), range(1, len(etas), LADDER_BLOCK))


ARMIJO_LADDER = _armijo_ladder()


def _restore_feasibility(B: np.ndarray, d_star: float, d: float) -> np.ndarray:
    """Blend toward the all-ones matrix until d* >= d.

    Concavity of d* gives d*((1-t) B + t J) >= (1-t) d*(B) + t, so the blend
    below is guaranteed feasible."""
    if d_star >= d:
        return B
    t = (d - d_star) / max(1.0 - d_star, 1e-15)
    t = min(1.0, t * (1.0 + 1e-12))
    return (1.0 - t) * B + t * np.ones_like(B)


class _Bests:
    """The best points of one search, tracked by all of its starts: best of
    least value with residual 0, near of least value with 0 < residual <=
    FEASIBILITY_TOL, each as (value, start, B, residual), and least of least
    residual, as (residual, start, B, value).  The key (value or residual,
    start) and a strict < give a tie to the earlier start and, within a
    start, to the earlier point, whatever order lockstep tracks them in."""

    def __init__(self):
        self.best = self.near = self.least = None

    def track(self, start: int, value: float, B: np.ndarray, residual: float) -> None:
        if residual == 0.0:
            if self.best is None or (value, start) < self.best[:2]:
                self.best = (value, start, B.copy(), residual)
        elif residual <= FEASIBILITY_TOL:
            if self.near is None or (value, start) < self.near[:2]:
                self.near = (value, start, B.copy(), residual)
        if self.least is None or (residual, start) < self.least[:2]:
            self.least = (residual, start, B.copy(), value)


def _start_path(start: int, B0: np.ndarray, value_fn, grad_fn, d: float, cfg: SearchConfig, bests):
    """One start of the penalty search as a generator.  It yields each stack
    of value matrices whose local densities it needs (its start point, then
    each eta = 1 trial and each further block of the Armijo ladder), is sent
    back their local_density_subgradients pairs, tracks every point it visits
    in bests, and returns its trajectory."""
    n = len(B0)
    mu = _uniform_measures(n)
    B = np.clip((B0 + B0.T) / 2.0, 0.0, 1.0)
    trajectory = []
    global_iter = 0

    W = StepGraphon(B, mu)
    value = value_fn(W)
    ((P, cert),) = yield W.values[None]
    residual = max(0.0, d - cert.d_star)
    for lam in cfg.lambda_schedule:
        stalled = 0
        for _ in range(cfg.inner_iterations):
            penalized = value + lam * residual**2
            bests.track(start, value, B, residual)
            if global_iter % LOG_EVERY == 0:
                trajectory.append((global_iter, penalized, residual))
            E = grad_fn(W)
            if residual > 0.0:
                E = E - 2.0 * lam * residual * P
            mapped = np.clip(B - E, 0.0, 1.0)
            if float(np.linalg.norm(B - mapped)) <= STATIONARITY_TOL:
                break
            accepted = None
            for etas in ARMIJO_LADDER:
                trials = np.clip(B - etas[:, None, None] * E, 0.0, 1.0)
                solved = yield trials
                for eta, Bn, (Pn, cert) in zip(etas, trials, solved):
                    # symmetric and clipped by construction, so the
                    # constructor's checks would change nothing
                    Wn = _unchecked_graphon(Bn, mu)
                    vn = value_fn(Wn)
                    rn = max(0.0, d - cert.d_star)
                    fn = vn + lam * rn**2
                    step = Bn - B
                    # strict decrease required: once the sufficient-decrease
                    # term rounds to zero, a plain <= would accept ties forever
                    if fn < penalized and fn <= penalized - (
                        ARMIJO_SIGMA / eta
                    ) * float(np.sum(step * step)):
                        accepted = (Bn, Wn, vn, Pn, rn)
                        break
                if accepted is not None:
                    break
            if accepted is None:
                break
            B, W, value, P, residual = accepted
            global_iter += 1
            # give up on this penalty level once accepted steps stop
            # making measurable progress; the cap alone would burn the
            # remaining iterations crawling at the 12th digit
            if penalized - (value + lam * residual**2) <= PROGRESS_TOL:
                stalled += 1
                if stalled >= STALL_ITERATIONS:
                    break
            else:
                stalled = 0

    # final iterate of this start (the loop tracks before stepping, not after)
    bests.track(start, value, B, residual)
    trajectory.append((global_iter, value + cfg.lambda_schedule[-1] * residual**2, residual))
    return trajectory


def _lockstep(paths: list) -> list:
    """Run the _start_path generators together; their trajectories, in order.

    Each round concatenates the pending stacks of every live start into one
    local_density_subgradients call and sends each start its own slice.  A
    start leaves when its own rules end it.  The solver treats each matrix
    on its own, so every start takes, bit for bit, the path it takes alone."""
    trajectories = [None] * len(paths)
    pending = [(i, next(path)) for i, path in enumerate(paths)]
    while pending:
        solved = local_density_subgradients(np.concatenate([stack for _, stack in pending]))
        live = []
        at = 0
        for i, stack in pending:
            try:
                live.append((i, paths[i].send(solved[at : at + len(stack)])))
            except StopIteration as stop:
                trajectories[i] = stop.value
            at += len(stack)
        pending = live
    return trajectories


def _penalty_search(
    task: dict,
    H: Graph,
    value_fn,
    grad_fn,
    verify_fn,
    d: float,
    n: int,
    cfg: SearchConfig,
    seed: int,
    bound: float,
    weak_bound: float | None = None,
) -> SearchResult:
    """grad_fn(W) returns the per-entry gradient of value_fn (see
    per_entry_gradient).  The result's config echoes task, then the pattern
    H, d, n and every SearchConfig field."""
    if not 0.0 < d < 1.0:
        raise ValueError("target density must lie in (0, 1)")
    if cfg.starts < 1:
        raise ValueError("need at least one start")
    schedule = cfg.lambda_schedule
    if len(schedule) == 0 or not all(math.isfinite(lam) and lam >= 0.0 for lam in schedule):
        raise ValueError("lambda schedule must be a non-empty sequence of finite levels >= 0")
    if cfg.inner_iterations < 0:
        raise ValueError("inner_iterations must be non-negative")
    mu = _uniform_measures(n)
    rng = np.random.default_rng(seed)

    starts = []
    if cfg.include_constant_start:
        starts.append(np.full((n, n), d))
    while len(starts) < cfg.starts:
        starts.append(_random_symmetric(rng, n))
    bests = _Bests()
    trajectories = _lockstep(
        [_start_path(i, B0, value_fn, grad_fn, d, cfg, bests) for i, B0 in enumerate(starts)]
    )

    best, near = bests.best, bests.near
    if near is not None:
        value, start_index, B, residual = near
        restored = _restore_feasibility(B, d - residual, d)
        W = StepGraphon(restored, mu)
        vr = value_fn(W)
        rr = max(0.0, d - local_density_exact(W).d_star)
        if rr == 0.0 and (best is None or vr < best[0]):
            best = (vr, start_index, restored, rr)

    feasible = best is not None or near is not None
    if feasible:
        # near only when its restoration failed to certify (possible only by
        # rounding): the tolerance-feasible point itself is reported
        value, start_index, B, residual = best or near
    else:
        residual, start_index, B, value = bests.least
    W = StepGraphon(B, mu)
    verified = verify_fn(W)
    if not math.isclose(verified, value, rel_tol=1e-9, abs_tol=1e-12):
        raise AssertionError(
            f"re-verified best value {verified!r} disagrees with tracked {value!r}"
        )
    return SearchResult(
        best_graphon=W,
        best_value=verified,
        constraint_residual=residual,
        bound=bound,
        best_ratio=verified / bound,
        trajectory=trajectories[start_index],
        seed=seed,
        config={**task, "pattern": graph_to_json(H), "d": float(d), "n": int(n), **asdict(cfg)},
        feasible=feasible,
        weak_bound=weak_bound,
        weak_ratio=None if weak_bound is None else verified / weak_bound,
    )


def minimize_hom_density(
    H: Graph, d: float, n: int, config: SearchConfig | None = None, seed: int = 0
) -> SearchResult:
    """Minimize t(H, W) over graphons with local density >= d.

    Returns the best feasible point found (feasible=False and the least
    infeasible point when no start reaches the feasibility tolerance)."""
    return _penalty_search(
        task={"task": "minimize_hom_density"},
        H=H,
        value_fn=lambda W: hom_density(H, W),
        grad_fn=lambda W: per_entry_gradient(grad_hom_density(H, W)),
        verify_fn=lambda W: hom_density(H, W),
        d=d,
        n=n,
        cfg=config or SearchConfig(),
        seed=seed,
        bound=float(d) ** H.edge_count,
    )


def probe_even_subdivision(
    H: Graph, k: int, d: float, n: int, config: SearchConfig | None = None, seed: int = 0
) -> SearchResult:
    """Search for violations of the constant-free even-subdivision bound.

    Minimizes t of the 2k-subdivision of H through the walk-kernel shortcut
    t(H, W_{2k+1}); the result is re-verified against a direct density
    computation on the subdivided pattern.  best_ratio is reported against the
    aspirational bound d^((2k+1) e(H)); weak_ratio against the proven
    constant-factor bound."""
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 2 * k + 1
    e = H.edge_count
    strong = float(d) ** (m * e)
    c_H = 0.5 ** (H.vertex_count + 2 * k * e)
    subdivided = subdivide(H, 2 * k)

    def value_fn(W: StepGraphon) -> float:
        return hom_density(H, path_power(W, m))

    def grad_fn(W: StepGraphon) -> np.ndarray:
        V = path_power(W, m)
        Ev = per_entry_gradient(grad_hom_density(H, V))
        B = W.values
        mu = W.measures
        C = mu[:, None] * B
        D = B * mu[None, :]
        c_pow = [np.eye(W.n)]
        d_pow = [np.eye(W.n)]
        for _ in range(m - 1):
            c_pow.append(c_pow[-1] @ C)
            d_pow.append(d_pow[-1] @ D)
        P = np.zeros_like(B)
        for p in range(1, m + 1):
            P += c_pow[p - 1] @ Ev @ d_pow[m - p]
        return (P + P.T) / 2.0

    return _penalty_search(
        task={"task": "probe_even_subdivision", "k": int(k)},
        H=H,
        value_fn=value_fn,
        grad_fn=grad_fn,
        verify_fn=lambda W: hom_density(subdivided, W),
        d=d,
        n=n,
        cfg=config or SearchConfig(),
        seed=seed,
        bound=strong,
        weak_bound=c_H * strong,
    )


def result_to_json_text(result: SearchResult) -> str:
    return json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n"
