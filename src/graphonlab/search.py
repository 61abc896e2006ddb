"""Constrained minimization of homomorphism densities over step graphons.

Hunts for violations of t(F, W) >= d^e(F), F the s-subdivision of a pattern
H (s = 0 in minimize_hom_density, s = 2k in probe_even_subdivision), among
graphons with local density at least d: minimize t(F, W) + lambda * max(0,
d - d*(W))^2 over symmetric values in [0, 1]^(n x n) (measures stay uniform),
escalating lambda through a fixed schedule.  t(F, W) and its gradient come
from density's walk-kernel shortcut t(H, W_{s+1}).  The subgradient of d*
comes from the witness outer product; at degenerate minimizers the outer
products of all tied witnesses are averaged.

A best-so-far iterate is tracked across the whole run, and start 0 is the
constant-d graphon, which is feasible with ratio exactly 1; a run can only
improve on it.  The penalty method parks a little short of the constraint
(residual of order |grad t| / lambda_max), so candidates inside the
feasibility tolerance are first restored to certified feasibility by blending
toward the all-ones graphon (safe because d* is concave) and only then
compared by value.  The tolerance itself decides the feasible/infeasible
flag, not which value wins.

Each gradient step backtracks along eta = 1, 1/2, 1/4, ... (Armijo), the
ladder and sufficient-decrease test of localdensity's projected gradient
estimate: ARMIJO_LADDER, and _decreases(f, f0, eta, sq), which forms the bar
from the step size eta and the squared step norm sq.  The objective values
of the whole ladder are evaluated as one stack, and the ladder is walked in
order: the first step the sequential sufficient-decrease rule accepts is
taken, so the accepted eta, and with it the whole search path, is exactly
that of trying one step at a time.  Only the local density costs a solve,
and a trial is solved only if it can pass: d* is a minimum of functions
linear in the values (Bomze, "On standard quadratic optimization problems",
J. Global Optim. 13, 1998), so <P, B'> bounds d*(B') from above for the
current point's averaged witness outer product P, and the penalized
objective does not increase with d*.  A trial that fails the test with that
bound (plus SCREEN_MARGIN, see _witness_bounds) in place of d* fails it with
the exact d* too, and is skipped unsolved.  A value past the accepted step
is the price of evaluating the ladder at once.  Trial points are bare value
matrices (symmetric and clipped by construction), never StepGraphons; the
reported best graphon is rebuilt and re-verified in full.

The starts are independent, so they run in lockstep.  Each start is a
generator (_start_path) that yields three kinds of ask: ("value", stack) for
the objective values of its start point or its ladder, ("solve", B) for the
local density of one trial that can pass, and ("grad", B) for the
objective's gradient at a point it stands on.  Each round, _lockstep answers
one kind of ask for every start that has it pending, with one stacked call:
gradients first, then values, then solves.  A start therefore has its values
charged before it asks for its first solve, as alone.  A start leaves when
its own rules end it.  The objective, its gradient and the solver treat each
matrix on its own, so every start's path is bit for bit the one it takes
alone.  All starts track their points in one _Bests record, which ranks them
by (value, start), so a tie goes to the earlier start as in a one-by-one
run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from itertools import accumulate

import numpy as np

from .density import (
    grad_hom_densities_subdivided, hom_densities_subdivided, hom_density, hom_density_subdivided,
    per_entry_gradient,
)
from .graphs import Graph, graph_to_json, subdivide
from .budget import DEFAULT_GRAPHON_CELLS, charge
from .localdensity import ARMIJO_LADDER, _decreases, local_density_exact, local_density_subgradients
from .stepgraphon import StepGraphon, _random_symmetric, _uniform_measures, graphon_to_json
from .verify import even_subdivision_bounds

LAMBDA_SCHEDULE = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
SCREEN_MARGIN = 1e-12  # added to the witness bound on d*, see _witness_bounds
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


def _witness_bounds(P: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """U_j = <P, trials[j]> + SCREEN_MARGIN for each trial of the stack, P
    being the witness outer products averaged at the current point: an upper
    bound on the solver's d* of every trial.

    - For x >= 0 summing to s, x^T B' x >= s^2 d*(B'), d* being the minimum
      over the simplex.  P averages x x^T over m witnesses, each summing to 1
      within delta, so the exact <P, B'> is at least d*(B') - 2 delta.
    - Forming P and the einsum multiply and add non-negative numbers only,
      where a rounding lowers a partial result by a factor 1 - u at most (u =
      2^-53).  The computed <P, B'> is thus at least (1 - (m + n^2 + 2) u)
      times the exact one, which is at most (1 + delta)^2.
    - The solver's d* exceeds the exact minimum by at most 3.5e-16, measured
      against rational arithmetic on adversarial inputs, ill-conditioned
      faces included (test_exact_solver_matches_rational_oracle).
    So U_j bounds the solver's d* whenever 2 delta + (m + n^2 + 3) u +
    3.5e-16 <= SCREEN_MARGIN.  On those inputs delta is at most 4.4e-16 (n <=
    13), and the condition holds while m + n^2 <= 8 900: at every n <= 13,
    whatever the tie set (m < 2^n), and beyond that unless the tie set has
    thousands of witnesses."""
    return np.einsum("ij,kij->k", P, trials) + SCREEN_MARGIN


def _screen(B, trials, values, P, d: float, lam: float, penalized: float):
    """The trials of the Armijo ladder from B that can pass the
    sufficient-decrease test, in ladder order, as (j, sq): trial j, whose
    objective value is values[j], and its squared step norm.

    Trial j is dropped when it fails the test with its witness bound U_j in
    place of its d*.  As U_j >= d* (_witness_bounds), max(0, d - U_j) <=
    max(0, d - d*), and rounding to nearest being monotone, the penalized
    value with U_j is at most the one with d*: the trial fails with d* too.
    Were the bound ever below d* (a tie set of thousands of witnesses, see
    _witness_bounds), a trial the exact test accepts could be skipped, and
    the search would take a shorter step or end the level; every step it
    takes is still solved and tested exactly."""
    bounds = _witness_bounds(P, trials).tolist()
    # Python floats: on numpy scalars each _decreases call costs about 8 times as much
    for j, (eta, Bn, vn, un) in enumerate(zip(ARMIJO_LADDER.tolist(), trials, values, bounds)):
        sq = float(np.sum(np.square(Bn - B)))
        if _decreases(vn + lam * max(0.0, d - un) ** 2, penalized, eta, sq):
            yield j, sq


def _start_path(start: int, B0: np.ndarray, d: float, cfg: SearchConfig, bests):
    """One start of the penalty search as a generator of asks, each sent back
    its answer: ("value", stack) the objective values of a stack of value
    matrices (its start point, or its Armijo ladder), as a list; ("solve",
    B) the local_density_subgradients pair (P, certificate) of one matrix
    (its start point, or a trial _screen lets through); ("grad", B) the
    objective's per-entry gradient at its current point.  It solves the
    ladder's trials one at a time, in order, until one passes the exact
    sufficient-decrease test.  It tracks every point it visits in bests, and
    returns its trajectory."""
    B = np.clip((B0 + B0.T) / 2.0, 0.0, 1.0)
    trajectory = []
    global_iter = 0

    (value,) = yield "value", B[None]
    P, cert = yield "solve", B
    residual = max(0.0, d - cert.d_star)
    G = None  # the objective's gradient at B, asked for when first needed
    for lam in cfg.lambda_schedule:
        stalled = 0
        for _ in range(cfg.inner_iterations):
            penalized = value + lam * residual**2
            bests.track(start, value, B, residual)
            if global_iter % LOG_EVERY == 0:
                trajectory.append((global_iter, penalized, residual))
            if G is None:
                G = yield "grad", B
            E = G - 2.0 * lam * residual * P if residual > 0.0 else G
            mapped = np.clip(B - E, 0.0, 1.0)
            if float(np.linalg.norm(B - mapped)) <= STATIONARITY_TOL:
                break
            trials = np.clip(B - ARMIJO_LADDER[:, None, None] * E, 0.0, 1.0)
            values = yield "value", trials
            for j, sq in _screen(B, trials, values, P, d, lam, penalized):
                Pn, cert = yield "solve", trials[j]
                rn = max(0.0, d - cert.d_star)
                if _decreases(values[j] + lam * rn**2, penalized, float(ARMIJO_LADDER[j]), sq):
                    break
            else:
                break
            B, value, P, residual = trials[j], values[j], Pn, rn
            G = None
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


def _lockstep(paths: list, value_fn, grad_fn) -> list:
    """Run the _start_path generators together; their trajectories, in order.

    value_fn maps a stack of value matrices to their objective values and
    grad_fn to their per-entry gradients.  Each round takes one kind of ask,
    the first of "grad", "value" and "solve" that some live start has
    pending, and answers it for all those starts with one call over their
    matrices, in start order: grad_fn, value_fn, or
    local_density_subgradients.  Each start gets its own slice back.  Values
    go before solves, so a start's values are charged before its solver, as
    when it runs alone.  A start leaves when its own rules end it.  Every
    call treats each matrix on its own, so every start takes, bit for bit,
    the path it takes alone."""
    trajectories = [None] * len(paths)
    asks = {i: next(path) for i, path in enumerate(paths)}  # in start order
    calls = {
        "grad": lambda Bs: grad_fn(np.stack(Bs)),
        "value": lambda Bs: value_fn(np.concatenate(Bs)).tolist(),
        "solve": lambda Bs: local_density_subgradients(np.stack(Bs)),
    }

    while asks:
        kind = next(k for k in calls if any(ask[0] == k for ask in asks.values()))
        starts = [i for i, ask in asks.items() if ask[0] == kind]
        replies = calls[kind]([asks[i][1] for i in starts])
        if kind == "value":
            bounds = [0, *accumulate(len(asks[i][1]) for i in starts)]
            replies = [replies[a:b] for a, b in zip(bounds, bounds[1:])]
        for i, reply in zip(starts, replies):
            try:
                asks[i] = paths[i].send(reply)
            except StopIteration as stop:
                trajectories[i] = stop.value
                del asks[i]
    return trajectories


def _penalty_search(
    task: dict, H: Graph, s: int, d: float, n: int, cfg: SearchConfig, seed: int,
    constant: float | None = None,
) -> SearchResult:
    """Minimize t of the s-subdivision of H, through the walk-kernel
    shortcut t(H, W_{s+1}) (hom_densities_subdivided and its gradient), and
    re-verify the best value by elimination on the subdivided pattern F.
    The bound is d^e(F) = d^((s+1) e(H)), and with a constant c the weak
    bound c d^e(F) is reported too.  The result's config echoes task, then
    the pattern H, d, n and every SearchConfig field."""
    if not 0.0 < d < 1.0:
        raise ValueError("target density must lie in (0, 1)")
    if cfg.starts < 1:
        raise ValueError("need at least one start")
    schedule = cfg.lambda_schedule
    if len(schedule) == 0 or not all(math.isfinite(lam) and lam >= 0.0 for lam in schedule):
        raise ValueError("lambda schedule must be a non-empty sequence of finite levels >= 0")
    if cfg.inner_iterations < 0:
        raise ValueError("inner_iterations must be non-negative")
    charge(n * n, DEFAULT_GRAPHON_CELLS, f"search graphon of {n} blocks", "cells")
    mu = _uniform_measures(n)
    measures = mu / float(mu.sum())  # as StepGraphon normalizes them
    rng = np.random.default_rng(seed)

    starts = []
    if cfg.include_constant_start:
        starts.append(np.full((n, n), d))
    while len(starts) < cfg.starts:
        starts.append(_random_symmetric(rng, n))
    bests = _Bests()
    trajectories = _lockstep(
        [_start_path(i, B0, d, cfg, bests) for i, B0 in enumerate(starts)],
        lambda Bs: hom_densities_subdivided(H, s, Bs, measures),
        lambda Bs: per_entry_gradient(grad_hom_densities_subdivided(H, s, Bs, measures)),
    )

    best, near = bests.best, bests.near
    if near is not None:
        value, start_index, B, residual = near
        restored = _restore_feasibility(B, d - residual, d)
        W = StepGraphon(restored, mu)
        vr = hom_density_subdivided(H, s, W)
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
    F = subdivide(H, s)
    verified = hom_density(F, W)
    if not math.isclose(verified, value, rel_tol=1e-9, abs_tol=1e-12):
        raise AssertionError(
            f"re-verified best value {verified!r} disagrees with tracked {value!r}"
        )
    bound = float(d) ** F.edge_count
    weak_bound = None if constant is None else constant * bound
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
    task = {"task": "minimize_hom_density"}
    return _penalty_search(task, H, 0, d, n, config or SearchConfig(), seed)


def probe_even_subdivision(
    H: Graph, k: int, d: float, n: int, config: SearchConfig | None = None, seed: int = 0
) -> SearchResult:
    """Search for violations of the constant-free even-subdivision bound.

    Minimizes t of the 2k-subdivision of H (see _penalty_search).
    best_ratio is reported against the aspirational bound d^((2k+1) e(H));
    weak_ratio against the proven constant-factor bound c_H d^((2k+1) e(H))
    (verify.even_subdivision_bounds)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _, c_H = even_subdivision_bounds(H, k, d)
    task = {"task": "probe_even_subdivision", "k": int(k)}
    return _penalty_search(task, H, 2 * k, d, n, config or SearchConfig(), seed, c_H)


def result_to_json_text(result: SearchResult) -> str:
    return json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n"
