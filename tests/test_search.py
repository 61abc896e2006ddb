import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from graphonlab import (
    SearchConfig,
    StepGraphon,
    clique,
    constant,
    cycle_graph,
    hom_density,
    local_density_exact,
    local_density_subgradients,
    minimize_hom_density,
    probe_even_subdivision,
    result_to_json_text,
    subdivide,
)
from graphonlab import search
from graphonlab.localdensity import ARMIJO_SIGMA
from graphonlab.search import _restore_feasibility
from test_localdensity import _exact_local_density, _symmetric

# deliberately small: the unit tests here exercise plumbing, not convergence
QUICK = SearchConfig(starts=1, lambda_schedule=(1e1, 1e2), inner_iterations=25)

# Recorded results of short searches, taken before the backtracking ladder was
# solved in batches.  Random starts only, so the reported point and trajectory
# depend on every step the line search accepted.
SEARCH_PATHS = Path(__file__).parent / "search_paths"
PATH_CONFIG = SearchConfig(starts=2, inner_iterations=8, include_constant_start=False)


def test_rejects_target_density_outside_open_interval():
    for d in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            minimize_hom_density(clique(2), d, 2, QUICK)


def test_rejects_zero_starts():
    cfg = SearchConfig(starts=0)
    with pytest.raises(ValueError):
        minimize_hom_density(clique(2), 0.5, 2, cfg)


@pytest.mark.parametrize(
    "cfg",
    (
        SearchConfig(lambda_schedule=()),
        SearchConfig(lambda_schedule=(1e1, float("nan"))),
        SearchConfig(lambda_schedule=(float("inf"),)),
        SearchConfig(lambda_schedule=(-1e1, 1e2)),
        SearchConfig(inner_iterations=-1),
    ),
    ids=("empty", "nan", "inf", "negative", "negative-iterations"),
)
def test_rejects_bad_schedule(cfg):
    with pytest.raises(ValueError):
        minimize_hom_density(clique(2), 0.5, 2, cfg)
    with pytest.raises(ValueError):
        probe_even_subdivision(clique(2), 1, 0.5, 2, cfg)


def test_rejects_block_count_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError):
            minimize_hom_density(clique(2), 0.5, n, QUICK)
        with pytest.raises(ValueError):
            probe_even_subdivision(clique(2), 1, 0.5, n, QUICK)


def test_probe_rejects_k_below_one():
    with pytest.raises(ValueError):
        probe_even_subdivision(clique(3), 0, 0.5, 2, QUICK)


def test_constant_start_is_certified_feasible():
    res = minimize_hom_density(clique(2), 0.5, 3, QUICK, seed=1)
    assert res.feasible
    assert res.constraint_residual == 0.0
    # edge density can never undercut d on a feasible point, so the constant
    # start pins the ratio at 1
    assert res.best_ratio >= 1.0 - 1e-12
    assert res.bound == 0.5


def test_reported_best_satisfies_constraint_exactly():
    res = minimize_hom_density(clique(3), 0.4, 3, QUICK, seed=3)
    assert res.feasible
    if res.constraint_residual == 0.0:
        cert = local_density_exact(res.best_graphon)
        assert cert.d_star >= 0.4


def test_best_value_matches_reverification():
    res = minimize_hom_density(clique(3), 0.3, 3, QUICK, seed=5)
    direct = hom_density(clique(3), res.best_graphon)
    assert direct == pytest.approx(res.best_value, rel=1e-9)


def test_trajectory_starts_at_iteration_zero():
    res = minimize_hom_density(clique(2), 0.5, 3, QUICK, seed=0)
    iters = [entry[0] for entry in res.trajectory]
    assert iters[0] == 0
    assert iters == sorted(iters)
    # start 0 is the constant-d graphon: exactly feasible, value d^e
    assert res.trajectory[0] == (0, 0.5, 0.0)


def test_infeasible_run_reports_least_violation():
    cfg = SearchConfig(
        starts=1,
        include_constant_start=False,
        lambda_schedule=(1e1,),
        inner_iterations=0,
    )
    res = minimize_hom_density(clique(2), 0.99, 3, cfg, seed=42)
    assert not res.feasible
    assert res.constraint_residual > 0.0


def test_result_json_shape():
    res = minimize_hom_density(clique(2), 0.5, 2, QUICK, seed=0)
    doc = res.to_json()
    assert set(doc) == {
        "best_graphon",
        "best_value",
        "constraint_residual",
        "bound",
        "best_ratio",
        "trajectory",
        "seed",
        "config",
        "feasible",
    }
    assert doc["config"]["task"] == "minimize_hom_density"
    # the problem, then every SearchConfig field; the line-search tolerances
    # are constants of the module, not settings
    assert set(doc["config"]) == {
        "task",
        "pattern",
        "d",
        "n",
        "starts",
        "lambda_schedule",
        "inner_iterations",
        "include_constant_start",
    }
    assert doc["trajectory"][0] == {"iteration": 0, "value": 0.5, "residual": 0.0}
    text = result_to_json_text(res)
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(result_to_json_text(res))


def test_probe_reports_weak_bound_fields():
    res = probe_even_subdivision(clique(3), 1, 0.5, 2, QUICK, seed=0)
    m, e, v = 3, 3, 3
    assert res.bound == pytest.approx(0.5 ** (m * e))
    assert res.weak_bound == pytest.approx(0.5 ** (v + 2 * e) * 0.5 ** (m * e))
    assert res.weak_ratio == pytest.approx(res.best_value / res.weak_bound)
    doc = res.to_json()
    assert "weak_bound" in doc and "weak_ratio" in doc


def test_probe_reverifies_through_subdivided_pattern():
    # the walk-kernel objective must agree with the direct density on the
    # subdivided pattern at the reported optimum
    res = probe_even_subdivision(clique(2), 1, 0.6, 2, QUICK, seed=7)
    direct = hom_density(subdivide(clique(2), 2), res.best_graphon)
    assert direct == pytest.approx(res.best_value, rel=1e-9)


def test_same_seed_same_result():
    a = minimize_hom_density(cycle_graph(4), 0.4, 3, QUICK, seed=11)
    b = minimize_hom_density(cycle_graph(4), 0.4, 3, QUICK, seed=11)
    assert result_to_json_text(a) == result_to_json_text(b)


def test_multistart_never_loses_to_constant_start():
    cfg = SearchConfig(starts=3, lambda_schedule=(1e1, 1e2), inner_iterations=25)
    res = minimize_hom_density(clique(3), 0.5, 3, cfg, seed=2)
    assert res.feasible
    assert res.best_value <= 0.5**3 + 1e-12


def test_restoration_blend_reaches_target():
    B = np.full((3, 3), 0.3)
    restored = _restore_feasibility(B, 0.3, 0.45)
    w = StepGraphon(restored, np.full(3, 1 / 3))
    assert local_density_exact(w).d_star >= 0.45
    # already-feasible input passes through untouched
    same = _restore_feasibility(B, 0.5, 0.45)
    assert same is B


def test_restoration_is_identity_blend_toward_ones():
    B = np.array([[0.2, 0.6], [0.6, 0.4]])
    restored = _restore_feasibility(B, 0.2, 0.3)
    t = (0.3 - 0.2) / 0.8 * (1.0 + 1e-12)
    np.testing.assert_allclose(restored, (1 - t) * B + t, rtol=0, atol=1e-15)


def test_constant_graphon_objective_matches_closed_form():
    # sanity for the bound the ratio is measured against
    for d in (0.2, 0.5):
        w = constant(d, blocks=4)
        assert hom_density(clique(3), w) == d**3


@pytest.mark.parametrize("size", (2, 3))
@pytest.mark.parametrize("d", (0.2, 0.5))
@pytest.mark.parametrize("n", (3, 4))
def test_minimize_search_path_is_pinned(size, d, n):
    result = minimize_hom_density(clique(size), d, n, PATH_CONFIG, seed=0)
    expected = (SEARCH_PATHS / f"minimize_K{size}_d{d}_n{n}.json").read_text()
    assert result_to_json_text(result) == expected


def test_probe_search_path_is_pinned():
    result = probe_even_subdivision(clique(3), 1, 0.5, 3, PATH_CONFIG, seed=0)
    expected = (SEARCH_PATHS / "probe_K3_k1_d0.5_n3.json").read_text()
    assert result_to_json_text(result) == expected


# Recorded before the search evaluated its trial points in stacks.  At n = 6
# and 7, mu / mu.sum() of uniform measures is not idempotent, so these pin
# which normalization of the measures each density, gradient and walk power
# sees: the walk power gets the search's, and the probe's density and
# gradient on the walk kernel (density.hom_densities_subdivided and its
# gradient) get those normalized once more.  The n = 3 and 4 fixtures cannot
# tell them apart.
@pytest.mark.parametrize("n", (6, 7))
def test_search_paths_with_unsettled_measures_are_pinned(n):
    result = minimize_hom_density(clique(3), 0.5, n, PATH_CONFIG, seed=0)
    expected = (SEARCH_PATHS / f"minimize_K3_d0.5_n{n}.json").read_text()
    assert result_to_json_text(result) == expected
    result = probe_even_subdivision(clique(3), 1, 0.5, n, PATH_CONFIG, seed=0)
    expected = (SEARCH_PATHS / f"probe_K3_k1_d0.5_n{n}.json").read_text()
    assert result_to_json_text(result) == expected


def test_armijo_ladder_is_the_halving_sequence():
    # one stack: a trial past the accepted step costs a value, not a solve
    etas = search.ARMIJO_LADDER
    assert etas.shape == (47,) and etas[-1] > 1e-14 >= etas[-1] / 2
    assert etas.tolist() == [0.5**i for i in range(47)]


# Four starts with the constant start first: d J has exactly singular KKT
# systems, so the first stacked solve takes the singular-row fallback with
# random starts in the same stack.
LOCKSTEP_CONFIG = SearchConfig(starts=4, inner_iterations=8)
LOCKSTEP_RUNS = {
    "K2-n3": lambda cfg: minimize_hom_density(clique(2), 0.5, 3, cfg, seed=0),
    "K2-n4": lambda cfg: minimize_hom_density(clique(2), 0.2, 4, cfg, seed=0),
    "K3-n3": lambda cfg: minimize_hom_density(clique(3), 0.2, 3, cfg, seed=0),
    "K3-n4": lambda cfg: minimize_hom_density(clique(3), 0.5, 4, cfg, seed=0),
    "probe-K3-k1-n3": lambda cfg: probe_even_subdivision(clique(3), 1, 0.5, 3, cfg, seed=0),
}


class _RecordingBests(search._Bests):
    """A _Bests that also keeps every point tracked, as (start, value, B,
    residual) in tracking order."""

    def __init__(self):
        super().__init__()
        self.points = []

    def track(self, start, value, B, residual):
        self.points.append((start, value, B.copy(), residual))
        super().track(start, value, B, residual)


def _assert_same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a[0], a[1], a[3]) == (b[0], b[1], b[3])
        assert np.array_equal(a[2], b[2])


def _distinct_points(points, start):
    """The points start visited, each once: its tracked points without the
    repeats of one point (a new penalty level, or the final iterate)."""
    out = []
    for s, _, B, _ in points:
        if s == start and not (out and np.array_equal(out[-1], B)):
            out.append(B)
    return out


ASK_ORDER = {"grad": 0, "value": 1, "solve": 2}


def _assert_rounds_answer_one_kind(calls, asks):
    """calls holds (kind, stack) per stacked call, asks (start, kind, matrix
    or stack, call made after, call answered by) per ask.  Each call answers
    one ask of its kind per start, in start order, over their matrices; it
    answers every pending ask of its kind and leaves none of an earlier
    kind.  So a solve stack holds at most one matrix per start."""
    for c, (kind, stack) in enumerate(calls):
        pending = [ask for ask in asks if ask[3] < c <= ask[4]]
        answered = [ask for ask in pending if ask[4] == c]
        assert all(ask[1] == kind for ask in answered)
        assert all(ASK_ORDER[ask[1]] > ASK_ORDER[kind] for ask in pending if ask[4] != c)
        starts = [ask[0] for ask in answered]
        assert starts == sorted(set(starts))
        join = np.concatenate if kind == "value" else np.stack
        assert np.array_equal(stack, join([ask[2] for ask in answered]))


def _assert_solves_follow_values(asks, distinct):
    """Each start asks for its start point's value and then its solve; it
    solves only matrices of its last value stack, and asks for a gradient
    only at the matrix it solved last: its start point or a step it
    accepted, each point it visits once (but perhaps the last)."""
    for start, points in enumerate(distinct):
        (first, second, *rest) = [ask[1:3] for ask in asks if ask[0] == start]
        assert first[0] == "value" and np.array_equal(first[1], points[0][None])
        assert second[0] == "solve" and np.array_equal(second[1], points[0])
        values, solved, gradients = first[1], second[1], []
        for kind, X in rest:
            if kind == "value":
                values = X
            elif kind == "solve":
                assert any(np.array_equal(X, row) for row in values)
                solved = X
            else:
                assert np.array_equal(X, solved)
                gradients.append(X)
        assert len(gradients) in (len(points) - 1, len(points))
        assert all(np.array_equal(a, b) for a, b in zip(gradients, points))


@pytest.mark.parametrize("run", LOCKSTEP_RUNS.values(), ids=LOCKSTEP_RUNS.keys())
def test_lockstep_starts_match_lone_runs(run, monkeypatch):
    # record each start's generator arguments and asks, the lockstep
    # trajectories and objective functions, every stack the search
    # evaluates, solves or differentiates (in call order), and every
    # singular-row fallback; the shared record keeps every tracked point
    path_args, trajectories, fns, stacks, calls, asks, dets = [], [], [], [], [], [], []
    start_path, lockstep = search._start_path, search._lockstep
    solve, slogdet = search.local_density_subgradients, np.linalg.slogdet

    def recording_path(*args):
        path_args.append(args)
        return recorded(len(path_args) - 1, start_path(*args))

    def recorded(start, path):
        # each ask with the calls made before it and the call that answers it
        ask = next(path)
        while True:
            made = len(calls) - 1
            reply = yield ask
            asks.append((start, ask[0], np.array(ask[1]), made, len(calls) - 1))
            try:
                ask = path.send(reply)
            except StopIteration as stop:
                return stop.value

    def recording(kind, fn):
        def wrapped(Bs):
            calls.append((kind, np.array(Bs)))
            return fn(Bs)

        return wrapped

    def recording_lockstep(paths, value_fn, grad_fn):
        fns.extend((value_fn, grad_fn))
        trajectories.extend(
            lockstep(paths, recording("value", value_fn), recording("grad", grad_fn))
        )
        return list(trajectories)

    def recording_solve(Bs):
        stacks.append(np.array(Bs))
        calls.append(("solve", stacks[-1]))
        return solve(Bs)

    def recording_slogdet(a):
        dets.append(len(a))
        return slogdet(a)

    monkeypatch.setattr(search, "_Bests", _RecordingBests)
    monkeypatch.setattr(search, "_start_path", recording_path)
    monkeypatch.setattr(search, "_lockstep", recording_lockstep)
    monkeypatch.setattr(search, "local_density_subgradients", recording_solve)
    monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
    run(LOCKSTEP_CONFIG)
    monkeypatch.undo()

    assert len(path_args) == len(trajectories) == LOCKSTEP_CONFIG.starts
    assert np.array_equal(path_args[0][1], np.full_like(path_args[0][1], path_args[0][2]))
    # the first solve stacks every start's initial point, in start order
    initial = [np.clip((args[1] + args[1].T) / 2.0, 0.0, 1.0) for args in path_args]
    assert np.array_equal(stacks[0], np.array(initial))
    assert dets
    shared = path_args[0][-1]
    assert all(args[-1] is shared for args in path_args)
    for start, (args, together) in enumerate(zip(path_args, trajectories)):
        alone = _RecordingBests()
        assert search._lockstep([search._start_path(*args[:-1], alone)], *fns) == [together]
        _assert_same_points(
            [point for point in shared.points if point[0] == start], alone.points
        )

    # each round answers one kind of ask, gradients before values before
    # solves; a start solves one trial at a time, from its last value stack,
    # and asks for a gradient only where it stands
    _assert_rounds_answer_one_kind(calls, asks)
    distinct = [_distinct_points(shared.points, start) for start in range(len(path_args))]
    _assert_solves_follow_values(asks, distinct)


@pytest.mark.parametrize("run", LOCKSTEP_RUNS.values(), ids=LOCKSTEP_RUNS.keys())
def test_screened_trials_fail_the_exact_test(run, monkeypatch):
    # every trial the witness bound drops is solved here and must fail the
    # sufficient-decrease test with its exact d* as well
    ladders, screen = [], search._screen

    def spying_screen(B, trials, values, P, d, lam, penalized):
        kept = dict(screen(B, trials, values, P, d, lam, penalized))
        ladders.append((B, trials, values, P, d, lam, penalized, kept))
        return screen(B, trials, values, P, d, lam, penalized)

    monkeypatch.setattr(search, "_screen", spying_screen)
    run(LOCKSTEP_CONFIG)
    monkeypatch.undo()

    dropped = 0
    for B, trials, values, P, d, lam, penalized, kept in ladders:
        rows = [j for j in range(len(trials)) if j not in kept]
        dropped += len(rows)
        bounds = search._witness_bounds(P, trials[rows])
        solved = local_density_subgradients(trials[rows])
        for j, bound, (_, cert) in zip(rows, bounds, solved):
            assert cert.d_star <= bound
            step = trials[j] - B
            bar = penalized - (ARMIJO_SIGMA / search.ARMIJO_LADDER[j]) * float(np.sum(step * step))
            f = values[j] + lam * max(0.0, d - cert.d_star) ** 2
            assert not (f < penalized and f <= bar), j
    assert dropped > 0


def _screen_inputs(rng, n):
    """Matrices with tie sets or degenerate witnesses: 0.5 J + 1e-12 I (every
    support's barycenter tied), a constant graphon (its vertices tied), a
    zero diagonal (d* = 0 at every zero-diagonal vertex) and a duplicated
    block (duplicate vertices tied)."""
    uniform = _symmetric(rng.uniform(size=(n, n)))
    zero_diagonal = uniform.copy()
    zeros = np.arange(0, n, 2)
    zero_diagonal[zeros, zeros] = 0.0
    blocks = np.arange(n) // 2
    return {
        "barycentric": 0.5 + 1e-12 * np.eye(n),
        "constant": np.full((n, n), 0.3),
        "zero-diagonal": zero_diagonal,
        "duplicated": uniform[np.ix_(blocks, blocks)],
    }


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_witness_bound_holds_on_tie_sets(n):
    # U = <P, B'> + SCREEN_MARGIN bounds the exact d*(B') and the solver's,
    # on random symmetric steps B' = clip(B - eta E) from each input, small
    # steps (where the bound is tightest) included
    rng = np.random.default_rng(2100 + n)
    for name, B in _screen_inputs(rng, n).items():
        ((P, _),) = local_density_subgradients(B[None])
        for _ in range(3):
            E = _symmetric(rng.uniform(-1.0, 1.0, size=(n, n)))
            etas = search.ARMIJO_LADDER[::6]
            trials = np.clip(B - etas[:, None, None] * E, 0.0, 1.0)
            bounds = search._witness_bounds(P, trials)
            for Bn, bound, (_, cert) in zip(trials, bounds, local_density_subgradients(trials)):
                assert Fraction(float(bound)) >= _exact_local_density(Bn), name
                assert bound >= cert.d_star, name


def test_bests_give_ties_to_the_earlier_start_then_the_earlier_point():
    bests = search._Bests()
    first, second, third = (np.full((2, 2), x) for x in (0.1, 0.2, 0.3))
    # start 1 is tracked first, as lockstep may do; start 0's equal value wins
    bests.track(1, 0.5, first, 0.0)
    bests.track(0, 0.5, second, 0.0)
    bests.track(0, 0.5, third, 0.0)
    assert bests.best[:2] == (0.5, 0) and np.array_equal(bests.best[2], second)
    # the same rule in the near-feasible and least-residual categories
    bests.track(1, 0.4, first, 1e-7)
    bests.track(0, 0.4, second, 1e-7)
    bests.track(0, 0.4, third, 1e-7)
    assert bests.near[:2] == (0.4, 0) and np.array_equal(bests.near[2], second)
    assert bests.least[:2] == (0.0, 0) and np.array_equal(bests.least[2], second)
    # a strictly lower value from a later start still wins
    bests.track(3, 0.3, third, 0.0)
    assert bests.best[:2] == (0.3, 3)


# Recorded before the starts shared one record of best points.  Each of these
# searches meets equal values in different starts, so a tracker that broke
# ties by tracking order instead of by start would report another point.
TIE_CONFIG = SearchConfig(starts=4, inner_iterations=6, include_constant_start=False)


@pytest.mark.parametrize("size, d", ((2, 0.95), (3, 0.8)))
def test_cross_start_ties_are_pinned(size, d):
    result = minimize_hom_density(clique(size), d, 2, TIE_CONFIG, seed=0)
    expected = (SEARCH_PATHS / f"ties_K{size}_d{d}_n2.json").read_text()
    assert result_to_json_text(result) == expected
