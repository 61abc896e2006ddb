import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graphon
from graphonlab import (
    BudgetExceededError,
    StepGraphon,
    constant,
    from_graph,
    gen_random,
    clique,
    grid_certificate,
    is_locally_dense,
    local_density_estimate,
    local_density_exact,
    local_density_grid_oracle,
    local_density_subgradient,
    local_density_subgradients,
    restrict,
)
from graphonlab import localdensity
from graphonlab.localdensity import project_to_simplex

RNG_SEEDS = st.integers(0, 2**31 - 1)


def test_constant_graphon():
    for d in (0.0, 0.3, 1.0):
        cert = local_density_exact(constant(d, blocks=3))
        assert cert.d_star == pytest.approx(d, abs=1e-12)
    cert = local_density_exact(constant(0.4))
    assert cert.method == "exact_support_enumeration"
    assert cert.gap_bound == 0.0


def test_bipartite_block_is_zero():
    w = StepGraphon([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    cert = local_density_exact(w)
    assert cert.d_star == 0.0
    # witness concentrates on a zero-diagonal block
    assert cert.witness.sum() == pytest.approx(1.0)


def test_identity_two_block():
    w = StepGraphon([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    cert = local_density_exact(w)
    assert cert.d_star == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(cert.witness, [0.5, 0.5])


def test_witness_attains_value():
    w = gen_random(5, seed=21, dirichlet_measures=True)
    cert = local_density_exact(w)
    x = cert.witness
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(x @ w.values @ x) == pytest.approx(cert.d_star, abs=1e-12)


def test_occupancy_witness_scaling():
    w = gen_random(3, seed=2)
    cert = local_density_exact(w)
    occ = cert.occupancy_witness(w.measures)
    assert float(occ.max()) == pytest.approx(1.0)
    assert np.all(occ >= 0.0) and np.all(occ <= 1.0 + 1e-12)


def test_certificate_json_keys():
    cert = local_density_exact(constant(0.4))
    data = cert.to_json()
    assert sorted(data) == ["d_star", "gap_bound", "method", "witness"]
    assert data["gap_bound"] == 0.0


def test_certificate_json_unbounded_gap_is_null():
    # estimates have no gap bound; inf would not survive strict JSON parsers
    cert = local_density_estimate(gen_random(3, seed=5), starts=3, seed=0)
    assert math.isinf(cert.gap_bound)
    assert cert.to_json()["gap_bound"] is None


def test_project_to_simplex():
    x = project_to_simplex(np.array([0.4, 0.3, 0.3]))
    np.testing.assert_allclose(x, [0.4, 0.3, 0.3], atol=1e-15)
    x = project_to_simplex(np.array([2.0, 0.0]))
    np.testing.assert_allclose(x, [1.0, 0.0])
    x = project_to_simplex(np.array([-5.0, -5.0]))
    np.testing.assert_allclose(x, [0.5, 0.5])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), RNG_SEEDS)
def test_exact_below_any_feasible_point(n, seed):
    w = gen_random(n, seed)
    cert = local_density_exact(w)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = rng.dirichlet(np.ones(n))
        assert cert.d_star <= float(x @ w.values @ x) + 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), RNG_SEEDS)
def test_estimate_close_to_exact(n, seed):
    w = gen_random(n, seed, dirichlet_measures=True)
    exact = local_density_exact(w).d_star
    est = local_density_estimate(w, starts=10, seed=0).d_star
    assert est >= exact - 1e-12
    assert est - exact <= 1e-6


def test_estimate_deterministic():
    w = gen_random(4, seed=3)
    a = local_density_estimate(w, starts=5, seed=42)
    b = local_density_estimate(w, starts=5, seed=42)
    assert a.d_star == b.d_star
    np.testing.assert_array_equal(a.witness, b.witness)


def test_grid_oracle_two_block():
    w = StepGraphon([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert local_density_grid_oracle(w, 10) == pytest.approx(0.5)
    # odd resolution can't hit the midpoint exactly
    assert local_density_grid_oracle(w, 9) >= 0.5


def test_grid_budget():
    w = gen_random(5, seed=4)
    with pytest.raises(BudgetExceededError):
        local_density_grid_oracle(w, 1000, budget=100)


def test_grid_certificate_method():
    cert = grid_certificate(constant(0.2, blocks=2), 50)
    assert cert.method == "grid"
    assert cert.d_star == pytest.approx(0.2, abs=1e-12)
    # resolution 0 would divide the lattice by zero and report NaN
    for resolution in (0, -3):
        with pytest.raises(ValueError):
            grid_certificate(constant(0.2, blocks=2), resolution)


def test_exact_budget_guard():
    w = gen_random(3, seed=5)
    with pytest.raises(BudgetExceededError):
        local_density_exact(w, max_blocks=2)


def test_subgradient_unique_argmin():
    w = gen_random(4, seed=6, dirichlet_measures=True)
    P, cert = local_density_subgradient(w)
    # P is the averaged outer product of minimizers: symmetric, PSD, trace sums x_i^2
    np.testing.assert_allclose(P, P.T)
    assert float(np.trace(P)) <= 1.0 + 1e-12
    # directional derivative check along a symmetric perturbation
    rng = np.random.default_rng(0)
    D = rng.uniform(-1, 1, size=(4, 4))
    D = (D + D.T) / 2.0
    t = 1e-7
    up = StepGraphon(np.clip(w.values + t * D, 0.0, 1.0), w.measures)
    down = StepGraphon(np.clip(w.values - t * D, 0.0, 1.0), w.measures)
    fd = (local_density_exact(up).d_star - local_density_exact(down).d_star) / (2 * t)
    assert float((P * D).sum()) == pytest.approx(fd, abs=1e-4)


def test_subgradient_tie_averaging():
    # identity 2-block: both vertices e_1, e_2 and the midpoint attain 0? no:
    # midpoint attains 1/2 and is the unique minimizer; use the bipartite case
    w = StepGraphon([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    P, cert = local_density_subgradient(w)
    assert cert.d_star == 0.0
    # both zero-diagonal vertices tie; averaged outer products
    np.testing.assert_allclose(P, [[0.5, 0.0], [0.0, 0.5]])


def _symmetric(A):
    return np.triu(A) + np.triu(A, 1).T


def _stack_inputs(rng, n):
    uniform = [_symmetric(rng.uniform(size=(n, n))) for _ in range(5)]
    rounded = [np.round(B, 1) for B in uniform]  # many tied candidates
    zero_diagonal = uniform[0].copy()
    np.fill_diagonal(zero_diagonal, 0.0)
    one_zero = uniform[2].copy()
    np.fill_diagonal(one_zero, np.linspace(0.0, 1.0, n))
    duplicated = uniform[1].copy()  # block 1 repeats block 0
    duplicated[1, :] = duplicated[0, :]
    duplicated[:, 1] = duplicated[0, :]
    duplicated[1, 1] = duplicated[0, 0]
    constants = [np.full((n, n), d) for d in (0.3, 0.5, 1.0)]
    return uniform + rounded + constants + [zero_diagonal, one_zero, duplicated]


def _assert_same(got, want):
    P, cert = got
    P_want, cert_want = want
    assert np.array_equal(P, P_want)
    assert cert.d_star == cert_want.d_star
    assert np.array_equal(cert.witness, cert_want.witness)


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_subgradients_match_single_calls_bitwise(n):
    rng = np.random.default_rng(100 + n)
    Bs = _stack_inputs(rng, n)
    mu = np.full(n, 1.0 / n)
    singles = []
    for B in Bs:
        W = StepGraphon(B, mu)
        singles.append(local_density_subgradient(W))
        exact = local_density_exact(W)
        assert exact.d_star == singles[-1][1].d_star
        assert np.array_equal(exact.witness, singles[-1][1].witness)
    for got, want in zip(local_density_subgradients(np.array(Bs)), singles):
        _assert_same(got, want)
    # what else is stacked, and where, does not matter
    for got, want in zip(local_density_subgradients(np.array(Bs[::-1])), singles[::-1]):
        _assert_same(got, want)
    _assert_same(local_density_subgradients(np.array(Bs[3:4]))[0], singles[3])


def test_stacked_subgradients_reject_non_stacks():
    for shape in ((3, 3), (2, 3, 4)):
        with pytest.raises(ValueError):
            local_density_subgradients(np.zeros(shape))


def _spy_det_masks(monkeypatch) -> list:
    """Patch np.linalg.det to record, per call, how many rows it masks."""
    det = np.linalg.det
    masked = []

    def spy(a):
        dets = det(a)
        masked.append(int(np.sum(dets == 0.0)))
        return dets

    monkeypatch.setattr(np.linalg, "det", spy)
    return masked


def test_stacked_subgradients_per_row_solve_fallback(monkeypatch):
    # with the condition gate open, the singular KKT systems of a constant
    # block make the stacked solve raise; the singular rows are masked by
    # their determinant and the rest are solved as one stack
    monkeypatch.setattr(localdensity, "CONDITION_LIMIT", np.inf)
    rng = np.random.default_rng(7)
    A, C = (_symmetric(rng.uniform(size=(3, 3))) for _ in range(2))
    Bs = [A, np.full((3, 3), 0.5), C]
    mu = np.full(3, 1.0 / 3)
    singles = [local_density_subgradient(StepGraphon(B, mu)) for B in Bs]
    masked = _spy_det_masks(monkeypatch)
    stacked = local_density_subgradients(np.array(Bs))
    assert sum(masked) > 0  # the singular-row path ran
    for got, want in zip(stacked, singles):
        _assert_same(got, want)
    assert stacked[1][1].d_star == 0.5


def test_subgradients_reject_bad_tie_tol():
    W = gen_random(3, 1)
    for tie_tol in (-1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            local_density_subgradient(W, tie_tol=tie_tol)
        with pytest.raises(ValueError):
            local_density_subgradients(W.values[None], tie_tol=tie_tol)
    P, cert = local_density_subgradient(W, tie_tol=0.0)
    assert np.all(np.isfinite(P))


def _cond_first_candidate_arrays(Bs):
    """The enumerator as it was before the reorder: the condition gate on
    every KKT system, then the solve of the rows that pass it, then the
    interior filter.  Test oracle only."""
    k, n, _ = Bs.shape
    owners = [np.repeat(np.arange(k), n)]
    values = [Bs.diagonal(axis1=1, axis2=2).reshape(-1)]
    witnesses = [np.tile(np.eye(n), (k, 1))]
    for combos in localdensity._supports_by_cardinality(n):
        m, r = combos.shape
        subs = Bs[:, combos[:, :, None], combos[:, None, :]].reshape(k * m, r, r)
        K = np.zeros((k * m, r + 1, r + 1))
        K[:, :r, :r] = 2.0 * subs
        K[:, :r, r] = -1.0
        K[:, r, :r] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            conds = np.linalg.cond(K)
        ok = np.isfinite(conds) & (conds <= localdensity.CONDITION_LIMIT)
        if not np.any(ok):
            continue
        rhs = np.zeros((int(ok.sum()), r + 1, 1))
        rhs[:, r, 0] = 1.0
        try:
            sols = np.linalg.solve(K[ok], rhs)[:, :r, 0]
        except np.linalg.LinAlgError:
            sols = np.full((int(ok.sum()), r), -1.0)
            for row, Krow in enumerate(K[ok]):
                try:
                    sols[row] = np.linalg.solve(Krow, rhs[row])[:r, 0]
                except np.linalg.LinAlgError:
                    pass
        interior = np.all(sols > 0.0, axis=1)
        if not np.any(interior):
            continue
        rows = np.nonzero(ok)[0][interior]
        owner, support = np.divmod(rows, m)
        xs = sols[interior]
        picked = np.zeros((len(rows), n))
        np.put_along_axis(picked, combos[support], xs, axis=1)
        owners.append(owner)
        values.append(localdensity._quadratic_values(xs, subs[rows], owner, k))
        witnesses.append(picked)
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    values = np.concatenate(values)[order]
    witnesses = np.concatenate(witnesses)[order]
    ends = np.cumsum(np.bincount(owner, minlength=k)).tolist()
    return [(values[a:b], witnesses[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _oracle_inputs(rng, n):
    uniform = _symmetric(rng.uniform(size=(n, n)))
    near_constant = 0.5 + _symmetric(rng.choice([-1e-13, 0.0, 1e-13], size=(n, n)))
    duplicated = uniform.copy()  # block 1 repeats block 0
    duplicated[1, :] = duplicated[0, :]
    duplicated[:, 1] = duplicated[0, :]
    duplicated[1, 1] = duplicated[0, 0]
    zero_one = _symmetric(rng.integers(0, 2, size=(n, n)).astype(float))
    zero_diagonal = uniform.copy()
    np.fill_diagonal(zero_diagonal, 0.0)
    one_diagonal = zero_one.copy()
    np.fill_diagonal(one_diagonal, 1.0)
    return np.array(
        [uniform, near_constant, np.round(uniform, 1), duplicated, zero_one, zero_diagonal, one_diagonal]
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_solve_then_gate_matches_cond_first_oracle(n, monkeypatch):
    masked = _spy_det_masks(monkeypatch)
    Bs = _oracle_inputs(np.random.default_rng(300 + n), n)
    got = localdensity._candidate_arrays(Bs)
    want = _cond_first_candidate_arrays(Bs)
    assert len(got) == len(want) == len(Bs)
    for (values, witnesses), (want_values, want_witnesses) in zip(got, want):
        assert np.array_equal(values, want_values)
        assert np.array_equal(witnesses, want_witnesses)
    # the duplicated block makes exactly singular systems: the det mask ran
    assert sum(masked) > 0


def test_is_locally_dense():
    w = constant(0.5, blocks=2)
    assert is_locally_dense(w, 0.5)
    assert is_locally_dense(w, 0.3)
    assert not is_locally_dense(w, 0.6)


def test_restriction_never_decreases_local_density():
    w = gen_random(5, seed=31, dirichlet_measures=True)
    d = local_density_exact(w).d_star
    sub = restrict(w, [1.0, 0.5, 0.0, 1.0, 0.25])
    assert local_density_exact(sub).d_star >= d - 1e-12


def test_graph_bipartite_from_graph():
    w = from_graph(clique(3))
    # diagonal is zero: members of one part never self-connect
    cert = local_density_exact(w)
    assert cert.d_star == 0.0
