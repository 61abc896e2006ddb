import itertools
import math
from fractions import Fraction

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
    path_power,
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


# local_density_estimate outputs (d*, witness) recorded as hex floats
# before its descent walked the Armijo ladder it shares with the search;
# starts=3, seed=5, on three matrices with interior minimizers, gen_random(4,
# 1) and gen_random(6, 3, dirichlet_measures=True)
PGD_MATRICES = [
    [[0.894, 0.057, 0.288], [0.057, 0.88, 0.359], [0.288, 0.359, 0.956]],
    [[0.794, 0.132, 0.321, 0.13], [0.132, 0.726, 0.399, 0.219], [0.321, 0.399, 0.714, 0.17], [0.13, 0.219, 0.17, 0.641]],
    [
        [0.755, 0.118, 0.125, 0.173, 0.118],
        [0.118, 0.916, 0.169, 0.085, 0.238],
        [0.125, 0.169, 0.716, 0.076, 0.256],
        [0.173, 0.085, 0.076, 0.66, 0.041],
        [0.118, 0.238, 0.256, 0.041, 0.649],
    ],
]
PGD_RECORDED = [
    ("0x1.c6605cbedac36p-2", ["0x1.a3424cb42e8d5p-2", "0x1.998d544e92523p-2", "0x1.8660bdfa7e404p-3"]),
    (
        "0x1.5a7b85aed7faep-2",
        ["0x1.18fd12237c352p-2", "0x1.e0cc29afd9b28p-3", "0x1.1372c075a74d8p-3", "0x1.6ce378c9c34a8p-2"],
    ),
    (
        "0x1.02721157ea77ep-2",
        [
            "0x1.7a16da2f21a10p-3",
            "0x1.1684f8f4568d4p-3",
            "0x1.72739bd43afb4p-3",
            "0x1.2102a0cf6744bp-2",
            "0x1.baeb4f697e4c0p-3",
        ],
    ),
    ("0x1.7e6def348b749p-2", ["0x1.3f541eea626adp-1", "0x0.0p+0", "0x1.8157c22b3b2a4p-2", "0x0.0p+0"]),
    ("0x1.f130619e5dde0p-6", ["0x0.0p+0"] * 4 + ["0x1.0000000000000p+0", "0x0.0p+0"]),
    # recorded before the starts ran in lockstep: gen_random(1, 2), the zero
    # graphon on 3 blocks and 0.5 J + 1e-12 I on 4
    ("0x1.0be40d2359ad4p-2", ["0x1.fffffffffffffp-1"]),
    ("0x0.0p+0", ["0x1.5555555555555p-2"] * 3),
    ("0x1.00000000008ccp-1", ["0x1.0000000000000p-2"] * 4),
]


def test_estimate_matches_recorded_outputs_bitwise():
    graphons = [StepGraphon(B, np.full(len(B), 1.0 / len(B))) for B in PGD_MATRICES]
    graphons += [gen_random(4, 1), gen_random(6, 3, dirichlet_measures=True), gen_random(1, 2)]
    graphons += [
        StepGraphon(np.zeros((3, 3)), np.full(3, 1.0 / 3)),
        StepGraphon(0.5 + 1e-12 * np.eye(4), np.full(4, 0.25)),
    ]
    for W, (d_star, witness) in zip(graphons, PGD_RECORDED, strict=True):
        cert = local_density_estimate(W, starts=3, seed=5)
        assert cert.d_star == float.fromhex(d_star)
        assert cert.witness.tolist() == [float.fromhex(x) for x in witness]


def _one_start_projection(y):
    # project_to_simplex of one vector, as it was before it took stacks
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, len(y) + 1) > 0)[0][-1]
    return np.maximum(y - css[rho] / (rho + 1.0), 0.0)


def _one_start_pgd(B, x):
    # the descent from one start, one Armijo trial at a time, as the
    # estimate ran each start before its starts ran in lockstep
    fx = float(x @ B @ x)
    for _ in range(localdensity.PGD_MAX_ITERATIONS):
        g = 2.0 * (B @ x)
        if float(np.linalg.norm(x - _one_start_projection(x - g))) <= localdensity.PGD_STOP_TOL:
            break
        for eta in localdensity.ARMIJO_LADDER.tolist():
            xn = _one_start_projection(x - eta * g)
            step = xn - x
            fn = float(xn @ B @ xn)
            if fn < fx and fn <= fx - (localdensity.ARMIJO_SIGMA / eta) * float(step @ step):
                break
        else:
            break
        x, fx = xn, fn
    return fx, x


def _one_start_estimate_starts(n, starts, seed):
    # the estimate's starts, built one at a time
    rng = np.random.default_rng(seed)
    points = [np.full(n, 1.0 / n)]
    for i in range(n):
        points.append(np.eye(n)[i])
    for i, j in itertools.combinations(range(n), 2):
        x = np.zeros(n)
        x[i] = x[j] = 0.5
        points.append(x)
    for _ in range(starts):
        points.append(rng.dirichlet(np.ones(n)))
    return np.array(points)


def _adversarial_values(rng, n):
    """Constant, 0.5 J + 1e-12 I, identity, zero and duplicated-block value
    matrices on n blocks: ties, flat faces and zero gradients."""
    uniform = rng.uniform(size=(n, n))
    uniform = (uniform + uniform.T) / 2.0
    blocks = np.arange(n) // 2
    return {
        "constant": np.full((n, n), 0.3),
        "barycentric": 0.5 + 1e-12 * np.eye(n),
        "identity": np.eye(n),
        "zero": np.zeros((n, n)),
        "duplicated": uniform[np.ix_(blocks, blocks)],
    }


def _oracle_cases():
    rng = np.random.default_rng(2026)
    for n in range(1, 13):
        yield f"random-{n}", gen_random(n, n), 20, n
        yield f"dirichlet-{n}", gen_random(n, 100 + n, dirichlet_measures=True), 20 - n, n
    for n in (1, 3, 6, 9, 12):
        for name, B in _adversarial_values(rng, n).items():
            yield f"{name}-{n}", StepGraphon(B, np.full(n, 1.0 / n)), 20, n
    yield "no-dirichlet", gen_random(5, 7), 0, 3


def test_lockstep_descent_matches_each_start_alone_bitwise():
    """Every start of the lockstep descent ends on the value and point, bit
    for bit, of its descent alone, and the estimate keeps the first start of
    least value."""
    total = 0
    for case, W, starts, seed in _oracle_cases():
        X = _one_start_estimate_starts(W.n, starts, seed)
        values, points = localdensity._pgd(W.values, X)
        alone = [_one_start_pgd(W.values, x) for x in X]
        assert values.tolist() == [value for value, _ in alone], case
        assert all(np.array_equal(p, x) for p, (_, x) in zip(points, alone, strict=True)), case
        best = min(range(len(alone)), key=lambda i: alone[i][0])
        cert = local_density_estimate(W, starts=starts, seed=seed)
        assert cert.d_star == alone[best][0], case
        assert cert.witness.tolist() == alone[best][1].tolist(), case
        total += len(X)
    assert total >= 2000


def test_estimate_stacked_calls_match_one_vector_calls_bitwise():
    """The numpy calls the lockstep descent stacks, each row against the
    one-vector call of the descent alone: the row projection (ties,
    all-negative rows and n = 1 included), B x and x^T B x through
    np.matmul, sqrt of a stacked dot against np.linalg.norm, and one
    Dirichlet draw of k rows against k draws.  Bit equality is a property of
    this numpy/BLAS build, not of floating point (X @ B, np.einsum and
    np.linalg.norm(axis=1) do not have it), so this test pins it."""
    rng = np.random.default_rng(2027)
    for n in range(1, 14):
        for k in (1, 2, 7, 60):
            B = rng.uniform(size=(n, n))
            B = (B + B.T) / 2.0
            X = rng.uniform(-2.0, 2.0, size=(k, n))
            X[0] = -rng.uniform(size=n)  # an all-negative row
            if k > 2:
                X[1] = rng.choice([0.5, 0.25], size=n)  # ties
                X[2] = -3.0
            projected = project_to_simplex(X)
            for x, p in zip(X, projected, strict=True):
                assert p.tolist() == project_to_simplex(x).tolist(), (n, k)
                assert p.tolist() == _one_start_projection(x).tolist(), (n, k)
            Bx = np.matmul(B, X[:, :, None])[:, :, 0]
            assert all(np.array_equal(row, B @ x) for row, x in zip(Bx, X)), (n, k)
            xBx = localdensity._dots(np.matmul(X[:, None, :], B)[:, 0], X)
            assert xBx.tolist() == [float(x @ B @ x) for x in X], (n, k)
            norms = np.sqrt(localdensity._dots(X, X))
            assert norms.tolist() == [float(np.linalg.norm(x)) for x in X], (n, k)
            draws = np.random.default_rng([n, k]).dirichlet(np.ones(n), size=k)
            one_by_one = np.random.default_rng([n, k])
            assert all(np.array_equal(row, one_by_one.dirichlet(np.ones(n))) for row in draws), (n, k)


def test_grid_oracle_two_block():
    w = StepGraphon([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert local_density_grid_oracle(w, 10) == pytest.approx(0.5)
    # odd resolution can't hit the midpoint exactly
    assert local_density_grid_oracle(w, 9) >= 0.5


def test_grid_budget(monkeypatch):
    w = gen_random(5, seed=4)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(100))
    with pytest.raises(BudgetExceededError):
        local_density_grid_oracle(w, 1000)


def test_estimate_budget(monkeypatch):
    # (1 + 80 + 3160 + 20) starts of 80 * 80 cells are past 10**7; checked
    # before the first descent, so the refusal is immediate
    monkeypatch.delenv("GRAPHONLAB_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError):
        local_density_estimate(gen_random(80, 1))
    # 7 deterministic starts of 9 cells: GRAPHONLAB_BUDGET moves the limit
    monkeypatch.setenv("GRAPHONLAB_BUDGET", "62")
    with pytest.raises(BudgetExceededError):
        local_density_estimate(gen_random(3, 1), starts=0)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", "63")
    assert local_density_estimate(gen_random(3, 1), starts=0).method == "projected_gradient"


def test_grid_certificate_method():
    cert = grid_certificate(constant(0.2, blocks=2), 50)
    assert cert.method == "grid"
    assert cert.d_star == pytest.approx(0.2, abs=1e-12)
    # resolution 0 would divide the lattice by zero and report NaN
    for resolution in (0, -3):
        with pytest.raises(ValueError):
            grid_certificate(constant(0.2, blocks=2), resolution)


def _recursive_simplex_lattice(n, resolution):
    # the lattice built one leading coordinate at a time, in lexicographic order
    if n == 1:
        return np.array([[resolution]], dtype=np.int64)
    rows = []
    for first in range(resolution + 1):
        rest = _recursive_simplex_lattice(n - 1, resolution - first)
        block = np.empty((rest.shape[0], n), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
@pytest.mark.parametrize("resolution", (1, 2, 5, 12))
def test_simplex_lattice_matches_recursive_order(n, resolution):
    # same rows in the same order, so grid_certificate's first argmin is unchanged
    lattice = localdensity._simplex_lattice(n, resolution)
    expected = _recursive_simplex_lattice(n, resolution)
    assert lattice.dtype == expected.dtype
    assert np.array_equal(lattice, expected)


def test_exact_budget_guard(monkeypatch):
    w = gen_random(3, seed=5)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(2**2))
    with pytest.raises(BudgetExceededError):
        local_density_exact(w)


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
    # regular KKT systems whose determinant underflows to 0 from 5 blocks
    # on: the singular-row mask, which the constants' systems set off, must
    # not take them for singular
    tiny = 1e-100 * (0.1 + 0.9 * np.eye(n))
    return uniform + rounded + constants + [zero_diagonal, one_zero, duplicated, tiny]


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


def _regrouped_selection(owner, values, witnesses, k):
    """The regrouping selection, kept as a reference: the candidates grouped
    by matrix with a stable sort, each matrix's least value found by reduceat
    over its segment, and its first candidate of that value taken.  (owner, values, witnesses, best) as from
    _certified_stack, but grouped by matrix.  Test oracle only."""
    order = np.argsort(owner, kind="stable")
    owner, values, witnesses = owner[order], values[order], witnesses[order]
    matrices = np.arange(k)
    lows = np.minimum.reduceat(values, np.searchsorted(owner, matrices))
    hits = np.flatnonzero(values == lows[owner])
    return owner, values, witnesses, hits[np.searchsorted(owner[hits], matrices)]


@pytest.mark.parametrize("n", range(2, 9))
def test_selection_matches_the_regrouped_selection_bitwise(n, monkeypatch):
    # three draws of every _stack_inputs family, shuffled into one stack, so
    # that each matrix's candidates interleave with the others'
    rng = np.random.default_rng(600 + n)
    Bs = np.array([B for _ in range(3) for B in _stack_inputs(rng, n)])
    Bs = Bs[rng.permutation(len(Bs))]
    want = local_density_subgradients(Bs)
    certified_stack = localdensity._certified_stack
    monkeypatch.setattr(
        localdensity, "_certified_stack", lambda Bs: _regrouped_selection(*certified_stack(Bs)[:3], len(Bs))
    )
    got = local_density_subgradients(Bs)
    assert len(got) == len(want)
    for pair, pair_want in zip(got, want):
        _assert_same(pair, pair_want)
    # the families hold real tie sets: P averages several witnesses
    assert any(np.linalg.matrix_rank(P) > 1 for P, _ in want)


def test_zero_diagonal_ties_every_vertex_within_tie_tol():
    # b_00 = 0 gives d* = 0 and no clique supports; the vertex e_1, of value
    # 1e-11, lies within tie_tol, so P averages e_0 e_0^T and e_1 e_1^T
    B = np.array([[0.0, 0.9, 0.8], [0.9, 1e-11, 0.9], [0.8, 0.9, 0.5]])
    P, cert = local_density_subgradients(B[None])[0]
    assert cert.d_star == 0.0 and np.array_equal(cert.witness, [1.0, 0.0, 0.0])
    assert np.array_equal(P, np.diag([0.5, 0.5, 0.0]))
    P, cert = local_density_subgradients(B[None], tie_tol=0.0)[0]
    assert np.array_equal(P, np.diag([1.0, 0.0, 0.0]))
    # a diagonal entry of -0.0 is a zero one, and d* is +0.0
    B[0, 0] = -0.0
    cert = local_density_exact(StepGraphon(B, np.full(3, 1.0 / 3)))
    assert cert.d_star == 0.0 and math.copysign(1.0, cert.d_star) == 1.0


def _supports(n, smallest=2):
    """Every support of smallest or more of n blocks, per cardinality, rows
    lexicographic."""
    return [np.array(list(itertools.combinations(range(n), r)), dtype=np.intp) for r in range(smallest, n + 1)]


def _full_enumeration(Bs):
    """_candidate_arrays over every support of two or more blocks: every
    interior stationary point, minimizer or not.  Test oracle only."""
    k, n, _ = Bs.shape
    every = [(np.repeat(np.arange(k), len(combos)), np.tile(combos, (k, 1))) for combos in _supports(n)]
    return localdensity._candidate_arrays(Bs, every)


def _fraction_edges(B):
    """c_ij = b_ii + b_jj - 2 b_ij >= 0 for every i, j, decided in Fraction
    arithmetic on the stored floats (True on the diagonal)."""
    F = [[Fraction(x) for x in row] for row in B.tolist()]
    return np.array([[F[i][i] + F[j][j] - 2 * F[i][j] >= 0 for j in range(len(F))] for i in range(len(F))])


def _on_cliques(B, xs):
    """Whether each row of xs has a support that is a clique of B's convexity
    graph, with the edges decided by Fraction: no two of its blocks are off
    the graph."""
    off = (~_fraction_edges(B)).astype(int)
    inside = (xs != 0.0).astype(int)
    return np.einsum("ki,ij,kj->k", inside, off, inside) == 0


def _looped_subgradients(Bs, tie_tol=1e-10):
    """local_density_subgradients as it was before the assembly was
    vectorised, over the full enumeration: the argmin, the tie set, the
    rounding-key set and the outer products one matrix at a time, over the
    candidates whose support is a clique of the convexity graph, decided by
    Fraction.  The other candidates are saddles or maxima; on an
    ill-conditioned face the value computed for one can fall an ulp below
    d*, so they are left out of the argmin as well as the tie set.  (P, d*,
    witness, tie set) per matrix, the tie set as its witness rows in scan
    order.  A matrix with a zero diagonal entry has d* = 0 and no clique
    supports: its candidates are its vertices, under the same tie filter.
    Test oracle only."""
    k, n, _ = Bs.shape
    owner, values, witnesses = _full_enumeration(Bs)
    out = []
    for j, B in enumerate(Bs):
        mine = owner == j
        vals, xs = values[mine], witnesses[mine]
        if np.all(np.diag(B) != 0.0):
            on = _on_cliques(B, xs)
        else:
            on = np.count_nonzero(xs, axis=1) == 1
        vals, xs = vals[on], xs[on]
        i = int(np.argmin(vals))
        d_star = float(vals[i])
        tie_set = xs[vals <= d_star + tie_tol]
        tied = []
        seen = set()
        for x in tie_set:
            key = tuple(np.round(x, 10))
            if key not in seen:
                seen.add(key)
                tied.append(x)
        P = np.zeros((n, n))
        for x in tied:
            P += np.outer(x, x)
        P /= len(tied)
        out.append((P, d_star, xs[i], tie_set))
    return out


def _many_ties(rng, n, diagonal=0.6, edge=0.2):
    """Values edge between the halves, 0.9 within a half off the diagonal,
    and jitter of 1e-13: every cross pair's interior point ties within 1e-10,
    so one tie set has about n^2 / 4 witnesses that share coordinates."""
    half = n // 2
    B = np.full((n, n), 0.9)
    B[:half, half:] = B[half:, :half] = edge
    np.fill_diagonal(B, diagonal)
    return B + _symmetric(rng.choice([-1e-13, 0.0, 1e-13], size=(n, n)))


@pytest.mark.parametrize("n", range(2, 9))
def test_vectorised_assembly_matches_loop_bitwise(n):
    rng = np.random.default_rng(200 + n)
    Bs = np.array(_stack_inputs(rng, n) + list(_oracle_inputs(rng, n)) + [_many_ties(rng, n)])
    want = _looped_subgradients(Bs)
    got = local_density_subgradients(Bs)
    assert len(got) == len(want)
    for (P, cert), (P_want, d_star, witness, _) in zip(got, want):
        assert np.array_equal(P, P_want)
        assert cert.d_star == d_star
        assert np.array_equal(cert.witness, witness)
    # both paths ran: unique minimizers and real tie sets
    tie_sizes = [len(tie_set) for *_, tie_set in want]
    assert 1 in tie_sizes and max(tie_sizes) > 1


def test_stacked_subgradients_reject_non_stacks():
    for shape in ((3, 3), (2, 3, 4), (1, 0, 0)):
        with pytest.raises(ValueError):
            local_density_subgradients(np.zeros(shape))


def _spy_singular_rows(monkeypatch) -> list:
    """Patch np.linalg.slogdet to record, per call, how many rows it finds
    exactly singular (sign 0).  Only the stacked solve's singular-row branch
    calls it."""
    slogdet = np.linalg.slogdet
    masked = []

    def spy(a):
        signs, logs = slogdet(a)
        masked.append(int(np.sum(signs == 0.0)))
        return signs, logs

    monkeypatch.setattr(np.linalg, "slogdet", spy)
    return masked


def test_stacked_subgradients_per_row_solve_fallback(monkeypatch):
    # the singular KKT systems of a constant block make the stacked solve
    # raise; the singular rows are masked by their zero pivot and the rest
    # are solved as one stack
    rng = np.random.default_rng(7)
    A, C = (_symmetric(rng.uniform(size=(3, 3))) for _ in range(2))
    Bs = [A, np.full((3, 3), 0.5), C]
    mu = np.full(3, 1.0 / 3)
    singles = [local_density_subgradient(StepGraphon(B, mu)) for B in Bs]
    masked = _spy_singular_rows(monkeypatch)
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


def _kkt(subs):
    """The KKT matrices of the stack of r x r blocks subs, built as
    _candidate_arrays builds them."""
    k, r, _ = subs.shape
    K = np.zeros((k, r + 1, r + 1))
    K[:, :r, :r] = 2.0 * subs
    K[:, :r, r] = -1.0
    K[:, r, :r] = 1.0
    return K


def _per_row_candidate_arrays(Bs):
    """The enumerator over every support of two or more blocks, each KKT
    system solved on its own and skipped where that solve meets a zero
    pivot, then the interior filter.  Test oracle only."""
    k, n, _ = Bs.shape
    owners = [np.repeat(np.arange(k), n)]
    values = [Bs.diagonal(axis1=1, axis2=2).reshape(-1)]
    witnesses = [np.tile(np.eye(n), (k, 1))]
    for combos in _supports(n):
        m, r = combos.shape
        subs = Bs[:, combos[:, :, None], combos[:, None, :]].reshape(k * m, r, r)
        rhs = np.zeros((r + 1, 1))
        rhs[r, 0] = 1.0
        sols = np.full((k * m, r), -1.0)
        for row, K in enumerate(_kkt(subs)):
            try:
                sols[row] = np.linalg.solve(K, rhs)[:r, 0]
            except np.linalg.LinAlgError:
                pass
        rows = np.flatnonzero(np.all(sols > 0.0, axis=1))
        owner, support = np.divmod(rows, m)
        xs = sols[rows]
        picked = np.zeros((len(rows), n))
        np.put_along_axis(picked, combos[support], xs, axis=1)
        owners.append(owner)
        values.append(localdensity._quadratic_values(xs, subs[rows]))
        witnesses.append(picked)
    return np.concatenate(owners), np.concatenate(values), np.concatenate(witnesses)


def _barycentric(n, eps=1e-12):
    """0.5 J + eps I: the minimum 0.5 + eps / n is attained only at the
    barycenter, whose KKT system (and every pair's) has condition number
    beyond 1e12."""
    return 0.5 + eps * np.eye(n)


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
    # ill-conditioned KKT systems, solved and kept like any other
    near_limit = 0.5 + 1e-11 * _symmetric(rng.uniform(-1.0, 1.0, size=(n, n)))
    return np.array(
        [
            uniform,
            near_constant,
            np.round(uniform, 1),
            duplicated,
            zero_one,
            zero_diagonal,
            one_diagonal,
            near_limit,
            _barycentric(n),
        ]
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_solve_then_gate_matches_cond_first_oracle(n, monkeypatch):
    # the stacked solve against a solve per KKT system: the same candidates,
    # bit for bit (the test is named for the condition gate its oracle once
    # applied)
    masked = _spy_singular_rows(monkeypatch)
    Bs = _oracle_inputs(np.random.default_rng(300 + n), n)
    got = _full_enumeration(Bs)
    want = _per_row_candidate_arrays(Bs)
    assert np.array_equal(np.unique(got[0]), np.arange(len(Bs)))
    for got_array, want_array in zip(got, want, strict=True):
        assert np.array_equal(got_array, want_array)
    # the duplicated block makes exactly singular systems: the mask ran
    assert sum(masked) > 0


def _random_graphs(rng, n, k=6):
    """Upper triangles of k random graphs on n vertices, from empty to
    complete."""
    return np.triu(rng.random((k, n, n)) < np.linspace(0.0, 1.0, k)[:, None, None], 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_parents_are_the_supports_without_their_last_index(n):
    # each clique of a class is a clique of the class before plus a vertex
    # above its last one, the single vertices being the pairs' parents, and
    # the classes hold exactly the supports of two or more vertices that are
    # cliques, in (matrix, lexicographic) order
    edges = _random_graphs(np.random.default_rng(500 + n), n)
    classes = localdensity._cliques(edges)
    want = []
    for combos in _supports(n):
        pairs = np.array(list(itertools.combinations(range(combos.shape[1]), 2)))
        on = edges[:, combos[:, pairs[:, 0]], combos[:, pairs[:, 1]]].all(axis=2)
        owner, row = np.nonzero(on)
        if len(owner):
            want.append((owner, combos[row]))
    assert len(classes) == len(want)
    before = (np.arange(len(edges)).repeat(n), np.tile(np.arange(n), len(edges))[:, None])
    for (owner, sets), (owner_want, sets_want) in zip(classes, want):
        assert np.array_equal(owner, owner_want) and np.array_equal(sets, sets_want)
        parents = {(h, *row) for h, row in zip(before[0].tolist(), before[1].tolist())}
        assert all((h, *row[:-1]) in parents for h, row in zip(owner.tolist(), sets.tolist()))
        before = (owner, sets)


def _assert_same_classes(got, want):
    assert len(got) == len(want)
    for (owner, sets), (owner_want, sets_want) in zip(got, want):
        assert owner.dtype == owner_want.dtype and sets.dtype == sets_want.dtype
        assert np.array_equal(owner, owner_want) and np.array_equal(sets, sets_want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), max_size=5), RNG_SEEDS)
def test_cached_cliques_equal_freshly_grown_classes(n, densities, seed):
    # empty stacks, n = 1, empty, complete and random graphs: a miss and
    # then a hit give the classes grown afresh, array by array
    rng = np.random.default_rng(seed)
    p = np.array(densities).reshape(-1, 1, 1)
    edges = np.triu(rng.random((len(densities), n, n)) < p, 1)
    assert len(edges) * localdensity._complete_bytes(n) <= localdensity.CLIQUE_ENTRY_BYTES
    want = localdensity._grown_cliques(edges)
    _assert_same_classes(localdensity._cliques(edges), want)
    _assert_same_classes(localdensity._cliques(edges), want)


def test_cached_cliques_are_read_only_and_hit():
    localdensity._cached_cliques.cache_clear()
    edges = _random_graphs(np.random.default_rng(41), 6)
    first = localdensity._cliques(edges)
    assert localdensity._cached_cliques.cache_info()[:2] == (0, 1)  # hits, misses
    again = localdensity._cliques(edges.copy())
    assert localdensity._cached_cliques.cache_info()[:2] == (1, 1)
    # each call gets its own list of the one entry's arrays, none writeable
    assert again is not first and len(again) == len(first) > 2
    for (owner, sets), (owner_again, sets_again) in zip(first, again):
        assert owner is owner_again and sets is sets_again
        assert not owner.flags.writeable and not sets.flags.writeable
        with pytest.raises(ValueError):
            sets[0, 0] = 0


def _entry_bytes(classes):
    return sum(owner.nbytes + sets.nbytes for owner, sets in classes)


def test_clique_cache_is_bounded_in_entries_and_bytes():
    # a complete graph's classes take _complete_bytes(n), the worst case of
    # one graph on n vertices
    for n in range(1, 15):
        edges = localdensity._upper(n)[None]
        assert _entry_bytes(localdensity._grown_cliques(edges)) == localdensity._complete_bytes(n)
    localdensity._cached_cliques.cache_clear()
    size = localdensity.CLIQUE_CACHE_SIZE
    for i in range(size + 10):  # distinct graphs on 8 vertices: i's bits on 28 pairs
        bits = (i >> np.arange(28)) & 1
        edges = np.zeros((1, 8, 8), dtype=bool)
        edges[0][localdensity._upper(8)] = bits.astype(bool)
        localdensity._cliques(edges)
        assert localdensity._cached_cliques.cache_info().currsize == min(i + 1, size)
    # a constant graphon's convexity graph is complete: its classes are kept
    # at the largest n under the entry cap, and built but not kept above it
    kept = max(n for n in range(1, 19) if localdensity._complete_bytes(n) <= localdensity.CLIQUE_ENTRY_BYTES)
    localdensity._cached_cliques.cache_clear()
    cert = local_density_exact(constant(0.5, blocks=kept))
    assert localdensity._cached_cliques.cache_info()[2:] == (size, 1)  # maxsize, currsize
    assert localdensity._cached_cliques.cache_info().misses == 1
    assert cert.d_star == 0.5
    cert = local_density_exact(constant(0.5, blocks=kept + 1))
    assert localdensity._cached_cliques.cache_info()[1:] == (1, size, 1)  # misses, maxsize, currsize
    assert cert.d_star == 0.5


def _constructed_entries():
    """(b_ii, b_jj, b_ij) where fl(fl(b_ii + b_jj) - 2 b_ij) rounds to 0
    while the exact c_ij is 2^-80 or -2^-80, each at two scales of b_ij, and
    one exact tie, c_ij = 0."""
    return [
        (1.0 - 2.0**-53, 2.0**-53 + 2.0**-80, 0.5),
        (1.0 - 2.0**-53, 2.0**-53 - 2.0**-80, 0.5),
        (1.0, 2.0**-52 + 2.0**-80, 0.5 + 2.0**-53),
        (1.0, 2.0**-52 - 2.0**-80, 0.5 + 2.0**-53),
        (0.75, 0.25, 0.5),
    ]


def test_convexity_edges_are_exact():
    rng = np.random.default_rng(31)
    Bs = []
    for n in (2, 5, 9):
        uniform = _symmetric(rng.uniform(size=(n, n)))
        Bs += [
            uniform,
            np.round(uniform, 1),
            0.5 + _symmetric(rng.choice([-1e-13, 0.0, 1e-13], size=(n, n))),
            _symmetric(rng.integers(0, 2, size=(n, n)).astype(float)),
        ]
    # triples whose float c rounds to 0 with either exact sign: the float
    # decision alone would keep both edges
    for b_ii, b_jj, b_ij in _constructed_entries():
        B = _symmetric(rng.uniform(size=(4, 4)))
        B[1, 1], B[2, 2], B[1, 2], B[2, 1] = b_ii, b_jj, b_ij, b_ij
        assert (b_ii + b_jj) - 2.0 * b_ij == 0.0
        Bs.append(B)
    # near-cancelling triples at many scales: b_ij within two ulps of the
    # midpoint of b_ii and a b_jj down to 2^-59, where the float c often
    # rounds to 0 with either exact sign, and a wrong sign would show
    rounded = {-1: 0, 0: 0, 1: 0}
    for _ in range(200):
        b_ii, b_jj = float(rng.uniform()), float(rng.uniform()) * 2.0 ** -int(rng.integers(0, 60))
        b_ij = (b_ii + b_jj) / 2.0
        b_ij += int(rng.integers(-2, 3)) * math.ulp(b_ij)
        if (b_ii + b_jj) - 2.0 * b_ij == 0.0:
            exact = Fraction(b_ii) + Fraction(b_jj) - 2 * Fraction(b_ij)
            rounded[(exact > 0) - (exact < 0)] += 1
        Bs.append(np.array([[b_ii, b_ij], [b_ij, b_jj]]))
    assert rounded[-1] > 0 and rounded[1] > 0
    for B in Bs:
        n = len(B)
        got = localdensity._convexity_edges(B[None])[0]
        assert np.array_equal(got, _fraction_edges(B) & np.triu(np.ones((n, n), dtype=bool), 1))


def _solved(mp, Bs, tie_tol):
    """(P, d*, witness, tie set) per matrix of the stack Bs: the public
    stacked call, and the tie set its _certified_stack gave it as witness
    rows in scan order (read through a spy patched in on mp)."""
    certified_stack = localdensity._certified_stack
    seen = []

    def spy(Bs):
        seen.append(certified_stack(Bs))
        return seen[-1]

    mp.setattr(localdensity, "_certified_stack", spy)
    pairs = local_density_subgradients(Bs, tie_tol)
    mp.setattr(localdensity, "_certified_stack", certified_stack)
    owner, values, witnesses, best = seen[0]
    tied = values <= values[best][owner] + tie_tol
    return [(P, cert.d_star, cert.witness, witnesses[tied & (owner == j)]) for j, (P, cert) in enumerate(pairs)]


def _assert_located_matches_full(mp, Bs):
    """The candidates the solver keeps, the vertices, pairs and clique
    supports of each convexity graph, give the results of full enumeration
    restricted to the supports Fraction decides are cliques, bit for bit: P,
    d*, witness and tie set of the stacked subgradients at three tie
    tolerances, and d* and witness of local_density_exact."""
    for tie_tol in (0.0, 1e-10, 1e-6):
        for j, (got, want) in enumerate(zip(_solved(mp, Bs, tie_tol), _looped_subgradients(Bs, tie_tol))):
            (P, d_star, witness, tie_set), (P_want, d_want, witness_want, tie_set_want) = got, want
            assert np.array_equal(P, P_want), (tie_tol, j)
            assert d_star == d_want and np.array_equal(witness, witness_want), (tie_tol, j)
            assert np.array_equal(tie_set, tie_set_want), (tie_tol, j)
    n = Bs.shape[1]
    for j, (_, d_want, witness_want, _) in enumerate(_looped_subgradients(Bs, 0.0)):
        cert = local_density_exact(StepGraphon(Bs[j], np.full(n, 1.0 / n)))
        assert cert.d_star == d_want and np.array_equal(cert.witness, witness_want), j


def _walk_kernels(rng, n):
    """W_3, W_5 and W_7 of a random graphon with Dirichlet measures: near
    low rank, so their convexity graphs hold most supports."""
    W = gen_random(n, int(rng.integers(2**31)), dirichlet_measures=True)
    return [path_power(W, s).values for s in (3, 5, 7)]


@pytest.mark.parametrize("n", range(2, 15))
def test_located_matches_full_enumeration(n, monkeypatch):
    rng = np.random.default_rng(400 + n)
    Bs = np.array(list(_oracle_inputs(rng, n)) + _walk_kernels(rng, n))
    _assert_located_matches_full(monkeypatch, Bs)


DRAWN_FAMILIES = (
    "uniform",
    "constant",
    "duplicated",
    "zero_one",
    "rounded",
    "near_limit",
    "barycentric",
    "zero_diagonal",
    "walk",
)


def _drawn_matrix(rng, n, family):
    uniform = _symmetric(rng.uniform(size=(n, n)))
    if family == "constant":
        return float(rng.uniform(0.1, 0.9)) + _symmetric(rng.choice([-1e-13, 0.0, 1e-13], size=(n, n)))
    if family == "duplicated":  # some blocks repeat others
        blocks = rng.integers(0, n, size=n)
        return uniform[np.ix_(blocks, blocks)]
    if family == "zero_one":
        return _symmetric(rng.integers(0, 2, size=(n, n)).astype(float))
    if family == "rounded":
        return np.round(uniform, 1)
    if family == "near_limit":
        return 0.5 + 1e-11 * _symmetric(rng.uniform(-1.0, 1.0, size=(n, n)))
    if family == "barycentric":
        return _barycentric(n)
    if family == "zero_diagonal":
        np.fill_diagonal(uniform, np.where(rng.random(n) < 0.5, 0.0, np.diag(uniform)))
    if family == "walk":
        return _walk_kernels(rng, n)[int(rng.integers(3))]
    return uniform


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 14), st.lists(st.sampled_from(DRAWN_FAMILIES), min_size=1, max_size=6), RNG_SEEDS)
def test_located_matches_full_enumeration_on_drawn_stacks(n, families, seed):
    rng = np.random.default_rng(seed)
    Bs = np.array([_drawn_matrix(rng, n, family) for family in families])
    with pytest.MonkeyPatch.context() as mp:
        _assert_located_matches_full(mp, Bs)


def test_only_pairs_and_cliques_are_certified(monkeypatch):
    candidate_arrays = localdensity._candidate_arrays
    solved = []

    def spy(Bs, cliques):
        solved.append((cliques, candidate_arrays(Bs, cliques)))
        return solved[-1][1]

    monkeypatch.setattr(localdensity, "_candidate_arrays", spy)
    n = 12
    rng = np.random.default_rng(23)
    B = _symmetric(rng.uniform(size=(n, n)))
    local_density_exact(StepGraphon(B, np.full(n, 1.0 / n)))
    edges = _fraction_edges(B)
    cliques = [combos[[edges[np.ix_(c, c)].all() for c in combos]] for combos in _supports(n)]
    # of the 2^n - 1 - n supports of two or more blocks, only the Fraction
    # cliques are passed, the edges first: no pair off the graph is solved
    ((passed, _),) = solved
    assert np.array_equal(passed[0][1], np.argwhere(np.triu(edges, 1)))
    assert [len(owner) for owner, _ in passed] == [len(c) for c in cliques if len(c)]
    assert sum(len(owner) for owner, _ in passed) < 2**n / 20
    # one summation order: a pair's candidate has the same bits as its
    # matrix's only pair and beside interior pairs (blocks 0 and 1 of a
    # matrix whose pairs (0, 2) and (1, 2) are edges with interior points);
    # this block's value moved under a rule that summed a lone pair apart
    A = np.array([[0.7756911881018284, 0.308857362719261], [0.308857362719261, 0.8631202041893178]])
    embedded = np.full((3, 3), 0.1)
    embedded[:2, :2] = A
    embedded[2, 2] = 0.9
    pair_candidates = []
    for B in (A, embedded):
        solved.clear()
        local_density_exact(StepGraphon(B, np.full(len(B), 1.0 / len(B))))
        ((_, (_, values, witnesses)),) = solved
        pairs = np.flatnonzero(np.count_nonzero(witnesses, axis=1) == 2)
        pair_candidates.append([(values[row], witnesses[row]) for row in pairs])
    (alone,), beside = pair_candidates
    assert len(beside) == 3 and np.array_equal(beside[0][1][2:], [0.0])
    assert beside[0][0] == alone[0] and np.array_equal(beside[0][1][:2], alone[1])


def _exact_kkt_solution(S):
    """(x, lambda) with 2 S x = lambda 1 and sum x = 1 for the square block S
    of Fractions, by Gauss-Jordan elimination in exact arithmetic, or None
    when the KKT system is singular."""
    r = len(S)
    A = [[2 * S[i][j] for j in range(r)] + [Fraction(-1), Fraction(0)] for i in range(r)]
    A.append([Fraction(1)] * r + [Fraction(0), Fraction(1)])
    for c in range(r + 1):
        pivot = next((i for i in range(c, r + 1) if A[i][c] != 0), None)
        if pivot is None:
            return None
        A[c], A[pivot] = A[pivot], A[c]
        for i in range(r + 1):
            if i != c and A[i][c] != 0:
                f = A[i][c] / A[c][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    sol = [A[i][r + 1] / A[i][i] for i in range(r + 1)]
    return sol[:r], sol[r]


def _exact_local_density(B):
    """The exact minimum of x^T B x over the simplex, B's stored floats read
    as Fractions: the least value among the vertices and the strictly
    interior stationary points of every support (a singular support is
    skipped, its face's minimum being attained on a sub-face too).  At a
    stationary point x^T B x = lambda / 2.  Test oracle only."""
    F = [[Fraction(v) for v in row] for row in B.tolist()]
    best = None
    for r in range(1, len(F) + 1):
        for support in itertools.combinations(range(len(F)), r):
            solved = _exact_kkt_solution([[F[i][j] for j in support] for i in support])
            if solved is not None and min(solved[0]) > 0 and (best is None or solved[1] / 2 < best):
                best = solved[1] / 2
    return best


def _exact_normalized_value(B, x):
    """x^T B x / (sum x)^2 in exact arithmetic: the value of the simplex
    point x / sum x."""
    F = [[Fraction(v) for v in row] for row in B.tolist()]
    X = [Fraction(v) for v in x.tolist()]
    total = sum(X)
    return sum(X[i] * F[i][j] * X[j] for i in range(len(X)) for j in range(len(X))) / (total * total)


def _exact_oracle_inputs(rng, n):
    """Fifteen families, friendly and adversarial: uniform, rounded, near
    constant, 0.5 plus tiny uniform noise at three scales, duplicated blocks
    with jitter, 0.5 J + eps I at five eps, walk kernels W_5 and W_7, and a
    rank-two matrix."""
    uniform = _symmetric(rng.uniform(size=(n, n)))
    noise = _symmetric(rng.uniform(-1.0, 1.0, size=(n, n)))
    blocks = rng.integers(0, n, size=n)
    duplicated = uniform[np.ix_(blocks, blocks)] + _symmetric(rng.choice([-1e-15, 0.0, 1e-15], size=(n, n)))
    a, b = rng.uniform(size=(2, n))
    return [
        uniform,
        np.round(uniform, 1),
        0.5 + _symmetric(rng.choice([-1e-13, 0.0, 1e-13], size=(n, n))),
        *(0.5 + scale * noise for scale in (1e-11, 1e-14, 1e-15)),
        np.clip(duplicated, 0.0, 1.0),
        *(_barycentric(n, eps) for eps in (1e-10, 1e-11, 1e-12, 1e-13, 1e-14)),
        *_walk_kernels(rng, n)[1:],
        (np.outer(a, a) + np.outer(b, b)) / 2.0,
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_exact_solver_matches_rational_oracle(n):
    # d* and its witness's value are within 1e-15 of the exact minimum on
    # every family, ill-conditioned faces included: on 0.5 J + 1e-12 I a
    # solver that drops ill-conditioned KKT systems returns a vertex, about
    # 1e-12 too high
    rng = np.random.default_rng(600 + n)
    for j, B in enumerate(_exact_oracle_inputs(rng, n)):
        cert = local_density_exact(StepGraphon(B, np.full(n, 1.0 / n)))
        exact = _exact_local_density(B)
        assert abs(Fraction(cert.d_star) - exact) <= 1e-15, (j, float(Fraction(cert.d_star) - exact))
        assert abs(_exact_normalized_value(B, cert.witness) - exact) <= 1e-15, j


def test_exact_solver_below_estimate_at_the_barycenter():
    # the minimum of 0.5 J + 1e-12 I is at the barycenter, whose KKT system
    # is ill-conditioned; projected gradient descent, an upper bound, finds
    # it, and the exact solver must not sit above it
    for n in (3, 4, 6):
        W = StepGraphon(_barycentric(n), np.full(n, 1.0 / n))
        assert local_density_exact(W).d_star <= local_density_estimate(W).d_star + 1e-15, n


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
