import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_graph, random_graphon
from graphonlab import (
    BudgetExceededError,
    Graph,
    StepFunction,
    StepGraphon,
    clique,
    complete_multipartite,
    constant,
    cycle_graph,
    edge_density,
    from_graph,
    gen_random,
    grad_hom_density,
    hom_count,
    hom_density,
    hom_density_naive,
    hom_density_subdivided,
    hom_density_weighted,
    path_graph,
    path_power,
    per_entry_gradient,
    subdivide,
)
from graphonlab import density, localdensity
from graphonlab.cli import cli, parse_graphon, parse_pattern
from graphonlab.density import (
    PROGRAM_CACHE_SIZE,
    _exact_partials,
    grad_hom_densities,
    grad_hom_densities_subdivided,
    hom_densities,
    hom_densities_subdivided,
    plan_elimination,
)
from graphonlab.operators import path_powers
from graphonlab.stepgraphon import as_step_function

RNG_SEEDS = st.integers(0, 2**31 - 1)


def test_constant_graphon_closed_form():
    w = constant(0.5, blocks=3)
    assert hom_density(clique(3), w) == pytest.approx(0.125, rel=1e-14)
    assert hom_density(cycle_graph(5), w) == pytest.approx(0.5**5, rel=1e-14)
    assert hom_density(Graph(3, []), w) == pytest.approx(1.0, rel=1e-14)


def test_edge_pattern_is_edge_density():
    w = gen_random(4, seed=3, dirichlet_measures=True)
    assert hom_density(clique(2), w) == pytest.approx(edge_density(w), rel=1e-13)


def test_cycle_density_is_trace():
    # t(C_k, W) = tr((diag(mu) B)^k)
    w = gen_random(4, seed=8, dirichlet_measures=True)
    M = w.measures[:, None] * w.values
    for k in (3, 4, 5):
        expected = float(np.trace(np.linalg.matrix_power(M, k)))
        assert hom_density(cycle_graph(k), w) == pytest.approx(expected, rel=1e-12)


def test_disconnected_pattern_multiplies():
    w = gen_random(3, seed=4)
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert hom_density(two_edges, w) == pytest.approx(edge_density(w) ** 2, rel=1e-12)


def test_isolated_vertices_are_free():
    w = gen_random(3, seed=5, dirichlet_measures=True)
    base = hom_density(clique(3), w)
    padded = Graph(5, list(clique(3).edges))
    assert hom_density(padded, w) == pytest.approx(base, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(RNG_SEEDS)
def test_fast_matches_naive(seed):
    rng = np.random.default_rng(seed)
    h = random_graph(rng, max_vertices=6)
    w = random_graphon(rng, max_blocks=4, dirichlet=True)
    fast = hom_density(h, w)
    naive = hom_density_naive(h, w)
    assert math.isclose(fast, naive, rel_tol=1e-10, abs_tol=1e-14)


@settings(max_examples=25, deadline=None)
@given(RNG_SEEDS)
def test_density_of_graph_matches_count(seed):
    rng = np.random.default_rng(seed)
    h = random_graph(rng, max_vertices=4)
    g = random_graph(rng, max_vertices=5)
    density = hom_density(h, from_graph(g))
    count = hom_count(h, g)
    assert math.isclose(density * g.vertex_count**h.vertex_count, count, rel_tol=1e-9, abs_tol=1e-9)


def test_weighted_reduces_to_plain():
    w = gen_random(4, seed=6, dirichlet_measures=True)
    h = cycle_graph(4)
    ones = StepFunction(np.ones(4), w.measures)
    assert hom_density_weighted(h, w, ones) == pytest.approx(hom_density(h, w), rel=1e-13)


def test_weighted_scaling():
    # scaling omega by c multiplies the density by c^v(H)
    w = gen_random(3, seed=7)
    h = clique(3)
    f = StepFunction(np.array([0.5, 1.0, 1.5]), w.measures)
    f2 = StepFunction(2.0 * f.values, w.measures)
    assert hom_density_weighted(h, w, f2) == pytest.approx(
        8.0 * hom_density_weighted(h, w, f), rel=1e-12
    )


def test_subdivided_shortcut_matches_explicit():
    w = gen_random(4, seed=11, dirichlet_measures=True)
    for h in (clique(3), cycle_graph(4), path_graph(2)):
        for s in (0, 1, 2, 3):
            explicit = hom_density(subdivide(h, s), w)
            shortcut = hom_density_subdivided(h, s, w)
            assert math.isclose(explicit, shortcut, rel_tol=1e-10, abs_tol=1e-14)


def test_naive_budget(monkeypatch):
    w = gen_random(5, seed=1)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(100))
    with pytest.raises(BudgetExceededError):
        hom_density_naive(clique(4), w)


# --- enumeration against the digit-and-gather enumerator it replaced ---------------


def _enumerated_terms(H, W):
    """Every map's term as the enumerator formed it before it broadcast:
    map i sends vertex p to digit p of i in base n, and its product gathers
    the edge values in edge_list order, then the measures of vertices
    0..v(H)-1, in chunks of 2^18 maps.  Summed by one math.fsum this is that
    enumerator's result wherever it had one chunk.  Test oracle only."""
    n, vH = W.n, H.vertex_count
    total = n**vH
    for start in range(0, total, 1 << 18):
        idx = np.arange(start, min(start + (1 << 18), total), dtype=np.int64)
        digits = [(idx // n**p) % n for p in range(vH)]
        acc = np.ones(len(idx))
        for u, v in H.edge_list:
            acc *= W.values[digits[u], digits[v]]
        for p in range(vH):
            acc *= W.measures[digits[p]]
        yield from acc.tolist()


# the patterns of the benchmark's exact workload
WHEEL6 = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(6, i) for i in range(6)])
C7_CHORDS = Graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (1, 5), (2, 6)])
K4_SUBDIVIDED = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 3), (2, 5), (5, 3), (3, 6), (6, 0)])
C6_CHORDS = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)])

NAIVE_PATTERNS = {
    "no vertices": Graph(0, []),
    "one vertex": Graph(1, []),
    "no edges": Graph(4, []),
    "isolated vertices": Graph(5, [(1, 3), (4, 3)]),
    "C6 with chords": C6_CHORDS,
    "K4 subdivided": K4_SUBDIVIDED,
    "wheel": WHEEL6,
    "C7 with chords": C7_CHORDS,
}


@pytest.mark.parametrize("n", range(1, 7))
def test_naive_matches_gathered_enumeration_bitwise(n):
    # every map's product has the old bits, so one correctly rounded sum of
    # them is the old result up to 2^18 maps (all but the 7-vertex patterns
    # at n = 6, where the old result rounded twice)
    rng = np.random.default_rng([77, n])
    for wname, W in _oracle_graphons(n, rng).items():
        for hname, H in NAIVE_PATTERNS.items():
            H = _relabelled(H, rng)
            assert hom_density_naive(H, W) == math.fsum(_enumerated_terms(H, W)), (wname, hname)


def test_naive_on_one_block_with_more_vertices_than_numpy_axes():
    H = path_graph(99)
    W = StepGraphon(np.array([[0.7]]), np.array([1.0]))
    assert hom_density_naive(H, W) == math.fsum(_enumerated_terms(H, W))


def test_naive_rounds_the_sum_of_all_maps_once():
    # above 2^18 maps a sum of per-chunk sums rounds twice: on the
    # 1-subdivided K4 at n = 6 (279 936 maps, two chunks), drawn as the
    # benchmark draws it, it was an ulp off on draws 0, 6, 14 and 19
    rng = np.random.default_rng(0)
    twice_off = 0
    for draw in range(20):
        perm = rng.permutation(7)
        H = Graph(7, [(int(perm[u]), int(perm[v])) for u, v in K4_SUBDIVIDED.edges])
        values = np.triu(rng.uniform(0.0, 1.0, size=(6, 6)))
        W = StepGraphon(values + np.triu(values, 1).T, rng.dirichlet(np.ones(6)))
        terms = list(_enumerated_terms(H, W))
        once = math.fsum(terms)
        assert hom_density_naive(H, W) == once, draw
        twice_off += once != math.fsum([math.fsum(terms[: 1 << 18]), math.fsum(terms[1 << 18:])])
    assert twice_off == 4


def _tie_cases():
    # 1 + k 2^-53 lands on or beside a half-way point between neighbours
    for base in (1.0, 1.0 + 2.0**-52, 0.75):
        for k in range(1, 6):
            yield np.array([base] + [2.0**-53] * k)
    yield np.array([1.0, 2.0**-53, 2.0**-106])  # just above the tie: rounds up
    yield np.array([1.0, 2.0**-53, -(2.0**-106)])  # just below: rounds down
    yield np.array([2.0**-53] * 1000 + [1.0] + [2.0**-53] * 1001)


EXACT_PARTIAL_CASES = {
    "subnormal": np.array([5e-324, 2.0**-1022 - 5e-324, 3e-320, -5e-324, 2.0**-1022, 1e-310] * 50),
    "signed zeros": np.array([-0.0, 0.0, -0.0, 1e-300, -0.0, 0.0]),
    "2^18 copies of 1 - 2^-53": np.full(1 << 18, 1.0 - 2.0**-53),
    "130 exponents": np.array([(-1) ** i * (1.0 + i * 2.0**-40) * 2.0 ** (-8 * i) for i in range(130)]),
} | {f"tie {i}": x for i, x in enumerate(_tie_cases())}


@pytest.mark.parametrize("name", EXACT_PARTIAL_CASES)
def test_exact_partials_sum_to_fsum_bitwise(name):
    x = EXACT_PARTIAL_CASES[name]
    assert math.fsum(_exact_partials(x)) == math.fsum(x.tolist())


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 5000),
              elements=st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)))
def test_exact_partials_sum_to_fsum_bitwise_on_any_terms(x):
    assert math.fsum(_exact_partials(x)) == math.fsum(x.tolist())


@pytest.mark.parametrize("n", [3, 4])
def test_naive_matches_enumeration_on_underflowing_terms(n):
    # scaled by 10^-k the terms go subnormal, then to zero, map by map
    rng = np.random.default_rng([25, n])
    graphons = _oracle_graphons(n, rng)
    signed = graphons["uniform"].values.copy()
    signed[0, 1] = signed[1, 0] = -0.0
    cases = [(f"{wname} 1e-{k}", StepGraphon(W.values * 10.0**-k, W.measures))
             for wname, W in graphons.items() for k in range(0, 161, 10)]
    cases.append(("-0.0 entry", StepGraphon(signed, graphons["uniform"].measures)))
    for wname, W in cases:
        for hname, H in NAIVE_PATTERNS.items():
            assert hom_density_naive(H, W) == math.fsum(_enumerated_terms(H, W)), (wname, hname)


def test_density_route_naive_prints_the_enumerated_sum():
    runner = CliRunner()
    for pattern, graphon, subdivision in (
        ("clique:3", "random:4:1", "0"),
        ("clique:3", "random:4:1", "1"),
        ("catalog:z6_chords", "random:3:5", "0"),
        ("cycle:5", "const:0.3:4", "0"),
        # subnormal: the elimination route prints 1.000000003e-315 here
        ("clique:3", "const:1e-105:3", "0"),
    ):
        res = runner.invoke(cli, ["density", "--pattern", pattern, "--graphon", graphon,
                                  "--route", "naive", "--subdivision", subdivision])
        assert res.exit_code == 0, res.output
        H = subdivide(parse_pattern(pattern), int(subdivision))
        assert res.output == repr(math.fsum(_enumerated_terms(H, parse_graphon(graphon)))) + "\n"


def test_fast_budget(monkeypatch):
    w = gen_random(5, seed=1)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(10))
    with pytest.raises(BudgetExceededError):
        hom_density(clique(5), w)


def test_plan_elimination_tree_width_on_cycle():
    # eliminating a cycle leaves arity <= 3 tensors
    plan = plan_elimination(cycle_graph(6), 4)
    assert max(plan.arities) <= 3
    assert len(plan.order) == 6


def test_plan_respects_pinned():
    # pinned vertices shape the order and the cost, and are never eliminated
    plan = plan_elimination(clique(3), 4, pinned=(0, 1))
    assert plan.order == (2,) and plan.arities == (3,) and plan.cost == 4.0**3


def test_gradient_matches_finite_differences():
    w = gen_random(3, seed=13)
    h = cycle_graph(4)
    G = grad_hom_density(h, w)
    base = w.values.copy()
    hstep = 1e-6
    for i in range(3):
        for j in range(i, 3):
            bumped = base.copy()
            bumped[i, j] += hstep
            bumped[j, i] = bumped[i, j]
            lowered = base.copy()
            lowered[i, j] -= hstep
            lowered[j, i] = lowered[i, j]
            from graphonlab import StepGraphon

            up = hom_density(h, StepGraphon(bumped, w.measures))
            down = hom_density(h, StepGraphon(lowered, w.measures))
            fd = (up - down) / (2 * hstep)
            assert G[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_gradient_edge_pattern_closed_form():
    w = gen_random(3, seed=17, dirichlet_measures=True)
    G = grad_hom_density(clique(2), w)
    mu = w.measures
    expected = 2.0 * np.outer(mu, mu)
    np.fill_diagonal(expected, mu**2)
    np.testing.assert_allclose(G, expected, rtol=1e-12)


def test_per_entry_gradient():
    G = np.array([[2.0, 4.0], [4.0, 6.0]])
    E = per_entry_gradient(G)
    np.testing.assert_allclose(E, [[2.0, 2.0], [2.0, 6.0]])
    # directional derivative along symmetric D: sum over all entries
    w = gen_random(3, seed=19)
    h = clique(3)
    D = np.array([[0.1, -0.2, 0.3], [-0.2, 0.0, 0.1], [0.3, 0.1, -0.4]])
    E = per_entry_gradient(grad_hom_density(h, w))
    t = 1e-7
    from graphonlab import StepGraphon

    up = hom_density(h, StepGraphon(np.clip(w.values + t * D, 0, 1), w.measures))
    down = hom_density(h, StepGraphon(np.clip(w.values - t * D, 0, 1), w.measures))
    fd = (up - down) / (2 * t)
    assert float((E * D).sum()) == pytest.approx(fd, rel=1e-5, abs=1e-9)


# --- compiled engine against the interpretive one it replaced ------------------------


def _oracle_aligned(arr, axes_vars, union, n):
    positions = [union.index(w) for w in axes_vars]
    arr = np.transpose(arr, np.argsort(positions))
    shape = [1] * len(union)
    for p in positions:
        shape[p] = n
    return arr.reshape(shape)


def _oracle_contract(n, edges, B, weight, order, pinned=()):
    """Per-call elimination: regroups the factors at every step, seeds each
    product with ones and sums out with np.tensordot."""
    factors = [((u, v), B) for (u, v) in edges]
    scalar = 1.0
    for v in order:
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        if not touching:
            scalar *= float(weight.sum())
            continue
        union = tuple(sorted(set().union(*(vars_ for vars_, _ in touching))))
        merged = np.ones((n,) * len(union))
        for vars_, arr in touching:
            merged = merged * _oracle_aligned(arr, vars_, union, n)
        summed = np.tensordot(merged, weight, axes=([union.index(v)], [0]))
        rest = tuple(w for w in union if w != v)
        if rest:
            factors.append((rest, summed))
        else:
            scalar *= float(summed)
    if not pinned:
        assert not factors
        return scalar, None
    out = np.ones((n,) * len(pinned))
    for vars_, arr in factors:
        out = out * _oracle_aligned(arr, vars_, pinned, n)
    return scalar, out


def _oracle_density(H, W, weight):
    plan = plan_elimination.__wrapped__(H, W.n)
    return _oracle_contract(W.n, H.edge_list, W.values, weight, plan.order)[0]


def _oracle_gradient(H, W):
    """The gradient as the engine computed it before its reverse pass: one
    contraction per edge of H, that edge deleted and its endpoints pinned,
    and the factor left over them times the other components' scalar."""
    n, mu = W.n, W.measures
    G = np.zeros((n, n))
    outer_mu = np.outer(mu, mu)
    for edge in H.edge_list:
        rest_edges = tuple(e for e in H.edge_list if e != edge)
        plan = plan_elimination.__wrapped__(Graph(H.vertex_count, rest_edges), n, pinned=edge)
        scalar, factor = _oracle_contract(n, rest_edges, W.values, mu, plan.order, pinned=edge)
        T = scalar * factor * outer_mu
        G += T + T.T - np.diag(np.diag(T))
    return G


ORACLE_PATTERNS = {
    "K2": clique(2),  # the oracle gradient's pinned tail has no factors
    "P3": path_graph(2),  # its pinned tail factor spans one pinned vertex
    "K3": clique(3),
    "K4": clique(4),
    "C5": cycle_graph(5),
    "K2,3": complete_multipartite(2, 3),
    "K3+isolated": Graph(5, [(0, 3), (3, 4), (0, 4)]),  # vertices 1, 2 sum the weights
    "K2+P3": Graph(5, [(0, 4), (1, 2), (2, 3)]),
    "K4 subdivided": Graph(10, [(6, 0), (0, 1), (1, 9), (2, 9), (2, 7), (7, 3), (3, 6), (3, 8),
                                (8, 5), (5, 9), (4, 6), (4, 1), (0, 7), (5, 2)]),
}


def _oracle_graphons(n: int, rng: np.random.Generator):
    values = np.triu(rng.uniform(0.0, 1.0, size=(n, n)))
    values = values + np.triu(values, 1).T
    tiny = rng.dirichlet(np.full(n, 0.1)) + 1e-12  # Dirichlet with tiny blocks
    zero_one = np.triu(rng.random((n, n)) < 0.5).astype(float)
    zero_one = zero_one + np.triu(zero_one, 1).T
    zero_one[0, :] = zero_one[:, 0] = 0.0
    if n > 1:
        zero_one[1, 1] = 1.0
    return {
        "uniform": StepGraphon(values, np.full(n, 1.0 / n)),
        "tiny blocks": StepGraphon(values, tiny / tiny.sum()),
        "zero-one": StepGraphon(zero_one, rng.dirichlet(np.ones(n))),
        "all ones": StepGraphon(np.ones((n, n)), tiny / tiny.sum()),
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_compiled_engine_matches_interpretive_oracle(n):
    rng = np.random.default_rng([2024, n])
    for wname, W in _oracle_graphons(n, rng).items():
        omega = rng.uniform(0.0, 2.0, size=n)
        omega[rng.random(n) < 0.3] = 0.0
        weight = as_step_function(omega, W).values * W.measures
        for hname, H in ORACLE_PATTERNS.items():
            case = (wname, hname)
            t = hom_density(H, W)
            assert t == _oracle_density(H, W, W.measures), case
            assert hom_density_weighted(H, W, omega) == _oracle_density(H, W, weight), case
            if n**H.vertex_count <= 50_000:
                naive = hom_density_naive(H, W)
                assert math.isclose(t, naive, rel_tol=1e-12, abs_tol=0.0), case


def _gradient_oracle_patterns():
    patterns = _plan_oracle_patterns()
    patterns["two triangles"] = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    patterns["P3+K2+2 isolated"] = Graph(7, [(5, 1), (1, 3), (0, 6)])
    patterns["edgeless"] = Graph(4, [])
    patterns["one vertex"] = Graph(1, [])
    return patterns


@pytest.mark.parametrize("n", range(1, 9))
def test_reverse_pass_gradient_matches_pinned_plan_oracle(n):
    # every term of every entry is non-negative, so nothing cancels and the
    # two summation orders agree to a few ulps relative; a zero entry (0/1
    # graphons, zero-measure blocks) must come out exactly zero
    rng = np.random.default_rng([2026, n])
    graphons = _oracle_graphons(n, rng)
    for wname in ("uniform", "tiny blocks", "zero-one"):
        W = graphons[wname]
        for hname, H in _gradient_oracle_patterns().items():
            np.testing.assert_allclose(
                grad_hom_density(H, W), _oracle_gradient(H, W), rtol=1e-13, atol=0.0,
                err_msg=str((wname, hname)),
            )


# --- stacked calls against the one-graphon calls they stack -------------------------


STACK_PATTERNS = {
    **ORACLE_PATTERNS,
    "K3 2-subdivided": subdivide(clique(3), 2),
    "K4 1-subdivided": subdivide(clique(4), 1),
    "3 isolated": Graph(3, []),
    "empty": Graph(0, []),
}
STACK_SIZES = (1, 2, 5, 17, 64)


def _random_values(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k symmetric matrices in [0, 1], some with exact zeros and ones."""
    values = rng.uniform(0.0, 1.0, size=(k, n, n))
    values[rng.random((k, n, n)) < 0.1] = 0.0
    values[rng.random((k, n, n)) < 0.1] = 1.0
    upper = np.triu(values)
    return upper + np.triu(upper, 1).transpose(0, 2, 1)


@pytest.mark.parametrize("n", range(1, 10))
def test_stacked_calls_match_one_graphon_calls_bitwise(n):
    """hom_densities, grad_hom_densities, path_powers and
    hom_densities_subdivided against hom_density, grad_hom_density,
    path_power and hom_density_subdivided per matrix, with the stack's measures
    those of the graphons: uniform (whose renormalization moves a bit at
    n = 6 and 7) and Dirichlet.  Bit equality holds because np.matmul over a
    stack rounds each matrix as a lone product does; that is a property of
    this numpy/BLAS build, not of floating point, so this test pins it."""
    rng = np.random.default_rng([2025, n])
    for mname, mu in (("uniform", np.full(n, 1.0 / n)), ("dirichlet", rng.dirichlet(np.ones(n)))):
        for i, (hname, H) in enumerate(STACK_PATTERNS.items()):
            k = STACK_SIZES[(n + i) % len(STACK_SIZES)]
            Ws = [StepGraphon(values, mu) for values in _random_values(rng, n, k)]
            Bs, measures = np.stack([W.values for W in Ws]), Ws[0].measures
            case = (mname, hname, k)
            want = [hom_density(H, W) for W in Ws]
            assert hom_densities(H, Bs, measures).tolist() == want, case
            want = np.stack([grad_hom_density(H, W) for W in Ws])
            assert np.array_equal(grad_hom_densities(H, Bs, measures), want), case
            s = 1 + i % 5
            want = np.stack([path_power(W, s).values for W in Ws])
            assert np.array_equal(path_powers(Bs, measures, s), want), case
            for s in range(5):
                want = [hom_density_subdivided(H, s, W) for W in Ws]
                assert hom_densities_subdivided(H, s, Bs, measures).tolist() == want, case + (s,)


@pytest.mark.parametrize("n", (1, 3, 9))
def test_stacked_calls_on_an_empty_stack(n):
    # each stacked API gives an empty stack of its result's shape; the exact
    # solver's convexity graphs and clique growth see it too
    Bs, measures = np.zeros((0, n, n)), np.full(n, 1.0 / n)
    for H in STACK_PATTERNS.values():
        assert hom_densities(H, Bs, measures).shape == (0,)
        assert grad_hom_densities(H, Bs, measures).shape == (0, n, n)
        for s in (0, 2):
            assert hom_densities_subdivided(H, s, Bs, measures).shape == (0,)
            assert grad_hom_densities_subdivided(H, s, Bs, measures).shape == (0, n, n)
    assert path_powers(Bs, measures, 3).shape == (0, n, n)
    edges = localdensity._convexity_edges(Bs)
    assert edges.shape == (0, n, n) and localdensity._cliques(edges) == []
    assert localdensity.local_density_subgradients(Bs) == []


@pytest.mark.parametrize("n", range(2, 7))
def test_subdivided_gradient_matches_the_engine_on_the_subdivided_pattern(n):
    """The walk-kernel chain rule of grad_hom_densities_subdivided against
    the reverse pass of the elimination engine on the s-subdivided pattern,
    an independent route to the same derivative."""
    rng = np.random.default_rng([2024, n])
    for H in (clique(2), clique(3), cycle_graph(5)):
        for s in range(1, 5):
            measures = rng.dirichlet(np.ones(n))
            Bs = _random_values(rng, n, 3)
            want = grad_hom_densities(subdivide(H, s), Bs, measures)
            got = grad_hom_densities_subdivided(H, s, Bs, measures)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"{H} s={s}")


def test_engine_runs_on_fraction_entries():
    # the programs also run on exact Fraction object arrays; K3's one scalar
    # step meets the float 1.0 seed last, so the result is the exact density
    # rounded once
    W = gen_random(3, seed=8)
    B = np.array([[Fraction(x) for x in row] for row in W.values], dtype=object)
    mu = np.array([Fraction(x) for x in W.measures], dtype=object)
    exact = sum(
        B[a, b] * B[a, c] * B[b, c] * mu[a] * mu[b] * mu[c]
        for a, b, c in itertools.product(range(3), repeat=3)
    )
    scalars, _ = density._run(plan_elimination(clique(3), 3), B[None], mu)
    assert scalars.tolist() == [float(exact)]


def test_stacked_calls_charge_once_per_stack(monkeypatch):
    # the budget caps the work on one matrix, however many are stacked
    H, n = clique(3), 4
    Bs = _random_values(np.random.default_rng(3), n, 64)
    mu = np.full(n, 1.0 / n)
    plan = plan_elimination(H, n)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(plan.cost))
    hom_densities(H, Bs, mu)
    path_powers(Bs, mu, 2)  # n^3 cells
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(plan.cost - 1))
    with pytest.raises(BudgetExceededError, match="^elimination plan needs 84 cells"):
        hom_densities(H, Bs[:1], mu)
    # the reverse pass adds n^arity cells per factor scope of each step:
    # 2 * 64 + 1 * 16 + 1 * 4 = 148 on top of the forward pass's 84
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(plan.gradient_cost))
    grad_hom_densities(H, Bs, mu)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(plan.gradient_cost - 1))
    with pytest.raises(BudgetExceededError, match="^elimination plan needs 232 cells"):
        grad_hom_densities(H, Bs[:1], mu)


# --- one-pass planner against the two passes it replaced ---------------------------


def _oracle_order(H, n, pinned):
    """Greedy minimum-degree order by fill-in on adjacency sets alone."""
    alive = set(range(H.vertex_count))
    adj = {v: set() for v in alive}
    for u, v in H.edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = alive - set(pinned)
    order, arities, cost = [], [], 0.0
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        neigh = adj[v]
        order.append(v)
        arities.append(len(neigh) + 1)
        cost += float(n) ** (len(neigh) + 1)
        for a in neigh:
            adj[a].discard(v)
        for a in neigh:
            for b in neigh:
                if a != b:
                    adj[a].add(b)
        del adj[v]
        remaining.discard(v)
    return tuple(order), tuple(arities), cost


def _oracle_plan(H, n, pinned=()):
    """The order replayed on factor scopes: (order, arities, cost, steps,
    gradient cost), each step a density._Step; the gradient cost adds
    n^arity per distinct factor scope of each step to the cost."""
    order, arities, cost = _oracle_order(H, n, pinned)
    edges = H.edge_list
    factors = [(edge, slot) for slot, edge in enumerate(edges)]
    next_slot = len(edges)
    steps = []
    gradient_cost = cost
    for v, arity in zip(order, arities):
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        gradient_cost += len({vars_ for vars_, _ in touching}) * float(n) ** arity
        if not touching:
            steps.append(density._Step((), (), False, None, ()))
            continue
        union = sorted(set().union(*(vars_ for vars_, _ in touching)))
        rest = tuple(w for w in union if w != v)
        lead = bool(rest) and v == union[0]
        axes = (v,) + rest if lead else rest + (v,)
        out = None
        if rest:
            out = next_slot
            next_slot += 1
            factors.append((rest, out))
        slots = tuple(slot for _, slot in touching)
        steps.append(density._Step(slots, density._layouts(touching, axes, n), lead, out,
                                   (n,) * len(rest)))
    assert all(set(vars_) <= set(pinned) for vars_, _ in factors)
    return order, arities, cost, tuple(steps), gradient_cost


def _relabelled(H, rng):
    perm = [int(p) for p in rng.permutation(H.vertex_count)]
    return Graph(H.vertex_count, [(perm[u], perm[v]) for u, v in H.edges])


def _plan_oracle_patterns():
    rng = np.random.default_rng(13)
    patterns = dict(ORACLE_PATTERNS)
    for i in range(6):
        H = random_graph(rng, max_vertices=7)
        isolated = int(rng.integers(1, 3))
        patterns[f"random {i} + {isolated} isolated"] = _relabelled(
            Graph(H.vertex_count + isolated, H.edges), rng
        )
    patterns["K4 subdivided, relabelled"] = _relabelled(subdivide(clique(4), 1), rng)
    return patterns


@pytest.mark.parametrize("n", range(1, 6))
def test_one_pass_plan_matches_two_pass_oracle(n):
    for hname, H in _plan_oracle_patterns().items():
        # plain, each edge deleted and pinned as the benchmark's tracer
        # plans it, and each edge kept and pinned in reverse
        cases = [(H, ())]
        for u, v in H.edge_list:
            cases.append((Graph(H.vertex_count, H.edges - {(u, v)}), (u, v)))
            cases.append((H, (v, u)))
        for G, pinned in cases:
            plan = plan_elimination.__wrapped__(G, n, pinned)
            got = (plan.order, plan.arities, plan.cost, plan.steps, plan.gradient_cost)
            assert got == _oracle_plan(G, n, pinned), (hname, pinned)
            assert plan.edge_count == G.edge_count and len(plan.adjoints) == len(plan.steps)


def test_second_density_call_is_a_plan_cache_hit():
    # the plan cache is the one cache a density call consults, so a warm
    # call counts as a hit and builds nothing
    H = _relabelled(ORACLE_PATTERNS["K4 subdivided"], np.random.default_rng(29))
    W = gen_random(3, seed=4)
    plan_elimination.cache_clear()
    first = hom_density(H, W)
    cold = plan_elimination.cache_info()
    layouts = density._layout.cache_info()
    assert (cold.hits, cold.misses, cold.currsize) == (0, 1, 1)
    assert hom_density(H, W) == first
    warm = plan_elimination.cache_info()
    assert (warm.hits, warm.misses, warm.currsize) == (1, 1, 1)
    assert density._layout.cache_info() == layouts


def test_gradient_runs_the_density_plan():
    # a gradient plans through the one plan cache: after a density of the
    # same (H, n) it is a hit, and fresh patterns keep the cache bounded
    W = gen_random(3, seed=2)
    base = ORACLE_PATTERNS["K4 subdivided"]
    rng = np.random.default_rng(5)
    for _ in range(PROGRAM_CACHE_SIZE + 8):
        H = _relabelled(base, rng)
        hom_density(H, W)
        before = plan_elimination.cache_info()
        grad_hom_density(H, W)
        after = plan_elimination.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert after.currsize <= PROGRAM_CACHE_SIZE


def _no_arithmetic(*args, **kwargs):
    raise AssertionError("contraction ran past the budget check")


def test_budget_checked_before_any_arithmetic(monkeypatch):
    # a gradient is charged its forward and reverse pass as one sum, so a
    # budget between that and the density's cost stops the gradient only
    H = Graph(6, [(0, 4), (0, 5), (1, 4), (2, 3), (2, 5), (3, 5)])
    W = gen_random(5, seed=3)
    omega = np.linspace(0.5, 1.5, 5)
    cost = plan_elimination(H, W.n).cost
    grad_cost = _oracle_plan(H, W.n)[4]
    grad_budget = grad_cost - 1
    assert cost < grad_budget

    def check_budget_errors():
        with monkeypatch.context() as m:
            m.setattr(density, "_run", _no_arithmetic)
            m.setenv("GRAPHONLAB_BUDGET", repr(cost - 1))
            message = f"elimination plan needs {cost:g} cells, budget {cost - 1:g}"
            with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
                hom_density(H, W)
            with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
                hom_density_weighted(H, W, omega)
            m.setenv("GRAPHONLAB_BUDGET", repr(grad_budget))
            message = f"elimination plan needs {grad_cost:g} cells, budget {grad_budget:g}"
            with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
                grad_hom_density(H, W)

    plan_elimination.cache_clear()
    check_budget_errors()
    hom_density(H, W)
    grad_hom_density(H, W)
    check_budget_errors()  # with the plan cached
    # a budget equal to the cost passes
    with monkeypatch.context() as m:
        m.setenv("GRAPHONLAB_BUDGET", repr(cost))
        at_cost = hom_density(H, W)
        m.setenv("GRAPHONLAB_BUDGET", repr(grad_cost))
        grad_at_cost = grad_hom_density(H, W)
    assert at_cost == hom_density(H, W)
    assert np.array_equal(grad_at_cost, grad_hom_density(H, W))
