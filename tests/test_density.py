import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from graphonlab import density
from graphonlab.density import (
    PROGRAM_CACHE_SIZE, grad_hom_densities, hom_densities, plan_elimination
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
    plan = plan_elimination(clique(3), 4, pinned=(0, 1))
    assert plan.order == (2,)


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
    "K2": clique(2),  # the gradient's pinned tail has no factors
    "P3": path_graph(2),  # a pinned tail factor spans one pinned vertex
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
            assert np.array_equal(grad_hom_density(H, W), _oracle_gradient(H, W)), case
            if n**H.vertex_count <= 50_000:
                naive = hom_density_naive(H, W)
                assert math.isclose(t, naive, rel_tol=1e-12, abs_tol=0.0), case


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
    """hom_densities, grad_hom_densities and path_powers against hom_density,
    grad_hom_density and path_power per matrix, with the stack's measures
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
    cost = plan_elimination(H, n).cost
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(cost))
    hom_densities(H, Bs, mu)
    grad_hom_densities(H, Bs, mu)
    path_powers(Bs, mu, 2)  # n^3 cells
    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(cost - 1))
    with pytest.raises(BudgetExceededError, match="^elimination plan needs 84 cells"):
        hom_densities(H, Bs[:1], mu)


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
    tail slots, tail layouts), each step a density._Step."""
    order, arities, cost = _oracle_order(H, n, pinned)
    edges = H.edge_list
    factors = [(edge, slot) for slot, edge in enumerate(edges)]
    next_slot = len(edges)
    steps = []
    for v in order:
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
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
    tail_slots = tuple(slot for _, slot in factors)
    return order, arities, cost, tuple(steps), tail_slots, density._layouts(factors, pinned, n)


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
        # plain, each edge deleted and pinned as a gradient plans it, and
        # each edge kept and pinned in reverse, so a tail factor is transposed
        cases = [(H, ())]
        for u, v in H.edge_list:
            cases.append((Graph(H.vertex_count, H.edges - {(u, v)}), (u, v)))
            cases.append((H, (v, u)))
        for G, pinned in cases:
            plan = plan_elimination.__wrapped__(G, n, pinned)
            got = (plan.order, plan.arities, plan.cost, plan.steps,
                   plan.tail_slots, plan.tail_layouts)
            assert got == _oracle_plan(G, n, pinned), (hname, pinned)
            assert plan.edge_count == G.edge_count and plan.pinned == pinned


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


def test_gradient_programs_leave_plan_cache_alone():
    # a gradient plans its edge-deleted graphs inside its own cache entry,
    # so fresh patterns add no plan-cache entry, and both caches stay bounded
    W = gen_random(3, seed=2)
    base = ORACLE_PATTERNS["K4 subdivided"]
    rng = np.random.default_rng(5)
    before = plan_elimination.cache_info()
    for _ in range(PROGRAM_CACHE_SIZE + 8):
        perm = [int(p) for p in rng.permutation(base.vertex_count)]
        H = Graph(base.vertex_count, [(perm[u], perm[v]) for u, v in base.edges])
        grad_hom_density(H, W)
    assert plan_elimination.cache_info() == before
    assert density._gradient_program.cache_info().currsize <= PROGRAM_CACHE_SIZE
    assert plan_elimination.cache_info().currsize <= PROGRAM_CACHE_SIZE


def _no_arithmetic(*args, **kwargs):
    raise AssertionError("contraction ran past the budget check")


def test_budget_checked_before_any_arithmetic(monkeypatch):
    # pinning (1, 4) costs more than pinning any other edge, so only the
    # third pinned plan exceeds grad_budget
    H = Graph(6, [(0, 4), (0, 5), (1, 4), (2, 3), (2, 5), (3, 5)])
    W = gen_random(5, seed=3)
    omega = np.linspace(0.5, 1.5, 5)
    cost = plan_elimination(H, W.n).cost
    edge_costs = [
        plan_elimination.__wrapped__(
            Graph(H.vertex_count, [e for e in H.edge_list if e != edge]), W.n, pinned=edge
        ).cost
        for edge in H.edge_list
    ]
    grad_budget = (min(edge_costs) + max(edge_costs)) / 2
    first_over = next(c for c in edge_costs if c > grad_budget)
    assert edge_costs[0] < grad_budget < first_over

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
            message = f"elimination plan needs {first_over:g} cells, budget {grad_budget:g}"
            with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
                grad_hom_density(H, W)

    plan_elimination.cache_clear()
    density._gradient_program.cache_clear()
    check_budget_errors()
    hom_density(H, W)
    grad_hom_density(H, W)
    check_budget_errors()  # with both plans cached
    # a budget equal to the cost passes
    with monkeypatch.context() as m:
        m.setenv("GRAPHONLAB_BUDGET", repr(cost))
        at_cost = hom_density(H, W)
    assert at_cost == hom_density(H, W)
