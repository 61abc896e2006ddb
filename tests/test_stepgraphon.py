import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab import (
    EmptySetError,
    MismatchedStructureError,
    NonConvergenceError,
    OccupancyVector,
    StepFunction,
    StepGraphon,
    clique,
    constant,
    degree_function,
    edge_density,
    from_graph,
    gen_pointwise_dense,
    gen_random,
    gen_regular,
    graphon_from_json,
    graphon_to_json,
    hadamard,
    is_regular,
    load_graphon,
    restrict,
    save_graphon,
)
from graphonlab.stepgraphon import _unchecked_graphon

RNG_SEEDS = st.integers(0, 2**31 - 1)


def test_construction_normalizes():
    w = StepGraphon([[0.2, 0.7], [0.7, 0.4]], [0.5, 0.5])
    assert w.n == 2
    assert not w.values.flags.writeable
    assert not w.measures.flags.writeable
    np.testing.assert_allclose(w.measures.sum(), 1.0)


def test_measure_renormalization_within_drift():
    w = StepGraphon([[0.5]], [1.0 + 5e-10])
    assert w.measures[0] == 1.0
    with pytest.raises(ValueError):
        StepGraphon([[0.5]], [1.0 + 1e-6])


def test_rejects_bad_values():
    with pytest.raises(ValueError):
        StepGraphon([[0.0, 1.0], [0.5, 0.0]], [0.5, 0.5])  # asymmetric
    with pytest.raises(ValueError):
        StepGraphon([[1.5]], [1.0])
    with pytest.raises(ValueError):
        StepGraphon([[np.nan]], [1.0])
    with pytest.raises(ValueError):
        StepGraphon([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0])
    # block counts below 1, before any division by the count
    for n in (0, -2):
        for make in (
            lambda: constant(0.5, n),
            lambda: gen_random(n, 1),
            lambda: gen_random(n, 1, dirichlet_measures=True),
            lambda: gen_pointwise_dense(n, 0.3, 1),
            lambda: gen_regular(n, 0.5, 1),
        ):
            with pytest.raises(ValueError):
                make()


def test_symmetrization_of_tiny_asymmetry():
    vals = np.array([[0.3, 0.5 + 5e-13], [0.5, 0.3]])
    w = StepGraphon(vals, [0.5, 0.5])
    assert w.values[0, 1] == w.values[1, 0]


def test_constant_and_edge_density():
    w = constant(0.37, blocks=3)
    assert w.n == 3
    assert edge_density(w) == pytest.approx(0.37, abs=1e-15)
    assert is_regular(w) == pytest.approx(0.37, abs=1e-15)


def test_from_graph_matches_adjacency():
    g = clique(3)
    w = from_graph(g)
    assert w.n == 3
    assert w.values[0, 1] == 1.0
    assert w.values[0, 0] == 0.0
    # t(K_2, W_G) = 2 e(G) / v(G)^2
    assert edge_density(w) == pytest.approx(2 * 3 / 9)


def test_degree_function():
    w = StepGraphon([[0.0, 1.0], [1.0, 0.0]], [0.25, 0.75])
    deg = degree_function(w)
    np.testing.assert_allclose(deg.values, [0.75, 0.25])
    assert deg.integral() == pytest.approx(0.375)


def test_is_regular_none_for_irregular():
    w = StepGraphon([[0.9, 0.1], [0.1, 0.1]], [0.5, 0.5])
    assert is_regular(w) is None
    zero = constant(0.0, blocks=2)
    d = is_regular(zero)
    assert d is not None and d == 0.0


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([-0.5, 1.0], [0.5, 0.5])
    f = StepFunction([0.0, 2.0], [0.5, 0.5])
    assert f.integral() == pytest.approx(1.0)


def test_occupancy_validation():
    with pytest.raises(ValueError):
        OccupancyVector([1.5])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            OccupancyVector([bad, 0.5, 0.2])
    a = OccupancyVector([0.5, 1.0])
    assert a.measure([0.5, 0.5]) == pytest.approx(0.75)


def test_restrict_drops_zero_blocks():
    w = StepGraphon([[0.1, 0.2, 0.3], [0.2, 0.4, 0.5], [0.3, 0.5, 0.6]], [0.2, 0.3, 0.5])
    sub = restrict(w, [1.0, 0.0, 0.5])
    assert sub.n == 2
    np.testing.assert_allclose(sub.values, [[0.1, 0.3], [0.3, 0.6]])
    np.testing.assert_allclose(sub.measures, [0.2 / 0.45, 0.25 / 0.45])
    with pytest.raises(EmptySetError):
        restrict(w, [0.0, 0.0, 0.0])


def test_restrict_full_set_is_identity():
    w = gen_random(4, seed=5, dirichlet_measures=True)
    sub = restrict(w, np.ones(4))
    np.testing.assert_allclose(sub.values, w.values)
    np.testing.assert_allclose(sub.measures, w.measures)


def test_hadamard():
    w = constant(0.5, blocks=2)
    u = constant(0.4, blocks=2)
    prod = hadamard(w, u)
    np.testing.assert_allclose(prod.values, 0.2)
    mismatched = StepGraphon([[0.5]], [1.0])
    with pytest.raises(MismatchedStructureError):
        hadamard(w, mismatched)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), RNG_SEEDS, st.booleans())
def test_gen_random_valid(n, seed, dirichlet):
    w = gen_random(n, seed, dirichlet_measures=dirichlet)
    assert w.n == n
    assert np.all(w.values >= 0.0) and np.all(w.values <= 1.0)
    np.testing.assert_allclose(w.values, w.values.T)
    assert w.measures.sum() == pytest.approx(1.0)


def test_gen_random_deterministic():
    a = gen_random(4, seed=99)
    b = gen_random(4, seed=99)
    np.testing.assert_array_equal(a.values, b.values)


GENERATORS = {
    "gen_random": gen_random,
    "gen_pointwise_dense": gen_pointwise_dense,
    "gen_regular": gen_regular,
}
# recorded before the generators were merged onto one random-symmetric draw
GENERATOR_CASES = json.loads((Path(__file__).parent / "golden" / "generators.json").read_text())


def _case_id(case) -> str:
    kwargs = case["kwargs"]
    return f"{case['generator']}-{kwargs['seed']}-{kwargs.get('dirichlet_measures', False)}"


@pytest.mark.parametrize("case", GENERATOR_CASES, ids=_case_id)
def test_generator_outputs_are_pinned(case):
    w = GENERATORS[case["generator"]](**case["kwargs"])
    np.testing.assert_array_equal(w.values, np.array(case["values"]))
    np.testing.assert_array_equal(w.measures, np.array(case["measures"]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.sampled_from([0.2, 0.5, 0.8]), RNG_SEEDS)
def test_gen_regular_degree(n, d, seed):
    w = gen_regular(n, d, seed)
    reg = is_regular(w, tol=1e-9)
    assert reg is not None
    assert reg == pytest.approx(d, abs=1e-9)


def test_gen_regular_outputs_are_pinned_by_hash():
    # values and measures of 576 outputs, n = 1..12, six degrees, eight
    # seeds, hashed in that order; the digest was recorded before the
    # projection loop reused its residual's B @ mu
    digest = hashlib.sha256()
    for n in range(1, 13):
        for d in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
            for seed in range(8):
                w = gen_regular(n, d, seed)
                digest.update(w.values.tobytes() + w.measures.tobytes())
    assert digest.hexdigest() == "5c1085888e41c8036d6d346083af1a0fff98198a7b937c3758fd920bf4a7c0e3"


def test_gen_regular_nonconvergence():
    with pytest.raises(NonConvergenceError):
        gen_regular(4, 0.5, seed=0, max_iters=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.sampled_from([0.0, 0.3, 0.9]), RNG_SEEDS)
def test_gen_pointwise_dense_floor(n, d, seed):
    w = gen_pointwise_dense(n, d, seed)
    assert float(w.values.min()) >= d - 1e-12


def test_graphon_to_json_matches_the_per_element_form():
    # -0.0, subnormals, 1.0 and Dirichlet measures: the same Python floats,
    # signs included, as converting entry by entry
    rng = np.random.default_rng(11)
    tiny = 5e-324
    values = np.array([[-0.0, tiny, 1.0], [tiny, 2.5e-310, 0.25], [1.0, 0.25, -0.0]])
    graphons = [
        _unchecked_graphon(values, rng.dirichlet(np.ones(3))),
        gen_random(6, seed=3, dirichlet_measures=True),
        constant(1.0, blocks=2),
    ]
    for w in graphons:
        doc = graphon_to_json(w)
        want = {
            "measures": [float(m) for m in w.measures],
            "values": [[float(v) for v in row] for row in w.values],
        }
        assert json.dumps(doc) == json.dumps(want)
        flat = doc["measures"] + [v for row in doc["values"] for v in row]
        assert all(type(v) is float for v in flat)
        signs = [math.copysign(1.0, v) for row in want["values"] for v in row]
        assert [math.copysign(1.0, v) for row in doc["values"] for v in row] == signs
    assert json.dumps(graphon_to_json(graphons[0])["values"][0]) == "[-0.0, 5e-324, 1.0]"


def test_json_round_trip(tmp_path):
    w = gen_random(3, seed=7, dirichlet_measures=True)
    again = graphon_from_json(graphon_to_json(w))
    np.testing.assert_array_equal(again.values, w.values)
    np.testing.assert_array_equal(again.measures, w.measures)
    path = tmp_path / "w.json"
    save_graphon(w, str(path))
    loaded = load_graphon(str(path))
    np.testing.assert_array_equal(loaded.values, w.values)
    np.testing.assert_array_equal(loaded.measures, w.measures)
