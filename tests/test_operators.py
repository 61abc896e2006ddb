import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab import (
    BudgetExceededError,
    StepFunction,
    StepGraphon,
    constant,
    degree_function,
    gen_random,
    normalized_path_power,
    path_function,
    path_power,
    superlevel_set,
    u_kernel,
    zero_block_set,
)
from graphonlab import operators

RNG_SEEDS = st.integers(0, 2**31 - 1)


def test_path_power_one_is_identity():
    w = gen_random(4, seed=1, dirichlet_measures=True)
    np.testing.assert_array_equal(path_power(w, 1).values, w.values)


def test_path_power_constant_closed_form():
    w = constant(0.6, blocks=3)
    for s in range(1, 6):
        np.testing.assert_allclose(path_power(w, s).values, 0.6**s, rtol=1e-14)


def test_path_power_two_by_hand():
    mu = np.array([0.25, 0.75])
    B = np.array([[0.2, 0.8], [0.8, 0.4]])
    w = StepGraphon(B, mu)
    expected = B @ (mu[:, None] * B)
    np.testing.assert_allclose(path_power(w, 2).values, expected, rtol=1e-14)


def test_path_function_is_degree_for_s1():
    w = gen_random(5, seed=2, dirichlet_measures=True)
    np.testing.assert_array_equal(path_function(w, 1).values, degree_function(w).values)


def test_path_power_rejects_bad_length():
    with pytest.raises(ValueError):
        path_power(constant(0.5), 0)


def test_path_power_charges_before_any_product(monkeypatch):
    # (s - 1) n^3 cells: at n = 10, s = 10**6 + 2 is 1000 cells past 10**9
    monkeypatch.delenv("GRAPHONLAB_BUDGET", raising=False)
    with monkeypatch.context() as m:
        m.setattr(operators, "_power_values", lambda *args: pytest.fail("a product ran"))
        message = r"^walk power of length 1000002 needs 1000001000 cells, budget 1e\+09$"
        with pytest.raises(BudgetExceededError, match=message):
            path_power(gen_random(10, seed=1), 10**6 + 2)
        # GRAPHONLAB_BUDGET moves the limit: s = 3 at n = 3 is 54 cells
        m.setenv("GRAPHONLAB_BUDGET", "53")
        with pytest.raises(BudgetExceededError):
            path_power(gen_random(3, seed=1), 3)
    monkeypatch.setenv("GRAPHONLAB_BUDGET", "54")
    assert path_power(gen_random(3, seed=1), 3).n == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), RNG_SEEDS, st.booleans())
def test_path_power_stays_in_unit_box(n, s, seed, dirichlet):
    w = gen_random(n, seed, dirichlet_measures=dirichlet)
    p = path_power(w, s)
    assert np.all(p.values >= 0.0) and np.all(p.values <= 1.0)
    np.testing.assert_allclose(p.values, p.values.T)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3), RNG_SEEDS)
def test_path_power_semigroup(n, s, t, seed):
    # W_{s+t} = W_s diag(mu) W_t
    w = gen_random(n, seed, dirichlet_measures=True)
    lhs = path_power(w, s + t).values
    rhs = path_power(w, s).values @ (w.measures[:, None] * path_power(w, t).values)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_normalized_path_power_constant():
    # numerator d^(2k+1), denominator (d^k)^2: ratio d
    w = constant(0.3, blocks=2)
    for k in (1, 2):
        np.testing.assert_allclose(normalized_path_power(w, k).values, 0.3, rtol=1e-12)


def test_normalized_path_power_zero_blocks():
    w = StepGraphon([[0.5, 0.0], [0.0, 0.0]], [0.5, 0.5])
    out = normalized_path_power(w, 1)
    assert out.values[1, 1] == 0.0
    assert out.values[0, 1] == 0.0
    assert out.values[0, 0] > 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 2), RNG_SEEDS)
def test_normalized_path_power_unit_box(n, k, seed):
    w = gen_random(n, seed)
    out = normalized_path_power(w, k)
    assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)


def test_u_kernel_rows_sum_to_one():
    w = gen_random(4, seed=9, dirichlet_measures=True)
    for k in (1, 2, 3):
        u = u_kernel(w, k)
        np.testing.assert_allclose(u.values @ w.measures, 1.0, rtol=1e-12)


def test_u_kernel_zero_rows():
    w = StepGraphon([[0.5, 0.0], [0.0, 0.0]], [0.5, 0.5])
    u = u_kernel(w, 1)
    np.testing.assert_array_equal(u.values[1], 0.0)
    assert u.values[0] @ w.measures == pytest.approx(1.0)


def test_superlevel_set_inclusive():
    f = StepFunction([0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3])
    occ = superlevel_set(f, 0.5)
    np.testing.assert_array_equal(occ.values, [0.0, 1.0, 1.0])


def test_zero_block_set():
    w = StepGraphon([[0.5, 0.0], [0.0, 0.0]], [0.25, 0.75])
    occ, mass = zero_block_set(w, 1)
    np.testing.assert_array_equal(occ.values, [0.0, 1.0])
    assert mass == pytest.approx(0.75)
    occ, mass = zero_block_set(constant(0.5), 3)
    assert mass == 0.0
