import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from graphonlab import (
    ConfigError,
    StepGraphon,
    check_even_subdivision_sidorenko,
    check_extended_reiher,
    check_knrs,
    check_regular_subdivision_knrs,
    check_reiher,
    check_restriction_pullback,
    check_sidorenko,
    check_superlevel_restriction,
    check_transform,
    check_weakly_knrs,
    clique,
    constant,
    cycle_graph,
    gen_random,
    gen_regular,
    path_graph,
    reports_to_csv,
    reports_to_json,
    run_suite,
    summarize,
    z6_chords,
)
from graphonlab.errors import (
    DegenerateInstanceError,
    NotRegularError,
    PatternNotRegularError,
    UncertifiedDensityError,
)


GOLDEN = Path(__file__).parent / "golden"


def bipartite_graphon():
    return StepGraphon([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])


def test_sidorenko_pass_and_report_fields():
    w = gen_random(3, seed=1, dirichlet_measures=True)
    r = check_sidorenko(path_graph(2), w)
    assert r.passed
    assert r.check_name == "sidorenko"
    assert not r.advisory
    assert r.ratio >= 1.0 - 1e-9
    assert len(r.inputs_digest) == 16
    assert r.metadata["kind"] == "inequality"


def test_sidorenko_advisory_failure_possible():
    # triangle density 0 on a bipartite graphon, positive edge density:
    # the inequality fails but the pattern is not bipartite, so it is advisory
    r = check_sidorenko(clique(3), bipartite_graphon())
    assert not r.passed
    assert r.advisory
    assert summarize([r]) == {"total": 1, "passed": 0, "failed": 0, "advisory_failed": 1}


def test_knrs_default_d_and_uncertified():
    w = gen_random(3, seed=2, dirichlet_measures=True)
    r = check_knrs(clique(3), w)
    assert r.passed
    assert not r.advisory
    assert "d" in r.metadata
    with pytest.raises(UncertifiedDensityError):
        check_knrs(clique(3), w, d=0.999)
    # a weaker claimed density is fine
    r2 = check_knrs(clique(3), w, d=r.metadata["d"] / 2)
    assert r2.passed


@pytest.mark.parametrize("d", [float("nan"), -1.0, 1.5, float("inf")])
def test_knrs_rejects_claimed_d_outside_unit_interval(d):
    with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
        check_knrs(clique(3), gen_random(3, seed=1), d=d)


def test_knrs_advisory_for_unregistered():
    w = gen_random(3, seed=3)
    r = check_knrs(z6_chords(), w)
    assert r.advisory
    assert not r.metadata["registered"]


def test_report_dict_keeps_booleans():
    # bool subclasses int; the serializer must not flatten flags to 0/1
    w = gen_random(3, seed=3)
    meta = check_knrs(clique(3), w).to_dict()["metadata"]
    assert meta["advisory"] is False
    assert meta["registered"] is True


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def test_zero_bound_ratio_is_null_in_json():
    # d* = 0 on the bipartite graphon, so the bound d*^3 is 0 and the ratio
    # is infinite; JSON has no Infinity, so it is written as null
    r = check_knrs(clique(3), bipartite_graphon())
    assert r.bound_value == 0.0 and r.ratio == float("inf")
    assert r.to_dict()["ratio"] is None
    doc = _strict_json(reports_to_json([r]))
    assert doc["reports"][0]["ratio"] is None


def test_weakly_knrs_fields():
    w = gen_random(3, seed=4, dirichlet_measures=True)
    r = check_weakly_knrs(clique(3), 1, w)
    assert r.passed
    assert isinstance(r.metadata["strong_held"], bool)
    assert r.metadata["constant"] == pytest.approx(0.5 ** (3 + 2 * 3))
    with pytest.raises(ValueError):
        check_weakly_knrs(clique(3), 0, w)


def test_even_subdivision_requires_regular():
    w = gen_regular(4, 0.5, seed=5)
    r = check_even_subdivision_sidorenko(clique(3), 1, w)
    assert r.passed
    irregular = StepGraphon([[0.9, 0.1], [0.1, 0.1]], [0.5, 0.5])
    with pytest.raises(NotRegularError):
        check_even_subdivision_sidorenko(clique(3), 1, irregular)


def test_even_subdivision_constant_tightness():
    # on a constant graphon the bound is met with equality
    w = constant(0.7, blocks=2)
    r = check_even_subdivision_sidorenko(clique(3), 1, w)
    assert r.passed
    assert r.ratio == pytest.approx(1.0, rel=1e-12)


def test_regular_subdivision_requires_regular_pattern():
    w = gen_random(3, seed=6)
    r = check_regular_subdivision_knrs(cycle_graph(5), 1, w)
    assert r.passed
    with pytest.raises(PatternNotRegularError):
        check_regular_subdivision_knrs(path_graph(2), 1, w)


def test_superlevel_restriction():
    w = gen_random(3, seed=7, dirichlet_measures=True)
    r = check_superlevel_restriction(w, 1)
    assert r.passed
    assert r.metadata["a_measure"] >= 0.5 - 1e-9
    assert r.metadata["a_measure_ok"]
    with pytest.raises(DegenerateInstanceError):
        check_superlevel_restriction(bipartite_graphon(), 1)


def test_reiher_constant_tightness():
    w = constant(0.3, blocks=2)
    f = np.array([1.0, 1.0])
    r = check_reiher(w, f)
    assert r.passed
    assert r.ratio == pytest.approx(1.0, rel=1e-12)


def test_extended_reiher():
    w = gen_random(3, seed=8, dirichlet_measures=True)
    r = check_extended_reiher(clique(3), w, np.array([0.5, 1.5, 1.0]))
    assert r.passed
    r2 = check_extended_reiher(z6_chords(), w, np.ones(3))
    assert r2.advisory


def test_restriction_pullback_identity():
    w = gen_random(4, seed=9, dirichlet_measures=True)
    a = np.array([1.0, 0.5, 0.0, 0.25])
    b_prime = np.array([0.5, 1.0, 0.75])
    r = check_restriction_pullback(w, a, b_prime)
    assert r.passed
    assert r.metadata["kind"] == "identity"
    assert abs(r.computed_value - r.bound_value) <= 1e-12
    # a NaN occupancy is an input error, not a report of NaN values
    with pytest.raises(ValueError, match="finite"):
        check_restriction_pullback(gen_random(3, 1), [1, 1, 1], [np.nan, 0.5, 0.2])


def test_transform_identity_and_s_zero():
    w = gen_random(4, seed=10, dirichlet_measures=True)
    for s in (0, 1, 2, 3):
        r = check_transform(clique(3), s, w)
        assert r.passed, s
    with pytest.raises(ValueError):
        check_transform(clique(3), -1, w)


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        run_suite({"suite": "nope"})
    with pytest.raises(ConfigError):
        run_suite({"suite": "paper-default", "checks": ["transform"]})
    with pytest.raises(ConfigError):
        run_suite({"checks": ["unknown_check"]})
    with pytest.raises(ConfigError):
        run_suite({"bogus_key": 1})
    with pytest.raises(ConfigError):
        run_suite({"checks": ["transform"], "trials": -1})
    with pytest.raises(ConfigError):
        run_suite({"checks": ["transform"], "n_min": 3, "n_max": 2})


def test_run_suite_counts_and_order():
    reports = run_suite({"checks": ["transform", "reiher"], "trials": 3, "seed": 1})
    assert len(reports) == 6
    assert [r.check_name for r in reports] == ["transform"] * 3 + ["reiher"] * 3


def test_run_suite_deterministic_bytes():
    config = {"suite": "paper-default", "seed": 7, "trials": 2}
    first = reports_to_json(run_suite(config), config)
    second = reports_to_json(run_suite(config), config)
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == "v1"
    assert doc["summary"]["failed"] == 0


def test_default_suite_json_is_pinned():
    # recorded from `graphonlab verify --suite paper-default --seed 7`; any
    # change to a check, a generator or the report format shows here
    config = {"suite": "paper-default", "seed": 7}
    text = reports_to_json(run_suite(config), config)
    expected = (GOLDEN / "verify_paper_default_seed7.json").read_text()
    assert text == expected
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e547eab815110d71865b85f3fcbf7d2034126a50d15bd24d219c86755653f982"
    )


def test_default_suite_passes():
    reports = run_suite({"seed": 3, "trials": 3})
    s = summarize(reports)
    assert s["failed"] == 0
    assert s["total"] == 30


def test_csv_shape():
    reports = run_suite({"checks": ["transform"], "trials": 2, "seed": 5})
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "check_name,ratio,passed,seed"
    assert len(lines) == 3
    assert lines[1].startswith("transform,")
    assert lines[1].endswith(",true,5")
