import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab import (
    Graph,
    UnknownGraphError,
    catalog,
    catalog_names,
    clique,
    complete_multipartite,
    cycle_graph,
    graph_from_json,
    graph_to_json,
    hom_count,
    in_knrs_registry,
    k55_minus_c10,
    load_graph,
    path_graph,
    save_graph,
    subdivide,
    z6_chords,
)
from graphonlab.graphs import (
    graph_from_text,
    is_bipartite,
    is_complete_multipartite,
    is_connected,
    is_odd_cycle,
    is_regular,
)


def test_edge_normalization():
    g = Graph(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edge_list == ((0, 1), (1, 2))
    assert g.edge_count == 2
    assert g.degree(1) == 2


def test_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_subdivide_layout():
    # one edge, k=2: path 0 - 2 - 3 - 1
    g = subdivide(Graph(2, [(0, 1)]), 2)
    assert g.vertex_count == 4
    assert g.edge_list == ((0, 2), (1, 3), (2, 3))


def test_subdivide_counts():
    h = clique(4)
    for k in range(4):
        g = subdivide(h, k)
        assert g.vertex_count == h.vertex_count + k * h.edge_count
        assert g.edge_count == (k + 1) * h.edge_count


def test_subdivide_zero_is_identity():
    h = cycle_graph(5)
    assert subdivide(h, 0) == h


def test_subdivided_triangle_is_hexagon():
    g = subdivide(clique(3), 1)
    assert is_regular(g) == 2
    assert is_connected(g)
    assert g.vertex_count == 6


def test_hom_count_small_cases():
    k2 = clique(2)
    k3 = clique(3)
    # maps of an edge into a triangle: ordered adjacent pairs
    assert hom_count(k2, k3) == 6
    assert hom_count(k3, k3) == 6
    assert hom_count(k3, k2) == 0
    # no edges: every map works
    assert hom_count(Graph(2, []), k3) == 9


def test_hom_count_budget(monkeypatch):
    from graphonlab import BudgetExceededError

    monkeypatch.setenv("GRAPHONLAB_BUDGET", repr(10))
    with pytest.raises(BudgetExceededError):
        hom_count(clique(8), clique(9))


def test_catalog_dispatch():
    assert catalog("cycle", 5) == cycle_graph(5)
    assert catalog("z6_chords") == z6_chords()
    assert "k55_minus_c10" in catalog_names()
    with pytest.raises(UnknownGraphError):
        catalog("petersen")


def test_z6_chords_shape():
    g = z6_chords()
    assert g.vertex_count == 6
    assert g.edge_count == 8
    degrees = sorted(g.degree(v) for v in range(6))
    assert degrees == [2, 2, 3, 3, 3, 3]


def test_k55_minus_c10_shape():
    g = k55_minus_c10()
    assert g.vertex_count == 10
    assert g.edge_count == 15
    assert is_regular(g) == 3
    ok, coloring = is_bipartite(g)
    assert ok
    assert {coloring[v] for v in range(5)} == {0}
    assert {coloring[v] for v in range(5, 10)} == {1}


def test_classifiers():
    assert is_odd_cycle(cycle_graph(5))
    assert not is_odd_cycle(cycle_graph(6))
    assert is_complete_multipartite(clique(4))
    assert is_complete_multipartite(complete_multipartite(2, 3))
    assert not is_complete_multipartite(path_graph(3))
    assert is_complete_multipartite(cycle_graph(4))  # == K_{2,2}


def test_registry():
    assert in_knrs_registry(clique(3))
    assert in_knrs_registry(cycle_graph(7))
    assert in_knrs_registry(complete_multipartite(1, 2, 2))
    assert not in_knrs_registry(z6_chords())
    assert not in_knrs_registry(k55_minus_c10())


def test_json_round_trip(tmp_path):
    g = z6_chords()
    assert graph_from_json(graph_to_json(g)) == g
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    assert load_graph(str(path)) == g
    # file content is valid sorted-key JSON
    data = json.loads(path.read_text())
    assert list(data) == sorted(data)


def test_edge_list_text_format(tmp_path):
    text = "# triangle\n3\n0 1\n1 2\n0 2\n"
    assert graph_from_text(text) == clique(3)
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert load_graph(str(path)) == clique(3)
    with pytest.raises(ValueError):
        graph_from_text("# nothing\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3))
def test_subdivision_is_bipartite_for_odd_k(size, k):
    h = clique(size + 1)
    g = subdivide(h, k)
    if k % 2 == 1:
        ok, _ = is_bipartite(g)
        assert ok


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 9))
def test_cycle_properties(k):
    c = cycle_graph(k)
    assert is_regular(c) == 2
    assert is_connected(c)
    assert is_odd_cycle(c) == (k % 2 == 1)
