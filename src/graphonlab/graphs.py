"""Finite simple graphs: catalog, subdivisions, and a counting oracle."""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .budget import DEFAULT_ENUMERATION_BUDGET, charge
from .errors import UnknownGraphError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1.

    Edges are stored as a frozenset of (min, max) pairs; loops are rejected
    and duplicate orientations collapse.
    """

    vertex_count: int
    edges: frozenset

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        norm = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {edge} out of range for {self.vertex_count} vertices")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_list(self) -> tuple:
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return tuple(sorted(self.edges))

    @cached_property
    def neighbors(self) -> tuple:
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


def subdivide(H: Graph, k: int) -> Graph:
    """Replace each edge of H by an internally disjoint path with k new vertices.

    Original vertices keep their ids; the k internal vertices of the e-th edge
    (in edge_list order) are v(H)+e*k .. v(H)+e*k+k-1, ordered from the lower
    endpoint toward the higher one.  k=0 returns H unchanged.
    """
    if k < 0:
        raise ValueError("subdivision count must be nonnegative")
    if k == 0:
        return Graph(H.vertex_count, H.edges)
    edges = []
    next_id = H.vertex_count
    for u, v in H.edge_list:
        chain = [u] + list(range(next_id, next_id + k)) + [v]
        next_id += k
        edges.extend(zip(chain, chain[1:]))
    return Graph(next_id, frozenset((min(a, b), max(a, b)) for a, b in edges))


def hom_count(H: Graph, G: Graph) -> int:
    """Number of homomorphisms H -> G by full enumeration of all maps.

    Deliberately naive: this is the oracle the density engines are checked
    against, so it must stay a direct transcription of the definition.
    """
    charge(G.vertex_count**H.vertex_count, DEFAULT_ENUMERATION_BUDGET, "enumeration", "maps")
    if H.vertex_count == 0:
        return 1
    if G.vertex_count == 0:
        return 0
    adj = G.neighbors
    edges = H.edge_list
    count = 0
    for phi in itertools.product(range(G.vertex_count), repeat=H.vertex_count):
        if all(phi[v] in adj[phi[u]] for u, v in edges):
            count += 1
    return count


def is_regular(H: Graph):
    """Common degree of H, or None when degrees differ (or H is empty)."""
    if H.vertex_count == 0:
        return None
    degrees = {H.degree(v) for v in range(H.vertex_count)}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def is_bipartite(H: Graph):
    """(True, coloring) with a 0/1 coloring witness, or (False, None)."""
    color = [-1] * H.vertex_count
    for root in range(H.vertex_count):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in H.neighbors[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, None
    return True, color


def is_connected(H: Graph) -> bool:
    if H.vertex_count <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in H.neighbors[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == H.vertex_count


# --- catalog -----------------------------------------------------------------


def path_graph(k: int) -> Graph:
    """Path with k edges on k+1 vertices."""
    if k < 0:
        raise ValueError("path length must be nonnegative")
    return Graph(k + 1, frozenset((i, i + 1) for i in range(k)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(k, frozenset((i, (i + 1) % k) for i in range(k)))


def clique(k: int) -> Graph:
    if k < 1:
        raise ValueError("clique needs at least 1 vertex")
    return Graph(k, frozenset(itertools.combinations(range(k), 2)))


def complete_multipartite(*parts: int) -> Graph:
    """Complete multipartite graph; vertices of part p precede those of part p+1."""
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    bounds = list(itertools.accumulate(parts))
    starts = [0] + bounds[:-1]
    edges = set()
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for u in range(starts[a], bounds[a]):
                for v in range(starts[b], bounds[b]):
                    edges.add((u, v))
    return Graph(bounds[-1], frozenset(edges))


def z6_chords() -> Graph:
    """6-cycle 0..5 plus the two chords (0,4) and (1,3); 8 edges.

    Labels are the 0-based shift of the usual 1-based presentation of this
    graph (cycle 1..6 with chords {1,5} and {2,4}).
    """
    edges = {(i, (i + 1) % 6) for i in range(6)}
    edges.update({(0, 4), (1, 3)})
    return Graph(6, frozenset((min(u, v), max(u, v)) for u, v in edges))


def k55_minus_c10() -> Graph:
    """K_{5,5} minus a Hamilton cycle: 3-regular bipartite on 10 vertices.

    Left part 0..4, right part 5..9; edge (i, 5+j) present iff (j-i) mod 5
    lies in {1, 2, 3}, which removes the 10-cycle 0,5,1,6,...,4,9.
    """
    edges = set()
    for i in range(5):
        for j in range(5):
            if (j - i) % 5 in (1, 2, 3):
                edges.add((i, 5 + j))
    return Graph(10, frozenset(edges))


_CATALOG = {
    "path": path_graph,
    "cycle": cycle_graph,
    "clique": clique,
    "complete_multipartite": complete_multipartite,
    "z6_chords": z6_chords,
    "k55_minus_c10": k55_minus_c10,
}


def catalog(name: str, *args: int) -> Graph:
    """Build a named catalog graph, e.g. catalog("cycle", 5)."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownGraphError(
            f"unknown graph {name!r}; available: {sorted(_CATALOG)}"
        ) from None
    return builder(*args)


def catalog_names() -> tuple:
    return tuple(sorted(_CATALOG))


# --- known lower-bound classes ------------------------------------------------


def is_odd_cycle(H: Graph) -> bool:
    return (
        H.vertex_count >= 3
        and H.vertex_count % 2 == 1
        and is_regular(H) == 2
        and is_connected(H)
    )


def is_complete_multipartite(H: Graph) -> bool:
    """True iff non-adjacency is transitive (parts are the non-adjacency classes)."""
    if H.vertex_count < 1:
        return False
    adj = H.neighbors
    for u, v, w in itertools.combinations(range(H.vertex_count), 3):
        for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
            if b not in adj[a] and c not in adj[b] and c in adj[a]:
                return False
    return True


def in_knrs_registry(H: Graph) -> bool:
    """Whether H is on the allow-list of graphs with a proven clique-density
    lower bound t(H, W) >= d^e(H) for every d-locally dense W: complete
    multipartite graphs and odd cycles.
    """
    return is_complete_multipartite(H) or is_odd_cycle(H)


# --- serialization -------------------------------------------------------------


def graph_to_json(H: Graph) -> dict:
    return {"n": H.vertex_count, "edges": [list(e) for e in H.edge_list]}


def graph_from_json(data: dict) -> Graph:
    try:
        n = int(data["n"])
        edges = [tuple(int(x) for x in e) for e in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return Graph(n, frozenset(edges))


def graph_from_text(text: str) -> Graph:
    """Edge-list format: first non-comment line is the vertex count, then one
    'u v' pair per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list file")
    try:
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
    except ValueError as exc:
        raise ValueError(f"malformed edge list: {exc}") from exc
    return Graph(n, frozenset(edges))


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(json.loads(text))
    return graph_from_text(text)


def save_graph(H: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(H), fh, sort_keys=True)
        fh.write("\n")
