"""Components, distances, local/global connectivity, bipartite matching."""
import math
import random

import pytest

from toughlab.canon import enumerate_graphs
from toughlab.connectivity import (
    co_diameter,
    components,
    diameter,
    distances,
    is_connected,
    local_connectivity,
    max_bipartite_matching,
    uv_extension,
)
from toughlab.families import make_named, parse_family_spec
from toughlab.graphs import Graph
from toughlab.toughness import iterate_separators

from oracles import (
    ref_complement_edges,
    ref_components,
    ref_diameter,
    ref_distances,
    ref_is_connected,
    ref_local_connectivity,
    ref_max_matching,
    ref_vertex_connectivity,
)


def _named(text: str) -> Graph:
    return make_named(parse_family_spec(text))


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- components ----------------------------------------------------------------


def test_components_exhaustive():
    for n in range(6):
        for g in enumerate_graphs(n):
            got = [frozenset(c) for c in components(g)]
            assert got == ref_components(g.n, g.edges())


def test_is_connected_exhaustive():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert is_connected(g) == ref_is_connected(g.n, g.edges())


# -- distances -----------------------------------------------------------------


def test_distances_exhaustive():
    for n in range(6):
        for g in enumerate_graphs(n):
            table = distances(g)
            want = ref_distances(g.n, g.edges())
            for u in range(g.n):
                for v in range(g.n):
                    assert table.distance(u, v) == want[(u, v)]


def test_diameter_matches_reference():
    rng = random.Random(61)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(9), rng.random())
        assert diameter(g) == ref_diameter(g.n, g.edges())


def test_diameter_conventions():
    assert diameter(Graph.empty(0)) == 0
    assert diameter(Graph.empty(1)) == 0
    assert diameter(Graph.empty(2)) == math.inf
    assert diameter(_named("path:4")) == 3
    assert co_diameter(Graph.complete(1)) == 0
    assert co_diameter(Graph.complete(4)) == math.inf
    assert co_diameter(_named("path:4")) == 3  # P4 is self-complementary


def test_co_diameter_is_complement_diameter():
    # diameter and co_diameter share one BFS, so both sides come from the oracle
    for n in range(8):
        for g in enumerate_graphs(n):
            assert co_diameter(g) == ref_diameter(n, ref_complement_edges(n, g.edges())), g
            assert diameter(g) == ref_diameter(n, g.edges()), g


def test_eccentricity():
    table = distances(_named("star:4"))
    # centre is vertex 0 in the multipartite (1, 4) layout
    assert table.eccentricity(0) == 1
    assert table.eccentricity(1) == 2


# -- local connectivity ----------------------------------------------------------


def test_local_connectivity_exhaustive_small():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            for u in range(n):
                for v in range(u + 1, n):
                    want = ref_local_connectivity(g.n, g.edges(), u, v)
                    assert local_connectivity(g, u, v) == want
                    assert local_connectivity(g, v, u) == want


def test_local_connectivity_random_medium():
    rng = random.Random(62)
    for _ in range(60):
        n = rng.randrange(6, 8)
        g = _random_graph(rng, n, rng.random())
        u = rng.randrange(n)
        v = (u + 1 + rng.randrange(n - 1)) % n
        assert local_connectivity(g, u, v) == ref_local_connectivity(g.n, g.edges(), u, v)


def test_local_connectivity_knowns():
    c4 = _named("cycle:4")
    assert local_connectivity(c4, 0, 2) == 2  # opposite corners
    assert local_connectivity(c4, 0, 1) == 2  # edge + detour
    k5 = Graph.complete(5)
    assert local_connectivity(k5, 0, 4) == 4
    star = _named("star:3")
    assert local_connectivity(star, 1, 2) == 1
    # the path 0-2-4-1 blocks every other one; a second path must undo 2-4
    blocked = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4)])
    assert local_connectivity(blocked, 0, 1) == local_connectivity(blocked, 1, 0) == 2


@pytest.mark.parametrize(
    "spec", ["multipartite:1,3,4,5", "multipartite:2,2,3,5", "multipartite:1,1,4,6", "turan:12,4", "turan:13,13"]
)
def test_local_connectivity_complete_multipartite(spec):
    # u in part A, v in part B: n - max(|A|, |B|) across parts (common
    # neighbours, paths u-b-a-v and the edge), n - |A| inside one part;
    # turan:13,13 is K13, 12 for every pair
    g = _named(spec)
    part = [g.adj[x] ^ g.full_mask for x in range(g.n)]  # x and its non-neighbours
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                a, b = part[u].bit_count(), part[v].bit_count()
                want = g.n - a if part[u] == part[v] else g.n - max(a, b)
                assert local_connectivity(g, u, v) == want, (u, v)


def test_local_connectivity_wheel():
    g = _named("wheel:12")
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert local_connectivity(g, u, v) == 3, (u, v)


def test_local_connectivity_zero_across_components():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert local_connectivity(g, 0, 2) == 0


def test_local_connectivity_validation():
    g = Graph.complete(3)
    with pytest.raises(ValueError):
        local_connectivity(g, 1, 1)
    with pytest.raises(ValueError):
        local_connectivity(g, 0, 3)


# -- global connectivity ----------------------------------------------------------


def _kappa(g: Graph) -> int:
    """kappa(G) as the acceptance suites read it: the least size of the
    separator sweep, n - 1 when there is none."""
    return next((len(s) for s in iterate_separators(g)), max(g.n - 1, 0))


def test_connectivity_exhaustive():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert _kappa(g) == ref_vertex_connectivity(g.n, g.edges())


def test_connectivity_knowns():
    assert _kappa(Graph.empty(0)) == 0
    assert _kappa(Graph.complete(1)) == 0
    assert _kappa(Graph.complete(5)) == 4
    assert _kappa(_named("cycle:5")) == 2
    assert _kappa(_named("path:4")) == 1
    assert _kappa(_named("multipartite:2,3")) == 2
    assert _kappa(Graph.from_edges(3, [(0, 1)])) == 0  # disconnected


# -- bipartite matching ------------------------------------------------------------


def test_matching_knowns():
    k33 = _named("multipartite:3,3")
    assert max_bipartite_matching(k33, [0, 1, 2], [3, 4, 5]).size == 3
    star = _named("star:4")
    assert max_bipartite_matching(star, [0], [1, 2, 3, 4]).size == 1
    c6 = _named("cycle:6")
    assert max_bipartite_matching(c6, [0, 2, 4], [1, 3, 5]).size == 3


def test_matching_random_against_reference():
    rng = random.Random(63)
    for _ in range(80):
        n = rng.randrange(2, 8)
        g = _random_graph(rng, n, rng.random())
        side = [v for v in range(n) if rng.random() < 0.5]
        other = [v for v in range(n) if v not in side]
        cross = [(u, v) for u, v in g.edges() if (u in side) != (v in side)]
        m = max_bipartite_matching(g, side, other)
        assert m.size == ref_max_matching(cross)
        # returned pairs form a matching within the cross edges
        used = set()
        for u, v in m.pairs:
            assert g.has_edge(u, v) and (u in side) != (v in side)
            assert u not in used and v not in used
            used |= {u, v}


def test_matching_ignores_internal_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2)])
    assert max_bipartite_matching(g, [0, 1], [2, 3]).size == 1


def test_matching_overlapping_sides_rejected():
    with pytest.raises(ValueError):
        max_bipartite_matching(Graph.complete(3), [0, 1], [1, 2])


# -- (u, v)-extensions ----------------------------------------------------------------


def test_uv_extension_structure():
    c6 = _named("cycle:6")
    h, u, v = uv_extension(c6, [0, 2, 4], [1, 3, 5])
    assert (h.n, u, v) == (8, 6, 7)
    assert not h.has_edge(u, v)
    assert h.degree(u) == 3 and h.degree(v) == 3
    for x in (0, 2, 4):
        assert h.has_edge(u, x) and not h.has_edge(v, x)
    for x in (1, 3, 5):
        assert h.has_edge(v, x) and not h.has_edge(u, x)


def test_uv_extension_validation():
    c6 = _named("cycle:6")
    with pytest.raises(ValueError):
        uv_extension(c6, [0, 1, 2], [3, 4, 5])  # sides not independent
    with pytest.raises(ValueError):
        uv_extension(c6, [0, 2], [1, 3, 5])  # does not cover
    with pytest.raises(ValueError):
        uv_extension(c6, [0, 2, 4], [0, 1, 3, 5])  # overlap


def test_uv_extension_local_connectivity_equals_matching():
    # spot check of the matching identity; the sweep lives in the acceptance suite
    for spec, a in (("cycle:6", [0, 2, 4]), ("multipartite:2,3", [0, 1]), ("star:3", [0])):
        g = _named(spec)
        b = [x for x in range(g.n) if x not in a]
        h, u, v = uv_extension(g, a, b)
        assert local_connectivity(h, u, v) == max_bipartite_matching(g, a, b).size
