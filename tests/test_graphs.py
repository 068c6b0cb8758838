"""Bitset graph container: constructors, views, and whole-graph operations."""
import copy
import pickle
import random

import pytest

from toughlab.graphs import (
    MAX_VERTICES,
    Graph,
    VertexSet,
    complement,
    delete_edge,
    delete_vertex,
    induced_subgraph,
    join,
    relabel,
)
from toughlab.canon import enumerate_graphs
from toughlab.graph6 import parse_graph6

from oracles import normalize_edges


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- VertexSet ----------------------------------------------------------------


def test_vertex_set_round_trip():
    s = VertexSet.from_vertices([4, 1, 2], universe=6)
    assert s.vertices() == (1, 2, 4)
    assert len(s) == 3
    assert list(s) == [1, 2, 4]
    assert 2 in s and 0 not in s and 5 not in s


def test_vertex_set_validation():
    with pytest.raises(ValueError):
        VertexSet.from_vertices([3], universe=3)
    with pytest.raises(ValueError):
        VertexSet.from_vertices([-1], universe=3)
    with pytest.raises(ValueError):
        VertexSet(bits=0, universe=MAX_VERTICES + 1)


def test_vertex_set_empty():
    s = VertexSet.from_vertices([], universe=0)
    assert s.vertices() == () and len(s) == 0


def test_vertex_set_constructor_refuses_bits_outside_the_universe():
    for bits, universe in ((8, 3), (-1, 3), (1, 0), (1 << MAX_VERTICES, MAX_VERTICES)):
        with pytest.raises(ValueError, match="bits outside universe"):
            VertexSet(bits, universe)
    assert VertexSet._trusted(5, 3) == VertexSet(5, 3)


def test_trusted_vertex_sets_pass_the_public_constructor():
    """Every set the library builds unchecked from its own masks
    (``VertexSet._trusted``) is one the public constructor accepts, on
    every class with n <= 6."""
    from toughlab.connectivity import components
    from toughlab.mintough import cond2_candidates, is_minimally_tough_by_criterion, universal_vertices
    from toughlab.toughness import iterate_separators, tough_separators

    seen = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            sets = [*components(g), universal_vertices(g), *iterate_separators(g)]
            if not g.is_complete():
                sets += [w.separator for w in tough_separators(g)]
                _, witnesses = is_minimally_tough_by_criterion(g)
                sets += [w.separator for w in witnesses if w.separator is not None]
            for u, v in g.edges():
                sets += cond2_candidates(g, u, v)
            for s in sets:
                assert s.universe == g.n and VertexSet(s.bits, s.universe) == s, (g, s)
            seen += len(sets)
    assert seen == 8815


# -- constructors -------------------------------------------------------------


def test_empty_and_complete():
    assert Graph.empty(4).edge_count == 0
    assert Graph.complete(4).edge_count == 6
    assert Graph.complete(0).is_complete() and Graph.complete(0).is_edgeless()
    assert Graph.complete(1).is_complete() and Graph.complete(1).is_edgeless()
    assert Graph.complete(3).is_complete() and not Graph.complete(3).is_edgeless()
    assert Graph.empty(2).is_edgeless() and not Graph.empty(2).is_complete()


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Graph(MAX_VERTICES + 1, tuple([0] * (MAX_VERTICES + 1)))


def test_rows_from_outside_the_census_are_checked(monkeypatch):
    """Only the census builds graphs unchecked (``Graph._trusted``): the
    public constructor refuses bad rows, and from_edges and graph6 parsing
    build through its checks."""
    bad = [(3, (2, 0, 0), "asymmetric edge"), (2, (1, 0), "loop at vertex 0"),
           (3, (8, 0, 0), "mentions vertices >= 3"), (3, (0, 0), "adjacency length")]
    for n, rows, message in bad:
        with pytest.raises(ValueError, match=message):
            Graph(n, rows)
    checked = []
    check = Graph.__post_init__

    def recording(g):
        checked.append(g)
        check(g)

    monkeypatch.setattr(Graph, "__post_init__", recording)
    g = Graph.from_edges(3, [(0, 1)])
    h = parse_graph6("B_")
    assert checked == [g, h] and g == h == Graph._trusted(3, (2, 1, 0))


def test_duplicate_edges_collapse():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_edges_are_lexicographic():
    rng = random.Random(7)
    for _ in range(50):
        g = _random_graph(rng, rng.randrange(9))
        assert g.edges() == sorted(g.edges())
        assert all(u < v for u, v in g.edges())


def test_handshake_lemma():
    rng = random.Random(8)
    for _ in range(50):
        g = _random_graph(rng, rng.randrange(10))
        assert sum(g.degrees()) == 2 * g.edge_count


# -- complement, union, join --------------------------------------------------


def test_complement_involution_exhaustive():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert complement(complement(g)) == g


def test_complement_edge_count():
    rng = random.Random(9)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(9))
        assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2


def test_join_structure():
    g1 = Graph.from_edges(2, [(0, 1)])
    g2 = Graph.empty(2)
    j = join(g1, g2)
    assert j.n == 4
    assert normalize_edges(j.edges()) == normalize_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    )


def test_join_is_complement_of_union_of_complements():
    for n1 in range(4):
        for n2 in range(4):
            for g1 in enumerate_graphs(n1):
                for g2 in enumerate_graphs(n2):
                    h1, h2 = complement(g1), complement(g2)
                    union = Graph(n1 + n2, h1.adj + tuple(row << n1 for row in h2.adj))
                    assert join(g1, g2) == complement(union)


def test_join_degrees():
    rng = random.Random(10)
    for _ in range(30):
        g1 = _random_graph(rng, rng.randrange(1, 5))
        g2 = _random_graph(rng, rng.randrange(1, 5))
        j = join(g1, g2)
        for v in range(g1.n):
            assert j.degree(v) == g1.degree(v) + g2.n
        for v in range(g2.n):
            assert j.degree(g1.n + v) == g2.degree(v) + g1.n


def test_join_identity_with_empty():
    g = Graph.from_edges(3, [(0, 1)])
    assert join(g, Graph.empty(0)) == g
    assert join(Graph.empty(0), g) == g


# -- subgraphs and relabeling --------------------------------------------------


def test_induced_subgraph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])  # C5
    h = induced_subgraph(g, [0, 1, 3])
    # kept vertices are renumbered in ascending order: 0->0, 1->1, 3->2
    assert h.n == 3
    assert h.edges() == [(0, 1)]
    assert induced_subgraph(g, VertexSet.from_vertices([0, 1, 3], 5)) == h


def test_delete_vertex_matches_induced():
    rng = random.Random(11)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(1, 8))
        v = rng.randrange(g.n)
        kept = [x for x in range(g.n) if x != v]
        assert delete_vertex(g, v) == induced_subgraph(g, kept)


def test_delete_edge():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    h = delete_edge(g, 1, 0)
    assert h.edges() == [(1, 2)]
    with pytest.raises(ValueError):
        delete_edge(g, 0, 2)  # not an edge


def test_relabel_round_trip():
    rng = random.Random(12)
    for _ in range(40):
        g = _random_graph(rng, rng.randrange(8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.n == g.n and h.edge_count == g.edge_count
        assert normalize_edges(h.edges()) == normalize_edges(
            (perm[u], perm[v]) for u, v in g.edges()
        )
        inverse = [0] * g.n
        for old, new in enumerate(perm):
            inverse[new] = old
        assert relabel(h, inverse) == g


def test_relabel_validation():
    g = Graph.complete(3)
    with pytest.raises(ValueError):
        relabel(g, [0, 1])
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1])


def test_graph_equality_and_hash():
    g1 = Graph.from_edges(3, [(0, 1)])
    g2 = Graph.from_edges(3, [(0, 1)])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != Graph.from_edges(3, [(0, 2)])


def test_graph_and_vertex_set_are_slotted():
    # one Graph per census class: no per-instance __dict__
    g = Graph.from_edges(9, [(0, 1), (1, 8), (3, 4)])
    s = VertexSet.from_vertices([0, 4], 9)
    for x in (g, s):
        assert not hasattr(x, "__dict__")
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x) and y is not x
        assert copy.deepcopy(x) == x
