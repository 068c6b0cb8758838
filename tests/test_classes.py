"""Graph-class recognizers against subset-sweep reference predicates."""
import math
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toughlab.canon import are_isomorphic, enumerate_graphs
from toughlab.classes import (
    CLASS_PREDICATES,
    complete_multipartite_parts,
    contains_induced,
    find_induced_cycle,
    is_chordal,
    is_co_chordal,
    is_complement_of_forest,
    is_complete_multipartite,
    is_co_net_free,
    is_forest,
    is_hereditary_nbhd_helly,
    is_net_free,
    is_p4_free,
    is_split,
    is_weakly_chordal,
    simplicial_pair_decomposition,
    simplicial_vertices,
)
from toughlab.connectivity import co_diameter, components, distances, is_connected, local_connectivity, max_bipartite_matching
from toughlab.families import make_named, parse_family_spec
from toughlab import classes
from toughlab.graphs import CrossCheckError, Graph, complement, delete_vertex, induced_subgraph, relabel

import oracles as O


def _named(text: str) -> Graph:
    return make_named(parse_family_spec(text))


def _ref_for(name):
    refs = {
        "chordal": lambda n, e: O.ref_is_chordal(n, e),
        "co-chordal": lambda n, e: O.ref_is_chordal(n, O.ref_complement_edges(n, e)),
        "weakly-chordal": O.ref_is_weakly_chordal,
        "p4-free": O.ref_is_p4_free,
        "complete-multipartite": O.ref_is_complete_multipartite,
        "net-free": O.ref_is_net_free,
        "co-net-free": O.ref_is_co_net_free,
        "forest": O.ref_is_forest,
        "co-forest": lambda n, e: O.ref_is_forest(n, O.ref_complement_edges(n, e)),
        "split": O.ref_is_split,
        "hcn-helly": O.ref_is_hereditary_nbhd_helly,
    }
    return refs[name]


@pytest.mark.parametrize("name", sorted(CLASS_PREDICATES))
def test_predicates_exhaustive_small(name):
    predicate, ref = CLASS_PREDICATES[name], _ref_for(name)
    for n in range(7):
        for g in enumerate_graphs(n):
            assert predicate(g) == ref(g.n, g.edges()), (name, g)


def test_registry_order_is_the_cli_column_order():
    assert tuple(CLASS_PREDICATES) == (
        "chordal",
        "co-chordal",
        "weakly-chordal",
        "p4-free",
        "complete-multipartite",
        "net-free",
        "co-net-free",
        "forest",
        "co-forest",
        "split",
        "hcn-helly",
    )


# -- simplicial vertices -----------------------------------------------------------


def test_simplicial_vertices_definition():
    for n in range(6):
        for g in enumerate_graphs(n):
            simp = set(simplicial_vertices(g))
            for v in range(g.n):
                nbrs = [w for w in range(g.n) if g.has_edge(v, w)]
                clique = all(
                    g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]
                )
                assert (v in simp) == clique


# -- knowns --------------------------------------------------------------------------


def test_class_knowns():
    assert is_chordal(_named("complete:4"))
    assert not is_chordal(_named("cycle:4"))
    assert is_co_chordal(_named("cycle:4"))  # complement is 2K2
    assert is_chordal(_named("net"))
    assert is_p4_free(_named("cycle:4")) and not is_p4_free(_named("path:4"))
    assert is_complete_multipartite(_named("turan:6,3"))
    assert not is_complete_multipartite(_named("path:4"))
    assert is_forest(_named("doublestar:2,2")) and not is_forest(_named("cycle:5"))
    assert is_complement_of_forest(complement(_named("path:5")))
    assert is_split(_named("star:3")) and not is_split(_named("cycle:4"))
    assert not is_net_free(_named("net")) and is_net_free(_named("conet"))
    assert not is_co_net_free(_named("conet")) and is_co_net_free(_named("net"))
    assert is_weakly_chordal(_named("cycle:4")) and not is_weakly_chordal(_named("cycle:5"))
    assert is_hereditary_nbhd_helly(_named("net"))
    assert not is_hereditary_nbhd_helly(_named("conet"))
    assert not is_hereditary_nbhd_helly(_named("cycle:6"))


# -- induced-subgraph search -----------------------------------------------------------


def test_contains_induced_against_reference():
    patterns = {
        "path:4": (4, [(0, 1), (1, 2), (2, 3)]),
        "cycle:4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "cycle:5": (5, [(i, (i + 1) % 5) for i in range(5)]),
        "net": (6, O.NET_EDGES),
    }
    for spec, (pn, pedges) in patterns.items():
        pattern = _named(spec)
        for n in range(7):
            for g in enumerate_graphs(n):
                hit = contains_induced(g, pattern)
                assert (hit is not None) == O.ref_contains_induced(g.n, g.edges(), pn, pedges)
                if hit is not None:
                    assert are_isomorphic(induced_subgraph(g, hit), pattern)


#: each anchored kernel with its pattern for the oracle: order and edges
_ANCHORED = {
    "has_p4_through": (4, ((0, 1), (1, 2), (2, 3))),
    "has_net_through": (6, tuple(O.NET_EDGES)),
    "has_co_p3_through": (3, ((0, 1),)),  # K1+K2
}


def _covered(g: Graph, pn: int, pedges) -> set[int]:
    """The vertices of g in an induced copy of the pattern, by
    ``ref_vertices_in_induced`` asked of each pn-subset of g whose degrees
    are the pattern's (a copy's are), so that only those pay its
    permutation search."""
    want = sorted(sum(v in e for e in pedges) for v in range(pn))
    covered: set[int] = set()
    for subset in combinations(range(g.n), pn):
        mask = sum(1 << x for x in subset)
        if sorted((g.adj[x] & mask).bit_count() for x in subset) != want:
            continue
        edges = [(i, j) for (i, a), (j, b) in combinations(enumerate(subset), 2) if g.has_edge(a, b)]
        if O.ref_vertices_in_induced(pn, edges, pn, pedges):
            covered.update(subset)
    return covered


def _check_anchored(name: str, g: Graph) -> int:
    """The anchored kernel ``name`` at every vertex of g against the oracle;
    the number of vertices some copy of its pattern passes through."""
    pn, pedges = _ANCHORED[name]
    covered = _covered(g, pn, pedges)
    for v in range(g.n):
        assert getattr(classes, name)(g, v) == (v in covered), (name, g, v)
    return len(covered)


@pytest.mark.parametrize("name", sorted(_ANCHORED))
def test_anchored_kernels_against_the_oracle(name):
    # every class in canonical and in reversed labelling, since canonical
    # labels put vertices of high degree last
    hits = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            hits += _check_anchored(name, g) + _check_anchored(name, relabel(g, range(n - 1, -1, -1)))
    assert hits


@st.composite
def _random_graphs(draw) -> Graph:
    """G(n, p) on 8-11 vertices at one of a few densities, in percent."""
    n = draw(st.integers(8, 11))
    pairs = list(combinations(range(n), 2))
    percent = draw(st.sampled_from((15, 25, 40, 60)))
    rolls = draw(st.lists(st.integers(0, 99), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, roll in zip(pairs, rolls) if roll < percent])


@pytest.mark.parametrize("name", sorted(_ANCHORED))
@settings(derandomize=True, deadline=None, max_examples=60)
@given(g=_random_graphs())
def test_anchored_kernels_against_the_oracle_on_8_to_11_vertices(name, g):
    _check_anchored(name, g)


@lru_cache(maxsize=None)
def _co_chordal_by_search(g: Graph) -> bool:
    """Co-chordality by the induced-cycle search: is_co_chordal folds the
    same hole test as has_co_hole_through."""
    return find_induced_cycle(complement(g), 4) is None


#: each one-new-vertex test, with a whole-graph test of its hereditary class
_THROUGH_TESTS = {
    "has_p4_through": is_p4_free,
    "has_net_through": is_net_free,
    "has_co_hole_through": _co_chordal_by_search,
    "has_co_cycle_through": is_complement_of_forest,
    "has_co_p3_through": is_complete_multipartite,
}


@pytest.mark.parametrize("name", sorted(_THROUGH_TESTS))
def test_new_vertex_tests_decide_the_class(name):
    # g is in the class iff g - v is and nothing forbidden passes through v;
    # each class in canonical and in reversed labelling, since canonical
    # labels put vertices of high degree last
    through, member = getattr(classes, name), _THROUGH_TESTS[name]
    seen = 0
    for n in range(1, 8):
        for canonical in enumerate_graphs(n):
            for g, v in product((canonical, relabel(canonical, range(n - 1, -1, -1))), range(n)):
                if member(delete_vertex(g, v)):
                    seen += 1
                    assert through(g, v) == (not member(g)), (name, g, v)
    assert seen


def test_find_induced_cycle_witnesses():
    for n in range(7):
        for g in enumerate_graphs(n):
            for min_len in (4, 5):
                hit = find_induced_cycle(g, min_len)
                assert (hit is not None) == O.ref_has_induced_cycle(g.n, g.edges(), min_len)
                if hit is not None:
                    assert len(hit) >= min_len
                    assert O._induces_cycle(O.normalize_edges(g.edges()), list(hit))


# -- multipartite structure -------------------------------------------------------------


def test_multipartite_parts_reconstruction():
    for n in range(7):
        for g in enumerate_graphs(n):
            parts = complete_multipartite_parts(g)
            assert (parts is not None) == O.ref_is_complete_multipartite(g.n, g.edges())
            if parts is not None:
                sizes = parts.sizes
                assert sizes == tuple(sorted(sizes))
                seen = sorted(v for p in parts.parts for v in p)
                assert seen == list(range(g.n))
                for p in parts.parts:
                    for u in p:
                        for v in p:
                            assert u == v or not g.has_edge(u, v)
                for i, p in enumerate(parts.parts):
                    for q in parts.parts[i + 1 :]:
                        for u in p:
                            for v in q:
                                assert g.has_edge(u, v)


def test_multipartite_parts_knowns():
    assert complete_multipartite_parts(_named("turan:7,3")).sizes == (2, 2, 3)
    assert complete_multipartite_parts(_named("star:4")).sizes == (1, 4)
    assert complete_multipartite_parts(Graph.empty(3)).sizes == (3,)
    assert complete_multipartite_parts(Graph.complete(4)).sizes == (1, 1, 1, 1)
    assert complete_multipartite_parts(_named("path:4")) is None


# -- cograph partition --------------------------------------------------------------------


def test_cograph_partition_properties():
    # a connected P4-free graph on >= 2 vertices has a disconnected
    # complement, and each of its co-components on >= 2 vertices induces a
    # disconnected subgraph
    for n in range(2, 7):
        for g in filter(is_connected, enumerate_graphs(n)):
            if not is_p4_free(g):
                continue
            parts = components(complement(g))
            assert len(parts) >= 2
            for p in parts:
                assert len(p) == 1 or not is_connected(induced_subgraph(g, p))


# -- simplicial-pair decomposition -----------------------------------------------------------


def test_simplicial_pair_decomposition_none_cases():
    assert simplicial_pair_decomposition(_named("cycle:5")) is None  # not co-chordal
    assert simplicial_pair_decomposition(Graph.complete(4)) is None  # co-diameter inf
    assert simplicial_pair_decomposition(_named("net")) is None  # co-diameter 2


# -- invariant guards: each raises when the fact it relies on is broken ----------------


def test_simplicial_pair_guard_needs_a_pair(monkeypatch):
    monkeypatch.setattr(classes, "simplicial_vertices", lambda h: ())
    with pytest.raises(CrossCheckError, match="diameter 3 at no simplicial pair"):
        simplicial_pair_decomposition(_named("path:4"))


def test_simplicial_pair_decomposition_properties():
    for n in range(2, 8):
        for g in enumerate_graphs(n):
            dec = simplicial_pair_decomposition(g)
            h = complement(g)
            d = co_diameter(g)
            expected = is_co_chordal(g) and not math.isinf(d) and d >= 3
            assert (dec is not None) == expected
            if dec is None:
                continue
            assert distances(h).distance(dec.u, dec.w) == d
            simp = set(simplicial_vertices(h))
            assert dec.u in simp and dec.w in simp
            assert set(dec.U) == {x for x in range(g.n) if h.has_edge(dec.u, x)}
            assert set(dec.W) == {x for x in range(g.n) if h.has_edge(dec.w, x)}
            whole = {dec.u, dec.w} | set(dec.U) | set(dec.W) | set(dec.X)
            assert whole == set(range(g.n))
            assert not (set(dec.U) & set(dec.W))  # co-distance >= 3 keeps them apart
            assert dec.m == max_bipartite_matching(g, dec.U, dec.W).size
            assert local_connectivity(g, dec.u, dec.w) == len(dec.X) + dec.m + 1
