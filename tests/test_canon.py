"""Canonical forms, isomorphism, and isomorphism-class enumeration.

Set ``TOUGHLAB_SLOW=1`` to also check the frozen n = 9 census.
"""
import gc
import hashlib
import os
import random
import tracemalloc
from array import array
from itertools import combinations, permutations

import pytest

from toughlab.canon import are_isomorphic, canonical_code, canonical_form, enumerate_graphs
from toughlab.connectivity import is_connected
from toughlab.families import make_named, parse_family_spec
from toughlab.graph6 import parse_graph6, write_graph6
from toughlab.graphs import Graph, delete_vertex, relabel

from oracles import ref_canonical_key

# classic counts: all / connected isomorphism classes on n vertices
ALL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {0: 1, 1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

#: sha256 of the graph6 codes of enumerate_graphs(n), joined by b"\n"; frozen
#: from the enumeration that canonized every augmented child and deduplicated
#: the codes in a set
CENSUS_DIGESTS = {
    0: "8a8de823d5ed3e12746a62ef169bcf372be0ca44f0a1236abc35df05d96928e1",
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    4: "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
    5: "978306f31045f9be78763583548ac8c32ffdd517ddccce984237ab3ec087ddb8",
    6: "10598a4b41837b791c767d3042b58dc58a723ca5d99144fd8e24085c12a49acb",
    7: "4a04fd789269433a870b8b1493182bfa0a73b637fd522eef4abcb1c7da75f9a1",
    8: "ef42eb7e810e89b8a5facb660c97839506072a4c5333ff16c4e08e2605e71c69",
}
#: the same for the 274,668 classes on 9 vertices
CENSUS_9_DIGEST = "f418826ec4a89acd63ef3d5cfefa99917f186dd3728a8c71ef5af0c4cfa89972"


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_canonical_form_is_isomorphic_relabel():
    rng = random.Random(51)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(7))
        h = canonical_form(g)
        assert h.n == g.n and h.edge_count == g.edge_count
        assert ref_canonical_key(g.n, g.edges()) == ref_canonical_key(h.n, h.edges())


def test_canonical_code_invariant_under_relabeling():
    rng = random.Random(52)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(2, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(relabel(g, perm)) == canonical_code(g)


def test_canonical_code_is_the_least_relabelled_code():
    # the definition: the least graph6 text over all relabellings, here of a
    # shuffled copy of each class so the search starts from no census labelling
    rng = random.Random(54)
    for n in range(7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            least = min(write_graph6(relabel(h, list(p))) for p in permutations(range(n)))
            assert canonical_code(h) == least


def test_canonical_code_separates_classes_exhaustively():
    # all labeled graphs on 5 vertices, deduplicated two ways
    cells = list(combinations(range(5), 2))
    lib_codes = set()
    ref_keys = set()
    pairs = set()
    for bits in range(1 << len(cells)):
        edges = [cells[i] for i in range(len(cells)) if bits >> i & 1]
        g = Graph.from_edges(5, edges)
        code, key = canonical_code(g), ref_canonical_key(5, edges)
        lib_codes.add(code)
        ref_keys.add(key)
        pairs.add((code, key))
    assert len(lib_codes) == len(ref_keys) == ALL_COUNTS[5]
    # the two canonical maps induce the same partition
    assert len(pairs) == ALL_COUNTS[5]


def test_are_isomorphic_positive():
    rng = random.Random(53)
    for _ in range(40):
        g = _random_graph(rng, rng.randrange(1, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabel(g, perm))


def test_are_isomorphic_distinguishes_same_degree_sequence():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert c6.degrees() == two_triangles.degrees()
    assert not are_isomorphic(c6, two_triangles)


def test_are_isomorphic_trivial_negatives():
    assert not are_isomorphic(Graph.empty(3), Graph.empty(4))
    assert not are_isomorphic(Graph.complete(3), Graph.empty(3))


@pytest.mark.parametrize("n", sorted(ALL_COUNTS))
def test_enumeration_counts(n):
    assert sum(1 for _ in enumerate_graphs(n)) == ALL_COUNTS[n]
    assert sum(1 for _ in filter(is_connected, enumerate_graphs(n))) == CONNECTED_COUNTS[n]


@pytest.mark.parametrize("n", sorted(CENSUS_DIGESTS))
def test_census_codes_frozen(n):
    codes = b"\n".join(write_graph6(g).encode("ascii") for g in enumerate_graphs(n))
    assert hashlib.sha256(codes).hexdigest() == CENSUS_DIGESTS[n]


@pytest.mark.skipif(not os.environ.get("TOUGHLAB_SLOW"), reason="set TOUGHLAB_SLOW=1 (n = 9 census)")
def test_census_9_frozen():
    codes = [write_graph6(g).encode("ascii") for g in enumerate_graphs(9)]
    assert len(codes) == 274_668
    assert hashlib.sha256(b"\n".join(codes)).hexdigest() == CENSUS_9_DIGEST


def test_enumeration_does_not_canonize(monkeypatch):
    # canonical_form and canonical_code are the independent side of the checks
    import toughlab.canon as canon

    def refuse(*args):
        raise AssertionError("enumeration called the canonical search")

    for name in ("_canonical_placement", "canonical_form", "canonical_code", "relabel"):
        monkeypatch.setattr(canon, name, refuse)
    canon._census.cache_clear()
    assert len(canon.census_codes(7)) == ALL_COUNTS[7]


def test_census_level_is_rows_not_graphs(monkeypatch):
    # a level extends its parents' rows in one array('H'), n entries per
    # record, and builds no Graph; no record's code is written either: each
    # is its parent's code with the new column appended
    import toughlab.canon as canon

    canon._census(5)  # level 5 comes from the cache below
    built, written = [], []

    def building(*args):
        built.append(args)

    def writing(g):
        written.append(g)
        return write_graph6(g)

    monkeypatch.setattr(Graph, "_trusted", classmethod(building))
    monkeypatch.setattr(Graph, "__init__", building)
    monkeypatch.setattr(canon, "write_graph6", writing)
    rows, codes, _ = canon._census.__wrapped__(6)
    assert not built and not written
    assert type(rows) is array and rows.typecode == "H"
    assert len(codes) == ALL_COUNTS[6] and len(rows) == 6 * ALL_COUNTS[6]
    monkeypatch.undo()
    for n in range(9):  # each record the builder yields passes the checks
        assert all(Graph(g.n, g.adj) == g for g in enumerate_graphs(n))


def _retained_per_record(n_max: int) -> float:
    """The bytes that building census levels 0..n_max from cleared caches
    leaves allocated, per record, the walk's cached tables included."""
    import toughlab.canon as canon

    for cache in (canon._census, canon._masks_containing, canon._masks_missing, canon._code_tails):
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = sum(len(canon.census_codes(n)) for n in range(n_max + 1))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / records


def test_census_retains_at_most_120_bytes_per_record():
    # at n = 8: 16 bytes of rows, a 6-character code (55 bytes) and its
    # pointer, a 4-byte parent index, and the walk's tables; a Graph and a
    # row tuple per record would add about 140
    assert _retained_per_record(8) <= 120


@pytest.mark.skipif(not os.environ.get("TOUGHLAB_SLOW"), reason="set TOUGHLAB_SLOW=1 (n = 9 census)")
def test_census_9_retains_at_most_120_bytes_per_record():
    assert _retained_per_record(9) <= 120


def test_each_record_extends_its_parent():
    # the record minus its last vertex is its parent record, labels and all
    import toughlab.canon as canon

    assert len(canon.census_parents(0)) == 0
    for n in range(1, 9):
        parents = list(enumerate_graphs(n - 1))
        graphs = list(enumerate_graphs(n))
        assert canon.census_codes(n) == tuple(write_graph6(g) for g in graphs)
        assert len(canon.census_parents(n)) == len(graphs)
        for g, i in zip(graphs, canon.census_parents(n)):
            assert delete_vertex(g, n - 1) == parents[i]


def _canonical_parents() -> list[Graph]:
    """Canonical graphs on 0..8 vertices: large twin classes, non-twin symmetry, random."""
    rng = random.Random(54)
    graphs = [Graph.empty(k) for k in range(9)] + [Graph.complete(k) for k in range(1, 9)]
    specs = [f"star:{k}" for k in range(1, 8)] + [f"cycle:{k}" for k in range(3, 9)]
    specs += ["multipartite:1,2,3", "multipartite:2,2,2", "multipartite:2,3,3", "multipartite:4,4"]
    graphs += [make_named(parse_family_spec(spec)) for spec in specs]
    graphs.append(Graph.from_edges(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]))
    # a triangle with a two-edge tail: the smallest parent with a child whose
    # new vertex ties the bound early and loses only deeper in the search
    graphs.append(Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]))
    # the smallest parents with a child rejected only where a vertex of the
    # parent, after the new vertex, falls below the bound: before the new
    # vertex's position, at it, and after it
    graphs += [parse_graph6(text) for text in ("E@rO", "F?LuG", "F@]uG")]
    graphs += [_random_graph(rng, k, p) for k in range(2, 8) for p in (0.3, 0.5, 0.7)]
    return [canonical_form(g) for g in graphs]


def test_canonical_children_match_canonical_form():
    # the walk of a parent's tie tree against the independent canonical search
    import toughlab.canon as canon

    for parent in _canonical_parents():
        k = parent.n
        want = 0
        for m in range(1 << k):
            child = Graph(k + 1, canon._child_rows(parent.adj, m))
            if canonical_form(child) == child:
                want |= 1 << m
        assert canon._canonical_children(k, parent.adj) == want, parent


def test_enumeration_yields_canonical_representatives_in_order():
    for n in range(8):
        codes = [canonical_code(g) for g in enumerate_graphs(n)]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        for g in enumerate_graphs(n):
            assert canonical_form(g) == g


def test_enumeration_matches_brute_force_dedup():
    for n in range(5):
        cells = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(cells)):
            edges = [cells[i] for i in range(len(cells)) if bits >> i & 1]
            seen.add(ref_canonical_key(n, edges))
        assert len(seen) == ALL_COUNTS[n]


def test_size_limits():
    with pytest.raises(ValueError):
        canonical_form(Graph.empty(11))
    with pytest.raises(ValueError):
        list(enumerate_graphs(11))
    with pytest.raises(ValueError):
        list(enumerate_graphs(-1))


def test_small_graphs_have_nontrivial_automorphisms():
    # every graph on 2..5 vertices has a non-trivial automorphism (the
    # smallest asymmetric graph has 6 vertices), so each labeled orbit
    # is strictly smaller than n!
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            orbit = {relabel(g, p) for p in permutations(range(n))}
            assert len(orbit) < len(list(permutations(range(n))))
