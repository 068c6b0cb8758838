"""Exact toughness: brute-force scan, witnesses, closed forms, conventions."""
import random
import tracemalloc
from fractions import Fraction

import pytest

from toughlab.canon import enumerate_graphs
from toughlab.families import Family, FamilySpec, make_named, parse_family_spec, turan_parts
import toughlab.toughness as toughness_module
from toughlab.graphs import CrossCheckError, Graph, delete_edge
from toughlab.toughness import (
    INFINITE_TOUGHNESS,
    _Bridged,
    _tough_pass,
    format_toughness,
    iterate_separators,
    tough_separators,
    toughness,
    toughness_complete_multipartite,
)

from oracles import ref_separators, ref_toughness


def _named(text: str) -> Graph:
    return make_named(parse_family_spec(text))


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- the scan against the subset-sweep reference ----------------------------------


def test_toughness_exhaustive_small():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert toughness(g) == ref_toughness(g.n, g.edges())


def test_toughness_random_n7():
    rng = random.Random(71)
    for _ in range(100):
        g = _random_graph(rng, 7, rng.random())
        assert toughness(g) == ref_toughness(g.n, g.edges())


def test_iterate_separators_exhaustive():
    for n in range(6):
        for g in enumerate_graphs(n):
            got = [frozenset(s) for s in iterate_separators(g)]
            bitkey = lambda s: (len(s), sum(1 << v for v in s))
            assert sorted(got, key=bitkey) == got
            assert set(got) == set(ref_separators(g.n, g.edges()))


# -- conventions --------------------------------------------------------------------


def test_toughness_guard_needs_a_separator(monkeypatch):
    monkeypatch.setattr(toughness_module, "_sweep", lambda g: iter(()))
    with pytest.raises(CrossCheckError, match="has no separator"):
        toughness(_named("path:3"))


def test_complete_graphs_are_infinitely_tough():
    for n in range(6):
        assert toughness(Graph.complete(n)) == INFINITE_TOUGHNESS
    assert toughness(Graph.empty(0)) == INFINITE_TOUGHNESS
    assert toughness(Graph.empty(1)) == INFINITE_TOUGHNESS


def test_disconnected_graphs_have_zero_toughness():
    assert toughness(Graph.empty(2)) == 0
    assert toughness(Graph.from_edges(5, [(0, 1), (2, 3)])) == 0


def test_toughness_is_exact_fraction():
    t = toughness(_named("multipartite:2,3"))
    assert isinstance(t, Fraction) and t == Fraction(2, 3)


# -- named family values -------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("path:3", Fraction(1, 2)),
        ("path:4", Fraction(1, 2)),
        ("path:7", Fraction(1, 2)),
        ("cycle:4", Fraction(1)),
        ("cycle:7", Fraction(1)),
        ("star:2", Fraction(1, 2)),
        ("star:5", Fraction(1, 5)),
        ("doublestar:1,1", Fraction(1, 2)),
        ("doublestar:2,3", Fraction(1, 4)),
        ("multipartite:2,3", Fraction(2, 3)),
        ("multipartite:1,1,2", Fraction(1)),
        ("turan:6,3", Fraction(2)),
        ("turan:5,3", Fraction(3, 2)),
        ("net", Fraction(1, 2)),
        ("conet", Fraction(1)),  # the inner triangle splits off all three tips
        ("wheel:4", Fraction(3, 2)),
        ("wheel:5", Fraction(3, 2)),
        ("wheel:6", Fraction(4, 3)),
        ("triplestar:2,2,2", Fraction(1, 3)),
    ],
)
def test_named_family_values(spec, expected):
    assert toughness(_named(spec)) == expected


def test_complete_bipartite_ratio():
    for m in range(1, 5):
        for n in range(max(m, 2), 5):
            assert toughness(_named(f"multipartite:{m},{n}")) == Fraction(m, n)


def test_petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = Graph.from_edges(10, outer + inner + spokes)
    assert toughness(petersen) == Fraction(4, 3)


# -- closed forms ---------------------------------------------------------------------


def test_multipartite_formula_matches_scan():
    def partitions(total, smallest=1):
        if total == 0:
            yield ()
            return
        for first in range(smallest, total + 1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for total in range(1, 8):
        for parts in partitions(total):
            g = _named("multipartite:" + ",".join(map(str, parts)))
            assert toughness_complete_multipartite(parts) == toughness(g)


def test_multipartite_formula_validation():
    with pytest.raises(ValueError):
        toughness_complete_multipartite(())
    with pytest.raises(ValueError):
        toughness_complete_multipartite((2, 1))
    with pytest.raises(ValueError):
        toughness_complete_multipartite((0, 2))


@pytest.mark.parametrize("parts", [(), (0, 1), (2, 0), (2, 1)])
def test_multipartite_formula_refuses_as_the_family_row(parts):
    # the closed form reads its part rules from the multipartite family row
    with pytest.raises(ValueError) as row:
        FamilySpec(Family.COMPLETE_MULTIPARTITE, parts)
    with pytest.raises(ValueError) as formula:
        toughness_complete_multipartite(parts)
    assert str(formula.value) == str(row.value)


def test_turan_values_via_part_formula():
    for n in range(2, 10):
        for k in range(1, n + 1):
            parts = turan_parts(n, k)
            assert toughness_complete_multipartite(parts) == toughness(_named(f"turan:{n},{k}"))


def test_tree_formula_on_all_trees():
    for n in range(3, 9):
        for g in enumerate_graphs(n, connected_only=True):
            if g.edge_count == n - 1:
                assert toughness(g) == Fraction(1, max(g.degrees()))


# -- witnesses ---------------------------------------------------------------------


def test_tough_separators_attain_the_minimum():
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            if g.is_complete():
                continue
            t = toughness(g)
            wits = tough_separators(g)
            assert wits, "a non-complete connected graph attains its toughness"
            for w in wits:
                assert w.ratio == t
                assert Fraction(len(w.separator), w.components_after) == t
            # every other separator does strictly worse
            hit = {frozenset(w.separator) for w in wits}
            for s in ref_separators(g.n, g.edges()):
                ratio = ref_toughness_of_separator(g, s)
                assert (ratio == t) == (s in hit)


def ref_toughness_of_separator(g: Graph, s) -> Fraction:
    from oracles import _component_count_after, normalize_edges

    return Fraction(len(s), _component_count_after(g.n, normalize_edges(g.edges()), set(s)))


@pytest.mark.parametrize(
    "spec,count",
    [("multipartite:2,3", 1), ("path:4", 2), ("cycle:4", 2), ("path:3", 1)],
)
def test_tough_separator_counts(spec, count):
    assert len(tough_separators(_named(spec))) == count


def test_tough_separators_on_complete_graph_rejected():
    with pytest.raises(ValueError):
        tough_separators(Graph.complete(3))


def test_disconnected_tough_separator_is_empty_set():
    wits = tough_separators(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert len(wits) == 1 and len(wits[0].separator) == 0


@pytest.mark.parametrize(
    "spec,t,separators",
    [("star:31", Fraction(1, 31), [[0]]), ("doublestar:15,15", Fraction(1, 16), [[0], [1]])],
    ids=["star:31", "doublestar:15,15"],
)
def test_bounded_pass_on_32_vertices(spec, t, separators):
    """The pass stops by size 2 here and reads a few hundred masks; the
    sweep's tables take a few MB, where a 2^n-entry table would not fit."""
    g = _named(spec)
    assert g.n == 32
    tracemalloc.start()
    try:
        assert toughness(g) == t
        wits = tough_separators(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [sorted(w.separator) for w in wits] == separators
    assert all(w.ratio == t for w in wits)
    assert peak < 16 * 2**20, peak


# -- t(G - uv) from the sweep of G ------------------------------------------------------


def _bridged_toughness(g: Graph) -> dict[tuple[int, int], Fraction]:
    """t(G - uv) for every edge uv, each read by one bridge flood over the
    sweep of G after G's own pass."""
    _, _, sweep, _ = _tough_pass(g)
    last = max(sweep.tops)
    out = {}
    for u, v in g.edges():
        p, q, _, _ = _tough_pass(g, _Bridged(sweep, u, v, last))
        out[u, v] = Fraction(p, q)
    return out


def test_bridge_flood_matches_toughness_of_each_deletion_up_to_7():
    edges = 0
    for n in range(3, 8):
        for g in enumerate_graphs(n):
            if g.is_complete() or g.is_edgeless():
                continue
            for (u, v), t in _bridged_toughness(g).items():
                assert t == toughness(delete_edge(g, u, v)), (g, (u, v))
                edges += 1
    assert edges == 12_286


def _sparse_17() -> Graph:
    """A seeded G(17, m) on a Hamiltonian path, with 8 more edges."""
    rng = random.Random(17)
    edges = {(v, v + 1) for v in range(16)}
    while len(edges) < 24:
        u, v = sorted(rng.sample(range(17), 2))
        edges.add((u, v))
    return Graph.from_edges(17, sorted(edges))


@pytest.mark.parametrize("text", ["cycle:17", "wheel:16", "sparse-17", "wheel:17", "turan:18,3"])
def test_bridge_flood_in_high_blocks(text):
    """Past 16 vertices the flood runs block by block on the sweep's
    planes, skipping the blocks whose high vertices hold u or v."""
    g = _sparse_17() if text == "sparse-17" else _named(text)
    assert g.n in (17, 18)
    for (u, v), t in _bridged_toughness(g).items():
        assert t == toughness(delete_edge(g, u, v)), (text, (u, v))


def test_bridge_flood_refuses_a_size_past_the_pass():
    g = _named("cycle:9")
    _, _, sweep, _ = _tough_pass(g)
    bridged = _Bridged(sweep, 0, 1, max(sweep.tops))
    with pytest.raises(CrossCheckError, match="past G's"):
        bridged.tops[max(sweep.tops) + 1]


# -- formatting ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,text",
    [
        (INFINITE_TOUGHNESS, "inf"),
        (Fraction(0), "0"),
        (Fraction(2), "2"),
        (Fraction(1, 2), "1/2"),
        (Fraction(4, 3), "4/3"),
        (Fraction(-3, 2), "-3/2"),
    ],
)
def test_format_toughness(value, text):
    assert format_toughness(value) == text
