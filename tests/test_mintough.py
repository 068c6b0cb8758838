"""Minimal-toughness deciders, edge conditions, and the join theorem."""
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

import toughlab.toughness as toughness_module
from toughlab.canon import canonical_code, census_parents, enumerate_graphs
from toughlab.connectivity import components
from toughlab.families import make_named, parse_family_spec
from toughlab.graph6 import parse_graph6, write_graph6
from toughlab.graphs import Graph, _bits, complement, delete_edge, induced_subgraph
from toughlab.mintough import (
    MinToughStatus,
    _cond2_masks,
    _criterion_holds,
    cond2_candidates,
    is_minimally_tough_by_criterion,
    is_minimally_tough_by_definition,
    is_nontrivially_minimally_tough,
    universal_vertices,
    verdict_to_json,
)
from toughlab.toughness import _Siblings, _tough_pass, tough_separators, toughness

from oracles import (
    _component_count_after,
    normalize_edges,
    ref_is_minimally_tough,
    ref_local_connectivity,
    ref_toughness,
)


def _named(text: str) -> Graph:
    return make_named(parse_family_spec(text))


def _code(text: str) -> str:
    return canonical_code(_named(text))


# -- the two deciders --------------------------------------------------------------


def test_deciders_agree_exhaustively():
    # full verdict agreement (status, toughness, failing edge) for all
    # connected graphs up to 6 vertices; n = 7 runs in the acceptance suite
    for n in range(7):
        for g in enumerate_graphs(n, connected_only=True):
            by_def = is_minimally_tough_by_definition(g)
            by_crit, _ = is_minimally_tough_by_criterion(g)
            assert by_def == by_crit, g


@lru_cache(maxsize=None)
def _oracle(g: Graph) -> tuple:
    """t(g) and its non-trivial minimal toughness, by the brute-force oracle."""
    edges = normalize_edges(g.edges())
    return ref_toughness(g.n, edges), ref_is_minimally_tough(g.n, edges)


def test_deciders_match_reference_up_to_7():
    """Every class on at most 7 vertices against the brute-force oracle:
    t, the verdicts, and the definition decider's failing edge, the least
    edge whose deletion keeps t."""
    for n in range(8):
        for g in enumerate_graphs(n):
            edges = normalize_edges(g.edges())
            t, want = _oracle(g)
            verdict = is_minimally_tough_by_definition(g)
            assert verdict.toughness == t, g
            assert (verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH) == want, g
            assert is_nontrivially_minimally_tough(g) == want, g
            if verdict.status is MinToughStatus.NOT_MIN_TOUGH:
                keeper = next(e for e in g.edges() if ref_toughness(g.n, edges - {e}) >= t)
                assert verdict.failing_edge == keeper, g
            else:
                assert verdict.failing_edge is None, g


def test_boolean_decider_matches_the_criterion_up_to_7():
    """The boolean decider bounds kappa by degrees and common neighbours,
    bounds cond2 by the sizes of the pass, then lists cond2 separators and
    runs a max-flow last; its verdict is the criterion's, which reads kappa
    by max-flow on every edge, on every class with n <= 8."""
    for n in range(9):
        for g in enumerate_graphs(n):
            verdict, _ = is_minimally_tough_by_criterion(g)
            want = verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH
            assert is_nontrivially_minimally_tough(g) == want, g


@pytest.mark.parametrize("text", ["multipartite:2,2,3", "conet"])
def test_common_neighbours_disprove_cond1_without_a_flow(monkeypatch, text):
    """On these graphs an edge with 1 + |N(u) & N(v)| >= 2t + 1, which
    fails cond1 by that bound alone, also fails cond2: the verdict needs no
    max-flow."""
    import toughlab.mintough as mintough_module

    def refuse(*args):
        raise AssertionError("the boolean decider ran a max-flow")

    monkeypatch.setattr(mintough_module, "local_connectivity", refuse)
    assert not is_nontrivially_minimally_tough(_named(text))


def _census_lanes(n: int):
    """(record, lane) for each census record on n vertices that is neither
    complete nor edgeless, its lane from one sibling flood per canonical
    parent."""
    records, up = list(enumerate_graphs(n)), list(enumerate_graphs(n - 1))
    children: dict[int, list[Graph]] = {}
    for g, parent in zip(records, census_parents(n)):
        if not (g.is_complete() or g.is_edgeless()):
            children.setdefault(parent, []).append(g)
    for parent, kids in children.items():
        siblings = _Siblings(up[parent], kids)
        yield from ((g, siblings.lane(i)) for i, g in enumerate(kids))


def test_sibling_lanes_match_the_per_graph_pass():
    """Every census record on 2..8 vertices read from its sibling lane: the
    bounded pass gives toughness(g) and the sizes, largest counts and cond2
    separators of g's own sweep, and the criterion gives the boolean
    decider's verdict."""
    for n in range(2, 9):
        for g, lane in _census_lanes(n):
            p, q, _, tops = _tough_pass(g, lane)
            assert Fraction(p, q) == toughness(g), g
            own_p, own_q, sweep, own_tops = _tough_pass(g)
            assert (p, q, tops) == (own_p, own_q, own_tops), g
            assert _cond2_masks(p, q, lane, tops) == _cond2_masks(p, q, sweep, tops), g
            assert _criterion_holds(g, lane) == is_nontrivially_minimally_tough(g), g


def test_sibling_lanes_match_oracles_up_to_7():
    """The lanes share ``_peel`` with the per-graph sweep, so they are also
    checked against the oracle, which shares nothing with either: t and the
    verdict of every class on 2..7 vertices that is neither complete nor
    edgeless."""
    for n in range(2, 8):
        for g, lane in _census_lanes(n):
            t, minimal = _oracle(g)
            p, q, _, _ = _tough_pass(g, lane)
            assert Fraction(p, q) == t, g
            assert _criterion_holds(g, lane) == minimal, g


def test_trivial_statuses():
    for g in (Graph.complete(0), Graph.complete(1), Graph.complete(4), Graph.empty(3)):
        for verdict in (is_minimally_tough_by_definition(g), is_minimally_tough_by_criterion(g)[0]):
            assert verdict.status is MinToughStatus.TRIVIALLY_MIN_TOUGH
            assert verdict.failing_edge is None
        assert not is_nontrivially_minimally_tough(g)


def test_disconnected_graphs_are_not_minimally_tough():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    verdict, witnesses = is_minimally_tough_by_criterion(g)
    assert verdict.status is MinToughStatus.NOT_MIN_TOUGH
    assert verdict.toughness == 0
    assert all(not w.cond1 and not w.cond2 for w in witnesses)
    assert is_minimally_tough_by_definition(g).status is MinToughStatus.NOT_MIN_TOUGH


# -- frozen small classifications -----------------------------------------------------


def test_minimally_tough_graphs_n3_n4_n5():
    def codes(n):
        return {
            canonical_code(g)
            for g in enumerate_graphs(n, connected_only=True)
            if is_nontrivially_minimally_tough(g)
        }

    assert codes(3) == {_code("path:3")}
    assert codes(4) == {_code("path:4"), _code("cycle:4"), _code("star:3")}
    assert codes(5) == {
        _code("path:5"),
        _code("star:4"),
        _code("multipartite:2,3"),
        _code("cycle:5"),
        _code("wheel:4"),
        _code("doublestar:1,2"),  # the five-vertex spider
    }


def test_every_tree_is_minimally_tough():
    for n in range(3, 8):
        for g in enumerate_graphs(n, connected_only=True):
            if g.edge_count == n - 1:
                assert is_nontrivially_minimally_tough(g)


def test_petersen_graph_is_minimally_tough():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = Graph.from_edges(10, outer + inner + spokes)
    verdict = is_minimally_tough_by_definition(petersen)
    assert verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH
    assert verdict.toughness == Fraction(4, 3)


def test_join_examples():
    # K1 * C4 is the rim-4 wheel, minimally tough; K1 * P3 is the diamond, not
    assert is_nontrivially_minimally_tough(_named("wheel:4"))
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert not is_nontrivially_minimally_tough(diamond)
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert not is_nontrivially_minimally_tough(paw)


#: past the census: minimally tough on 12 vertices (every edge is tried), a
#: near miss, and two dense graphs whose degree floor is 8 and 7
_PAST_THE_CENSUS = {
    "wheel:11": _named("wheel:11"),
    "cycle:12+0-6": Graph.from_edges(12, _named("cycle:12").edges() + [(0, 6)]),
    "turan:12,4": _named("turan:12,4"),
    "turan:13,4": _named("turan:13,4"),
}


@pytest.mark.parametrize("text", list(_PAST_THE_CENSUS))
def test_deciders_match_oracles_on_12_and_13_vertices(text):
    g = _PAST_THE_CENSUS[text]
    edges = set(g.edges())
    t = ref_toughness(g.n, edges)
    minimal = ref_is_minimally_tough(g.n, edges)
    failing = None if minimal else next(e for e in g.edges() if ref_toughness(g.n, edges - {e}) >= t)
    want = (MinToughStatus.NON_TRIVIALLY_MIN_TOUGH if minimal else MinToughStatus.NOT_MIN_TOUGH, t, failing)
    by_definition = is_minimally_tough_by_definition(g)
    by_criterion, _ = is_minimally_tough_by_criterion(g)
    for verdict in (by_definition, by_criterion):
        assert (verdict.status, verdict.toughness, verdict.failing_edge) == want
    assert is_nontrivially_minimally_tough(g) == minimal


# -- failing edge -----------------------------------------------------------------


def test_failing_edge_is_lexicographically_least():
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            verdict = is_minimally_tough_by_definition(g)
            if verdict.status is not MinToughStatus.NOT_MIN_TOUGH:
                continue
            t = verdict.toughness
            keepers = [e for e in g.edges() if toughness(delete_edge(g, *e)) == t]
            assert keepers and verdict.failing_edge == keepers[0]


def test_failing_edge_example():
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    verdict = is_minimally_tough_by_definition(diamond)
    # only deleting the central 0-1 edge (leaving C4) preserves toughness 1
    assert verdict.failing_edge == (0, 1)
    assert verdict.toughness == 1


# -- per-edge witnesses -------------------------------------------------------------


def test_criterion_witnesses_are_coherent():
    for n in range(2, 6):
        for g in enumerate_graphs(n, connected_only=True):
            if g.is_complete():
                continue
            t = toughness(g)
            verdict, witnesses = is_minimally_tough_by_criterion(g)
            assert [w.edge for w in witnesses] == g.edges()
            for w in witnesses:
                u, v = w.edge
                assert w.kappa == ref_local_connectivity(g.n, g.edges(), u, v)
                assert w.cond1 == (w.kappa < 2 * t + 1)
                assert w.cond2 == (w.separator is not None)
                if w.separator is not None:
                    s = set(w.separator)
                    assert u not in s and v not in s
                    cands = [set(c) for c in cond2_candidates(g, u, v)]
                    assert s in cands
                    from oracles import _component_count_after, normalize_edges

                    c = _component_count_after(g.n, normalize_edges(g.edges()), s)
                    assert c >= 2 and len(s) < t * (c + 1)
            ok = all(w.cond1 or w.cond2 for w in witnesses)
            assert ok == (verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH)


def test_cond2_candidates_on_path4():
    p4 = _named("path:4")
    assert [sorted(s) for s in cond2_candidates(p4, 0, 1)] == [[2]]
    assert [sorted(s) for s in cond2_candidates(p4, 1, 2)] == []
    assert [sorted(s) for s in cond2_candidates(p4, 2, 3)] == [[1]]


def test_cond2_candidates_requires_an_edge():
    with pytest.raises(ValueError):
        list(cond2_candidates(_named("path:4"), 0, 2))


def _ref_first_cond2(g: Graph, t, u: int, v: int) -> frozenset[int] | None:
    """Least S in (size, bitmask) order, among the oracle's separators, that
    avoids u and v, separates them in G-uv and meets |S| < t*(c(G-S)+1)."""
    from oracles import _component_count_after, normalize_edges, ref_components, ref_separators

    edges = normalize_edges(g.edges())
    hits = []
    for s in ref_separators(g.n, edges):
        if u in s or v in s:
            continue
        if not len(s) < t * (_component_count_after(g.n, edges, set(s)) + 1):
            continue
        rest = [(a, b) for a, b in edges if (a, b) != (u, v) and a not in s and b not in s]
        if not any(u in comp and v in comp for comp in ref_components(g.n, rest)):
            hits.append(s)
    return min(hits, key=lambda s: (len(s), sum(1 << x for x in s)), default=None)


#: connected, non-complete graphs on 9 and 10 vertices
_WITNESS_ORDER_LARGE = (
    "wheel:8",
    "cycle:10",
    "turan:10,3",
    "doublestar:3,4",
    "triplestar:2,2,2",
    "multipartite:2,3,4",
)


#: graphs on 9-11 vertices whose verdict needs cond2 (the graph6 forms of
#: ``_COND2_GRAPHS`` in test_properties.py)
_NEEDS_COND2 = (
    "HBYmfrU", "HBYl]`P", "H?Ci[b_", "H??ZTRO", "H??@}Y_",
    "IBYl]`PlG", "I??ZTRO`?", "I?Ci[b_AW", "I??ZLRO?W", "J??ZLROS?A_",
)


def test_criterion_witness_is_the_least_cond2_separator():
    graphs = [g for n in range(2, 7) for g in enumerate_graphs(n, connected_only=True)]
    graphs += [_named(text) for text in _WITNESS_ORDER_LARGE]
    graphs += [parse_graph6(text) for text in _NEEDS_COND2]
    # a near-miss: a 10-cycle with one chord
    graphs.append(Graph.from_edges(10, _named("cycle:10").edges() + [(0, 5)]))
    for g in graphs:
        if g.is_complete():
            continue
        t = ref_toughness(g.n, g.edges())
        _, witnesses = is_minimally_tough_by_criterion(g)
        for w in witnesses:
            want = _ref_first_cond2(g, t, *w.edge)
            got = frozenset(w.separator) if w.separator is not None else None
            assert got == want, (g.edges(), w.edge)
            # the single stop of the separator pass relies on this bound
            assert got is None or len(got) < t * (g.n - len(got)), (g.edges(), w.edge)


def _record_sweeps(monkeypatch, events: list) -> None:
    """Appends ("sweep", g) to ``events`` for each sweep begun,
    ("flood", block, size) for each size of each block flooded, and
    ("list", size) for each size whose masks are listed."""
    init, flood = toughness_module._Sweep.__init__, toughness_module._Sweep._flood
    separators = toughness_module._Sweep.separators

    def recording(self, g):
        events.append(("sweep", g))
        init(self, g)

    def recorded(self, lo, hi, block):
        weight = block.bit_count()
        events.extend(("flood", block, size) for size in range(max(lo, weight), min(hi, weight + self.low) + 1))
        return flood(self, lo, hi, block)

    def listed(self, size, least=2):
        events.append(("list", size))
        return separators(self, size, least)

    monkeypatch.setattr(toughness_module._Sweep, "__init__", recording)
    monkeypatch.setattr(toughness_module._Sweep, "_flood", recorded)
    monkeypatch.setattr(toughness_module._Sweep, "separators", listed)


@pytest.mark.parametrize(
    "decide", [is_nontrivially_minimally_tough, is_minimally_tough_by_criterion, tough_separators]
)
def test_one_separator_pass_per_call(monkeypatch, decide):
    """No mask has c(G - S) computed twice in one call: the call reads one
    sweep, floods each size of each block of it once, and lists the masks
    of each size at most once.  The boolean decider lists only when some
    edge needs cond2, and on wheel:8 every edge meets cond1 by degree."""
    events: list = []
    _record_sweeps(monkeypatch, events)
    chorded = Graph.from_edges(10, _named("cycle:10").edges() + [(0, 5)])
    wheel = _named("wheel:8")
    for g in (wheel, chorded):
        events.clear()
        decide(g)
        floods = [event for event in events if event[0] == "flood"]
        lists = [event for event in events if event[0] == "list"]
        assert events[0] == ("sweep", g) and events.count(events[0]) == 1, (decide.__name__, g.edges())
        assert floods and len(floods) == len(set(floods)), (decide.__name__, g.edges())
        assert len(lists) == len(set(lists)), (decide.__name__, g.edges())
        if decide is not is_nontrivially_minimally_tough:
            assert lists, (decide.__name__, g.edges())
        elif g is wheel:
            assert not lists, g.edges()


def _s_max(h: Graph) -> int:
    """max(delta, n*delta // (c0 + delta)) for the first v of least degree
    delta and c0 = c(h - N(v)), by the oracle: no size past it is read."""
    delta = min(h.degrees())
    v = h.degrees().index(delta)
    c0 = _component_count_after(h.n, normalize_edges(h.edges()), set(_bits(h.adj[v])))
    return max(delta, h.n * delta // (c0 + delta))


def _bounded_pass_sizes(h: Graph) -> list[int]:
    """The sizes a bounded pass over ``h`` reads, by the oracle: 0 up to,
    and not including, the first size s above the least size attaining
    t(h) with s/(n-s) > t(h), or every size 0..n-2 if there is none."""
    edges = normalize_edges(h.edges())
    t = ref_toughness(h.n, edges)
    least = next(
        size for size in range(h.n - 1) for s in combinations(range(h.n), size)
        if (c := _component_count_after(h.n, edges, set(s))) >= 2 and Fraction(size, c) == t
    )
    stop = next((size for size in range(least + 1, h.n - 1) if Fraction(size, h.n - size) > t), h.n - 1)
    return list(range(stop))


#: C9 with the chord 0-2: deleting the chord leaves C9, so its failing edge is 0-2
_CHORDED_C9 = Graph.from_edges(9, _named("cycle:9").edges() + [(0, 2)])


@pytest.mark.parametrize("text", ["wheel:8", "turan:10,5", "cycle:9", "chorded-c9"])
def test_definition_decider_reads_one_bounded_pass_per_edge(monkeypatch, text):
    """One sweep of G, read by one bounded pass of ``toughness``: every
    size in order up to the pass's stop and no further, with no mask
    listed, and no position below the degree floor 2*delta - n + 2 or past
    the first window flooded.  Each edge's bridge flood reads G's planes
    over [floor - 2, the pass's last size], and the pass of G-e reads no
    size past G's.  No ``Graph`` is built but the failing edge's G-e."""
    g = _CHORDED_C9 if text == "chorded-c9" else _named(text)
    events: list = []
    _record_sweeps(monkeypatch, events)
    top, rest, bridged = toughness_module._Sweep.top, toughness_module._Sweep._rest, toughness_module._Bridged.top
    built: list = []

    def read(self, size):
        events.append(("top", size))
        return top(self, size)

    def planes(self, lo, hi, block):
        events.append(("rest", lo, hi))
        return rest(self, lo, hi, block)

    def read_e(self, size):
        events.append(("top-e", size))
        return bridged(self, size)

    monkeypatch.setattr(toughness_module._Sweep, "top", read)
    monkeypatch.setattr(toughness_module._Sweep, "_rest", planes)
    monkeypatch.setattr(toughness_module._Bridged, "top", read_e)
    monkeypatch.setattr(Graph, "__post_init__", lambda h: built.append(h))
    verdict = is_minimally_tough_by_definition(g)
    monkeypatch.undo()
    if text == "chorded-c9":
        assert verdict.status is MinToughStatus.NOT_MIN_TOUGH and verdict.failing_edge == (0, 2)
        assert built == [delete_edge(g, 0, 2)]
        events = events[: next(i for i, event in enumerate(events[1:], 1) if event[0] == "sweep")]
    else:
        assert verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH
        assert built == []
    assert [event for event in events if event[0] == "sweep"] == [("sweep", g)]
    floor, s_max = max(2 * min(g.degrees()) - g.n + 2, 0), _s_max(g)
    floods = [event[2] for event in events if event[0] == "flood"]
    assert floods and min(floods) >= floor and max(floods) <= s_max, text
    # G's pass reads G's tops before the first bridged read, which reads
    # G's top of each size through the same ``top``
    first_e = next(i for i, event in enumerate(events) if event[0] == "top-e")
    tops = [event[1] for event in events[:first_e] if event[0] == "top"]
    assert tops == _bounded_pass_sizes(g), text
    assert not [event for event in events if event[0] == "list"], text
    # G's flood takes the planes of its first window, each bridge flood those
    # of [floor - 2, the pass's last size]
    windows = {event[1:] for event in events if event[0] == "rest"}
    bridge_window = (max(floor - 2, 0), tops[-1])
    assert bridge_window in windows and windows <= {(floor, s_max), bridge_window}, text
    read_e = [event[1] for event in events if event[0] == "top-e"]
    assert read_e and max(read_e) <= tops[-1], text


def test_universal_vertices():
    assert list(universal_vertices(_named("star:4"))) == [0]
    assert list(universal_vertices(_named("wheel:5"))) == [5]
    assert list(universal_vertices(Graph.complete(3))) == [0, 1, 2]
    assert list(universal_vertices(_named("cycle:5"))) == []
    assert list(universal_vertices(Graph.empty(1))) == [0]


# -- the join theorem ------------------------------------------------------------------------


def test_join_theorem_over_the_census():
    # a non-trivially minimally tough G = G1 * G2 whose G1 holds a vertex of
    # maximum degree has G2 ceil(2*t2)-regular and ceil(2t) = ceil(2*t2) + |G1|;
    # G1 and G2 are unions of co-components, so splitting them every way
    # covers every join on at most 8 vertices
    joins = splits = 0
    for n in range(2, 9):
        for g in enumerate_graphs(n):
            parts = [s.bits for s in components(complement(g))]
            if len(parts) < 2 or not is_nontrivially_minimally_tough(g):
                continue
            joins += 1
            t, degrees = toughness(g), g.degrees()
            top = sum(1 << v for v in range(n) if degrees[v] == max(degrees))
            for k in range(1, len(parts)):
                for chosen in combinations(parts, k):
                    g1 = sum(chosen)
                    if not g1 & top:
                        continue
                    g2 = induced_subgraph(g, [v for v in range(n) if not g1 >> v & 1])
                    t2 = toughness(g2)
                    assert isinstance(t2, Fraction), (write_graph6(g), g1)
                    assert set(g2.degrees()) == {math.ceil(2 * t2)}, (write_graph6(g), g1)
                    assert math.ceil(2 * t) == math.ceil(2 * t2) + g1.bit_count(), (write_graph6(g), g1)
                    splits += 1
    assert (joins, splits) == (21, 48)


def test_definition_decider_rejects_toughness_rising_on_deletion(monkeypatch):
    import toughlab.mintough as mintough

    g = Graph.from_edges(5, _named("cycle:5").edges() + [(0, 2)])
    # C5 plus a chord has t = 1 and its failing edge is the chord; a
    # deletion that hands back K5 minus an edge (t = 3/2) there contradicts
    # monotonicity, and the confirming sweep of G-e finds no S that reaches t
    assert is_minimally_tough_by_definition(g).failing_edge == (0, 2)
    k5_minus = delete_edge(Graph.complete(5), 0, 1)
    monkeypatch.setattr(mintough, "delete_edge", lambda h, u, v: k5_minus)
    with pytest.raises(mintough.CrossCheckError, match="raised toughness from 1 to 3/2"):
        is_minimally_tough_by_definition(g)


def _lowest(x: int) -> int:
    return x & -x


#: a bridge flood that drops one bridge position (or all of them), or that
#: invents one (or makes every position a bridge)
_FAULTS = {
    "drop-one": lambda found, ends: found ^ _lowest(found),
    "drop-all": lambda found, ends: 0,
    "invent-one": lambda found, ends: found | _lowest(ends ^ found),
    "invent-all": lambda found, ends: ends,
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_definition_decider_refuses_a_faulty_bridge_flood(monkeypatch, fault):
    """The bridge flood only proposes: a drop it finds is recounted on
    G-e's rows, and an edge it finds no drop at is confirmed by the full
    sweep of G-e.  So a flood that drops or invents bridge positions makes
    the decider raise CrossCheckError, or it returns the right verdict."""
    positions = toughness_module._bridge_positions

    def faulty(nbrs, rest, u, v):
        return _FAULTS[fault](positions(nbrs, rest, u, v), rest[u] & rest[v])

    graphs = [g for n in range(3, 7) for g in enumerate_graphs(n, connected_only=True)]
    graphs += [_named(text) for text in ("wheel:8", "turan:10,5", "cycle:9", "triplestar:2,2,2")]
    want = [is_minimally_tough_by_definition(g) for g in graphs]
    monkeypatch.setattr(toughness_module, "_bridge_positions", faulty)
    refused = 0
    for g, verdict in zip(graphs, want):
        try:
            assert is_minimally_tough_by_definition(g) == verdict, g.edges()
        except toughness_module.CrossCheckError:
            refused += 1
    assert refused, fault


def test_criterion_deciders_do_not_read_the_bridge_flood(monkeypatch, capsys):
    """The two deciders stay independent: with the bridge flood broken the
    criterion deciders still decide, and so does ``verify all``."""
    import toughlab.mintough as mintough
    from toughlab.cli import main
    from toughlab.verify import _graph_of, _mintough, _tau_of

    def broken(*args):
        raise AssertionError("the criterion route read the bridge flood")

    monkeypatch.setattr(toughness_module, "_bridge_positions", broken)
    monkeypatch.setattr(toughness_module, "_Bridged", broken)
    monkeypatch.setattr(mintough, "_Bridged", broken)
    for n in range(3, 7):
        for g in enumerate_graphs(n, connected_only=True):
            verdict, _ = is_minimally_tough_by_criterion(g)
            nontrivial = verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH
            assert is_nontrivially_minimally_tough(g) == nontrivial
    with pytest.raises(AssertionError, match="bridge flood"):
        is_minimally_tough_by_definition(_named("cycle:5"))
    for cached in (_graph_of, _mintough, _tau_of):
        cached.cache_clear()
    assert main(["verify", "all", "--nmax", "6"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text", ["turan:10,5", "cycle:9", "wheel:8", "doublestar:3,4"])
def test_criterion_decider_takes_kappa_of_g_at_least_degree_ends(monkeypatch, text):
    """kappa(G) <= kappa(u,v) <= min(deg u, deg v) for an edge uv, so an
    edge whose least-degree end has degree kappa(G) takes no max-flow, and
    each witness keeps the exact kappa."""
    import toughlab.mintough as mintough

    g = _named(text)
    degrees, kappa_g = g.degrees(), min(size for size, _ in _tough_pass(g)[3])
    flows = []
    flow = mintough.local_connectivity

    def recorded(h, u, v):
        flows.append((u, v))
        return flow(h, u, v)

    monkeypatch.setattr(mintough, "local_connectivity", recorded)
    _, witnesses = is_minimally_tough_by_criterion(g)
    assert not [e for e in flows if min(degrees[e[0]], degrees[e[1]]) == kappa_g], text
    if text in ("turan:10,5", "cycle:9"):
        assert flows == []
    assert [w.kappa for w in witnesses] == [flow(g, *w.edge) for w in witnesses]


# -- serialization -----------------------------------------------------------------------


def test_verdict_to_json_shapes():
    g = _named("doublestar:1,1")
    verdict, witnesses = is_minimally_tough_by_criterion(g)
    record = verdict_to_json(g, verdict, witnesses)
    assert record["status"] == "non-trivially-minimally-tough"
    assert record["toughness"] == "1/2"
    assert record["failing_edge"] is None
    assert len(record["witnesses"]) == g.edge_count
    for w in record["witnesses"]:
        assert set(w) == {"edge", "kappa", "cond1", "cond2", "separator"}

    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    verdict, witnesses = is_minimally_tough_by_criterion(diamond)
    record = verdict_to_json(diamond, verdict, witnesses)
    assert record["status"] == "not-minimally-tough"
    assert record["failing_edge"] == [0, 1]
    assert record["toughness"] == "1"


def test_status_strings_frozen():
    assert MinToughStatus.TRIVIALLY_MIN_TOUGH.value == "trivially-minimally-tough"
    assert MinToughStatus.NON_TRIVIALLY_MIN_TOUGH.value == "non-trivially-minimally-tough"
    assert MinToughStatus.NOT_MIN_TOUGH.value == "not-minimally-tough"
