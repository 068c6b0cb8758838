"""Property-based differential tests on random graphs.

The separator sweep is checked on 0-7, 9-13 and 16-18 vertices; the deciders,
toughness and local connectivity on 9-11 vertices, the deciders again on
14-19, and each drop of the bridge flood on 9-12, orders past the
enumerated census (n <= 8), so the checks here reach graphs no exhaustive
test sees; the common-neighbour bound on local connectivity on 2-12; the
census's sibling lanes on random parents with random child masks on 8-10
vertices; chordality on 8-10 and 32 vertices, canonical codes up to 10
vertices, the enumeration's walk on parents of 5-8 vertices and graph6 up
to 32.  Examples are derandomized, so every run draws the same graphs.
"""
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toughlab.toughness as toughness_module
from toughlab.canon import _canonical_children, _child_rows, canonical_code, canonical_form
from toughlab.classes import is_chordal, is_co_chordal
from toughlab.connectivity import local_connectivity
from toughlab.families import make_named, parse_family_spec
from toughlab.graph6 import HEADER, Graph6Error, parse_graph6, write_graph6
from toughlab.graphs import MAX_VERTICES, Graph, complement, delete_edge, relabel
from toughlab.mintough import (
    MinToughStatus,
    _criterion_holds,
    is_minimally_tough_by_criterion,
    is_minimally_tough_by_definition,
    is_nontrivially_minimally_tough,
)
from toughlab.toughness import (
    _Siblings,
    _Sweep,
    _tough_pass,
    iterate_separators,
    tough_separators,
    toughness,
)

from oracles import (
    _component_count_after,
    normalize_edges,
    ref_complement_edges,
    ref_components,
    ref_is_chordal,
    ref_is_minimally_tough,
    ref_separators,
    ref_toughness,
)
from test_toughness import _check_bridge_drops

_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

#: minimally tough family members on 9-11 vertices, and relatives that are not
_FAMILIES = (
    "wheel:8", "wheel:9", "wheel:10", "cycle:9", "cycle:10", "cycle:11",
    "turan:9,3", "turan:10,5", "turan:11,4", "multipartite:2,3,4", "multipartite:3,3,4",
    "doublestar:4,4", "triplestar:2,2,3", "path:10",
)

#: minimally tough graphs on 9-11 vertices with an edge that meets cond2
#: and not cond1, found by adding a vertex to such graphs of the census; the
#: random graphs and the families above give next to none, and of the named
#: families only triplestar:2,2,2 is one
_COND2_GRAPHS = [
    parse_graph6(text)
    for text in (
        "HBYmfrU", "HBYl]`P", "H?Ci[b_", "H??ZTRO", "H??@}Y_",
        "IBYl]`PlG", "I??ZTRO`?", "I?Ci[b_AW", "I??ZLRO?W", "J??ZLROS?A_",
    )
] + [make_named(parse_family_spec("triplestar:2,2,2"))]


#: graphs on 9-11 vertices where deleting (0, 1), and no other edge, keeps
#: the toughness; each is a graph of _COND2_GRAPHS plus one edge, relabelled
#: so that edge is (0, 1).  A decider that skips (0, 1) calls them minimally
#: tough, and a random labelling almost never shows that.
_FAILS_ONLY_AT_01 = ("H}b[rTs", "HiO?[ic", "IgQECosOG", "J_PE`iga?A_")


@st.composite
def random_graphs(draw, nmin: int = 9, nmax: int = 11, percents=(30, 50, 70)) -> Graph:
    """G(n, p) at one of the given densities, in percent."""
    n = draw(st.integers(nmin, nmax))
    pairs = list(combinations(range(n), 2))
    percent = draw(st.sampled_from(percents))
    rolls = draw(st.lists(st.integers(0, 99), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, roll in zip(pairs, rolls) if roll < percent])


@st.composite
def perturbed_graphs(draw, members: list[Graph]) -> Graph:
    """A relabelled member, possibly with one edge added or removed."""
    g = draw(st.sampled_from(members))
    perm = draw(st.permutations(range(g.n)))
    edges = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges()}
    change = draw(st.sampled_from(("none", "add", "remove")))
    non_edges = sorted(set(combinations(range(g.n), 2)) - edges)
    if change == "add" and non_edges:
        edges.add(draw(st.sampled_from(non_edges)))
    elif change == "remove" and len(edges) > 1:
        edges.discard(draw(st.sampled_from(sorted(edges))))
    return Graph.from_edges(g.n, sorted(edges))


def family_graphs(nmax: int = 11):
    members = [make_named(parse_family_spec(text)) for text in _FAMILIES]
    return perturbed_graphs([m for m in members if m.n <= nmax])


graphs_9_to_11 = st.one_of(random_graphs(), family_graphs(), perturbed_graphs(_COND2_GRAPHS))
graphs_9_to_10 = st.one_of(random_graphs(nmax=10), family_graphs(nmax=10))


def _check_deciders_agree(g: Graph) -> MinToughStatus:
    by_criterion, _ = is_minimally_tough_by_criterion(g)
    by_definition = is_minimally_tough_by_definition(g)
    assert by_criterion == by_definition, g.edges()
    nontrivial = by_definition.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH
    assert is_nontrivially_minimally_tough(g) == nontrivial, g.edges()
    return by_definition.status


@_SETTINGS
@given(graphs_9_to_11)
def test_criterion_matches_definition(g):
    _check_deciders_agree(g)


#: minimally tough family members on 14-19 vertices
_FAMILIES_14_TO_19 = (
    "wheel:13", "wheel:18", "turan:14,7", "turan:18,9", "cycle:14", "cycle:19",
    "doublestar:6,6", "doublestar:8,9", "triplestar:4,4,4", "triplestar:5,5,5",
)


def test_criterion_matches_definition_on_14_to_19():
    """Past 16 vertices every sweep and bridge flood runs block by block.
    Each member of ``_FAMILIES_14_TO_19`` randomly relabelled, as it is and
    with one seeded edge added or removed, and ten seeded G(n, p)."""
    rng = random.Random(1419)
    graphs = []
    for text in _FAMILIES_14_TO_19:
        member = make_named(parse_family_spec(text))
        perm = list(range(member.n))
        rng.shuffle(perm)
        g = relabel(member, perm)
        non_edges = sorted(set(combinations(range(g.n), 2)) - set(g.edges()))
        graphs += [g, Graph.from_edges(g.n, g.edges() + [rng.choice(non_edges)]),
                   delete_edge(g, *rng.choice(g.edges()))]
    for _ in range(10):
        n, percent = rng.randint(14, 19), rng.choice((30, 50, 70))
        graphs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.randrange(100) < percent]))
    statuses = [_check_deciders_agree(g) for g in graphs]
    assert set(statuses) == {MinToughStatus.NON_TRIVIALLY_MIN_TOUGH, MinToughStatus.NOT_MIN_TOUGH}


@_SETTINGS
@given(st.one_of(random_graphs(9, 12), family_graphs(12), perturbed_graphs(_COND2_GRAPHS)))
def test_bridge_flood_matches_toughness_of_each_deletion(g):
    """The drop the bridge flood reads from the sweep of G at each edge uv
    recounts on G - uv to the toughness of the graph G - uv, and no drop
    means that toughness is t(G)."""
    if g.is_complete() or g.is_edgeless():
        return
    _check_bridge_drops(g)


@pytest.mark.parametrize("text", _FAILS_ONLY_AT_01)
def test_boolean_decider_reads_edge_01(text):
    g = parse_graph6(text)
    t = toughness(g)
    kept = [e for e in g.edges() if toughness(Graph.from_edges(g.n, set(g.edges()) - {e})) >= t]
    assert kept == [(0, 1)]
    assert is_minimally_tough_by_definition(g).failing_edge == (0, 1)
    assert not is_nontrivially_minimally_tough(g)


def _menger_cut(g: Graph, u: int, v: int) -> int:
    """The fewest vertices other than u and v whose removal separates u from
    v in G-uv, found by trying every set in order of size (the last, every
    other vertex, always does)."""
    others = [x for x in range(g.n) if x != u and x != v]
    kept = [e for e in g.edges() if set(e) != {u, v}]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            edges = [e for e in kept if not set(e) & set(cut)]
            if not any(u in comp and v in comp for comp in ref_components(g.n, edges)):
                return size


@st.composite
def graphs_with_pairs(draw, graphs) -> tuple[Graph, list[tuple[int, int]]]:
    """A graph with one adjacent and one non-adjacent pair, where it has them."""
    g = draw(graphs)
    pairs = list(combinations(range(g.n), 2))
    chosen = []
    for adjacent in (True, False):
        of_kind = [(u, v) for u, v in pairs if g.has_edge(u, v) == adjacent]
        if of_kind:
            u, v = draw(st.sampled_from(of_kind))
            chosen.append(draw(st.sampled_from(((u, v), (v, u)))))
    return g, chosen


@_SETTINGS
@given(graphs_with_pairs(graphs_9_to_11))
def test_local_connectivity_matches_menger_cut(case):
    g, pairs = case
    for u, v in pairs:
        assert local_connectivity(g, u, v) == _menger_cut(g, u, v) + g.has_edge(u, v), (u, v)


@_SETTINGS
@given(st.one_of(random_graphs(2, 12, (20, 50, 80)), family_graphs(12)))
def test_common_neighbours_bound_local_connectivity(g):
    """uv and the paths u-w-v through common neighbours w are internally
    disjoint, so kappa(u,v) >= 1 + |N(u) & N(v)| on every edge: the bound
    the boolean decider disproves cond1 by."""
    for u, v in g.edges():
        assert 1 + (g.adj[u] & g.adj[v]).bit_count() <= local_connectivity(g, u, v), (u, v)


@_SETTINGS
@given(graphs_9_to_10)
def test_toughness_and_tough_separators_match_oracle(g):
    t = ref_toughness(g.n, g.edges())
    assert toughness(g) == t
    if g.is_complete():
        return
    edges = normalize_edges(g.edges())
    want = []
    for s in ref_separators(g.n, edges):
        c = _component_count_after(g.n, edges, set(s))
        if len(s) == t * c:
            want.append((len(s), sum(1 << x for x in s), c))
    witnesses = tough_separators(g)
    assert [(len(w.separator), w.separator.bits, w.components_after) for w in witnesses] == sorted(want)
    assert all(w.ratio == t for w in witnesses)


@st.composite
def complete_multipartite_graphs(draw, n: int) -> Graph:
    """Each vertex in a drawn part, adjacent to every vertex of the other
    parts.  Its least separator keeps one largest part of size k, so it has
    n - k vertices against the degree floor n - 2k + 2: tight at k = 2."""
    part = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]])


def _check_sweep(g: Graph, sizes) -> None:
    """The sweep of ``g`` against the oracle on the given sizes: every
    separator by (size, bitmask) and its component count."""
    edges = normalize_edges(g.edges())
    sweep = _Sweep(g)
    got = [(size, mask, c) for size in sizes for mask, c in sweep.separators(size)]
    want = []
    for size in sizes:
        for s in combinations(range(g.n), size):
            c = _component_count_after(g.n, edges, set(s))
            if c >= 2:
                want.append((size, sum(1 << x for x in s), c))
    assert got == sorted(want)
    for size in sizes:
        assert sweep.top(size) == max((c for s, _, c in want if s == size), default=0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, 9, 10, 11, 12, 13, 16, 17, 18])
@settings(derandomize=True, deadline=None, max_examples=5)
@given(data=st.data())
def test_sweep_matches_oracle(n, data):
    """Every size in order, every separator by (size, bitmask), its
    component count and each size's largest.  Sizes past the first window
    are listed too.  From 17 vertices on, the positions index the low 16
    and each subset of the rest is a block.  From 16 on, the sizes 0-3 and
    n-4..n-2 are checked, a few thousand oracle counts a graph where all
    sizes take 2^n; they reach every block of both windows.  Dense and
    complete multipartite draws have a positive degree floor, below which
    the sweep floods nothing."""
    g = data.draw(st.one_of(random_graphs(n, n, (15, 30, 50, 70, 85, 95)), complete_multipartite_graphs(n)))
    _check_sweep(g, range(n - 1) if n < 16 else [*range(4), *range(n - 4, n - 1)])


def _record_windows(monkeypatch) -> list[tuple[int, int]]:
    """The (lo, hi) size window of each block the sweeps flood, in order."""
    flood, windows = toughness_module._Sweep._flood, []

    def recorded(self, lo, hi, block):
        windows.append((lo, hi))
        return flood(self, lo, hi, block)

    monkeypatch.setattr(toughness_module._Sweep, "_flood", recorded)
    return windows


@pytest.mark.parametrize("text", ["turan:12,6", "turan:10,5"])
def test_degree_floor_is_tight(monkeypatch, text):
    """K_{2,...,2} minus all parts but one leaves two isolated vertices: the
    least separator has 2*delta - n + 2 vertices, the sweep yields it, and
    no smaller size is flooded."""
    windows = _record_windows(monkeypatch)
    g = make_named(parse_family_spec(text))
    floor = 2 * min(g.degrees()) - g.n + 2
    assert min(len(s) for s in ref_separators(g.n, normalize_edges(g.edges()))) == floor
    sweep = _Sweep(g)
    assert next(size for size in range(g.n - 1) if sweep.separators(size)) == floor
    assert min(lo for lo, _ in windows) == floor


@pytest.mark.parametrize("text", ["path:8", "doublestar:3,4", "cycle:9"])
def test_listing_past_the_first_window(monkeypatch, text):
    """s_max < n - 2 here, so the bounded pass floods one window and the
    full listing a second, past s_max; both agree with the oracle."""
    windows = _record_windows(monkeypatch)
    g = make_named(parse_family_spec(text))
    tough_separators(g)
    (first,) = set(windows)
    assert first[1] < g.n - 2
    windows.clear()
    got = [(len(s), s.bits) for s in iterate_separators(g)]
    assert sorted(set(windows)) == [first, (first[1] + 1, g.n - 2)]
    want = sorted((len(s), sum(1 << x for x in s)) for s in ref_separators(g.n, normalize_edges(g.edges())))
    assert got == want
    _check_sweep(g, range(g.n - 1))


@st.composite
def sibling_families(draw) -> tuple[Graph, list[Graph]]:
    """A graph on 8-10 vertices, random or a perturbed minimally tough one,
    and siblings of it: the graph minus its last vertex is the parent, and
    each child joins a new last vertex to the graph's own mask or to one of
    0-3 random masks, as the census builds children.  They need not be
    canonical, and two may be equal; complete and edgeless ones are dropped,
    as the census decides them without a flood."""
    members = [m for m in _COND2_GRAPHS if m.n <= 10]
    members += [make_named(parse_family_spec(text)) for text in _FAMILIES]
    g = draw(st.one_of(random_graphs(8, 10), perturbed_graphs([m for m in members if m.n <= 10])))
    k = g.n - 1
    parent = Graph(k, tuple(row & ~(1 << k) for row in g.adj[:k]))
    masks = [g.adj[k]] + draw(st.lists(st.integers(0, (1 << k) - 1), max_size=3))
    children = [Graph(g.n, _child_rows(parent.adj, m)) for m in masks]
    return parent, [h for h in children if not (h.is_complete() or h.is_edgeless())]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(sibling_families())
def test_sibling_lanes_of_random_parents_match_oracle(family):
    """One flood over the children of a random parent on 8-10 vertices,
    each child a lane, against the oracle for each child: every separator
    by mask with its component count and each size's largest count, on
    every size the flood covers, then t from the bounded pass and the
    verdict from the criterion."""
    parent, children = family
    if not children:
        return
    siblings = _Siblings(parent.adj, [g.adj[parent.n] for g in children])
    for i, g in enumerate(children):
        lane, edges = siblings.lane(i), normalize_edges(g.edges())
        for size in range(siblings.most + 1):
            want = []
            for s in combinations(range(g.n), size):
                c = _component_count_after(g.n, edges, set(s))
                if c >= 2:
                    want.append((sum(1 << x for x in s), c))
            assert lane.separators(size) == sorted(want), (i, size)
            assert lane.top(size) == max((c for _, c in want), default=0), (i, size)
        p, q, _, _ = _tough_pass(g, lane)
        assert Fraction(p, q) == ref_toughness(g.n, edges), i
        assert _criterion_holds(g, lane) == ref_is_minimally_tough(g.n, edges), i


@st.composite
def circulant_graphs(draw, nmin: int = 6, nmax: int = 9) -> Graph:
    """Vertex i adjacent to i +- d for each drawn jump d: vertex-transitive,
    so a canonical search meets ties that no transposition explains."""
    n = draw(st.integers(nmin, nmax))
    jumps = draw(st.sets(st.integers(1, n // 2), max_size=n // 2))
    return Graph.from_edges(n, {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in jumps})


@st.composite
def relabellings(draw, graphs) -> tuple[Graph, list[int]]:
    """A graph drawn from ``graphs`` and a permutation of its vertices."""
    g = draw(graphs)
    return g, draw(st.permutations(range(g.n)))


# sparse and dense graphs too: their canonical searches meet the most ties.
# Enumeration walks only children of canonical parents, so this covers every
# input the walk gets.
@_SETTINGS
@given(st.one_of(random_graphs(5, 8, (5, 15, 30, 50, 70, 85, 95)), circulant_graphs(5, 8)))
def test_canonical_children_of_random_parents_match_canonical_form(g):
    parent = canonical_form(g)
    k = parent.n
    got = _canonical_children(k, parent.adj)
    for m in range(1 << k):
        child = Graph(k + 1, _child_rows(parent.adj, m))
        assert (got >> m & 1) == (canonical_form(child) == child), m


@_SETTINGS
@given(relabellings(st.one_of(random_graphs(2, 10), family_graphs(10))))
def test_canonical_code_invariant_under_relabelling(case):
    g, perm = case
    assert canonical_code(relabel(g, perm)) == canonical_code(g)


@st.composite
def any_graphs(draw, nmax: int = MAX_VERTICES) -> Graph:
    n = draw(st.integers(0, nmax))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@st.composite
def damaged_graph6(draw) -> str:
    """A graph6 record, as written or with a few characters spliced in at
    one place, replacing at most one."""
    text = draw(st.sampled_from(("", HEADER))) + write_graph6(draw(any_graphs(12)))
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(st.text(max_size=3)) + text[cut + draw(st.integers(0, 1)) :]


_GRAPH6_BYTES = "".join(map(chr, range(63, 127)))


@_SETTINGS
@given(st.one_of(st.text(), st.text(alphabet=_GRAPH6_BYTES, max_size=12), damaged_graph6()))
def test_parse_graph6_raises_only_graph6_error(text):
    try:
        parse_graph6(text)
    except Graph6Error:
        pass


@_SETTINGS
@given(any_graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(write_graph6(g)) == g


@st.composite
def chordal_graphs(draw, nmin: int, nmax: int) -> Graph:
    """Each vertex v joined to a clique of the graph on 0..v-1, a drawn
    subset of a greedy clique grown from a drawn vertex's neighbourhood, and
    the result relabelled: read backwards the insertion order is a perfect
    elimination order, so the graph is chordal."""
    n = draw(st.integers(nmin, nmax))
    adj = [0] * n
    for v in range(1, n):
        w = draw(st.integers(0, v - 1))
        clique = 1 << w
        for u in range(v):
            if adj[w] >> u & 1 and clique & ~adj[u] == 0 and draw(st.booleans()):
                clique |= 1 << u
        clique &= draw(st.integers(0, (1 << v) - 1)) | (1 << w)
        for u in range(v):
            if clique >> u & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return relabel(Graph(n, tuple(adj)), draw(st.permutations(range(n))))


@st.composite
def planted_holes(draw, graphs) -> Graph:
    """A graph drawn from ``graphs`` whose edges among k >= 4 drawn vertices
    are replaced by a k-cycle through them, so they induce C_k."""
    g = draw(graphs)
    k = draw(st.integers(4, min(g.n, 12)))
    cycle = draw(st.permutations(range(g.n)))[:k]
    inside = set(cycle)
    edges = [e for e in g.edges() if not (e[0] in inside and e[1] in inside)]
    edges += [tuple(sorted((cycle[i], cycle[i - 1]))) for i in range(k)]
    return Graph.from_edges(g.n, edges)


@_SETTINGS
@given(st.one_of(random_graphs(8, 10, (10, 20, 30, 50, 70, 80, 90)),
                 chordal_graphs(8, 10), chordal_graphs(8, 10).map(complement),
                 planted_holes(chordal_graphs(8, 10))))
def test_chordality_matches_oracle(g):
    edges = g.edges()
    assert is_chordal(g) == ref_is_chordal(g.n, edges)
    assert is_co_chordal(g) == ref_is_chordal(g.n, ref_complement_edges(g.n, edges))


@_SETTINGS
@given(chordal_graphs(32, 32))
def test_chordal_on_32_vertices(g):
    assert is_chordal(g)
    assert is_co_chordal(complement(g))


@_SETTINGS
@given(planted_holes(chordal_graphs(32, 32)))
def test_planted_hole_on_32_vertices(g):
    assert not is_chordal(g)
    assert not is_co_chordal(complement(g))
