"""Property-based differential tests on graphs with 9-11 vertices.

These orders lie past the enumerated census (n <= 8), so the checks here
reach graphs no exhaustive test sees.  Examples are derandomized, so every
run draws the same graphs.
"""
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from toughlab.families import make_named, parse_family_spec
from toughlab.graphs import Graph
from toughlab.mintough import is_minimally_tough_by_criterion, is_minimally_tough_by_definition
from toughlab.toughness import tough_separators, toughness

from oracles import _component_count_after, normalize_edges, ref_separators, ref_toughness

_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

#: minimally tough family members on 9-11 vertices, and relatives that are not
_FAMILIES = (
    "wheel:8", "wheel:9", "wheel:10", "cycle:9", "cycle:10", "cycle:11",
    "turan:9,3", "turan:10,5", "turan:11,4", "multipartite:2,3,4", "multipartite:3,3,4",
    "doublestar:4,4", "triplestar:2,2,3", "path:10",
)


@st.composite
def random_graphs(draw, nmin: int = 9, nmax: int = 11) -> Graph:
    """G(n, p) at one of three densities."""
    n = draw(st.integers(nmin, nmax))
    pairs = list(combinations(range(n), 2))
    percent = draw(st.sampled_from((30, 50, 70)))
    rolls = draw(st.lists(st.integers(0, 99), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, roll in zip(pairs, rolls) if roll < percent])


@st.composite
def family_graphs(draw, nmax: int = 11) -> Graph:
    """A relabelled family member, possibly with one edge added or removed."""
    members = [make_named(parse_family_spec(text)) for text in _FAMILIES]
    g = draw(st.sampled_from([m for m in members if m.n <= nmax]))
    perm = draw(st.permutations(range(g.n)))
    edges = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges()}
    change = draw(st.sampled_from(("none", "add", "remove")))
    non_edges = sorted(set(combinations(range(g.n), 2)) - edges)
    if change == "add" and non_edges:
        edges.add(draw(st.sampled_from(non_edges)))
    elif change == "remove" and len(edges) > 1:
        edges.discard(draw(st.sampled_from(sorted(edges))))
    return Graph.from_edges(g.n, sorted(edges))


graphs_9_to_11 = st.one_of(random_graphs(), family_graphs())
graphs_9_to_10 = st.one_of(random_graphs(nmax=10), family_graphs(nmax=10))


@_SETTINGS
@given(graphs_9_to_11)
def test_criterion_matches_definition(g):
    by_criterion, _ = is_minimally_tough_by_criterion(g)
    by_definition = is_minimally_tough_by_definition(g)
    assert (by_criterion.status, by_criterion.toughness, by_criterion.failing_edge) == (
        by_definition.status,
        by_definition.toughness,
        by_definition.failing_edge,
    )


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
