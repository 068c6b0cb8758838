"""Recognizers for the graph classes the classification theorems quantify
over, plus the structural decompositions their proofs use.

Chordality has one rule, ``_has_hole_through``: a graph has a hole (an
induced cycle of length >= 4) through v iff some component of it minus N[v]
sees two non-adjacent neighbours of v.  ``is_chordal`` asks it of each
vertex i in the subgraph on 0..i, ``is_co_chordal`` of the complement's
rows, and the census of the new vertex only (``has_co_hole_through``); a
hole as a witness comes from ``find_induced_cycle``.

Induced-subgraph search is a plain ordered backtracking over the whole
graph with adjacency/degree pruning -- fine at desk scale.  For the
hereditary classes the census sweeps (P4-free, net-free, co-chordal,
co-forest, complete multipartite) there are also tests that decide g from
g - v by looking only through v: mask kernels anchored at v, which share no
code with the search.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from .connectivity import (
    _component_count,
    _component_masks,
    co_diameter,
    distances,
    max_bipartite_matching,
)
from .families import Family, FamilySpec, make_named
from .graphs import CrossCheckError, Graph, VertexSet, _bits, _complement_rows, complement


# -- chordality ----------------------------------------------------------------


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    """True iff the vertices of ``mask`` are pairwise adjacent in the rows ``adj``."""
    return all(not mask & ~adj[u] & ~(1 << u) for u in _bits(mask))


def _has_hole_through(rows: tuple[int, ...], v: int, within: int) -> bool:
    """True iff the subgraph induced on ``within`` (a mask holding v) of the
    graph with neighbourhood masks ``rows`` has a hole (an induced cycle of
    length >= 4) through v.  Exact for any graph.

    Let N be v's neighbourhood there.  There is a hole through v iff some
    component C of the rest minus N[v] has two non-adjacent neighbours
    a, b in N.  If v, a, c_1, ..., c_k, b is a hole, a and b are
    non-adjacent (the cycle is induced and has length >= 4) and the c_i
    miss N[v], so they lie in one component C with neighbours a and b.
    Conversely, a shortest a-b path through C is induced and has length
    >= 2, and no vertex of C is adjacent to v, so v closes it into a hole.
    """
    near = rows[v] & within
    for comp in _component_masks(rows, within & ~near & ~(1 << v)):
        attached = 0
        for c in _bits(comp):
            attached |= rows[c]
        if not _is_clique(rows, attached & near):
            return True
    return False


def _is_chordal_rows(rows: tuple[int, ...]) -> bool:
    """No hole through i in the subgraph induced on 0..i, for each i: every
    hole has a largest vertex, and lies in the subgraph up to it."""
    return not any(_has_hole_through(rows, i, (2 << i) - 1) for i in range(len(rows)))


def is_chordal(g: Graph) -> bool:
    return _is_chordal_rows(g.adj)


def is_co_chordal(g: Graph) -> bool:
    return _is_chordal_rows(_complement_rows(g))


def simplicial_vertices(g: Graph) -> VertexSet:
    """Vertices whose neighbourhood induces a clique."""
    bits = 0
    for v in range(g.n):
        if _is_clique(g.adj, g.adj[v]):
            bits |= 1 << v
    return VertexSet(bits, g.n)


# -- forests, split graphs -------------------------------------------------------


def is_forest(g: Graph) -> bool:
    return g.edge_count == g.n - _component_count(g.adj, g.full_mask)


def is_complement_of_forest(g: Graph) -> bool:
    return is_forest(complement(g))


def is_split(g: Graph) -> bool:
    """Degree-sequence criterion: vertices split into a clique and an
    independent set iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i where m is
    the largest i with d_i >= i-1 (degrees descending)."""
    if g.n == 0:
        return True
    d = sorted(g.degrees(), reverse=True)
    m = max(i for i in range(1, g.n + 1) if d[i - 1] >= i - 1)
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


# -- induced-subgraph search ------------------------------------------------------


def contains_induced(g: Graph, pattern: Graph) -> VertexSet | None:
    """A vertex set of g inducing ``pattern``, or None.

    Deterministic: pattern vertices are matched in a fixed
    connectivity-then-degree order, g candidates ascending.
    """
    k = pattern.n
    if k > g.n:
        return None
    if k == 0:
        return VertexSet(0, g.n)
    pdeg = pattern.degrees()
    order: list[int] = []
    chosen = 0
    while len(order) < k:
        best, best_key = -1, None
        for v in range(k):
            if chosen >> v & 1:
                continue
            key = ((pattern.adj[v] & chosen).bit_count(), pdeg[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        chosen |= 1 << best
    gdeg = g.degrees()
    image = [0] * k
    used = 0
    full = g.full_mask

    def dfs(i: int) -> bool:
        nonlocal used
        if i == k:
            return True
        pv = order[i]
        row = pattern.adj[pv]
        cand = full & ~used
        for j in range(i):
            if row >> order[j] & 1:
                cand &= g.adj[image[j]]
            else:
                cand &= ~g.adj[image[j]]
        for w in _bits(cand):
            if gdeg[w] < pdeg[pv]:
                continue
            image[i] = w
            used |= 1 << w
            if dfs(i + 1):
                return True
            used ^= 1 << w
        return False

    if dfs(0):
        return VertexSet.from_vertices(image, g.n)
    return None


_P4 = make_named(FamilySpec(Family.PATH, (4,)))
_NET = make_named(FamilySpec(Family.NET))
_CO_NET = make_named(FamilySpec(Family.CO_NET))


@lru_cache(maxsize=None)
def _cycle(k: int) -> Graph:
    return make_named(FamilySpec(Family.CYCLE, (k,)))


def find_induced_cycle(g: Graph, min_length: int) -> VertexSet | None:
    """Shortest-first search for an induced cycle of length >= min_length."""
    if min_length < 3:
        raise ValueError("induced cycles have length >= 3")
    for k in range(min_length, g.n + 1):
        hit = contains_induced(g, _cycle(k))
        if hit is not None:
            return hit
    return None


def is_p4_free(g: Graph) -> bool:
    return contains_induced(g, _P4) is None


def is_net_free(g: Graph) -> bool:
    return contains_induced(g, _NET) is None


def is_co_net_free(g: Graph) -> bool:
    return contains_induced(g, _CO_NET) is None


def is_weakly_chordal(g: Graph) -> bool:
    """No induced cycle of length >= 5 in g or its complement."""
    return (
        find_induced_cycle(g, 5) is None
        and find_induced_cycle(complement(g), 5) is None
    )


def is_hereditary_nbhd_helly(g: Graph) -> bool:
    """Closed neighbourhoods have the Helly property hereditarily: no induced
    C_4, C_5, C_6 and no induced 3-sun (complement of the net)."""
    for k in (4, 5, 6):
        if contains_induced(g, _cycle(k)) is not None:
            return False
    return contains_induced(g, _CO_NET) is None


# -- hereditary classes, one new vertex at a time ----------------------------------
#
# Each test below decides whether g is in a hereditary class, given that g - v
# is: it looks only for a forbidden structure through v, since one that misses
# v lies in g - v.


def has_p4_through(g: Graph, v: int) -> bool:
    """True iff some induced P_4 of g contains v: v-a-b-c with b outside
    N[v], or a-v-b-c with b in N(v) - N(a).  Either way c is a neighbour of
    b outside N[v] and N(a), so for each a the rows of its b must meet that."""
    adj, near = g.adj, g.adj[v]
    far = g.full_mask & ~near & ~(1 << v)
    for a in _bits(near):
        row, reach = adj[a], 0
        for b in _bits(row & far | near & ~row & ~(1 << a)):
            reach |= adj[b]
        if reach & far & ~row:
            return True
    return False


def has_co_p3_through(g: Graph, v: int) -> bool:
    """True iff some induced K1+K2 (the complement of P_3) of g contains v:
    v apart from an edge ab of its non-neighbours, or v in an edge va with
    a non-neighbour b of both.  g is complete multipartite iff it has no
    induced K1+K2 (non-adjacency is then an equivalence)."""
    adj, near = g.adj, g.adj[v]
    far = g.full_mask ^ near ^ 1 << v
    for a in _bits(far):
        if adj[a] & far:
            return True
    for a in _bits(near):
        if adj[a] & far != far:
            return True
    return False


def _picks(adj: tuple[int, ...], first: int, second: int, third: int) -> bool:
    """True iff a vertex of each mask can be picked, pairwise non-adjacent."""
    for a in _bits(first):
        for b in _bits(second & ~adj[a]):
            if third & ~adj[a] & ~adj[b]:
                return True
    return False


def has_net_through(g: Graph, v: int) -> bool:
    """True iff some induced net of g contains v.  The net is a triangle
    xyz with a pendant at each corner taken from its private neighbourhood
    (``own``), the pendants pairwise non-adjacent; its automorphisms reach
    every corner and every pendant, so v is a corner, of a triangle vab, or
    the pendant of a corner a, of a triangle ayz with y, z outside N[v]."""
    adj, near = g.adj, g.adj[v]
    own = lambda x, y, z: adj[x] & ~adj[y] & ~adj[z]
    for a in _bits(near):
        for b in _bits(near & adj[a] & ~((2 << a) - 1)):
            if _picks(adj, own(v, a, b), own(a, b, v), own(b, v, a)):
                return True
        far = adj[a] & ~near & ~(1 << v)
        for y in _bits(far):
            for z in _bits(far & adj[y] & ~((2 << y) - 1)):
                if _picks(adj, 1 << v, own(y, z, a), own(z, a, y)):
                    return True
    return False


def has_co_hole_through(g: Graph, v: int) -> bool:
    """True iff the complement of g has a hole through v (``_has_hole_through``)."""
    return _has_hole_through(_complement_rows(g), v, g.full_mask)


def has_co_cycle_through(g: Graph, v: int) -> bool:
    """For g whose complement H has H - v a forest: True iff H has a cycle
    through v, that is iff two of v's neighbours in H lie in one component
    of H - v (the path joining them closes a cycle with v, and every cycle
    through v leaves it by two neighbours joined by a path in H - v)."""
    h = _complement_rows(g)
    return any((comp & h[v]).bit_count() > 1
               for comp in _component_masks(h, g.full_mask & ~(1 << v)))


# -- multipartite structure --------------------------------------------------------


class MultipartiteParts(NamedTuple):
    """Parts of a complete multipartite graph, ascending by (size, least vertex)."""

    parts: tuple[VertexSet, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


def complete_multipartite_parts(g: Graph) -> MultipartiteParts | None:
    """The unique multipartition when g is complete multipartite, else None."""
    # g is complete multipartite iff the closed non-neighbourhoods partition
    # V; each v lies in its own, so they do iff the distinct ones sum to n
    parts = {g.full_mask ^ row for row in g.adj}
    if sum(m.bit_count() for m in parts) != g.n:
        return None
    ordered = sorted(parts, key=lambda m: (m.bit_count(), m & -m))
    return MultipartiteParts(tuple(VertexSet(m, g.n) for m in ordered))


def is_complete_multipartite(g: Graph) -> bool:
    return complete_multipartite_parts(g) is not None


# -- simplicial-pair decomposition ---------------------------------------------------


class SimplicialPairDecomposition(NamedTuple):
    """For co-chordal g with finite co-diameter d >= 3: a pair (u, w) of
    complement-simplicial vertices at complement-distance d, their complement
    neighbourhoods U and W, the rest X, and the maximum matching size m of
    g[U, W].  Local connectivity between u and w equals |X| + m + 1."""

    u: int
    w: int
    U: VertexSet
    W: VertexSet
    X: VertexSet
    m: int


def simplicial_pair_decomposition(g: Graph) -> SimplicialPairDecomposition | None:
    """None when g is not co-chordal or its co-diameter is < 3 or infinite."""
    h = complement(g)
    if not is_chordal(h):
        return None
    table, d = distances(h), co_diameter(g)
    if math.isinf(d) or d < 3:
        return None
    simp = list(simplicial_vertices(h))
    pair = None
    for i, u in enumerate(simp):
        for w in simp[i + 1 :]:
            if table.distance(u, w) == d:
                pair = (u, w)
                break
        if pair:
            break
    if pair is None:
        raise CrossCheckError(f"chordal complement attains diameter {d} at no simplicial pair")
    u, w = pair
    umask, wmask = h.adj[u], h.adj[w]
    xmask = g.full_mask & ~umask & ~wmask & ~(1 << u) & ~(1 << w)
    m = max_bipartite_matching(g, VertexSet(umask, g.n), VertexSet(wmask, g.n)).size
    return SimplicialPairDecomposition(
        u, w, VertexSet(umask, g.n), VertexSet(wmask, g.n), VertexSet(xmask, g.n), m
    )


# -- recognizer registry ----------------------------------------------------------


#: name -> predicate, in the fixed column order of the CLI classify vector
CLASS_PREDICATES: dict[str, Callable[[Graph], bool]] = {
    "chordal": is_chordal,
    "co-chordal": is_co_chordal,
    "weakly-chordal": is_weakly_chordal,
    "p4-free": is_p4_free,
    "complete-multipartite": is_complete_multipartite,
    "net-free": is_net_free,
    "co-net-free": is_co_net_free,
    "forest": is_forest,
    "co-forest": is_complement_of_forest,
    "split": is_split,
    "hcn-helly": is_hereditary_nbhd_helly,
}
