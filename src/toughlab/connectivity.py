"""Connectivity primitives: components, hop distances, local connectivity
via unit-capacity max-flow on the vertex-split digraph, and bipartite
matching.

All distance values are either exact ints or math.inf (never a large finite
stand-in), from one frontier BFS over rows (``_levels``); ``co_diameter``
reads the complement's rows and builds no complement ``Graph``.  Local
connectivity of adjacent vertices follows Menger's convention: the edge
itself counts as one internally disjoint path, so kappa(u,v) = 1 +
kappa_{G-uv}(u,v).  ``local_connectivity`` is one exact max-flow kernel
(Even & Tarjan, SIAM J. Comput. 1975) on the split digraph of G-uv, whose
residual is one bitmask per node: x_in is node x, x_out is node n+x, and
the arcs x_out->y_in are the adjacency mask of x itself.  It preloads
the paths u-w-v through common neighbours and stops once the flow reaches
min(deg(u), deg(v)) in G-uv; both shortcuts are exact.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .graphs import Graph, VertexSet, _as_mask, _bits, _complement_rows

# -- components --------------------------------------------------------------


def _flood(adj: tuple[int, ...], seed: int, allowed: int) -> int:
    """Mask of the vertices reachable from ``seed`` inside ``allowed``."""
    comp = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & allowed & ~comp
        comp |= new
        frontier |= new
    return comp


def _component_count(adj: tuple[int, ...], mask: int) -> int:
    """Number of connected components of the subgraph induced on ``mask``."""
    return len(_component_masks(adj, mask))


def _component_masks(adj: tuple[int, ...], mask: int) -> list[int]:
    """Components of the subgraph induced on ``mask``, by least vertex."""
    out = []
    while mask:
        comp = _flood(adj, mask & -mask, mask)
        out.append(comp)
        mask &= ~comp
    return out


def components(g: Graph) -> list[VertexSet]:
    """Connected components, ordered by their least vertex."""
    return [VertexSet._trusted(m, g.n) for m in _component_masks(g.adj, g.full_mask)]


def is_connected(g: Graph) -> bool:
    return g.n == 0 or _component_count(g.adj, g.full_mask) == 1


# -- distances ----------------------------------------------------------------


class DistanceTable(NamedTuple):
    """All-pairs hop distances; entries are ints or math.inf."""

    rows: tuple[tuple[int | float, ...], ...]

    def distance(self, u: int, v: int) -> int | float:
        return self.rows[u][v]

    def eccentricity(self, v: int) -> int | float:
        return max(self.rows[v], default=0)


def _levels(rows: tuple[int, ...], src: int) -> list[int]:
    """The BFS levels from src over ``rows``: masks at distance 0, 1, ..."""
    levels, seen, frontier = [], 1 << src, 1 << src
    while frontier:
        levels.append(frontier)
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return levels


def distances(g: Graph) -> DistanceTable:
    rows = [[math.inf] * g.n for _ in range(g.n)]
    for src, row in enumerate(rows):
        for d, level in enumerate(_levels(g.adj, src)):
            for v in _bits(level):
                row[v] = d
    return DistanceTable(tuple(map(tuple, rows)))


def _diameter(rows: tuple[int, ...]) -> int | float:
    """math.inf if the BFS from vertex 0 misses a vertex (the levels are
    disjoint, so their sum is the set reached), else the largest eccentricity."""
    if rows and sum(_levels(rows, 0)) != (1 << len(rows)) - 1:
        return math.inf
    return max((len(_levels(rows, src)) - 1 for src in range(len(rows))), default=0)


def diameter(g: Graph) -> int | float:
    return _diameter(g.adj)


def co_diameter(g: Graph) -> int | float:
    return _diameter(_complement_rows(g))


# -- local connectivity via max-flow ------------------------------------------


def local_connectivity(g: Graph, u: int, v: int) -> int:
    """Maximum number of internally vertex-disjoint u-v paths.

    A unit-capacity flow from u_out to v_in in the vertex-split digraph of
    G-uv, kept as its residual, one bitmask per node: node x is x_in and
    node n+x is x_out; x_in holds the bit of x_out (the arc x_in->x_out,
    for x other than u and v) and x_out holds ``adj[x]`` itself (the arcs
    x_out->y_in).  Shortest augmenting paths (Edmonds-Karp) are found by a
    layered BFS and walked back from v_in; each arc flips two bits.  Arcs
    into u_out and out of v_in are never read: the BFS starts at one and
    stops at the other.  Two exact shortcuts:

    - every common neighbour w gives the path u-w-v, preloaded (w_in->w_out
      saturated): a maximum path system must use w (or it could add
      u-w-v), and the path through w can be swapped for u-w-v;
    - the flow stops at min(deg(u), deg(v)) in G-uv, since each path uses
      its own neighbour of u and of v.

    The edge uv itself adds one path.
    """
    if u == v:
        raise ValueError("local connectivity needs two distinct vertices")
    n = g.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("vertex out of range")
    nu, nv = g.adj[u] & ~(1 << v), g.adj[v] & ~(1 << u)
    common = nu & nv
    res = [0 if x == u or x == v else 1 << (n + x) for x in range(n)] + list(g.adj)
    res[n + u] = nu ^ common
    for w in _bits(common):
        res[w] = 0
        res[n + w] ^= (1 << v) | (1 << w)
    flow, bound = common.bit_count(), min(nu.bit_count(), nv.bit_count())
    while flow < bound:
        layers = []
        seen = frontier = 1 << (n + u)
        while not frontier >> v & 1:
            layers.append(frontier)
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= res[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                return g.has_edge(u, v) + flow
            seen |= frontier
        y = v
        for layer in reversed(layers):
            x = (layer & -layer).bit_length() - 1
            while not res[x] >> y & 1:
                layer ^= 1 << x
                x = (layer & -layer).bit_length() - 1
            res[x] ^= 1 << y
            res[y] ^= 1 << x
            y = x
        flow += 1
    return g.has_edge(u, v) + flow


# -- bipartite matching --------------------------------------------------------


class Matching(NamedTuple):
    """A set of vertex-disjoint edges, each stored as (u, v) with u < v."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def max_bipartite_matching(g: Graph, a: VertexSet | Iterable[int], b: VertexSet | Iterable[int]) -> Matching:
    """Maximum matching of the bipartite subgraph g[A, B].

    Only edges with one end in a and the other in b are considered.
    Augmenting-path search (Kuhn's algorithm) over the a side.
    """
    amask = _as_mask(a, g.n)
    bmask = _as_mask(b, g.n)
    if amask & bmask:
        raise ValueError("sides overlap")
    match_of: dict[int, int] = {}  # b vertex -> a vertex

    def try_augment(x: int, visited: set[int]) -> bool:
        for y in _bits(g.adj[x] & bmask):
            if y in visited:
                continue
            visited.add(y)
            if y not in match_of or try_augment(match_of[y], visited):
                match_of[y] = x
                return True
        return False

    for x in _bits(amask):
        try_augment(x, set())
    pairs = sorted((min(x, y), max(x, y)) for y, x in match_of.items())
    return Matching(tuple(pairs))


def uv_extension(g: Graph, a: VertexSet | Iterable[int], b: VertexSet | Iterable[int]) -> tuple[Graph, int, int]:
    """Attach u adjacent to all of a and v adjacent to all of b.

    Requires (g, a, b) to be a bipartition: a and b disjoint, covering all
    vertices, with every edge between the sides.  Returns (extended graph,
    u, v) where u = g.n and v = g.n + 1; u and v are non-adjacent.
    """
    amask = _as_mask(a, g.n)
    bmask = _as_mask(b, g.n)
    if amask & bmask:
        raise ValueError("sides overlap")
    if (amask | bmask) != g.full_mask:
        raise ValueError("sides must cover all vertices")
    for x in _bits(amask):
        if g.adj[x] & amask:
            raise ValueError("edge inside side a: input is not bipartite on (a, b)")
    for x in _bits(bmask):
        if g.adj[x] & bmask:
            raise ValueError("edge inside side b: input is not bipartite on (a, b)")
    n = g.n
    u, v = n, n + 1
    rows = list(g.adj)
    for x in range(n):
        extra = 0
        if amask >> x & 1:
            extra |= 1 << u
        if bmask >> x & 1:
            extra |= 1 << v
        rows[x] |= extra
    rows.append(amask)
    rows.append(bmask)
    return Graph(n + 2, tuple(rows)), u, v
