"""Exact graph toughness.

toughness(g) = min over separators S of |S| / c(G - S), as an exact
Fraction; math.inf for complete graphs (the minimum over an empty separator
set), and Fraction(0) exactly when g is disconnected (the empty set is then
a separator).  Values are never floats except the inf sentinel.

Every separator scan reads one sweep, ``_sweep``: sizes s ascending, each
with a lazy iterator of (mask, c(G - S)) over the s-sets with c >= 2, by
bitmask.  Sizes below the degree floor 2*delta - n + 2 yield nothing and
read no mask: each side of a split G - S = A + B keeps its neighbours in
itself and S, so delta <= |A| - 1 + |S| and delta <= |B| - 1 + |S|, and
the two add up to the floor.  Toughness, tough_separators and the
criterion deciders read the sweep through one bounded pass,
``_tough_pass``, with one stop rule: an s-set leaves at most n-s
components, so the pass ends before the first s with s/(n-s) > best
(strict, so ties are kept).  A cond2 witness S of an edge uv leaves uv in
G - S, so |S| < t*(c+1) <= t*(n-|S|) lies inside the pass.  The definition
decider reads the sweep of each G - e itself, under the same stop rule.

The sweep counts c(G - S) by frontier floods over two neighbourhood-union
tables, one per half of the vertices (see ``_sweep``): 2 * 2^ceil(n/2)
entries, a few MB at 32 vertices.  A single 2^n table of counts ran no
faster at n <= 13 and would need 2^32 entries at 32 vertices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .connectivity import is_connected
from .families import Family, FamilySpec
from .graphs import CrossCheckError, Graph, VertexSet

Toughness = Union[Fraction, float]

#: Toughness of complete graphs.  The only float the module ever produces.
INFINITE_TOUGHNESS: float = math.inf


def format_toughness(t: Toughness) -> str:
    """Render exactly: 'p/q', an integer string, or 'inf'."""
    if t == INFINITE_TOUGHNESS:
        return "inf"
    f = Fraction(t)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _sweep(g: Graph) -> Iterator[tuple[int, Iterator[tuple[int, int]]]]:
    """(size, separators) for each size 0..n-2, ascending; ``separators``
    lazily yields (mask, c) for every S of that size with c = c(G - S) >= 2,
    ascending by bitmask, so a size is computed only when it is read.

    Sizes below the degree floor 2*delta - n + 2, delta the least degree,
    read no mask and yield nothing: a vertex of a component A of G - S, and
    one of the rest B, have all neighbours inside A + S and B + S, so
    2*delta <= n + |S| - 2.  The floor is tight on K_{2,...,2}, and at most
    0 on a disconnected graph, whose empty set is still yielded.

    N(R), the union of adj[k] over k in R, is read from two tables built
    once per call: ``lo`` indexed by R's low h = n//2 bits and ``hi`` by the
    rest.  c(G - S) peels components off X = V - S: the component of low(X)
    grows a frontier at a time by R <- (R | N(R)) & X until it stops
    changing."""
    n, adj, full = g.n, g.adj, g.full_mask
    floor = 2 * min(g.degrees(), default=0) - n + 2
    h = n // 2
    low_bits = (1 << h) - 1
    lo, hi = [0], [0]
    for k in range(h):
        lo += [x | adj[k] for x in lo]
    for k in range(h, n):
        hi += [x | adj[k] for x in hi]

    def of_size(size: int) -> Iterator[tuple[int, int]]:
        if size < floor:
            return
        mask, limit = (1 << size) - 1, 1 << n
        while mask < limit:
            rest, c = full ^ mask, 0
            while rest:
                c += 1
                comp = rest & -rest
                while True:
                    grown = (comp | lo[comp & low_bits] | hi[comp >> h]) & rest
                    if grown == comp:
                        break
                    comp = grown
                rest ^= comp
            if c >= 2:
                yield mask, c
            if not mask:  # the one 0-set; Gosper's step needs a set bit
                return
            # Gosper's hack: next larger mask with the same popcount
            low = mask & -mask
            ripple = mask + low
            mask = ripple | (((mask ^ ripple) >> 2) // low)

    for size in range(max(n - 1, 0)):
        yield size, of_size(size)


def _tough_pass(g: Graph) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Toughness p/q of a non-complete graph, and the separators that matter.

    Keeps the least ratio |S|/c(G-S) of the sweep as integers p/q and stops
    before the first size s with s*q > p*(n-s).  Returns p, q and (size,
    mask, c) for every S with size*q <= p*(c+1) under the best ratio so far:
    each S attaining p/q, and each cond2 candidate |S| < t*(c+1).
    """
    n = g.n
    p, q = 1, 0  # no separator yet: an infinite ratio
    kept: list[tuple[int, int, int]] = []
    for size, separators in _sweep(g):
        if size * q > p * (n - size):
            break
        for mask, c in separators:
            if size * q < p * c:
                p, q = size, c
            if size * q <= p * (c + 1):
                kept.append((size, mask, c))
    if q == 0:
        raise CrossCheckError(f"non-complete graph on {n} vertices has no separator")
    return p, q, kept


def iterate_separators(g: Graph) -> Iterator[VertexSet]:
    """All vertex sets S with c(G - S) >= 2, ascending by (size, bitmask).

    Yields the empty set first when g is disconnected.  Complete graphs
    (including K_0 and K_1) have no separators.
    """
    for _, separators in _sweep(g):
        for mask, _ in separators:
            yield VertexSet(mask, g.n)


def toughness(g: Graph) -> Toughness:
    if g.is_complete():
        return INFINITE_TOUGHNESS
    p, q, _ = _tough_pass(g)
    return Fraction(p, q)


@dataclass(frozen=True)
class ToughWitness:
    """A separator attaining the toughness minimum."""

    separator: VertexSet
    components_after: int
    ratio: Fraction


def tough_separators(g: Graph) -> list[ToughWitness]:
    """All separators S with |S|/c(G-S) == toughness(g), ascending (size, bitmask)."""
    if g.is_complete():
        raise ValueError("complete graphs have no separators")
    p, q, kept = _tough_pass(g)
    return [
        ToughWitness(VertexSet(mask, g.n), c, Fraction(size, c))
        for size, mask, c in kept
        if size * q == p * c
    ]


def is_t_tough(g: Graph, t: Toughness) -> bool:
    """True iff t <= toughness(g).  Complete graphs are t-tough for every t."""
    return t <= toughness(g)


def toughness_complete_multipartite(parts: Sequence[int]) -> Toughness:
    """Closed form for complete multipartite graphs with ascending parts.

    inf when every part is a singleton (the graph is complete); 0 when there
    is a single part of size > 1 (edgeless, disconnected); otherwise
    n/n_k - 1 where n_k is the largest part.
    """
    parts = tuple(parts)
    FamilySpec(Family.COMPLETE_MULTIPARTITE, parts)  # raises on parts the row refuses
    n = sum(parts)
    nk = parts[-1]
    if nk == 1:
        return INFINITE_TOUGHNESS
    if len(parts) == 1:
        return Fraction(0)
    return Fraction(n, nk) - 1


def toughness_tree(g: Graph) -> Fraction:
    """1/max-degree, valid for trees on >= 2 vertices with max degree >= 2."""
    if g.n < 2 or not is_connected(g) or g.edge_count != g.n - 1:
        raise ValueError("input is not a tree on >= 2 vertices")
    delta = max(g.degrees())
    if delta < 2:
        raise ValueError("K_2 is complete; the tree formula needs max degree >= 2")
    return Fraction(1, delta)
