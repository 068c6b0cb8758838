"""Exact graph toughness.

toughness(g) = min over separators S of |S| / c(G - S), as an exact
Fraction; math.inf for complete graphs (the minimum over an empty separator
set), and Fraction(0) exactly when g is disconnected (the empty set is then
a separator).  Values are never floats except the inf sentinel.

Every separator scan -- toughness, tough_separators, iterate_separators and
the cond2 separators of mintough.py -- filters one sweep, ``_sweep``: subsets
S in ascending (size, bitmask) order, skipping any that meet ``avoid``,
yielding (|S|, mask, c(G - S)) when c(G - S) >= 2, and ending before the
first size where the caller's ``stop(size)`` holds.  A deleted s-set leaves
at most n-s components, so toughness stops once s/(n-s) >= best.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from .connectivity import _component_count
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


def _masks_of_popcount(n: int, k: int) -> Iterator[int]:
    """All n-bit masks with k set bits, in ascending numeric order."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    mask = (1 << k) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        # Gosper's hack: next larger mask with the same popcount
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def _sweep(
    g: Graph, avoid: int = 0, stop: Callable[[int], bool] | None = None
) -> Iterator[tuple[int, int, int]]:
    """(size, mask, c) for every S with c(G - S) >= 2, ascending (size, bitmask).

    Masks meeting ``avoid`` are skipped; the sweep ends before the first size
    for which ``stop(size)`` holds.
    """
    n, adj, full = g.n, g.adj, g.full_mask
    for size in range(0, max(n - 1, 0)):
        if stop is not None and stop(size):
            return
        for mask in _masks_of_popcount(n, size):
            if mask & avoid:
                continue
            c = _component_count(adj, full & ~mask)
            if c >= 2:
                yield size, mask, c


def iterate_separators(g: Graph) -> Iterator[VertexSet]:
    """All vertex sets S with c(G - S) >= 2, ascending by (size, bitmask).

    Yields the empty set first when g is disconnected.  Complete graphs
    (including K_0 and K_1) have no separators.
    """
    for _, mask, _ in _sweep(g):
        yield VertexSet(mask, g.n)


def toughness(g: Graph) -> Toughness:
    if g.is_complete():
        return INFINITE_TOUGHNESS
    n = g.n
    best: Fraction | None = None

    def stop(size: int) -> bool:
        return best is not None and Fraction(size, n - size) >= best

    for size, _, c in _sweep(g, stop=stop):
        if size == 0:
            return Fraction(0)
        ratio = Fraction(size, c)
        if best is None or ratio < best:
            best = ratio
    if best is None:
        raise CrossCheckError(f"non-complete graph on {n} vertices has no separator")
    return best


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
    t = toughness(g)
    n = g.n
    return [
        ToughWitness(VertexSet(mask, n), c, Fraction(size, c))
        for size, mask, c in _sweep(g, stop=lambda size: Fraction(size, n - size) > t)
        if Fraction(size, c) == t
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
    if not parts:
        raise ValueError("at least one part required")
    if any(p < 1 for p in parts):
        raise ValueError("parts must be >= 1")
    if list(parts) != sorted(parts):
        raise ValueError("parts must be ascending")
    n = sum(parts)
    nk = parts[-1]
    if nk == 1:
        return INFINITE_TOUGHNESS
    if len(parts) == 1:
        return Fraction(0)
    return Fraction(n, nk) - 1


def toughness_tree(g: Graph) -> Fraction:
    """1/max-degree, valid for trees on >= 2 vertices with max degree >= 2."""
    from .connectivity import is_connected

    if g.n < 2 or not is_connected(g) or g.edge_count != g.n - 1:
        raise ValueError("input is not a tree on >= 2 vertices")
    delta = max(g.degrees())
    if delta < 2:
        raise ValueError("K_2 is complete; the tree formula needs max degree >= 2")
    return Fraction(1, delta)
