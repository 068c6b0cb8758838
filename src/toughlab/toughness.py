"""Exact graph toughness.

toughness(g) = min over separators S of |S| / c(G - S), as an exact
Fraction; math.inf for complete graphs (the minimum over an empty separator
set), and Fraction(0) exactly when g is disconnected (the empty set is then
a separator).  Values are never floats except the inf sentinel.

Every separator scan reads one sweep, ``_Sweep``: sizes s ascending, and
for each the largest c(G - S) over the s-sets (``top(s)``) and the s-sets
with c >= 2, or with c at least a given bound, by bitmask
(``separators``).  Sizes below the degree floor 2*delta - n + 2 have no
separator and flood nothing: each side of a split G - S = A + B keeps its
neighbours in itself and S, so delta <= |A| - 1 + |S| and
delta <= |B| - 1 + |S|, and the two add up to the floor.  Toughness,
tough_separators and the criterion deciders read the sweep through one
bounded pass, ``_tough_pass``, with one stop rule: an s-set leaves at most
n-s components, so the pass ends before the first s with s/(n-s) > best
(strict, so ties are kept).  A cond2 witness S of an edge uv leaves uv in
G - S, so |S| < t*(c+1) <= t*(n-|S|) lies inside the pass.

The sweep is bit-sliced.  A position S indexes a subset of the low
min(n, 16) vertices, and each vertex v has a plane: one int whose bit S is
set iff v is not in S.  One flood over the n planes (``_peel``) peels the
components of G - S for every position at once, one big-int operation per
vertex, pass and round.  For n > 16 each subset H of the high vertices is a
block whose high planes are constant (0 on H, all ones off it); blocks are
flooded as a size first needs them, in ascending H, so separators still
come out by (size, bitmask).  Each flooded block keeps its levels, one int
per count reached, 8 KB each past 16 vertices, while its sweep lives.  A
2^n table of counts, one Python step per subset, ran no faster at n <= 13;
this sweep takes one step per vertex for all 2^16 subsets of a block.

Positions are flooded a window of sizes at a time.  With v of least degree
delta and c0 = c(G - N(v)), t <= delta/c0, so the bounded pass reads no size
past s_max = max(delta, n*delta // (c0 + delta)); a lower bound on c0 gives
a larger s_max that is still safe.  So there are two windows, [floor,
s_max] for the pass and [s_max + 1, n - 2], flooded only when a full listing
reads past the pass.  A non-complete graph has c0 >= 2 (v is isolated in
G - N(v), beside a non-neighbour), and a sibling lane is sized from that
bound and its child's least degree, read from the parent's degrees and the
child's mask, so sizing a lane floods nothing.

Every flood is one grow loop, ``_grow``: it spreads seeded components over
all positions at once until a pass changes nothing.  ``_peel`` seeds each
round at every position's least vertex left and removes what grew, and a
round that leaves some position untouched raises ``CrossCheckError``.  The
bridge flood (``_bridge_drop``) grows once, from u over the planes of G's
sweep with the edge uv left out: where it misses v, uv is a bridge of G - S
and c(G - uv - S) = c(G - S) + 1, and elsewhere the counts are equal.  So
only those S can drop the ratio below t(G), and the definition decider
reads from G's levels whether t(G - uv) < t(G), and by which S, with no
sweep or pass of its own.

The census floods the children of one canonical parent together
(``_Siblings``).  Siblings share every edge of the parent and differ only
in the edges to the new vertex, so each child is a lane of 2^n positions
in one flood: the parent's neighbour entries flood in every lane, and each
edge to the new vertex only in the lanes whose child has it (``_peel``'s
masked entries).  The pass reads a lane (``_Lane``) as it reads one
graph's sweep, through ``_Counts``: a lane's largest c at a size is its
byte of one fold over all lanes (``_Siblings.tops``), each lane's block
of each level folded to one bit, and its separators come from the levels
a listing reads, shifted out of the flood.  Every mask the sweep and the
flood build is a non-negative int: a complement is an XOR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence, Union

from .connectivity import _component_count
from .families import Family, FamilySpec
from .graphs import CrossCheckError, Graph, VertexSet, _bits

Toughness = Union[Fraction, float]

#: Toughness of complete graphs.  The only float the module ever produces.
INFINITE_TOUGHNESS: float = math.inf


def format_toughness(t: Toughness) -> str:
    """Render exactly: 'p/q', an integer string, or 'inf'."""
    if t == INFINITE_TOUGHNESS:
        return "inf"
    f = Fraction(t)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


#: the vertices whose membership in S is a bit of the position; the rest
#: are fixed per block
_LOW = 16


@lru_cache(maxsize=None)
def _subset_planes(low: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Over the 2^low subsets S of 0..low-1, one bit at position S: the
    plane of each vertex v (bit S set iff v is not in S), and the weight
    classes (bit S set iff |S| = j) for j = 0..low.  Each vertex added
    doubles the positions: S, then S + v."""
    planes: list[int] = []
    weights = [1]
    for v in range(low):
        span = 1 << v
        planes = [plane | plane << span for plane in planes] + [(1 << span) - 1]
        weights = [a | b << span for a, b in zip(weights + [0], [0] + weights)]
    return tuple(planes), tuple(weights)


@lru_cache(maxsize=None)
def _blocks(high: int, least: int, most: int) -> tuple[int, ...]:
    """The subsets of ``high`` vertices with least..most members, as masks,
    ascending."""
    sets = (ks for j in range(least, most + 1) for ks in combinations(range(high), j))
    return tuple(sorted(sum(1 << k for k in ks) for ks in sets))


def _grow(
    nbrs: list[list[int]],
    rest: list[int],
    comp: list[int],
    masked: list[list[tuple[int, int]]] | None,
    order: list[int],
) -> None:
    """Grow each comp[v] in place, over all positions at once, to the
    positions at which v is in G - S and joined to a seeded vertex: passes
    over the vertices in ``order``, reversed in place after each pass, each
    reading the planes it has already grown, until a pass changes nothing.
    ``nbrs`` and ``masked`` are as for ``_peel``."""
    grown = True
    while grown:
        grown = False
        for v in order:
            r = rest[v]
            if r:
                x = y = comp[v]
                for u in nbrs[v]:
                    y |= comp[u]
                if masked:
                    for u, lanes in masked[v]:
                        y |= comp[u] & lanes
                y &= r
                if y != x:
                    comp[v] = y
                    grown = True
        order.reverse()


def _peel(
    nbrs: list[list[int]], rest: list[int], masked: list[list[tuple[int, int]]] | None = None
) -> list[int]:
    """Levels of c(G - S) over all positions S at once: bit S of rest[v] is
    set iff v is in G - S, and bit S of entry k of the result iff
    c(G - S) >= k + 2.

    ``nbrs[v]`` lists the neighbours of v at every position, and
    ``masked[v]``, if given, the entries (u, lanes) of those that are
    neighbours only at the positions set in lanes (``_Siblings``; a single
    graph has none).

    Each round seeds the component of every position at its least vertex
    left, grows it (``_grow``) and removes it.  The positions with a vertex
    left when round r starts are those with c(G - S) >= r.  A round that
    leaves some position with a vertex left untouched raises
    ``CrossCheckError``, so a wrong seed cannot repeat rounds forever."""
    alive_at: list[int] = []
    order = list(range(len(rest)))
    while True:
        comp, alive = [], 0
        for r in rest:
            comp.append(r ^ (r & alive))
            alive |= r
        if not alive:
            return alive_at[1:]
        alive_at.append(alive)
        _grow(nbrs, rest, comp, masked, order)
        removed = 0
        for v, x in enumerate(comp):
            rest[v] ^= x
            removed |= x
        if removed != alive:
            raise CrossCheckError(f"flood round {len(alive_at)} left a position untouched")


def _window_bounds(n: int, delta: int, c0: int) -> tuple[int, int]:
    """The sizes [floor, s_max] a bounded pass over a graph on n vertices of
    least degree delta can find a separator in (see the module docstring):
    floor = 2*delta - n + 2 and s_max = max(delta, n*delta // (c0 + delta)),
    c0 being c(G - N(v)) for v of least degree, or a lower bound on it.
    Both are non-decreasing in delta."""
    return max(2 * delta - n + 2, 0), max(delta, n * delta // (c0 + delta))


class _Counts:
    """What a bounded pass reads of the component counts of one graph on n
    vertices: ``top(size)`` the largest c(G - S) >= 2 over the s-sets (0 if
    none separates), and ``separators(size, least)`` the s-sets with
    c >= least, listed from the (high bits, levels, weight class) of each
    block holding s-sets (``_layer``).  A subclass gives ``top`` and
    ``_layer``, and there are two: ``_Sweep`` for one graph, ``_Lane`` for
    one of a parent's children."""

    n: int

    def separators(self, size: int, least: int = 2) -> list[tuple[int, int]]:
        """(mask, c) for each s-set S with c = c(G - S) >= least, by mask."""
        out = []
        for high, levels, weight in self._layer(size, least):
            found = []
            for k in range(least - 2, len(levels)):
                x = levels[k] & weight
                if not x:
                    break
                if k + 1 < len(levels):
                    x ^= x & levels[k + 1]
                digits = bin(x)[:1:-1]  # bit b of x is digit b
                b = digits.find("1")
                while b >= 0:
                    found.append((high | b, k + 2))
                    b = digits.find("1", b + 1)
            found.sort()
            out += found
        return out


class _Sweep(_Counts):
    """The component counts of one graph, flooded a window and a block at a
    time as sizes are read."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.low = min(g.n, _LOW)
        self.nbrs = [list(_bits(row)) for row in g.adj]
        degrees = g.degrees()
        delta = min(degrees, default=0)
        # c0 = c(G - N(v)) for v of least degree; the null graph has no v
        c0 = _component_count(g.adj, g.full_mask ^ g.adj[degrees.index(delta)]) if g.n else 1
        self.floor, self.s_max = _window_bounds(g.n, delta, c0)
        #: {block: levels} of each window flooded, by its least size
        self.windows: dict[int, dict[int, list[int]]] = {}
        #: (high bits, levels, weight class) of each block holding s-sets
        self.layers: dict[int, list[tuple[int, list[int], int]]] = {}

    def _window(self, size: int) -> tuple[int, int, dict[int, list[int]]]:
        """(lo, hi, {block: levels}) of the window holding ``size``: the
        pass's [floor, s_max] or the listing's [s_max + 1, n - 2]."""
        lo, hi = (self.floor, self.s_max) if size <= self.s_max else (self.s_max + 1, self.n - 2)
        return lo, hi, self.windows.setdefault(lo, {})

    def _rest(self, lo: int, hi: int, block: int) -> list[int]:
        """The planes of block H over the positions with lo <= |S| <= hi:
        bit S of entry v is set iff v is in G - S."""
        low, weight = self.low, block.bit_count()
        planes, weights = _subset_planes(low)
        span = 0
        for j in range(max(lo - weight, 0), min(hi - weight, low) + 1):
            span |= weights[j]
        rest = [plane & span for plane in planes]
        rest += [0 if block >> k & 1 else span for k in range(self.n - low)]
        return rest

    def _flood(self, lo: int, hi: int, block: int) -> list[int]:
        """The levels of block H over the positions with lo <= |S| <= hi."""
        return _peel(self.nbrs, self._rest(lo, hi, block))

    def _layer(self, size: int, least: int = 2) -> list[tuple[int, list[int], int]]:
        """(high bits, levels, weight class) of each block holding s-sets,
        ascending, flooding the blocks not yet flooded."""
        layer = self.layers.get(size)
        if layer is None:
            layer = self.layers[size] = []
            if size >= self.floor:
                lo, hi, built = self._window(size)
                low, high = self.low, self.n - self.low
                weights = _subset_planes(low)[1]
                for block in _blocks(high, max(size - low, 0), min(size, high)):
                    levels = built.get(block)
                    if levels is None:
                        levels = built[block] = self._flood(lo, hi, block)
                    layer.append((block << low, levels, weights[size - block.bit_count()]))
        return layer

    def top(self, size: int) -> int:
        """The largest c(G - S) >= 2 over the s-sets, or 0 if none has one."""
        best = 0
        for _, levels, weight in self._layer(size):
            for k in range(len(levels) - 1, max(best, 1) - 2, -1):
                if levels[k] & weight:
                    best = k + 2
                    break
        return best


def _bridge_positions(nbrs: list[list[int]], rest: list[int], u: int, v: int) -> int:
    """The positions S with u and v in G - S at which no path over ``nbrs``
    (the neighbour lists of G - uv) joins u to v: there uv is a bridge of
    G - S.  One grow of the component of u, seeded at every such S."""
    comp = [0] * len(rest)
    comp[u] = ends = rest[u] & rest[v]
    _grow(nbrs, rest, comp, None, list(range(len(rest))))
    return ends ^ comp[v]


def _bridge_drop(sweep: _Sweep, u: int, v: int, p: int, q: int) -> tuple[int, int] | None:
    """A drop of t(G - uv) below t(G) = p/q, read from the sweep of G after
    G's own pass: (S, c) with c = c(G - uv - S) and |S|/c < p/q, of the
    least ratio, then the least size, then the least S; None if there is
    none, that is if t(G - uv) = t(G).

    c(G - uv - S) = c(G - S) + 1 where S misses u and v and uv is a bridge
    of G - S, and c(G - S) elsewhere, so only such an S can drop the ratio.
    One bridge flood from u over the positions S that miss u and v
    (``_bridge_positions``), block by block and on the planes of G's sweep,
    gives each size's largest c(G - uv - S) there, read from G's levels.
    The flood covers the sizes [floor - 2, last]: G - uv has least degree at
    least delta - 1, so no separator below floor - 2, and the pass of G read
    up to last, the greatest s with s*q <= p*(n - s), so no s-set past it
    has a ratio below p/q."""
    n, low = sweep.n, sweep.low
    last = min(n - 2, n * p // (p + q))
    if last > sweep.s_max:
        raise CrossCheckError(f"the pass read size {last}, past s_max = {sweep.s_max}")
    lo = max(sweep.floor - 2, 0)
    nbrs = list(sweep.nbrs)
    nbrs[u] = [x for x in nbrs[u] if x != v]
    nbrs[v] = [x for x in nbrs[v] if x != u]
    ends = (1 << u) | (1 << v)
    weights = _subset_planes(low)[1]
    built = sweep.windows.get(sweep.floor, {})  # G's levels, block by block
    found: dict[int, tuple[int, int]] = {}  # size -> (largest c, least S with it)
    for block in _blocks(n - low, max(lo - low, 0), min(last, n - low)):
        high = block << low
        if high & ends:
            continue
        bridges = _bridge_positions(nbrs, sweep._rest(lo, last, block), u, v)
        if not bridges:
            continue
        levels, weight = built.get(block, ()), block.bit_count()
        for size in range(max(lo, weight), min(last, weight + low) + 1):
            x = bridges & weights[size - weight]
            if not x:
                continue
            k = len(levels)  # c(G - S) = k + 1 at the bridge positions of levels[k - 1]
            while k and not levels[k - 1] & x:
                k -= 1
            if k:
                x &= levels[k - 1]
            if k + 2 > found.get(size, (0,))[0]:
                found[size] = (k + 2, high | (x & -x).bit_length() - 1)
    drop = None
    for size, (c, s) in sorted(found.items()):
        if size * q < p * c:
            p, q, drop = size, c, (s, c)
    return drop


#: entry h: the largest c(G - S) of a lane found at h of the levels of a
#: size, h + 1, or 0 if none (``_Siblings.tops``)
_HITS_TO_TOP = bytes([0, *range(2, 256), 255])


class _Siblings:
    """The component counts of the children of one parent on k vertices,
    each child the parent plus a vertex k joined to its own mask, flooded
    together over the sizes [least floor, greatest s_max] of their passes.

    Child i is lane i: the 2^n positions from bit i*2^n, n = k + 1, every
    vertex a bit of the position (no high blocks), whose planes are
    ``_subset_planes(n)`` replicated over the lanes by one multiply.  The
    parent's neighbour entries flood unmasked, and each edge vk is masked
    by the lanes whose child has it.  ``tops(size)`` gives every lane's
    largest c at once, one byte each, and ``lane(i)`` is child i's view.  A
    child neither complete nor edgeless has n >= 3, so a lane spans whole
    bytes.
    """

    def __init__(self, parent: Graph, children: Sequence[Graph]):
        k = parent.n
        n = self.n = k + 1
        span = 1 << n
        stride = span >> 3  # bytes per lane
        masks = [child.adj[k] for child in children]
        # a child's least degree: its new vertex's, or the parent's, plus one
        # if the mask holds every vertex of the parent's least degree
        degrees = [row.bit_count() for row in parent.adj]
        least = min(degrees)
        lows = sum(1 << x for x, d in enumerate(degrees) if d == least)
        deltas = [min(m.bit_count(), least + (m & lows == lows)) for m in masks]
        floor = _window_bounds(n, min(deltas), 2)[0]  # c0 >= 2: no child is complete
        self.most = _window_bounds(n, max(deltas), 2)[1]
        #: bit i*2^n for each lane i: multiplying by it replicates a lane
        self.ones = ones = int.from_bytes((1).to_bytes(stride, "little") * len(children), "little")
        planes, weights = _subset_planes(n)
        window = 0
        for j in range(floor, self.most + 1):
            window |= weights[j]
        rest = [(plane & window) * ones for plane in planes]
        # lane i of ``joins`` holds child i's mask, so bit v of each lane
        # shifts to the lane's first bit, and a lane's first bit b fills its
        # block as (b << 2^n) - b
        joins = int.from_bytes(b"".join([m.to_bytes(stride, "little") for m in masks]), "little")
        lanes = []  # (v, the blocks of the lanes whose child has the edge vk)
        for v in range(k):
            first = joins >> v & ones
            if first:
                lanes.append((v, (first << span) - first))
        masked = [[] for _ in range(k)] + [lanes]
        for v, mask in lanes:
            masked[v].append((k, mask))
        self.levels = _peel([list(_bits(row)) for row in parent.adj] + [[]], rest, masked)
        #: size -> byte i the largest c of lane i, once read
        self.folds: dict[int, bytes] = {}

    def tops(self, size: int) -> bytes:
        """Each lane's largest c(G - S) >= 2 over the s-sets (0 if none
        separates).  Level k's block of each lane, ``levels[k] & W_s``, is
        folded to the lane's first bit; the levels are nested (c >= k + 3
        implies c >= k + 2), so a lane's largest c is 1 + the number of
        levels it is found at, and adding the folded levels counts them in
        the lane's first byte."""
        if size > self.most:
            raise CrossCheckError(f"size {size} lies past every sibling's s_max")
        tops = self.folds.get(size)
        if tops is not None:
            return tops
        n, ones = self.n, self.ones
        weight = _subset_planes(n)[1][size] * ones
        hits = 0
        for level in self.levels:
            x = level & weight
            if not x:
                break
            shift = 1 << n
            while shift > 1:
                shift >>= 1
                x |= x >> shift
            hits += x & ones
        stride = 1 << n - 3  # bytes per lane
        tops = hits.to_bytes(stride * ones.bit_count(), "little")[::stride].translate(_HITS_TO_TOP)
        self.folds[size] = tops
        return tops

    def lane(self, i: int) -> "_Lane":
        return _Lane(self, i)


class _Lane(_Counts):
    """Child i of a ``_Siblings``: its largest counts from the sibling fold,
    and its separators from its own block of the levels, each level shifted
    out the first time a listing reads it."""

    def __init__(self, siblings: _Siblings, i: int):
        self.n, self.siblings, self.i = siblings.n, siblings, i
        self.shifted: dict[int, int] = {}

    def top(self, size: int) -> int:
        return self.siblings.tops(size)[self.i]

    def _layer(self, size: int, least: int = 2) -> list[tuple[int, list[int], int]]:
        """One block: the levels least - 2 .. top - 2 that a listing reads,
        zeros below them (unread), and none past the top, which is empty at
        this size."""
        span, shifted, levels = 1 << self.n, self.shifted, self.siblings.levels
        reads = []
        for k in range(least - 2, self.top(size) - 1):
            level = shifted.get(k)
            if level is None:
                level = shifted[k] = levels[k] >> self.i * span & (1 << span) - 1
            reads.append(level)
        return [(0, [0] * (least - 2) + reads, _subset_planes(self.n)[1][size])]


def _tough_pass(
    g: Graph, counts: _Counts | None = None
) -> tuple[int, int, _Counts, list[tuple[int, int]]]:
    """Toughness p/q of a non-complete graph, and where its separators lie.

    Reads each size's largest c, ``top(size)``, once, of ``counts`` (a
    sibling lane) or, by default, of the sweep of g.  Keeps the least ratio
    |S|/c(G-S) as integers p/q, and stops before the first size s with
    s*q > p*(n-s): it reads s iff s*q <= p*(n-s) at the final p/q, so
    0..min(n - 2, n*p // (p + q)), whose last ``_bridge_drop`` works out
    from p/q.  Returns p, q, the counts read and (size, largest c) for each
    size read that has a separator, ascending.  A reader lists only the S
    it needs, each size from its own least c (``_Counts.separators``); one
    that needs only p/q lists nothing.
    """
    n = g.n
    p, q = 1, 0  # no separator yet: an infinite ratio
    tops: list[tuple[int, int]] = []
    sweep = _Sweep(g) if counts is None else counts
    for size in range(n - 1):
        if size * q > p * (n - size):
            break
        c = sweep.top(size)
        if size * q < p * c:
            p, q = size, c
        if c:
            tops.append((size, c))
    if q == 0:
        raise CrossCheckError(f"non-complete graph on {n} vertices has no separator")
    return p, q, sweep, tops


def _separator_masks(g: Graph) -> Iterator[int]:
    """The full listing: the mask of every S with c(G - S) >= 2, ascending
    by (size, bitmask)."""
    sweep = _Sweep(g)
    for size in range(g.n - 1):
        for mask, _ in sweep.separators(size):
            yield mask


def iterate_separators(g: Graph) -> Iterator[VertexSet]:
    """All vertex sets S with c(G - S) >= 2, ascending by (size, bitmask).

    Yields the empty set first when g is disconnected.  Complete graphs
    (including K_0 and K_1) have no separators.
    """
    return (VertexSet._trusted(mask, g.n) for mask in _separator_masks(g))


def toughness(g: Graph) -> Toughness:
    if g.is_complete():
        return INFINITE_TOUGHNESS
    p, q, _, _ = _tough_pass(g)
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
    # no S has |S|/c(G-S) < p/q, so an S of a size whose largest c attains
    # p/q attains it iff its c is that largest; at p = 0 only size 0 does
    p, q, sweep, tops = _tough_pass(g)
    return [
        ToughWitness(VertexSet._trusted(mask, g.n), c, Fraction(size, c))
        for size, top in tops
        if size * q == p * top
        for mask, c in sweep.separators(size, top)
    ]


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
