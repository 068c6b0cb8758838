"""Immutable simple graphs on at most 32 vertices, backed by per-vertex bitsets.

Vertices are the integers 0..n-1.  Every neighbourhood is a Python int used
as a bitmask, which keeps the hot kernels (component flooding, subset sweeps)
allocation-free.  Graphs and vertex sets are frozen, slotted dataclasses:
structural equality, hashable, safe to memoise, and no per-instance
``__dict__``, since the census keeps one ``Graph`` per class.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: Hard cap on the vertex count.  Bitset kernels assume masks fit comfortably
#: in a machine word; everything in this package is desk-scale by design.
MAX_VERTICES = 32


class CrossCheckError(AssertionError):
    """Two routes that must agree on a graph disagreed, or a proven invariant failed."""


def _bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class VertexSet:
    """A subset of the vertices 0..universe-1, stored as a bitmask."""

    bits: int
    universe: int

    def __post_init__(self) -> None:
        if not 0 <= self.universe <= MAX_VERTICES:
            raise ValueError(f"universe {self.universe} out of range 0..{MAX_VERTICES}")
        if not 0 <= self.bits < (1 << self.universe) or (self.universe == 0 and self.bits):
            raise ValueError("vertex-set bits outside universe")

    @classmethod
    def _trusted(cls, bits: int, universe: int) -> "VertexSet":
        """The set with ``bits``, unchecked.  Only for bits the program built
        from a valid graph's own masks on ``universe`` vertices (a separator,
        a component, a row); bits from anywhere else go through the checks
        of ``__post_init__``."""
        s = object.__new__(cls)
        object.__setattr__(s, "bits", bits)
        object.__setattr__(s, "universe", universe)
        return s

    @classmethod
    def from_vertices(cls, vertices: Iterable[int], universe: int) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 0 <= v < universe:
                raise ValueError(f"vertex {v} outside universe 0..{universe - 1}")
            mask |= 1 << v
        return cls(mask, universe)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and bool(self.bits >> v & 1)

    def vertices(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:  # compact, set-like
        return f"VertexSet({{{', '.join(map(str, self))}}}, universe={self.universe})"


@dataclass(frozen=True, slots=True)
class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbourhood bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} out of range 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"neighbourhood of {v} mentions vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in _bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge ({v}, {u})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """The graph with rows ``adj``, unchecked.  Only for rows that are
        symmetric, loopless and within 0..n-1 by construction, as a census
        child's are: a valid parent's rows plus a new vertex n-1, joined in
        both directions to the vertices of a mask below 2**(n-1).  Rows from
        anywhere else go through the checks of ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    # -- basic queries -----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def is_complete(self) -> bool:
        """True for K_n, any n >= 0 (the null graph counts as complete)."""
        return self.edge_count == self.n * (self.n - 1) // 2

    def is_edgeless(self) -> bool:
        return self.edge_count == 0


# -- structural operations ---------------------------------------------------


def _complement_rows(g: Graph) -> tuple[int, ...]:
    """The neighbourhood masks of the complement of g, unvalidated."""
    full = g.full_mask
    return tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj))


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_rows(g))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise ValueError(f"join on {n} vertices exceeds cap {MAX_VERTICES}")
    left = (1 << g1.n) - 1
    right = ((1 << n) - 1) ^ left
    rows = [row | right for row in g1.adj]
    rows += [(row << g1.n) | left for row in g2.adj]
    return Graph(n, tuple(rows))


def _as_mask(s: VertexSet | Iterable[int], n: int) -> int:
    if isinstance(s, VertexSet):
        if s.universe != n:
            raise ValueError("vertex set universe does not match graph order")
        return s.bits
    return VertexSet.from_vertices(s, n).bits


def induced_subgraph(g: Graph, s: VertexSet | Iterable[int]) -> Graph:
    """Subgraph induced on s; vertices are relabelled to 0..|s|-1 in ascending order."""
    mask = _as_mask(s, g.n)
    keep = list(_bits(mask))
    index = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for u in _bits(g.adj[v] & mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(keep), tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    return induced_subgraph(g, VertexSet(g.full_mask ^ (1 << v), g.n))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"no edge ({u}, {v}) to delete")
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, tuple(rows))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices; ``perm[old] = new``.  perm must be a bijection."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertices")
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in _bits(g.adj[v]):
            row |= 1 << perm[u]
        rows[perm[v]] = row
    return Graph(g.n, tuple(rows))
