"""Canonical codes and isomorph-free enumeration for small graphs (n <= 10).

The canonical code of a graph is the graph6 encoding of its minimal
adjacency matrix: the relabelling whose upper-triangle bitstring (read in
graph6 column order) is lexicographically smallest.  The search is a
branch-and-bound over vertex placements: at depth j the candidate's column
(its adjacency pattern to the placed prefix) is compared against the best
known code; worse prefixes are cut, and candidates that differ by a
transposition automorphism of the whole graph are explored only once.

Enumeration is orderly (Read 1978; McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  The code is read column by column, so if
a labelling of G is minimal, its first n-1 columns are the minimal code of
G minus its last vertex.  Every class on n vertices thus has exactly one
canonical parent on n-1 vertices and one neighbourhood mask of the new last
vertex that give its minimal matrix verbatim.  Level n extends each level
n-1 code, in its own (canonical) labelling, by every mask and keeps just the
children whose own labelling is already minimal (``_is_canonical``), so
each class is accepted once, from its parent, with no seen-set and no
canonical search.  ``canonical_form`` and ``canonical_code`` stay
independent of enumeration; the tests check each against the other.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .connectivity import is_connected
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, relabel

CanonicalCode = bytes

_MAX_CANON = 10
_INF = 1 << 62


def _swap_equiv(adj: tuple[int, ...], a: int, b: int) -> bool:
    """True iff the transposition (a b) is an automorphism."""
    m = ~((1 << a) | (1 << b))
    return adj[a] & m == adj[b] & m


def _canonical_placement(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """placement[i] = original vertex put at position i of the minimal code."""
    if n == 0:
        return ()
    best_cols = [_INF] * n
    best_perm: list[int] = []
    placed: list[int] = []
    used = 0

    def dfs() -> None:
        nonlocal used
        j = len(placed)
        if j == n:
            best_perm[:] = placed
            return
        cands = []
        for v in range(n):
            if used >> v & 1:
                continue
            val = 0
            av = adj[v]
            for p in placed:
                val = (val << 1) | (av >> p & 1)
            cands.append((val, v))
        cands.sort()
        tried: list[tuple[int, int]] = []
        for val, v in cands:
            if val > best_cols[j]:
                break
            if any(tval == val and _swap_equiv(adj, tv, v) for tval, tv in tried):
                continue
            tried.append((val, v))
            if val < best_cols[j]:
                best_cols[j] = val
                for k in range(j + 1, n):
                    best_cols[k] = _INF
            placed.append(v)
            used |= 1 << v
            dfs()
            placed.pop()
            used ^= 1 << v

    dfs()
    return tuple(best_perm)


def canonical_form(g: Graph) -> Graph:
    """The canonically relabelled copy of g."""
    if g.n > _MAX_CANON:
        raise ValueError(f"canonical form supported up to {_MAX_CANON} vertices")
    placement = _canonical_placement(g.n, g.adj)
    old_to_new = [0] * g.n
    for new, old in enumerate(placement):
        old_to_new[old] = new
    return relabel(g, old_to_new)


def canonical_code(g: Graph) -> CanonicalCode:
    """Isomorphism-invariant byte string: graph6 of the canonical form."""
    return write_graph6(canonical_form(g)).encode("ascii")


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_code(g1) == canonical_code(g2)


# -- enumeration ---------------------------------------------------------------


def _is_canonical(n: int, adj: tuple[int, ...]) -> bool:
    """True iff the identity labelling of ``adj`` already gives the minimal code.

    The branch and bound of ``_canonical_placement`` with the graph's own
    columns as a fixed bound: it fails at the first candidate column that is
    strictly smaller, and descends only on equal columns.  Position i of the
    bound's column j is bit i of ``adj[j]``, so the candidates are narrowed
    one placed vertex at a time with bitmasks.
    """
    placed: list[int] = []

    def dfs(j: int, unused: int) -> bool:
        if j == n:
            return True
        ties = unused  # candidates whose column equals the bound so far
        own = adj[j]
        for i, p in enumerate(placed):
            if own >> i & 1:
                if ties & ~adj[p]:
                    return False  # a candidate has 0 where the bound has 1
                ties &= adj[p]
            else:
                ties &= ~adj[p]
        tried: list[int] = []
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            if tried and any(_swap_equiv(adj, t, v) for t in tried):
                continue
            tried.append(v)
            placed.append(v)
            if not dfs(j + 1, unused ^ low):
                return False
            placed.pop()
        return True

    return dfs(0, (1 << n) - 1)


@lru_cache(maxsize=None)
def _codes(n: int) -> tuple[CanonicalCode, ...]:
    if n == 0:
        return (write_graph6(Graph.empty(0)).encode("ascii"),)
    codes: list[CanonicalCode] = []
    new_bit = 1 << (n - 1)
    for parent_code in _codes(n - 1):
        prows = parse_graph6(parent_code.decode("ascii")).adj
        for mask in range(1 << (n - 1)):
            rows = tuple(
                [prows[i] | new_bit if mask >> i & 1 else prows[i] for i in range(n - 1)]
                + [mask]
            )
            if _is_canonical(n, rows):
                codes.append(write_graph6(Graph(n, rows)).encode("ascii"))
    return tuple(sorted(codes))


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class, ascending canonical code."""
    if not 0 <= n <= _MAX_CANON:
        raise ValueError(f"enumeration supported for 0 <= n <= {_MAX_CANON}")
    for code in _codes(n):
        g = parse_graph6(code.decode("ascii"))
        if connected_only and not is_connected(g):
            continue
        yield g
