"""Canonical codes and isomorph-free enumeration for small graphs (n <= 10).

The canonical code of a graph is the graph6 encoding of its minimal
adjacency matrix: the relabelling whose upper-triangle bitstring (read in
graph6 column order) is lexicographically smallest.  The search is a
branch-and-bound over vertex placements: at depth j only the candidates
with the least column (adjacency pattern to the placed prefix) go on; a
prefix worse than the best known code is cut, and candidates that differ
by a transposition automorphism of the whole graph are explored once.

Enumeration is orderly (Read 1978; McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  The code is read column by column, so if
a labelling of G is minimal, its first n-1 columns are the minimal code of
G minus its last vertex.  Every class on n vertices thus has exactly one
canonical parent on n-1 vertices and one neighbourhood mask of the new last
vertex that give its minimal matrix verbatim.  Level n extends the rows of
each level n-1 graph, in its own (canonical) labelling, by every mask and
keeps, as the one record of its class, each child whose own labelling is
already minimal: each class is accepted once, from its parent, with no
seen-set and no canonical search.  ``canonical_form`` and ``canonical_code``
stay independent of enumeration; the tests check each against the other.
The pass that builds a level also keeps each record's code, which orders
the level, and the index of its parent (``census_codes``, ``census_parents``).

The 2**k children of one canonical parent P on k vertices are decided in one
walk of P's tie tree (``_canonical_children``), not in 2**k searches that
each repeat it.  A set of masks is one 2**k-bit int, and ``L[v]`` is the set
of masks that contain v.  On a path that places only vertices of P, a child's
columns among those vertices are P's, so the path is a tie path of the child
iff it is one of P.  P is canonical, so no vertex of P beats P's columns on
any such path: its own search found none, and a twin it skipped leads to
the same columns as the twin it tried.  Only the new vertex can, and its
column at a node with placement pi has bit i = m[pi_i], so it depends only
on the mask m.  The walk has three rules:

* internal node (pi placed, next position d): reject the masks whose
  new-vertex column is below P's column d, and queue the masks where it is
  equal, since there the new vertex is a tie candidate (the child's search
  skips it when a twin came first; exploring it anyway changes no verdict);
* leaf (pi is an automorphism sigma of P, the new vertex last): reject the
  masks m whose bits read through sigma, m[sigma_0], m[sigma_1], ..., come
  out below m;
* descent: enter a tie candidate v only for the masks where no earlier tie
  candidate t that is a twin of v in P (the transposition (t v) is an
  automorphism) has m[t] = m[v]
  (``masks &= L[t] ^ L[v]``), since exactly then t and v are twins in the
  child and its search skips v.

Each queued node is then finished, for each mask still alive, by the child's
own search from that node with the new vertex placed (``_tie_search``, whose
root call is ``_is_canonical``).  The masks left are the canonical children.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Iterator

from .connectivity import is_connected
from .graph6 import parse_graph6, write_graph6  # parse_graph6: read by perfbench/traced.py
from .graphs import Graph, _bits, relabel

_MAX_CANON = 10


def _swap_equiv(adj: tuple[int, ...], a: int, b: int) -> bool:
    """True iff the transposition (a b) is an automorphism."""
    m = ~((1 << a) | (1 << b))
    return adj[a] & m == adj[b] & m


def _canonical_placement(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """placement[i] = original vertex put at position i of the minimal code.

    Narrowing the unused vertices through the placed ones in order, each to
    its non-neighbours when any remain, leaves the ties for the least column.
    """
    best: list[int] = []  # the columns of the least code found so far
    best_perm: list[int] = []
    placed: list[int] = []

    def dfs(j: int, unused: int) -> None:
        if j == n:
            best_perm[:] = placed
            return
        ties, col = unused, 0
        for p in placed:
            rest = ties & ~adj[p]
            if rest:
                ties, col = rest, col << 1
            else:
                col = col << 1 | 1
        if j == len(best):
            best.append(col)
        elif col > best[j]:
            return
        elif col < best[j]:
            best[j:] = [col]
        tried: list[int] = []
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            if any(_swap_equiv(adj, t, v) for t in tried):
                continue
            tried.append(v)
            placed.append(v)
            dfs(j + 1, unused ^ low)
            placed.pop()

    dfs(0, (1 << n) - 1)
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


def canonical_code(g: Graph) -> str:
    """Isomorphism-invariant code: the graph6 text of the canonical form."""
    return write_graph6(canonical_form(g))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_code(g1) == canonical_code(g2)


# -- enumeration ---------------------------------------------------------------


def _is_canonical(n: int, adj: tuple[int, ...]) -> bool:
    """True iff the identity labelling of ``adj`` already gives the minimal code."""
    return _tie_search(n, adj, ())


def _tie_search(n: int, adj: tuple[int, ...], start: tuple[int, ...]) -> bool:
    """True iff no tie path below the placement ``start`` beats ``adj``'s own columns.

    The branch and bound of ``_canonical_placement`` with the graph's own
    columns as a fixed bound: it fails at the first candidate column that is
    strictly smaller, and descends only on equal columns.  Position i of the
    bound's column j is bit i of ``adj[j]``, so the candidates are narrowed
    one placed vertex at a time with bitmasks.  ``start`` must be a tie
    path; from the root (``()``) this is the whole canonicity test.
    """
    placed = list(start)

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

    return dfs(len(placed), ((1 << n) - 1) ^ sum(1 << p for p in placed))


@lru_cache(maxsize=None)
def _masks_containing(k: int) -> tuple[int, ...]:
    """``L[v]``: the masks m < 2**k that contain v, as one 2**k-bit set (bit m)."""
    return tuple(sum(1 << m for m in range(1 << k) if m >> v & 1) for v in range(k))


def _child_rows(prows: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The rows of the parent ``prows`` plus a last vertex joined to ``mask``."""
    new_bit = 1 << len(prows)
    return tuple([row | new_bit if mask >> i & 1 else row for i, row in enumerate(prows)] + [mask])


def _canonical_children(k: int, prows: tuple[int, ...]) -> int:
    """The masks whose child of the canonical graph ``prows`` is canonical, as a 2**k-bit set.

    One walk of the parent's tie tree decides every child at once (see the
    module docstring): the new vertex's column is compared against the
    bound for all masks together, automorphisms of the parent reject the
    masks they map below themselves, and the masks where the new vertex ties
    are finished by ``_tie_search`` from that node, one child at a time.
    """
    L = _masks_containing(k)
    alive = (1 << (1 << k)) - 1
    queued: list[tuple[tuple[int, ...], int]] = []
    placed: list[int] = []

    def walk(j: int, unused: int, masks: int) -> None:
        nonlocal alive
        masks &= alive
        if not masks:
            return
        lt, eq = 0, masks  # masks whose new-vertex column is below / equal to the bound
        if j == k:  # placed is an automorphism of the parent; the new vertex comes last
            for i, p in enumerate(placed):
                lt |= eq & L[i] & ~L[p]
                eq &= ~(L[i] ^ L[p])
            alive &= ~lt
            return
        own = prows[j]
        ties = unused
        for i, p in enumerate(placed):
            if own >> i & 1:
                lt |= eq & ~L[p]
                eq &= L[p]
                ties &= prows[p]
            else:
                eq &= ~L[p]
                ties &= ~prows[p]
        alive &= ~lt
        if eq:
            queued.append(((*placed, k), eq))
        tried: list[int] = []
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            enter = masks
            for t in tried:
                if _swap_equiv(prows, t, v):
                    enter &= L[t] ^ L[v]  # a twin t with m[t] == m[v] went first
            tried.append(v)
            placed.append(v)
            walk(j + 1, unused ^ low, enter)
            placed.pop()

    walk(0, (1 << k) - 1, alive)
    for start, masks in queued:
        for m in _bits(masks & alive):
            if not _tie_search(k + 1, _child_rows(prows, m), start):
                alive ^= 1 << m
    return alive


class _Level(tuple):
    """The records on n vertices: a tuple of ``Graph``, ascending by code.

    ``codes[i]`` is the graph6 code of record i, and ``parents[i]`` the index
    on n - 1 vertices of its canonical parent, which is record i minus its
    last vertex.
    """

    codes: tuple[str, ...]
    parents: array

    def __new__(cls, graphs: tuple[Graph, ...], codes: tuple[str, ...], parents: array) -> "_Level":
        level = super().__new__(cls, graphs)
        level.codes, level.parents = codes, parents
        return level


@lru_cache(maxsize=None)
def _census(n: int) -> _Level:
    if n == 0:
        empty = Graph.empty(0)
        return _Level((empty,), (write_graph6(empty),), array("I"))
    graphs, codes, parents = [], [], array("I")
    for i, parent in enumerate(_census(n - 1)):
        for m in _bits(_canonical_children(n - 1, parent.adj)):
            child = Graph(n, _child_rows(parent.adj, m))
            graphs.append(child)
            codes.append(write_graph6(child))
            parents.append(i)
    order = sorted(range(len(codes)), key=codes.__getitem__)
    return _Level(tuple([graphs[j] for j in order]), tuple([codes[j] for j in order]),
                  array("I", [parents[j] for j in order]))


def census_codes(n: int) -> tuple[str, ...]:
    """The graph6 codes of ``enumerate_graphs(n)``, in its order."""
    return _census(n).codes


def census_parents(n: int) -> array:
    """Entry i is the index in ``enumerate_graphs(n - 1)`` of the canonical
    parent of record i of ``enumerate_graphs(n)``: that record minus its
    last vertex, with its labelling."""
    return _census(n).parents


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class, ascending canonical code."""
    if not 0 <= n <= _MAX_CANON:
        raise ValueError(f"enumeration supported for 0 <= n <= {_MAX_CANON}")
    for g in _census(n):
        if connected_only and not is_connected(g):
            continue
        yield g
