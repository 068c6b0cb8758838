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
walk of their common tie tree (``_canonical_children``), not in 2**k searches
that each repeat it.  A set of masks is one 2**k-bit int, and ``L[v]`` is the
set of masks that contain v.  Child m is P plus the new vertex k joined to m;
its own labelling gives the bound: column j < k is P's column j, column k is
m, whose bit i is m[i].  A node is a placement pi of positions 0..j-1 with the
set of masks for which pi is a tie path of the child (its columns equal the
bound's).  A candidate c's bit i at the node is the set of masks where c is
adjacent to pi_i: ``L[pi_i]`` when c is the new vertex, ``L[c]`` when pi_i
is, and all masks or none otherwise.  Read in order, the masks where c's
column is below the bound (0 where it has 1 at the first difference) are not
canonical: c at position j starts a smaller code.  They are rejected, and c
is entered with the masks where it is equal.  So every tie path of each
child is walked with its mask, until the mask is rejected, and a mask
survives iff it is canonical.  Candidates are compared in three ways, all by
that one rule:

* new vertex unplaced, j < k: the bound's column is P's, and so are the
  columns of P's candidates, for every mask, on a tie path of P.  P is
  canonical, so none of them is below: P's search found none there, and a
  twin it skipped leads to the same columns as the twin it tried.  They are
  narrowed together and only the new vertex is compared;
* new vertex at position ``at``, j < k: a vertex x of P reads m[x] at ``at``
  and fixed bits elsewhere.  Before ``at`` the candidates are narrowed
  together, and one below the bound there is below for every mask of the
  node.  Where the bound has 1 at ``at``, x is below for the masks without x
  and ties at ``at`` for those with x; where it has 0, x ties for the masks
  without x and is above for the others.  The candidates still tied at
  ``at`` are narrowed on to j, and one below the bound after ``at`` is below
  for every mask where it tied at ``at``;
* j = k: one candidate is left and the bound is m itself, so its column is
  compared with m position by position.  With the new vertex as candidate, pi
  is an automorphism sigma of P, and this rejects the m whose bits read
  through sigma, m[sigma_0], m[sigma_1], ..., come out below m.

Twins: a candidate v is entered only for the masks where no earlier tie
candidate t that is a twin of v in P (the transposition (t v) is an
automorphism) has m[t] = m[v] (``masks &= L[t] ^ L[v]``).  Exactly then
(t v) is an automorphism of the child, and its search skips v.  Twins of the
child have equal columns at every node that places neither, and (t v) maps
the subtree below v onto the subtree below t with the same columns, so
skipping v rejects nothing that t does not.  P's twins are one table per
parent, bit t of ``twins[v]`` set iff (t v) is an automorphism of P, and a
node intersects it with the set of candidates it has tried.

Every mask set in the walk is a non-negative int, and no complement is
taken in it: the masks that miss v are ``N[v]``, cached per k next to
``L``, and the non-neighbours of p in P are ``nrows[p]``, per parent.  A
level's pass writes each record's rows from its parent's, the new vertex's
bit set on the rows of its mask, and its code as the parent's whole
characters and a tail looked up per k (``_code_tails``).
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


@lru_cache(maxsize=None)
def _masks_containing(k: int) -> tuple[int, ...]:
    """``L[v]``: the masks m < 2**k that contain v, as one 2**k-bit set (bit m)."""
    return tuple(sum(1 << m for m in range(1 << k) if m >> v & 1) for v in range(k))


@lru_cache(maxsize=None)
def _masks_missing(k: int) -> tuple[int, ...]:
    """``N[v]``: the masks m < 2**k that miss v, ``L[v]``'s complement."""
    full = (1 << (1 << k)) - 1
    return tuple(full ^ masks for masks in _masks_containing(k))


def _child_rows(prows: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The rows of the parent ``prows`` plus a last vertex joined to ``mask``."""
    new_bit, rows = 1 << len(prows), [*prows, mask]
    while mask:
        low = mask & -mask
        mask ^= low
        rows[low.bit_length() - 1] |= new_bit
    return tuple(rows)


def _canonical_children(k: int, prows: tuple[int, ...]) -> int:
    """The masks whose child of the canonical graph ``prows`` is canonical, as a 2**k-bit set.

    One walk of the child's tie tree decides every child at once (see the
    module docstring): at each node every candidate's column is compared
    with the bound for all masks together, and the masks where a candidate
    falls below it are rejected.
    """
    L, N = _masks_containing(k), _masks_missing(k)
    alive = full = (1 << (1 << k)) - 1
    nrows = [(1 << k) - 1 ^ row for row in prows]
    twins = [0] * k  # bit t of twins[v] set iff (t v) is an automorphism of P
    for v in range(k):
        for t in range(v):
            if _swap_equiv(prows, t, v):
                twins[v] |= 1 << t
                twins[t] |= 1 << v
    placed: list[int] = []  # vertices of the child; k, the new vertex, sits at position ``at``

    def walk(j: int, unused: int, masks: int, at: int) -> None:
        nonlocal alive
        masks &= alive
        if not masks:
            return
        lt, eq = 0, masks  # masks where the candidate's column is below / equal to the bound
        if j == k:  # one candidate left; the bound is m itself, bit i = m[i]
            if unused:  # the last vertex x of the parent, with bit m[x] at ``at``
                x = unused.bit_length() - 1
                cols = [L[x] if p == k else full if prows[p] >> x & 1 else 0 for p in placed]
            else:  # the new vertex
                cols = [L[p] for p in placed]
            for i, col in enumerate(cols):
                differ = L[i] ^ col  # the masks where the column and the bound differ at i
                lt |= eq & L[i] & differ
                eq ^= eq & differ
            alive ^= alive & lt
            return
        own = prows[j]
        ties = unused
        if at < 0:  # the new vertex is a candidate; the parent's vertices tie for every mask
            for i, p in enumerate(placed):
                if own >> i & 1:
                    lt |= eq & N[p]
                    eq &= L[p]
                    ties &= prows[p]
                else:
                    eq &= N[p]
                    ties &= nrows[p]
            alive ^= alive & lt
        else:  # vertex x reads m[x] at ``at`` and fixed bits elsewhere
            for i in range(at):
                p = placed[i]
                if own >> i & 1:
                    if ties & nrows[p]:
                        alive ^= alive & masks  # a candidate is below the bound for every mask
                        return
                    ties &= prows[p]
                else:
                    ties &= nrows[p]
            tied, losers = ties, 0  # tied after ``at`` too / below the bound after ``at``
            for i in range(at + 1, j):
                p = placed[i]
                if own >> i & 1:
                    losers |= tied & nrows[p]
                    tied &= prows[p]
                else:
                    tied &= nrows[p]
            high = own >> at & 1
        tried = 0
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            enter = masks
            if at >= 0:
                if high:  # v ties at ``at`` where m[v] = 1 and is below where m[v] = 0
                    enter, lt = masks & L[v], masks & N[v]
                else:  # v ties where m[v] = 0 and is above elsewhere
                    enter, lt = masks & N[v], 0
                if losers & low:
                    lt |= enter
                if lt:
                    alive ^= alive & lt
                if not (tied & low and enter):
                    continue
            twin = twins[v] & tried
            while twin:  # a twin t with m[t] == m[v] went first
                t = twin & -twin
                twin ^= t
                enter &= L[t.bit_length() - 1] ^ L[v]
            tried |= low
            placed.append(v)
            walk(j + 1, unused ^ low, enter, at)
            placed.pop()
        if at < 0 and eq:  # last: P's subtrees have rejected masks more cheaply
            placed.append(k)
            walk(j + 1, unused, eq, j)
            placed.pop()

    walk(0, (1 << k) - 1, alive, -1)
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
def _code_tails(k: int) -> tuple[str, ...]:
    """The closing characters of a child's graph6 code on k + 1 vertices.

    The code is the parent's k(k-1)/2 bits, then column k (bit i = mask[i],
    first), zero-padded to whole characters.  All but the parent's last
    ``filled`` bits sit in whole characters of its code; entry
    ``b << k | mask`` is the characters of those b bits, then the column
    reversed, padded."""
    filled = k * (k - 1) // 2 % 6  # the parent's bits in its last character
    width = filled + k
    shifts = range((width - 1) // 6 * 6, -1, -6)
    columns = [int(f"{mask:0{k}b}"[::-1], 2) for mask in range(1 << k)]
    return tuple(
        "".join([chr(63 + ((b << k | column) << -width % 6 >> shift & 63)) for shift in shifts])
        for b in range(1 << filled) for column in columns
    )


@lru_cache(maxsize=None)
def _census(n: int) -> _Level:
    if n == 0:
        empty = Graph.empty(0)
        return _Level((empty,), (write_graph6(empty),), array("I"))
    graphs, codes, parents = [], [], array("I")
    k, up = n - 1, _census(n - 1)
    filled, tails = k * (k - 1) // 2 % 6, _code_tails(k)
    for i, parent in enumerate(up):
        prows, code = parent.adj, up.codes[i]
        # the child's code: its order, the parent's whole characters, a tail
        head = chr(63 + n) + code[1:-1] if filled else chr(63 + n) + code[1:]
        base = ord(code[-1]) - 63 >> 6 - filled << k if filled else 0
        for m in _bits(_canonical_children(k, prows)):
            graphs.append(Graph._trusted(n, _child_rows(prows, m)))
            codes.append(head + tails[base | m])
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
