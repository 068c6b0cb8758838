"""Constructors for the named graph families the laboratory talks about.

A FamilySpec both *builds* a graph (make_named) and *names* an isomorphism
class (family identification returns FamilySpec values).  Each family is
one row of ``_ROWS``: its parameter count, the rules its parameters obey
(each with its error message), its constructor and its vertex count, which
make_named checks against MAX_VERTICES first.  Parameter conventions:

  complete n            K_n, n >= 0
  path n                P_n on n >= 1 vertices
  cycle n               C_n, n >= 3
  star l                K_{1,l}, l >= 1; centre is vertex 0
  doublestar k,l        S_{k,l}: two adjacent centres with k and l leaves,
                        1 <= k <= l
  triplestar a,b,c      S_{a,b,c}: a triangle of centres with a/b/c leaves,
                        1 <= a <= b <= c
  multipartite n1..nk   complete multipartite, parts ascending, each >= 1
  turan n,k             Turan graph T_{n,k}: complete multipartite on n
                        vertices with k parts as equal as possible
                        (sizes floor(n/k) and ceil(n/k), ascending)
  wheel l               hub joined to a cycle of length l, l >= 4
                        (l+1 vertices; hub is the last vertex)
  net                   triangle with one pendant at each corner (= S_{1,1,1})
  conet                 complement of the net
"""
from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

from .graphs import MAX_VERTICES, Graph, _frozen, complement, join


class Family(Enum):
    COMPLETE = "complete"
    PATH = "path"
    CYCLE = "cycle"
    STAR = "star"
    DOUBLE_STAR = "doublestar"
    TRIPLE_STAR = "triplestar"
    COMPLETE_MULTIPARTITE = "multipartite"
    TURAN = "turan"
    WHEEL = "wheel"
    NET = "net"
    CO_NET = "conet"


def turan_parts(n: int, k: int) -> tuple[int, ...]:
    """Part sizes of the Turan graph T_{n,k}, ascending."""
    FamilySpec(Family.TURAN, (n, k))  # raises on parameters the TURAN row refuses
    q, r = divmod(n, k)
    return (q,) * (k - r) + (q + 1,) * r


def complete_multipartite(parts: tuple[int, ...]) -> Graph:
    full = (1 << sum(parts)) - 1
    rows: list[int] = []
    for p in parts:
        rows += [full ^ (((1 << p) - 1) << len(rows))] * p
    return Graph(len(rows), tuple(rows))


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _double_star(k: int, l: int) -> Graph:
    # centres 0 and 1; k leaves on 0, l leaves on 1
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(k)]
    edges += [(1, 2 + k + i) for i in range(l)]
    return Graph.from_edges(2 + k + l, edges)


def _triple_star(a: int, b: int, c: int) -> Graph:
    # centres 0,1,2 forming a triangle
    edges = [(0, 1), (0, 2), (1, 2)]
    nxt = 3
    for centre, cnt in ((0, a), (1, b), (2, c)):
        for _ in range(cnt):
            edges.append((centre, nxt))
            nxt += 1
    return Graph.from_edges(3 + a + b + c, edges)


class _Row(NamedTuple):
    #: parameter count; None takes any number (multipartite)
    arity: int | None
    #: (test on the parameters, error message when it fails), checked in order
    rules: tuple[tuple[Callable[..., bool], str], ...]
    build: Callable[..., Graph]
    #: the vertex count of the graph ``build`` makes, from the parameters
    order: Callable[..., int]


#: what each family means: how many parameters, which values, which graph
_ROWS: dict[Family, _Row] = {
    Family.COMPLETE: _Row(1, ((lambda n: n >= 0, "complete: n must be >= 0"),), Graph.complete,
                          lambda n: n),
    Family.PATH: _Row(1, ((lambda n: n >= 1, "path: n must be >= 1"),), _path, lambda n: n),
    Family.CYCLE: _Row(1, ((lambda n: n >= 3, "cycle: n must be >= 3"),), _cycle, lambda n: n),
    # star as multipartite (1, l): centre first
    Family.STAR: _Row(1, ((lambda l: l >= 1, "star: l must be >= 1"),),
                      lambda l: complete_multipartite((1, l)), lambda l: 1 + l),
    Family.DOUBLE_STAR: _Row(2, ((lambda k, l: 1 <= k <= l, "doublestar: need 1 <= k <= l"),),
                             _double_star, lambda k, l: 2 + k + l),
    Family.TRIPLE_STAR: _Row(3, ((lambda a, b, c: 1 <= a <= b <= c,
                                  "triplestar: need 1 <= a <= b <= c"),), _triple_star,
                             lambda a, b, c: 3 + a + b + c),
    Family.COMPLETE_MULTIPARTITE: _Row(None, (
        (lambda *p: bool(p), "multipartite: at least one part required"),
        (lambda *p: min(p) >= 1, "multipartite: parts must be >= 1"),
        (lambda *p: list(p) == sorted(p), "multipartite: parts must be ascending"),
    ), lambda *p: complete_multipartite(p), lambda *p: sum(p)),
    Family.TURAN: _Row(2, ((lambda n, k: 1 <= k <= n, "turan: need 1 <= k <= n"),),
                       lambda n, k: complete_multipartite(turan_parts(n, k)), lambda n, k: n),
    Family.WHEEL: _Row(1, ((lambda l: l >= 4, "wheel: rim length must be >= 4"),),
                       lambda l: join(_cycle(l), Graph.complete(1)), lambda l: l + 1),
    Family.NET: _Row(0, (), lambda: _triple_star(1, 1, 1), lambda: 6),
    Family.CO_NET: _Row(0, (), lambda: complement(_triple_star(1, 1, 1)), lambda: 6),
}


class FamilySpec:
    """A family and its parameters, checked against the family's row."""

    __slots__ = ("family", "params")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, family: Family, params: tuple[int, ...] = ()) -> None:
        row = _ROWS.get(family)
        if row is None:
            raise ValueError(f"unknown family {family}")
        if row.arity is not None and len(params) != row.arity:
            raise ValueError(f"{family.value} takes {row.arity} parameter(s), got {len(params)}")
        for ok, message in row.rules:
            if not ok(*params):
                raise ValueError(message)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.family == other.family and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.family, self.params))

    def __reduce__(self) -> tuple:
        # unpickled parameters are outside input: they go through the row's rules
        return self.__class__, (self.family, self.params)

    def __repr__(self) -> str:
        return f"FamilySpec(family={self.family!r}, params={self.params!r})"

    def __str__(self) -> str:
        if self.params:
            return f"{self.family.value}:{','.join(map(str, self.params))}"
        return self.family.value


def make_named(spec: FamilySpec) -> Graph:
    row = _ROWS[spec.family]
    if (order := row.order(*spec.params)) > MAX_VERTICES:  # refused before anything is built
        raise ValueError(f"{order} vertices, past MAX_VERTICES = {MAX_VERTICES}")
    return row.build(*spec.params)


#: one-letter names; every family is also parsed by its full name, Family.value
_ALIASES = {
    "k": Family.COMPLETE_MULTIPARTITE,
    "p": Family.PATH,
    "c": Family.CYCLE,
    "s": Family.DOUBLE_STAR,
    "t": Family.TURAN,
    "w": Family.WHEEL,
}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse CLI family strings like ``turan:8,4``, ``K:1,2,2`` or ``net``."""
    name, _, rest = text.strip().partition(":")
    key = name.strip().lower()
    try:
        family = _ALIASES[key] if key in _ALIASES else Family(key)
    except ValueError:
        raise ValueError(f"unknown family {name!r}") from None
    if rest.strip():
        try:
            params = tuple(int(tok) for tok in rest.split(","))
        except ValueError as exc:
            raise ValueError(f"bad parameters in family spec {text!r}") from exc
    else:
        params = ()
    return FamilySpec(family, params)
