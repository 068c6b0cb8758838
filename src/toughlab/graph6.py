"""graph6 encoding and decoding.

One graph per line, printable ASCII (bytes 63..126).  The optional
``>>graph6<<`` header is tolerated and skipped.  The vertex count is encoded
first (one byte for n <= 62, '~'-prefixed forms above), then the upper
triangle of the adjacency matrix in column order ((0,1), (0,2), (1,2),
(0,3), ...) packed big-endian into 6-bit groups, zero-padded.

Parsing is strict: every structural problem raises Graph6Error carrying the
byte offset of the offending byte within the line.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position in the line."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _check_printable(data: str, start: int) -> None:
    for i in range(start, len(data)):
        code = ord(data[i])
        if not 63 <= code <= 126:
            raise Graph6Error(f"non-printable byte {code}", i)


def parse_graph6(line: str) -> Graph:
    data = line.rstrip("\r\n")
    start = len(HEADER) if data.startswith(HEADER) else 0
    if start >= len(data):
        raise Graph6Error("empty record", start)
    _check_printable(data, start)

    # vertex count
    pos = start
    first = ord(data[pos]) - 63
    if first < 63:
        n = first
        pos += 1
    else:  # '~' escape: 3 or 6 more 6-bit digits
        if pos + 1 < len(data) and data[pos + 1] == "~":
            digits, pos = data[pos + 2 : pos + 8], pos + 2
            width = 6
        else:
            digits, pos = data[pos + 1 : pos + 4], pos + 1
            width = 3
        if len(digits) < width:
            raise Graph6Error("truncated vertex count", len(data))
        n = 0
        for ch in digits:
            n = (n << 6) | (ord(ch) - 63)
        pos += width
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_VERTICES}", start)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < nbytes:
        raise Graph6Error(f"truncated body: need {nbytes} bytes, have {len(body)}", len(data))
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after graph record", pos + nbytes)

    rows = [0] * n
    bit_index = 0
    u, v = 0, 1  # current upper-triangle cell, column order
    for i, ch in enumerate(body):
        group = ord(ch) - 63
        for k in range(5, -1, -1):
            bit = group >> k & 1
            if bit_index < nbits:
                if bit:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                u += 1
                if u == v:
                    u, v = 0, v + 1
            elif bit:
                raise Graph6Error("nonzero padding bit", pos + i)
            bit_index += 1
    return Graph(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    out = [chr(63 + g.n)]
    group = 0
    filled = 0
    for v in range(1, g.n):
        for u in range(v):
            group = (group << 1) | (g.adj[u] >> v & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + group))
                group, filled = 0, 0
    if filled:
        out.append(chr(63 + (group << (6 - filled))))
    return "".join(out)


def iter_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a stream of graph6 lines, skipping blank lines."""
    for line in lines:
        if line.strip():
            yield parse_graph6(line)
