"""Reading and writing the graph6 line format for small simple graphs.

Standard encoding: one graph per line, vertex count in the first byte
(value + 63), then the upper triangle of the adjacency matrix in column
order, six bits per printable byte. Only orders up to 62 are supported,
which covers everything this package enumerates. Every line is written by
``from_code`` from the adjacency bits listed row by row, as canonical codes are.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidInputError
from .graph import Graph
from .iso import _code

HEADER = ">>graph6<<"
_COLUMNS: dict[int, tuple[int, ...]] = {}  # n -> each pair's bit in a row-by-row code, by column


def encode(g: Graph) -> str:
    return from_code(g.n, _code(g._masks, tuple(range(g.n))))


def from_code(n: int, code: int) -> str:
    """graph6 of the graph on ``n`` vertices whose ``iso._code`` is ``code``."""
    if n > 62:
        raise InvalidInputError(f"graph6 support here stops at 62 vertices, got {n}")
    columns = _COLUMNS.get(n)
    if columns is None:
        # the code lists the pairs row by row, its first pair in the top bit
        bit = {pair: k for k, pair in enumerate(reversed([*combinations(range(n), 2)]))}
        columns = _COLUMNS[n] = tuple(bit[i, j] for j in range(1, n) for i in range(j))
    body = 0
    for p in columns:
        body = body << 1 | code >> p & 1
    size = (len(columns) + 5) // 6  # bytes; the last one is padded with zero bits
    body <<= 6 * size - len(columns)
    return chr(n + 63) + "".join(chr((body >> 6 * k & 63) + 63) for k in reversed(range(size)))


def decode(line: str) -> Graph:
    text = line.strip()
    if text.startswith(HEADER):
        text = text[len(HEADER) :].strip()
    if not text:
        raise InvalidInputError("empty graph6 line")
    first = ord(text[0]) - 63
    if first == 63:  # '~' starts the multi-byte order encodings
        raise InvalidInputError("graph6 orders beyond 62 vertices are not supported")
    if not (0 <= first <= 62):
        raise InvalidInputError(f"invalid graph6 order byte {text[0]!r}")
    n = first
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    body = text[1:]
    if len(body) < need:
        raise InvalidInputError("graph6 line is truncated")
    if len(body) > need:
        raise InvalidInputError(f"graph6 line has {len(body) - need} byte(s) past the body")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise InvalidInputError(f"invalid graph6 byte {ch!r}")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[pairs:]):
        raise InvalidInputError("graph6 padding bits must be zero")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def read_file(path: str) -> list[Graph]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path!r} is not an ASCII graph6 file") from None
    return [decode(line) for line in lines if line and line != HEADER]
