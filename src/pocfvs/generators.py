"""Deterministic constructors for the named graph families.

Vertex numbering is fixed per family so that traces and golden tests are
reproducible:

* ``path(k)``: vertices 0..k-1 in path order.
* ``cycle(r)``: vertices 0..r-1 in ring order.
* ``butterfly(i, j, k)``: first cycle 0..i-1 with anchor ``x = 0``, bridge
  interior ``i..i+k-2``, second cycle ``i+k-1..i+j+k-2`` with anchor
  ``y = i+k-1``. The bridge is a path of length ``k`` between x and y.
* ``spider(k, p, q)``: center 0, then the three legs in argument order.
* ``tadpole(k, r)``: cycle 0..r-1, tail r..r+k-1 attached at vertex 0.
* ``hourglass_chain(k)``: hub ``x = 0``; block ``i`` occupies
  ``1+5i..5+5i`` as (center y_i, a, a', b, b').
* ``gprime(t1..t6)``: branch vertices 0,1,2; the six subdivided chains
  follow in order (0-1, 0-1, 0-2, 0-2, 1-2, 1-2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain, pairwise

from .errors import InvalidInputError
from .graph import Graph, disjoint_union


# Every generator hands Graph a lazy edge iterable, so Graph's order check,
# the only one, refuses an oversized graph before any edge is made.
def _ring(start: int, r: int):
    """The edges of a cycle on ``start..start+r-1`` in ring order."""
    return ((start + v, start + (v + 1) % r) for v in range(r))


def path(k: int) -> Graph:
    if k < 1:
        raise InvalidInputError(f"path needs at least 1 vertex, got {k}")
    return Graph(k, pairwise(range(k)))


def cycle(r: int) -> Graph:
    if r < 3:
        raise InvalidInputError(f"cycle needs at least 3 vertices, got {r}")
    return Graph(r, _ring(0, r))


def butterfly(i: int, j: int, k: int) -> Graph:
    """Two cycles C_i and C_j joined by a path of length k between anchors."""
    if i < 3 or j < 3:
        raise InvalidInputError(f"butterfly cycles need >= 3 vertices, got {i}, {j}")
    if k < 1:
        raise InvalidInputError(f"butterfly bridge length must be >= 1, got {k}")
    y = i + k - 1  # the bridge runs from x = 0 through i..y-1 to y
    bridge = pairwise(chain((0,), range(i, y), (y,)))
    return Graph(i + j + k - 1, chain(_ring(0, i), bridge, _ring(y, j)))


def spider(k: int, p: int, q: int) -> Graph:
    """Three paths of k, p and q vertices joined at a fresh center vertex."""
    if min(k, p, q) < 1:
        raise InvalidInputError(f"spider legs need >= 1 vertex each, got {(k, p, q)}")
    legs = (k, p, q)
    starts = accumulate(legs, initial=1)
    edges = (pairwise(chain((0,), range(s, s + leg))) for s, leg in zip(starts, legs))
    return Graph(k + p + q + 1, chain.from_iterable(edges))


def tadpole(k: int, r: int) -> Graph:
    """Cycle of r vertices with a pendant path of k vertices at vertex 0."""
    if k < 0:
        raise InvalidInputError(f"tadpole tail length must be >= 0, got {k}")
    if r < 3:
        raise InvalidInputError(f"tadpole cycle needs >= 3 vertices, got {r}")
    return Graph(r + k, chain(_ring(0, r), pairwise(chain((0,), range(r, r + k)))))


def hourglass() -> Graph:
    """Two triangles meeting in exactly one vertex (vertex 0)."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def hourglass_chain(k: int) -> Graph:
    """k hourglass blocks plus a hub adjacent to every degree-2 wing vertex.

    Within each block the center has degree 4 and the four wing vertices
    have degree 2, so the hub is joined to the 4k wings. This wiring gives
    minimum feedback vertex set {hub, centers} of size k+1 and minimum
    connected feedback vertex set 2k+1 (one extra wing per block to reach
    each center), which the exact solvers confirm for small k.
    """
    if k < 1:
        raise InvalidInputError(f"hourglass chain needs >= 1 block, got {k}")

    def block(y: int):
        a1, a2, b1, b2 = y + 1, y + 2, y + 3, y + 4
        yield from [(y, a1), (y, a2), (a1, a2), (y, b1), (y, b2), (b1, b2)]
        yield from [(0, a1), (0, a2), (0, b1), (0, b2)]

    return Graph(5 * k + 1, chain.from_iterable(map(block, range(1, 5 * k, 5))))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidInputError(f"complete bipartite sides must be >= 1, got {m}, {n}")
    return Graph(m + n, ((u, m + v) for u in range(m) for v in range(n)))


def three_p1_witness() -> Graph:
    """Two non-adjacent vertices joined to every vertex of a P_4.

    Vertices 0..3 form the path, 4 and 5 are the non-adjacent pair. The
    graph has no independent set of size 3.
    """
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(4, v) for v in range(4)]
    edges += [(5, v) for v in range(4)]
    return Graph(6, edges)


def claw() -> Graph:
    return spider(1, 1, 1)


def gprime(*t: int) -> Graph:
    """Triangle with every edge doubled, then each edge subdivided.

    Accepts six per-chain subdivision counts, or a single count applied to
    all six chains. Every count must be >= 1 so the result is simple.
    """
    if len(t) == 1:
        t = t * 6
    if len(t) != 6:
        raise InvalidInputError(f"gprime takes 1 or 6 subdivision counts, got {len(t)}")
    if any(x < 1 for x in t):
        raise InvalidInputError(f"gprime subdivision counts must be >= 1, got {t}")
    pairs = [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)]
    starts = accumulate(t, initial=3)
    chains = (
        pairwise(chain((a,), range(s, s + cnt), (b,))) for (a, b), s, cnt in zip(pairs, starts, t)
    )
    return Graph(3 + sum(t), chain.from_iterable(chains))


# -- family specs ----------------------------------------------------------

# name -> (constructor, parameter count or None); a name is the spelling the
# spec language accepts, lower-cased, except P and C, which only ``P<k>`` and
# ``C<k>`` reach (the lower-cased ``p:5`` is an unknown family)
_FAMILIES = {
    "P": (path, 1),
    "C": (cycle, 1),
    "butterfly": (butterfly, 3),
    "spider": (spider, 3),
    "tadpole": (tadpole, 2),
    "lk": (hourglass_chain, 1),
    "kbip": (complete_bipartite, 2),
    "threep1": (three_p1_witness, 0),
    "hourglass": (hourglass, 0),
    "claw": (claw, 0),
    "gprime": (gprime, None),  # 1 or 6 parameters
}

@dataclass(frozen=True)
class FamilySpec:
    """A named family member: a generator tag plus integer parameters.

    ``union`` and ``copies`` are structural tags combining sub-specs.
    """

    family: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = field(default=())


def from_spec(spec: FamilySpec) -> Graph:
    """Build ``spec``'s graph; ``Graph`` refuses an oversized order before any edge."""
    if spec.family == "union":
        return reduce(disjoint_union, map(from_spec, spec.parts), Graph(0))
    if spec.family == "copies":
        return spec.params[0] * from_spec(spec.parts[0])
    try:
        build, arity = _FAMILIES[spec.family]
    except KeyError:
        raise InvalidInputError(f"unknown family {_shown(spec.family)}") from None
    if arity is not None and len(spec.params) != arity:
        raise InvalidInputError(
            f"family {spec.family!r} takes {arity} parameters, got {len(spec.params)}"
        )
    return build(*spec.params)


# copy count, then P<k> or C<k>, or a name with optional comma-separated integers
_ATOM = re.compile(
    r"(\d*)(?:([pc])(\d+)|([a-z][a-z0-9]*)(?::(-?\d+(?:,-?\d+)*))?)", re.IGNORECASE | re.ASCII
)


def _shown(text: str) -> str:
    """``text`` quoted for an error message; a long one is cut to a prefix and its length."""
    quoted = repr(text)
    if len(quoted) <= 32:
        return quoted
    return f"{quoted[:30]}... ({len(text)} characters)"


def _spec_int(digits: str) -> int:
    unsigned = digits.removeprefix("-")
    if len(unsigned) > 1 and unsigned[0] == "0":  # P03 would spell P3 a second way
        raise InvalidInputError(f"graph spec number {_shown(digits)} has a leading zero")
    try:
        return int(digits)
    except ValueError:  # int() refuses digit runs longer than about 4,300
        raise InvalidInputError(f"graph spec number has {len(digits)} digits, too many") from None


def _parse_atom(text: str) -> FamilySpec:
    text = text.strip()
    if not text:
        raise InvalidInputError("empty graph spec")
    m = _ATOM.fullmatch(text)
    if m is None:
        raise InvalidInputError(f"cannot parse graph spec {_shown(text)}")
    count, kind, size, name, params = m.groups()
    if kind:
        atom = FamilySpec(kind.upper(), (_spec_int(size),))
    else:
        name = name.lower()
        if name not in _FAMILIES:
            raise InvalidInputError(f"unknown family {_shown(name)}")
        atom = FamilySpec(name, tuple(map(_spec_int, params.split(","))) if params else ())
    return FamilySpec("copies", (_spec_int(count),), (atom,)) if count else atom


def parse_spec(text: str) -> FamilySpec:
    """Parse one graph spec: atoms joined by '+' into a disjoint union.

    An atom is ``P<k>``, ``C<k>``, a family name with its parameters after a
    colon (``butterfly:5,9,4``, ``spider:1,2,4``, ``tadpole:2,5``, ``Lk:3``,
    ``kbip:3,4``, ``gprime:2``), or ``claw``, ``hourglass`` or ``threep1``,
    with an optional copy count in front (``2P3``, ``2Lk:2``). Names are
    case-insensitive; whitespace may surround an atom but not appear in one.
    A number of two or more digits never starts with ``0`` (``P03`` is refused).
    """
    atoms = tuple(map(_parse_atom, text.split("+")))
    if len(atoms) == 1:
        return atoms[0]
    return FamilySpec("union", (), atoms)


def graph_from_text(text: str) -> Graph:
    return from_spec(parse_spec(text))


def parse_spec_list(text: str) -> tuple[FamilySpec, ...]:
    """Parse a ';'-separated list of specs; only blank text is the empty list.

    Every entry is parsed, so a blank one (``C3;;claw``, ``C3;``) is refused.
    """
    if not text.strip():
        return ()
    return tuple(map(parse_spec, text.split(";")))
