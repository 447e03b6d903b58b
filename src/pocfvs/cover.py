"""Butterfly covering: brute-force decision, structure profiles, pair sets.

A finite family of graphs "covers" a pair (i, j) with i, j >= 3 when some
member embeds induced into the butterfly B_{i,j,N}, where the bridge length
N is twice the largest member's vertex count plus one. Boundedness of the
connectivity price over the family's free class is equivalent to covering
every pair, so this module provides two independent routes to the covered
set of a graph:

* ``covers_bruteforce`` builds the butterfly and runs the matcher;
* ``covered_pairs`` decomposes the graph into a linear forest plus at most
  two special components (tadpoles D and 3-leg spiders T) and maps that
  shape to a closed-form region of the (i, j) quarter-plane.

The symbolic route, the pair catalog (``classify_pair``) and the
necessary-membership check (``must_contain_check``) read each component's
shape off its edge count and degrees, so ``covers_bruteforce`` is the
module's only matcher user and the two routes share no matching code. They
must agree exactly; the test suite enforces this on a catalog spanning
every decomposition shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ContradictionError, InvalidInputError, ResourceLimitError
from .generators import butterfly
from .graph import Graph, iter_bits
from .iso import embeds_induced

# profile kinds
NOT_BUTTERFLY = "not-butterfly-subgraph"
LINEAR_FOREST = "linear-forest"
LF_D = "LF+D"
LF_DD = "LF+D+D"
LF_T = "LF+T"
LF_TT = "LF+T+T"
LF_DT = "LF+D+T"

# the most values per side render_pair_table draws; the grid is quadratic
MAX_TABLE_SIDE = 100


@dataclass(frozen=True)
class CoverContext:
    """The bridge length used by the covering definition: 2*max|V(H)| + 1."""

    N: int

    def __post_init__(self):
        if self.N < 3 or self.N % 2 == 0:
            raise InvalidInputError(f"bridge length must be an odd integer >= 3, got {self.N}")

    @classmethod
    def for_graphs(cls, graphs) -> "CoverContext":
        biggest = max((g.n for g in graphs), default=0)
        return cls(max(3, 2 * biggest + 1))

    @classmethod
    def for_graph(cls, g: Graph) -> "CoverContext":
        return cls.for_graphs([g])


def covers_bruteforce(h: Graph, i: int, j: int) -> bool:
    """Decide coverage of (i, j) by building the butterfly and matching."""
    if i < 3 or j < 3:
        raise InvalidInputError(f"cycle lengths must be >= 3, got ({i}, {j})")
    return embeds_induced(h, butterfly(i, j, CoverContext.for_graph(h).N))


# -- structure profiles ------------------------------------------------------


@dataclass(frozen=True)
class StructureProfile:
    """Decomposition into a linear forest plus at most two special parts.

    ``tadpoles`` holds (tail, cycle) parameters, ``spiders`` sorted leg
    triples, ``linear_forest`` the path component orders (ascending).
    ``kind`` is NOT_BUTTERFLY when the graph fits no admissible shape, in
    which case the other fields are empty.
    """

    kind: str
    tadpoles: tuple[tuple[int, int], ...] = ()
    spiders: tuple[tuple[int, int, int], ...] = ()
    linear_forest: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.kind in (NOT_BUTTERFLY, LINEAR_FOREST):
            return self.kind
        parts = [f"D({t},{r})" for t, r in self.tadpoles]
        parts += [f"T({a},{b},{c})" for a, b, c in self.spiders]
        return "LF+" + "+".join(parts)


def structure_profile(h: Graph) -> StructureProfile:
    """Read each component's shape off its edge count and degrees, and combine.

    A component fits only as a path, a tadpole or a 3-leg spider: it has
    n - 1 or n edges, no degree above 3, and at most one vertex of degree
    3, the hub. Without a hub it is a path or a cycle D(0, n). Removing the
    hub leaves a spider's three legs, or a tadpole's tail (which the hub
    meets once) and the rest of its cycle. Path components form the linear
    forest; more than two other components embed in no long-bridge
    butterfly at all.
    """
    forest: list[int] = []
    tadpoles: list[tuple[int, int]] = []
    spiders: list[tuple[int, int, int]] = []
    for comp in h.mask_components(h.full_mask):
        n = comp.bit_count()
        degree = {v: h.degree(v) for v in iter_bits(comp)}
        m = sum(degree.values()) // 2
        hubs = [v for v, d in degree.items() if d == 3]
        if m not in (n - 1, n) or max(degree.values()) > 3 or len(hubs) > 1:
            return StructureProfile(NOT_BUTTERFLY)
        if not hubs:
            if m == n - 1:
                forest.append(n)
            else:
                tadpoles.append((0, n))
            continue
        hub = hubs[0]
        pieces = h.mask_components(comp & ~(1 << hub))
        if m == n - 1:
            spiders.append(tuple(sorted(p.bit_count() for p in pieces)))
        else:
            tail = next(p for p in pieces if (h.mask(hub) & p).bit_count() == 1).bit_count()
            tadpoles.append((tail, n - tail))
    if len(tadpoles) + len(spiders) > 2:
        return StructureProfile(NOT_BUTTERFLY)
    tadpoles.sort(key=lambda tr: (tr[1], tr[0]))
    spiders.sort(key=lambda legs: (legs[0] + legs[1], legs))
    forest.sort()
    nd, nt = len(tadpoles), len(spiders)
    kind = {
        (0, 0): LINEAR_FOREST,
        (1, 0): LF_D,
        (2, 0): LF_DD,
        (0, 1): LF_T,
        (0, 2): LF_TT,
        (1, 1): LF_DT,
    }[(nd, nt)]
    return StructureProfile(kind, tuple(tadpoles), tuple(spiders), tuple(forest))


# -- symbolic pair sets ------------------------------------------------------


@dataclass(frozen=True)
class PairSet:
    """A finite union of primitive regions of {(i, j) : i, j >= 3}.

    Regions (all symmetric under swapping i and j):

    * ``("all",)``              every pair
    * ``("row", p)``            i = p or j = p
    * ``("cells", p, q)``       {i, j} = {p, q}
    * ``("maxge", t)``          max(i, j) >= t
    * ``("minmax", a, b)``      min(i, j) >= a and max(i, j) >= b
    * ``("rowtail", p, t)``     (i = p and j >= t) or (j = p and i >= t)
    """

    regions: frozenset[tuple[int, ...]] = frozenset()

    @staticmethod
    def empty() -> "PairSet":
        return PairSet(frozenset())

    @staticmethod
    def universe() -> "PairSet":
        return PairSet(frozenset({("all",)}))

    def union(self, other: "PairSet") -> "PairSet":
        return PairSet(self.regions | other.regions)

    def contains(self, i: int, j: int) -> bool:
        if i < 3 or j < 3:
            raise InvalidInputError(f"pairs live in i, j >= 3, got ({i}, {j})")
        lo, hi = min(i, j), max(i, j)
        for region in self.regions:
            tag = region[0]
            if tag == "all":
                return True
            if tag == "row" and region[1] in (i, j):
                return True
            if tag == "cells" and {i, j} == {region[1], region[2]}:
                return True
            if tag == "maxge" and hi >= region[1]:
                return True
            if tag == "minmax" and lo >= region[1] and hi >= region[2]:
                return True
            if tag == "rowtail":
                p, t = region[1], region[2]
                if (i == p and j >= t) or (j == p and i >= t):
                    return True
        return False

    def test_bound(self) -> int:
        """Every pair with a coordinate above this behaves like the clamped pair.

        Each region's membership predicate is constant in a coordinate once
        that coordinate passes every threshold appearing in the region, so
        checking all pairs in [3, bound]^2 decides universality.
        """
        params = [v for region in self.regions for v in region[1:]]
        return max(4, max(params, default=3) + 1)

    def first_uncovered(self) -> tuple[int, int] | None:
        bound = self.test_bound()
        for i in range(3, bound + 1):
            for j in range(3, bound + 1):
                if not self.contains(i, j):
                    return (i, j)
        return None


def pairs_for_profile(profile: StructureProfile) -> PairSet:
    """Map a decomposition shape to its exact covered region.

    Spider legs enter through their two smallest lengths: the longest leg
    always lies along the butterfly bridge, so only the two legs that wrap
    into a cycle constrain the cycle length.
    """
    kind = profile.kind
    if kind == NOT_BUTTERFLY:
        return PairSet.empty()
    if kind == LINEAR_FOREST:
        return PairSet.universe()
    spider_sums = [legs[0] + legs[1] for legs in profile.spiders]
    if kind == LF_D:
        return PairSet(frozenset({("row", profile.tadpoles[0][1])}))
    if kind == LF_DD:
        p, q = profile.tadpoles[0][1], profile.tadpoles[1][1]
        return PairSet(frozenset({("cells", min(p, q), max(p, q))}))
    if kind == LF_T:
        return PairSet(frozenset({("maxge", spider_sums[0] + 2)}))
    if kind == LF_TT:
        lo, hi = sorted(spider_sums)
        return PairSet(frozenset({("minmax", lo + 2, hi + 2)}))
    if kind == LF_DT:
        return PairSet(frozenset({("rowtail", profile.tadpoles[0][1], spider_sums[0] + 2)}))
    raise ContradictionError(f"unhandled profile kind {kind!r}")


def covered_pairs(h: Graph) -> PairSet:
    return pairs_for_profile(structure_profile(h))


# -- family decisions --------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    """A boundedness verdict together with its justification.

    ``verdict`` is "bounded"/"unbounded" for family queries and
    "class-i".."class-iv" for single-graph additive/multiplicative
    classification. ``constant`` carries the certified constant when one is
    known (additive for class i/ii, multiplicative otherwise).
    """

    verdict: str
    bounded: bool
    reason: str
    constant: object | None = None
    uncovered_pair: tuple[int, int] | None = None
    witness: str | None = None


def family_covers_all(family) -> ClassificationResult:
    """Decide whether the family covers every pair (i, j) with i, j >= 3."""
    family = list(family)
    if not family:
        raise InvalidInputError("the family must be nonempty")
    union = PairSet.empty()
    for h in family:
        union = union.union(covered_pairs(h))
    pair = union.first_uncovered()
    if pair is None:
        n_ctx = CoverContext.for_graphs(family).N
        return ClassificationResult(
            verdict="bounded",
            bounded=True,
            reason="every pair (i, j) with i, j >= 3 is covered",
            constant=4 * n_ctx,
        )
    i, j = pair
    return ClassificationResult(
        verdict="unbounded",
        bounded=False,
        reason=f"pair {pair} is uncovered",
        uncovered_pair=pair,
        witness=f"butterflies B_{{{i},{j},k}} for growing k avoid the whole family",
    )


@dataclass(frozen=True)
class MustContainReport:
    """Necessary-membership check for families with a bounded ratio."""

    applicable: bool
    bounded: bool
    double_tadpole_member: int | None = None
    double_spider_member: int | None = None


def _fits_triangle_tadpoles(p: StructureProfile, k: int) -> bool:
    """Whether the profiled graph embeds in k disjoint long-tailed triangle tadpoles."""
    return p.kind in (LINEAR_FOREST, LF_D, LF_DD)[: k + 1] and all(r == 3 for _, r in p.tadpoles)


def _fits_spiders(p: StructureProfile, k: int, short_legs: bool) -> bool:
    """Whether it embeds in k disjoint long-legged spiders, two legs of 1 if ``short_legs``."""
    legs_ok = not short_legs or all(legs[:2] == (1, 1) for legs in p.spiders)
    return p.kind in (LINEAR_FOREST, LF_T, LF_TT)[: k + 1] and legs_ok


def must_contain_check(family) -> MustContainReport:
    """If the family is bounded, it must contain both canonical shapes.

    Some member must embed in two disjoint triangle tadpoles, and some
    member must embed in two disjoint 3-leg spiders, with tails and legs as
    long as needed; both are read off the members' structure profiles.
    Violation is a contradiction, not a user error.
    """
    family = list(family)
    if not family_covers_all(family).bounded:
        return MustContainReport(applicable=False, bounded=False)
    profiles = [structure_profile(h) for h in family]
    dd_member = next((i for i, p in enumerate(profiles) if _fits_triangle_tadpoles(p, 2)), None)
    tt_member = next((i for i, p in enumerate(profiles) if _fits_spiders(p, 2, False)), None)
    if dd_member is None or tt_member is None:
        raise ContradictionError(
            "a ratio-bounded family must contain both a double-tadpole part "
            f"and a double-spider part; missing: dd={dd_member} tt={tt_member}"
        )
    return MustContainReport(True, True, dd_member, tt_member)


def classify_pair(h1: Graph, h2: Graph) -> ClassificationResult:
    """Two-member boundedness via the explicit three-condition catalog.

    The pair is bounded exactly when one member is a linear forest, or the
    two members embed (in either role order) into a triangle tadpole and a
    double short-leg spider, or into a double triangle tadpole and a single
    short-leg spider. The verdict is cross-checked against the covered-pair
    union; disagreement is a contradiction.

    Tails and long legs are as long as needed, so the bullets are read off
    structure profiles: a member fits k triangle tadpoles when it has no
    spider and at most k tadpoles, all with cycle 3, and k short-leg spiders
    when it has no tadpole and at most k spiders, all with legs (1, 1, *).
    """
    p1, p2 = structure_profile(h1), structure_profile(h2)
    reason = None
    if LINEAR_FOREST in (p1.kind, p2.kind):
        reason = "one member is a linear forest"
    else:
        for a, b in ((p1, p2), (p2, p1)):
            if _fits_triangle_tadpoles(a, 1) and _fits_spiders(b, 2, True):
                reason = "members embed in a triangle tadpole and a double short-leg spider"
                break
            if _fits_triangle_tadpoles(a, 2) and _fits_spiders(b, 1, True):
                reason = "members embed in a double triangle tadpole and a short-leg spider"
                break
    union_verdict = family_covers_all([h1, h2])
    if (reason is not None) != union_verdict.bounded:
        raise ContradictionError(
            "pair catalog disagrees with the covered-pair union: "
            f"catalog={'bounded' if reason else 'unbounded'} union={union_verdict.verdict}"
        )
    return replace(union_verdict, reason=reason) if reason else union_verdict


def render_pair_table(ps: PairSet, lo: int, hi: int) -> str:
    """A tick grid of the covered pairs for i, j in [lo, hi]."""
    if lo < 3 or hi < lo:
        raise InvalidInputError(f"need 3 <= lo <= hi, got {lo}..{hi}")
    if hi - lo + 1 > MAX_TABLE_SIDE:
        raise ResourceLimitError(
            f"range {lo}..{hi} has {hi - lo + 1} values per side, the limit is {MAX_TABLE_SIDE}"
        )
    width = max(len(str(hi)), 1)
    header = " " * (width + 2) + " ".join(f"{j:>{width}}" for j in range(lo, hi + 1))
    lines = [header]
    for i in range(lo, hi + 1):
        cells = " ".join(
            f"{'✓' if ps.contains(i, j) else '·':>{width}}" for j in range(lo, hi + 1)
        )
        lines.append(f"{i:>{width}} | " + cells)
    return "\n".join(lines)
