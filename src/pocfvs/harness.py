"""Exhaustive small-graph enumeration and corpus-level experiments.

Connected graphs are generated size by size: every connected graph on n+1
vertices arises from a connected graph on n vertices by attaching a new
vertex to a nonempty neighborhood. A parent is extended only by the
neighborhoods least in their orbit under its automorphisms, and candidates
are deduplicated on their canonical code, keeping the first of each class.
That candidate survives the pruning: a smaller automorphic image of its
neighborhood would give an isomorphic candidate generated earlier. The
orbit minima come from one union-find per parent: each generator's image
table is built once and each mask is joined to its images, the least mask
staying root. A kept candidate's grown masks are the representative.
Each growth holds one memo for ``iso._least_code`` and drops it at the
end: a candidate whose root partition is neither discrete nor of twin
classes is keyed by its code relabelled by that partition, cells
ascending. Candidates with equal keys coincide after that relabelling, so
they are isomorphic and share the least code, and only the first runs the
tree search. The memo changes no
code and no representative, and one growth's keys are all of one order.
This growth runs once per order, and its levels are cached for the
lifetime of the process, keyed by the order alone; the experiment drivers
lean on that cache heavily. The cache maps each representative to its
canonical code, so ``evaluate_graphs`` names a level graph without a
second canonical search: a graph's name is the graph6 of its code. A
level is sorted on the codes alone: read from the top, a code's set bits
are the canonical form's edges in edge-list order. A forbidden family
filters the cached levels from the bottom up. Growth appends the new
vertex last, so a representative without its last vertex is exactly its
parent representative, and freeness is hereditary: a representative is
kept iff its parent was kept and no member has an induced copy through
the last vertex. That keeps exactly the representatives a growth
restricted to free graphs would find.

The filtered levels of each forbidden family are kept too, for the lifetime
of the process, so a family asked about again is not filtered again.
Freeness is isomorphism-invariant, and a member larger than a graph has no
copy in it, so an entry is keyed by the set of canonical forms of the
members that fit in the levels asked for: two calls with one key keep the
same graphs in each level either asks for. So relabelled, reordered and
repeated members share one entry, and so do members too large for any
level. The first caller's members run the filter, and a later call with
more levels extends the entry from its top level. Each call returns new
lists. The memo holds the 32 most recently used families. An entry holds
references into the level cache, at most its 12,113 graphs; the largest the
verify battery makes, 2P_3-free with n <= 8, holds 11,420.

``evaluate_graphs`` also keeps each level representative's record for the
lifetime of the process, so the repeated and overlapping ``max_poc`` calls
of one process solve and name each level graph once. The record depends on
the graph alone, and only representatives the level cache holds are kept,
so this memo never outgrows that cache. A hit still checks the solver
limit, and raises exactly as a fresh solve would.

``unboundedness_witnesses`` keeps the ``(fvs, cfvs)`` of each witness graph
it has solved, hourglass chain or butterfly, for the lifetime of the
process, so the class-iii patterns share the L_k solves and class-iv
patterns with one uncovered pair share their butterflies. The optima
depend on the graph alone, and each call still builds and returns its own
graphs. The solver limit is checked before the lookup, so a hit raises
exactly as a fresh solve would. Only graphs solved within a limit are
kept: under the default limit of 20 vertices, L_1..L_3 and the butterflies
of the uncovered pairs asked for. L_k's own P_6 / P_4+P_2 check depends
on k alone and runs when L_k is first solved.

``ExperimentReport.to_json`` writes the text ``json.dumps(..., indent=2)``
would, from the same encoder chunks, but joins them 4,096 at a time instead
of listing all of them first: on the n <= 8 report that is 339,200 chunks,
and the traced peak falls from 11.8 to 3.7 times the text's length.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from . import graph6
from .constructive import p5sp1_constant, sp3_constant
from .cover import ClassificationResult, family_covers_all, structure_profile
from .errors import ContradictionError, InvalidInputError, ResourceLimitError
from .generators import butterfly, gprime, hourglass_chain, path
from .graph import Graph, iter_bits
from .iso import _copies_through, _least_code, _search, canonical_form, free_filter
from .solvers import _guard, _resolved_limit, fvs_and_cfvs

MAX_ENUMERATION_ORDER = 8

# order -> {representative: its canonical code}, in level order
_LEVEL_CACHE: dict[int, dict[Graph, int]] = {}
# canonical forms of a family's fitting members -> (its filter through the
# last vertex, its filtered levels 1..k), least recently used first
_FAMILY_LEVELS: dict[frozenset[Graph], tuple[Callable, list[list[Graph]]]] = {}
_FAMILY_BOUND = 32
_FAMILY_LOCK = threading.Lock()
# level representative -> its evaluate_graphs record
_RECORDS: dict[Graph, GraphRecord] = {}
# witness graph -> its (fvs, cfvs), see unboundedness_witnesses
_WITNESS_OPTIMA: dict[Graph, tuple[int, int]] = {}


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: connected graphs on 1..n_max vertices, optionally forbidding a family."""

    n_max: int
    forbidden: tuple[Graph, ...] = ()

    def __post_init__(self):
        if self.n_max < 1:
            raise InvalidInputError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_max > MAX_ENUMERATION_ORDER:
            raise ResourceLimitError(
                f"internal enumeration stops at {MAX_ENUMERATION_ORDER} vertices"
            )


def enumerate_connected(n: int, forbidden=()) -> list[Graph]:
    """All connected graphs on exactly ``n`` vertices avoiding ``forbidden``.

    One representative per isomorphism class, ordered by the edge list of
    its canonical form. Each call returns a new list.
    """
    if n < 1:
        raise InvalidInputError(f"order must be >= 1, got {n}")
    return _free_levels(n, forbidden)[-1]


def _level(n: int) -> dict[Graph, int]:
    """The cached level of order ``n``: each representative and its canonical code."""
    if n not in _LEVEL_CACHE:
        if n == 1:
            _LEVEL_CACHE[n] = {Graph(1): 0}
        else:
            # code -> masks of the first candidate with it
            seen: dict[int, tuple[int, ...]] = {}
            memo: dict[int, int] = {}  # for _least_code, this growth only
            base = n - 1
            for g in _level(base):
                masks = g._masks
                for extra in _orbit_minima(base, _search(masks)[2]):
                    grown = (
                        *(m | 1 << base if extra >> v & 1 else m for v, m in enumerate(masks)),
                        extra,
                    )
                    seen.setdefault(_least_code(grown, memo), grown)
            # bytes of the code's set positions from the top sort as the forms'
            # edge lists do, without building those lists
            top = n * (n - 1) // 2 - 1
            codes = sorted(seen, key=lambda c: bytes(top - i for i in reversed([*iter_bits(c)])))
            _LEVEL_CACHE[n] = {Graph._from_masks(seen[code]): code for code in codes}
    return _LEVEL_CACHE[n]


def _free_levels(n_max: int, forbidden) -> list[list[Graph]]:
    """Levels 1..``n_max`` of :func:`enumerate_connected` avoiding ``forbidden``.

    Each level is filtered from the one below it, as the module docstring
    explains: a level-n representative without vertex n - 1 has exactly
    its parent's masks. A member larger than ``n_max`` fits in no level
    and is dropped. The filtered levels are kept in ``_FAMILY_LEVELS``
    under the canonical forms of the members that fit, and extended from
    the top level kept; each call returns new lists.
    """
    if n_max > MAX_ENUMERATION_ORDER:
        raise ResourceLimitError(f"internal enumeration stops at {MAX_ENUMERATION_ORDER}")
    family = [h for h in forbidden if h.n <= n_max]
    if not family:
        return [list(_level(n)) for n in range(1, n_max + 1)]
    key = frozenset(map(canonical_form, family))
    with _FAMILY_LOCK:  # an entry grows in place, so one caller at a time
        entry = _FAMILY_LEVELS.pop(key, None)
        if entry is None:
            free = free_filter(family)
            entry = (_copies_through(family), [[g for g in _level(1) if free(g)]])
        _FAMILY_LEVELS[key] = entry  # now the most recent
        if len(_FAMILY_LEVELS) > _FAMILY_BOUND:
            del _FAMILY_LEVELS[next(iter(_FAMILY_LEVELS))]
        through, levels = entry
        for n in range(len(levels) + 1, n_max + 1):
            kept = {g._masks for g in levels[-1]}
            low = (1 << n - 1) - 1
            levels.append(
                [
                    g
                    for g in _level(n)
                    if tuple(m & low for m in g._masks[:-1]) in kept and not through(g, n - 1)
                ]
            )
        return [list(level) for level in levels[:n_max]]


def _orbit_minima(n: int, perms) -> list[int]:
    """The nonempty masks on ``n`` vertices that are least in their orbit under ``perms``.

    Each generator's image table is built once, and every mask is joined
    to its images; a union keeps the lesser root, so each orbit's root is
    its least mask. With no generator every mask is its own root.
    """
    root = list(range(1 << n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for p in perms:
        image = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            image[s] = image[s ^ low] | 1 << p[low.bit_length() - 1]
        for s, t in enumerate(image):
            a, b = find(s), find(t)
            root[max(a, b)] = min(a, b)
    return [s for s in range(1, 1 << n) if root[s] == s]


def enumerate_connected_upto(n_max: int, forbidden=()) -> list[Graph]:
    """Levels 1..``n_max`` of :func:`enumerate_connected`, concatenated."""
    if n_max < 1:
        raise InvalidInputError(f"order must be >= 1, got {n_max}")
    return [g for level in _free_levels(n_max, forbidden) for g in level]


# -- experiments -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GraphRecord:
    graph_id: str  # canonical graph6 string
    order: int
    fvs: int
    cfvs: int
    ratio: Fraction | None
    difference: int


@dataclass
class ExperimentReport:
    spec: str
    records: list[GraphRecord] = field(default_factory=list)
    max_ratio: Fraction | None = None
    max_ratio_witness: str | None = None
    max_difference: int | None = None
    max_difference_witness: str | None = None
    forest_count: int = 0

    def aggregate(self) -> None:
        self.max_ratio = None
        self.max_ratio_witness = None
        self.max_difference = None
        self.max_difference_witness = None
        self.forest_count = 0
        for rec in self.records:
            if rec.ratio is None:
                self.forest_count += 1
            elif self.max_ratio is None or rec.ratio > self.max_ratio:
                self.max_ratio = rec.ratio
                self.max_ratio_witness = rec.graph_id
            if self.max_difference is None or rec.difference > self.max_difference:
                self.max_difference = rec.difference
                self.max_difference_witness = rec.graph_id

    def to_dict(self, timestamp: str | None = None) -> dict:
        body = {
            "spec": self.spec,
            "record_count": len(self.records),
            "forest_count": self.forest_count,
            "max_ratio": str(self.max_ratio) if self.max_ratio is not None else None,
            "max_ratio_witness": self.max_ratio_witness,
            "max_difference": self.max_difference,
            "max_difference_witness": self.max_difference_witness,
            "records": [
                {
                    "graph6": rec.graph_id,
                    "n": rec.order,
                    "fvs": rec.fvs,
                    "cfvs": rec.cfvs,
                    "ratio": str(rec.ratio) if rec.ratio is not None else None,
                    "difference": rec.difference,
                }
                for rec in self.records
            ],
        }
        if timestamp is not None:
            body["generated_at"] = timestamp
        return body

    def to_json(self, timestamp: str | None = None) -> str:
        # json.dumps's chunks, joined in batches to bound the peak (module docstring)
        chunks = json.JSONEncoder(indent=2).iterencode(self.to_dict(timestamp))
        return "".join(map("".join, iter(lambda: [*islice(chunks, 4096)], [])))

    def to_text(self) -> str:
        header = f"{'graph6':<24} {'n':>2} {'fvs':>4} {'cfvs':>5} {'ratio':>7} {'diff':>5}"
        lines = [f"report: {self.spec}", header, "-" * len(header)]
        for rec in self.records:
            ratio = str(rec.ratio) if rec.ratio is not None else "-"
            lines.append(
                f"{rec.graph_id:<24} {rec.order:>2} {rec.fvs:>4} {rec.cfvs:>5} "
                f"{ratio:>7} {rec.difference:>5}"
            )
        lines.append("-" * len(header))
        lines.append(self._summary())
        return "\n".join(lines)

    def _summary(self) -> str:
        """The last line of :meth:`to_text`: the counts and both maxima with their witnesses."""
        return (
            f"graphs: {len(self.records)}  forests (ratio skipped): {self.forest_count}  "
            f"max ratio: {self.max_ratio} ({self.max_ratio_witness})  "
            f"max difference: {self.max_difference} ({self.max_difference_witness})"
        )


def evaluate_graphs(graphs, spec_label: str, limit: int | None = None) -> ExperimentReport:
    """Exact fvs and cfvs of each connected graph, keyed by canonical graph6.

    A graph the level cache holds takes its cached canonical code, and its
    record is kept in ``_RECORDS``: a later call reuses it after checking
    ``limit`` as the solvers would. Any other graph, such as a relabelled
    copy or a graph read from a file, is searched and solved here on every
    call and never kept, so the memo holds at most the level cache's graphs.
    ``limit`` is resolved once, before the first graph, so a malformed limit
    is refused even when no graph reaches a solver.
    """
    report = ExperimentReport(spec=spec_label)
    limit = _resolved_limit(limit)
    for g in graphs:
        rec = _RECORDS.get(g)
        if rec is not None:
            _guard(g, limit)
        elif not g.is_connected():
            continue
        else:
            f, c = fvs_and_cfvs(g, limit)
            code = _LEVEL_CACHE.get(g.n, {}).get(g)
            gid = graph6.from_code(g.n, _search(g._masks)[0] if code is None else code)
            rec = GraphRecord(gid, g.n, f, c, Fraction(c, f) if f > 0 else None, c - f)
            if code is not None:
                _RECORDS[g] = rec
        report.records.append(rec)
    report.records.sort(key=lambda r: (r.order, r.graph_id))
    report.aggregate()
    return report


def max_poc(spec: EnumerationSpec, limit: int | None = None) -> ExperimentReport:
    """Exact ratio/difference extremes over all connected graphs up to n_max."""
    graphs = enumerate_connected_upto(spec.n_max, spec.forbidden)
    label = f"connected graphs n<={spec.n_max}"
    if spec.forbidden:
        label += f", forbidding {len(spec.forbidden)} pattern(s)"
    return evaluate_graphs(graphs, label, limit)


# -- single-graph classification ---------------------------------------------


_CLASS_REASONS = {
    "class-i": "embeds in a 3-vertex path; the two optima always coincide",
    "class-ii": "embeds in P_5 + s*P_1 or in s*P_3; additive constant suffices",
    "class-iii": "a linear forest; multiplicative constant suffices",
    "class-iv": "not a linear forest; butterflies witness unbounded ratio",
}


def tetrachotomy_classify(h: Graph) -> ClassificationResult:
    """Which of the four boundedness regimes a single forbidden graph yields.

    class-i: equality always (h embeds in P_3); class-ii: additive constant
    (h embeds in P_5 + s*P_1 or in s*P_3); class-iii: multiplicative
    constant (h is a linear forest); class-iv: no constant at all.

    Only linear forests pass the covering test, whose constant 4N is the
    class-iii one. The rest is read off the path orders a_1..a_k, which fit
    in P_L when sum(a_i) + k - 1 <= L. P_5 takes the paths of order >= 2
    and the single vertices that still fit; each other single vertex costs
    a P_1. A P_3 holds one P_2 or P_3, or two single vertices, and no longer path.
    """
    cover = family_covers_all([h])
    orders = structure_profile(h).linear_forest  # ascending; all of h when cover.bounded
    ones = orders.count(1)
    longer = orders[ones:]
    room = 6 - sum(longer) - len(longer)  # P_5 holds longer and f single vertices when 2f <= room
    additive = [p5sp1_constant(max(0, ones - room // 2))] if room >= 0 else []
    if all(a <= 3 for a in orders):
        additive.append(sp3_constant(len(longer) + (ones + 1) // 2))
    if not cover.bounded:
        verdict, constant = "class-iv", None
    elif sum(orders) + len(orders) <= 4:
        verdict, constant = "class-i", 0
    elif additive:
        verdict, constant = "class-ii", min(additive)
    else:
        verdict, constant = "class-iii", cover.constant
    return ClassificationResult(
        verdict, cover.bounded, _CLASS_REASONS[verdict], constant, cover.uncovered_pair
    )


def unboundedness_witnesses(h: Graph, count: int, limit: int | None = None):
    """Concrete graphs certifying the negative side of the classification.

    class-iv: h-free butterflies on an uncovered pair, with exact optima;
    class-iii: the hourglass-chain family; class-i/ii: no witnesses exist.
    Each witness graph is solved once per process and its optima are kept
    in ``_WITNESS_OPTIMA``; ``limit`` is checked before every lookup.
    """
    if count < 0:
        raise InvalidInputError(f"witness count must be >= 0, got {count}")
    verdict = tetrachotomy_classify(h)
    out = []
    if verdict.verdict in ("class-i", "class-ii"):
        return out
    h_free = free_filter([h])
    if verdict.verdict == "class-iii":
        for k in range(1, count + 1):
            lk = hourglass_chain(k)
            _guard(lk, limit)
            optima = _WITNESS_OPTIMA.get(lk)
            if optima is None:
                if not free_filter([path(6), path(4) + path(2)])(lk):
                    raise ContradictionError("hourglass chains must avoid P_6 and P_4+P_2")
                optima = _WITNESS_OPTIMA[lk] = fvs_and_cfvs(lk, limit)
            if not h_free(lk):
                raise ContradictionError(
                    "a class-iii pattern contains P_6 or P_4+P_2, so hourglass "
                    "chains must avoid it"
                )
            out.append((lk, *optima))
        return out
    i, j = verdict.uncovered_pair
    k = 1
    while len(out) < count:
        b = butterfly(i, j, k)
        if h_free(b):
            _guard(b, limit)
            optima = _WITNESS_OPTIMA.get(b)
            if optima is None:
                optima = _WITNESS_OPTIMA[b] = fvs_and_cfvs(b, limit)
            out.append((b, *optima))
        k += 1
    return out


@dataclass
class SubdivisionRow:
    t: int
    order: int
    fvs: int
    cfvs: int
    butterfly_free: bool


@dataclass
class SubdivisionReport:
    rows: list[SubdivisionRow]


def _small_butterflies(max_order: int) -> list[Graph]:
    out = []
    for i in range(3, max_order):
        for j in range(i, max_order):
            for k in range(1, max_order):
                if i + j + k - 1 <= max_order:
                    out.append(butterfly(i, j, k))
    return out


def gprime_experiment(t_max: int) -> SubdivisionReport:
    """Uniformly subdivided doubled triangles: small fvs, growing cfvs.

    Checks that every instance keeps fvs = 2, that cfvs strictly increases
    with the subdivision count, and that no butterfly on up to 12 vertices
    embeds. Violations contradict certified structure and raise.
    """
    if t_max < 1:
        raise InvalidInputError(f"t_max must be >= 1, got {t_max}")
    butterfly_free = free_filter(_small_butterflies(12))
    rows = []
    prev_cfvs = None
    for t in range(1, t_max + 1):
        g = gprime(t)
        f, c = fvs_and_cfvs(g, g.n)
        free = butterfly_free(g)
        if f != 2:
            raise ContradictionError(f"subdivided doubled triangle t={t} has fvs {f} != 2")
        if prev_cfvs is not None and c <= prev_cfvs:
            raise ContradictionError(
                f"cfvs failed to increase strictly at t={t}: {prev_cfvs} -> {c}"
            )
        if not free:
            raise ContradictionError(f"a butterfly embeds into the t={t} instance")
        prev_cfvs = c
        rows.append(SubdivisionRow(t, g.n, f, c, free))
    return SubdivisionReport(rows)
