"""Exact solvers for feedback vertex sets and dominating sets.

These are the ground-truth oracles of the package, so every solver is an
exhaustive search whose optimality follows from its search order alone:

* ``min_fvs`` deepens on the solution size and branches on the vertices of
  a shortest cycle (every feedback vertex set must hit every cycle).
* ``min_cfvs``, ``min_ds`` and ``min_cds`` enumerate candidate subsets in
  increasing cardinality and return the first feasible one.

Ratios are exact rationals; nothing here touches floating point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ContradictionError, InvalidInputError, ResourceLimitError
from .graph import Graph, iter_bits

DEFAULT_LIMIT = 20
_LIMIT_ENV = "POCFVS_LIMIT"


def default_limit() -> int:
    raw = os.environ.get(_LIMIT_ENV)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"{_LIMIT_ENV} must be an integer, got {raw!r}") from None


def _guard(g: Graph, limit: int | None) -> None:
    cap = default_limit() if limit is None else limit
    if g.n > cap:
        raise ResourceLimitError(f"graph has {g.n} vertices, exhaustive limit is {cap}")


@dataclass(frozen=True)
class SolveResult:
    """Optimum value, one optimal witness, and the search effort."""

    optimum: int
    witness: frozenset[int]
    explored: int


def shortest_cycle(g: Graph, mask: int | None = None) -> tuple[int, ...] | None:
    """Vertices of a shortest cycle inside the induced ``mask``, or ``None``.

    Runs a BFS from every vertex and closes the best non-tree edge through
    the deepest common ancestor, which yields a simple cycle of girth
    length. The result is sorted, and deterministic for a fixed graph.
    """
    if mask is None:
        mask = g.full_mask
    best = None  # (length, root, a, b)
    for root in iter_bits(mask):
        dist = {root: 0}
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in g.neighbors(u):
                if not (mask >> w & 1):
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                elif dist[w] >= dist[u]:
                    cand = (dist[u] + dist[w] + 1, root, min(u, w), max(u, w))
                    if best is None or cand < best:
                        best = cand
        if best is not None and best[0] == 3:
            break
    if best is None:
        return None
    _, root, a, b = best
    parent = {root: -1}
    queue = [root]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for w in g.neighbors(u):
            if (mask >> w & 1) and w not in parent:
                parent[w] = u
                queue.append(w)

    def chain(x: int) -> list[int]:
        out = []
        while x != -1:
            out.append(x)
            x = parent[x]
        return out

    pa, pb = chain(a), chain(b)
    in_pb = set(pb)
    lca = next(v for v in pa if v in in_pb)
    cyc = pa[: pa.index(lca) + 1] + pb[: pb.index(lca)]
    return tuple(sorted(cyc))


def min_fvs(g: Graph, limit: int | None = None) -> SolveResult:
    """Minimum feedback vertex set by iterative deepening with cycle branching."""
    _guard(g, limit)
    explored = 0
    cycle_cache: dict[int, tuple[int, ...] | None] = {}
    failed: set[tuple[int, int]] = set()

    def cycle_of(mask: int):
        if mask not in cycle_cache:
            cycle_cache[mask] = shortest_cycle(g, mask)
        return cycle_cache[mask]

    def search(mask: int, budget: int) -> list[int] | None:
        nonlocal explored
        explored += 1
        cyc = cycle_of(mask)
        if cyc is None:
            return []
        if budget == 0 or (mask, budget) in failed:
            return None
        for v in cyc:
            sub = search(mask & ~(1 << v), budget - 1)
            if sub is not None:
                return [v, *sub]
        failed.add((mask, budget))
        return None

    for k in range(g.n + 1):
        found = search(g.full_mask, k)
        if found is not None:
            return SolveResult(k, frozenset(found), explored)
    raise ContradictionError("removing all vertices must leave a forest")


def min_cfvs(g: Graph, limit: int | None = None) -> SolveResult:
    """Minimum connected feedback vertex set of a connected graph.

    The empty set counts as connected, so forests solve to 0. Candidate
    subsets are enumerated lexicographically in increasing cardinality.
    """
    _guard(g, limit)
    if not g.is_connected():
        raise InvalidInputError("connected feedback vertex set needs a connected graph")
    full = g.full_mask
    explored = 1
    if g.mask_is_acyclic(full):
        return SolveResult(0, frozenset(), explored)
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            explored += 1
            m = sum(1 << v for v in combo)
            if not g.mask_is_connected(m):
                continue
            if g.mask_is_acyclic(full & ~m):
                return SolveResult(k, frozenset(combo), explored)
    raise ContradictionError("the full vertex set is always a connected FVS")


def min_ds(g: Graph, limit: int | None = None) -> SolveResult:
    """Minimum dominating set by increasing-cardinality enumeration."""
    _guard(g, limit)
    full = g.full_mask
    closed = [g.closed_mask(v) for v in range(g.n)]
    explored = 0
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            explored += 1
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered == full:
                return SolveResult(k, frozenset(combo), explored)
    raise ContradictionError("the full vertex set always dominates")


def min_cds(g: Graph, limit: int | None = None) -> SolveResult:
    """Minimum connected dominating set of a connected graph."""
    _guard(g, limit)
    if not g.is_connected():
        raise InvalidInputError("connected dominating set needs a connected graph")
    full = g.full_mask
    closed = [g.closed_mask(v) for v in range(g.n)]
    explored = 0
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            explored += 1
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered != full:
                continue
            if g.mask_is_connected(sum(1 << v for v in combo)):
                return SolveResult(k, frozenset(combo), explored)
    raise ContradictionError("a connected graph is its own connected dominating set")


def is_fvs(g: Graph, s) -> bool:
    """True iff deleting ``s`` from ``g`` leaves a forest."""
    drop = sum(1 << v for v in g.check_vertex_set(s))
    return g.mask_is_acyclic(g.full_mask & ~drop)


def is_cfvs(g: Graph, s) -> bool:
    """FVS check plus connectivity; the empty set counts as connected."""
    members = g.check_vertex_set(s)
    if not is_fvs(g, members):
        return False
    if not members:
        return True
    return g.mask_is_connected(sum(1 << v for v in members))


def lies_on_cycle(g: Graph, v: int) -> bool:
    """True iff some cycle of ``g`` passes through ``v``."""
    rest = g.full_mask & ~(1 << v)
    for comp in g.mask_components(rest):
        if (comp & g.mask(v)).bit_count() >= 2:
            return True
    return False


def normalize_min_fvs(g: Graph, limit: int | None = None) -> SolveResult:
    """A minimum FVS whose vertices all have degree >= 3 and lie on a cycle.

    Such a set is claimed to exist for every connected non-cycle graph; the
    search is exhaustive over all minimum feedback vertex sets, and failure
    raises ``ContradictionError`` because it would falsify that claim.
    """
    _guard(g, limit)
    if not g.is_connected():
        raise InvalidInputError("normalization needs a connected graph")
    if g.is_cycle_graph():
        raise InvalidInputError("normalization is undefined for cycles")
    k = min_fvs(g, limit).optimum
    explored = 0
    for combo in combinations(range(g.n), k):
        explored += 1
        if not is_fvs(g, combo):
            continue
        if all(g.degree(v) >= 3 and lies_on_cycle(g, v) for v in combo):
            return SolveResult(k, frozenset(combo), explored)
    raise ContradictionError(
        "no minimum feedback vertex set with all vertices of degree >= 3 on cycles; "
        f"graph n={g.n} edges={g.edges()}"
    )


def poc_ratio(g: Graph, limit: int | None = None) -> Fraction:
    """Exact cfvs/fvs ratio; undefined (input error) when fvs is 0."""
    if not g.is_connected():
        raise InvalidInputError("the connectivity price is defined for connected graphs")
    f = min_fvs(g, limit).optimum
    if f == 0:
        raise InvalidInputError("ratio undefined for forests (fvs = 0)")
    c = min_cfvs(g, limit).optimum
    return Fraction(c, f)


def poc_difference(g: Graph, limit: int | None = None) -> int:
    if not g.is_connected():
        raise InvalidInputError("the connectivity price is defined for connected graphs")
    return min_cfvs(g, limit).optimum - min_fvs(g, limit).optimum
