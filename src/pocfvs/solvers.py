"""Exact solvers for feedback vertex sets and dominating sets.

These are the ground-truth oracles of the package, so every solver is an
exhaustive search whose optimality follows from its search order alone:

* ``min_fvs`` deepens on the solution size and branches on the vertices of
  a shortest cycle (every feedback vertex set must hit every cycle). A
  node with no budget left only asks whether its mask is a forest.
* ``min_cfvs``, ``min_ds`` and ``min_cds`` all run the one subset search,
  :func:`first_subset`: candidate vertex sets in increasing cardinality,
  lexicographically within a size, and the first feasible one wins. The
  constructive module's exhaustive minima use it too. ``min_cfvs`` also
  hands the walk a test that skips a run of candidates sharing a prefix
  when none of them can be a connected FVS; the skipped sets are still
  counted, so the witness and ``explored`` are those of the full walk.
  The test is told how many vertices the prefix still needs and applies
  two bounds. A connected set through the prefix meets every BFS layer,
  taken from the prefix's least vertex, up to its farthest vertex, and
  each layer holding no prefix vertex costs one more vertex: so the set
  lies in the layers before the first that would overspend. And every
  cycle the prefix misses must be hit there, so removing those layers
  must leave a forest.
* The public ``min_cfvs`` walks from the empty set, so its ``explored``
  counts every set it passes. Callers that already hold fvs(G)
  (``poc_ratio``, ``poc_difference`` and the harness drivers) start the
  same walk at size fvs(G) instead: every connected FVS is an FVS, so no
  smaller set is accepted, and the first set accepted, the witness, is the
  same.

Ratios are exact rationals; nothing here touches floating point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, repeat
from math import comb

from .errors import ContradictionError, InvalidInputError, ResourceLimitError
from .graph import Graph, iter_bits

DEFAULT_LIMIT = 20
_LIMIT_ENV = "POCFVS_LIMIT"


def default_limit() -> int:
    raw = os.environ.get(_LIMIT_ENV)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise InvalidInputError(f"{_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if limit < 0:
        raise InvalidInputError(f"{_LIMIT_ENV} must be >= 0, got {limit}")
    return limit


def _resolved_limit(limit: int | None) -> int:
    """``limit``, or :func:`default_limit` when it is None; a negative limit is an input error."""
    if limit is None:
        return default_limit()
    if limit < 0:
        raise InvalidInputError(f"the vertex limit must be >= 0, got {limit}")
    return limit


def _guard(g: Graph, limit: int | None) -> None:
    limit = _resolved_limit(limit)
    if g.n > limit:
        raise ResourceLimitError(f"graph has {g.n} vertices, exhaustive limit is {limit}")


@dataclass(frozen=True)
class SolveResult:
    """Optimum value, one optimal witness, and the search effort.

    ``explored`` counts the candidate sets the subset walk passes up to and
    including the witness, the empty set included wherever the walk starts
    there, whether each was tried or counted in a skipped run; in
    ``min_fvs`` it counts search nodes instead.
    """

    optimum: int
    witness: frozenset[int]
    explored: int


def shortest_cycle(g: Graph, mask: int | None = None) -> tuple[int, ...] | None:
    """Vertices of a shortest cycle inside the induced ``mask``, or ``None``.

    Runs one BFS from every vertex, layer by layer on neighbour masks, each
    vertex queueing its new neighbours in ascending order. The best non-tree
    edge (shortest cycle, then least root, then least endpoints) is closed
    through the deepest common ancestor in its root's BFS tree, which yields
    a simple cycle of girth length. The result is sorted, and deterministic
    for a fixed graph.

    A triangle is the BFS's answer without the BFS: a length-3 candidate
    comes only from a root whose neighbourhood holds an edge, so the least
    such root and the least edge (a, b) inside its neighbourhood win. The
    triple is already ascending: every vertex of a triangle has an edge in
    its neighbourhood, so the root is least, and b, a neighbour of a in
    that neighbourhood, is not below a, the least vertex there with one.
    """
    if mask is None:
        mask = g.full_mask
    adj = [m & mask for m in g._masks]
    for root in iter_bits(mask):
        for a in iter_bits(adj[root]):
            inner = adj[a] & adj[root]
            if inner:
                b = (inner & -inner).bit_length() - 1
                return root, a, b
    best = None  # (length, root, a, b)
    for root in iter_bits(mask):
        tree = [-1] * g.n
        seen = layer = 1 << root
        frontier = [root]  # ``layer`` in BFS order; ``outer``/``nxt`` collect the next
        depth = 0
        while frontier:
            outer, nxt = 0, []
            for u in frontier:
                nbrs = adj[u]
                # a non-tree edge into the layer closes 2d+1, one to a vertex
                # found first by another parent 2d+2; the least w is best for u
                ends = nbrs & layer or nbrs & outer
                if ends:
                    w = (ends & -ends).bit_length() - 1
                    cand = (2 * depth + 1 + (not nbrs & layer), root, min(u, w), max(u, w))
                    if best is None or cand < best:
                        best, parent = cand, tree
                fresh = nbrs & ~seen
                seen |= fresh
                outer |= fresh
                while fresh:
                    low = fresh & -fresh
                    fresh ^= low
                    w = low.bit_length() - 1
                    tree[w] = u
                    nxt.append(w)
            layer, frontier = outer, nxt
            depth += 1
    if best is None:
        return None
    _, _, a, b = best

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
    """Minimum feedback vertex set by iterative deepening with cycle branching.

    A leaf, a node with no budget left, tests only whether its mask is
    acyclic. A leaf of round k lies k deep, with n - k vertices, a size no
    earlier round reaches, so no leaf's mask has a cached cycle. A node with
    budget b left always holds a cycle: had its mask been a forest, round
    k - b would have reached it as a leaf and returned. Round k tries every
    set of k vertices that hits each branching cycle, and ``failed`` skips
    only subtrees already tried, so round fvs(g) <= n returns.
    """
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
        if not budget:
            return [] if g.mask_is_acyclic(mask) else None
        cyc = cycle_of(mask)
        if (mask, budget) in failed:
            return None
        for v in cyc:
            sub = search(mask & ~(1 << v), budget - 1)
            if sub is not None:
                return [v, *sub]
        failed.add((mask, budget))
        return None

    for k in count():
        found = search(g.full_mask, k)
        if found is not None:
            return SolveResult(k, frozenset(found), explored)


# a subtree of fewer sets than this is tried set by set: a viability test
# costs about as much as the few sets it could skip. At least 2, so the walk
# never descends below a complete set
_PLAIN_BELOW = 32


def first_subset(universe_mask: int, accept, start: int = 0, viable=None):
    """First subset of ``universe_mask`` that ``accept`` takes, as a vertex mask.

    Subsets go by size from ``start``, lexicographically within a size: one
    depth-first walk over the prefixes of that order. ``viable(chosen,
    excluded, need)``, if given, may cut a prefix off. ``chosen`` masks the
    prefix, ``excluded`` every earlier universe vertex left out of it, and
    ``need`` is how many more vertices each set below the prefix adds. It
    may return False only when no accepted set holds ``chosen``, avoids
    ``excluded`` and has ``need`` more vertices. Such a subtree is counted,
    not tried. Subtrees of fewer than ``_PLAIN_BELOW`` sets are always tried
    set by set. The connected-FVS walk spends ``need`` on two bounds: a
    connected set through the prefix pays one vertex for each BFS layer
    without a prefix vertex that it crosses, so it stays within the layers
    it can afford, and every cycle the prefix misses must be hit inside
    them. :func:`_cfvs_walk` gives the argument.

    Returns the accepted mask, or ``None``, together with the number of sets
    passed, tried or counted: exactly the sets the plain walk would try.
    """
    bits = [1 << v for v in iter_bits(universe_mask)]
    n = len(bits)
    explored = 0

    def walk(chosen: int, excluded: int, lo: int, need: int) -> int | None:
        # the sets that add ``need`` of bits[lo:] to ``chosen``, in order
        nonlocal explored
        size = comb(n - lo, need)
        if viable is None or size < _PLAIN_BELOW:
            for m in map(sum, combinations(bits[lo:], need), repeat(chosen)):
                explored += 1
                if accept(m):
                    return m
            return None
        if chosen and not viable(chosen, excluded, need):
            explored += size
            return None
        for j in range(lo, n - need + 1):
            m = walk(chosen | bits[j], excluded, j + 1, need - 1)
            if m is not None:
                return m
            excluded |= bits[j]
        return None

    for k in range(start, n + 1):
        m = walk(0, 0, 0, k)
        if m is not None:
            return m, explored
    return None, explored


def min_cfvs(g: Graph, limit: int | None = None) -> SolveResult:
    """Minimum connected feedback vertex set of a connected graph.

    The empty set counts as connected, so forests solve to 0.
    """
    _guard(g, limit)
    if not g.is_connected():
        raise InvalidInputError("connected feedback vertex set needs a connected graph")
    m, explored = _cfvs_walk(g, 0)
    return SolveResult(m.bit_count(), frozenset(iter_bits(m)), explored)


def _cfvs_walk(g: Graph, start: int) -> tuple[int, int]:
    """The :func:`min_cfvs` subset walk from size ``start``: (witness mask, sets passed).

    ``g`` must be connected and already guarded. Any ``start`` up to fvs(g)
    returns the same mask, since no smaller set is an FVS.

    The viability test cuts a prefix when an accepted set S below it cannot
    exist. S is connected, holds ``chosen``, avoids ``excluded`` and adds
    ``need`` vertices, so it lies in K, the component of chosen's least
    vertex in G - excluded, and G - K is a forest. A BFS inside G - excluded
    from that vertex has K as its union. S has a vertex in every layer up
    to its farthest one, and each of those layers that holds no chosen
    vertex costs one of the ``need``. At the first layer t where such
    layers number more than ``need``, S lies in ``below``, the layers before
    t: chosen must too, and every cycle of G - chosen must be hit inside
    ``below``, so G - below is a forest. That test implies the two on K,
    and the BFS stops there. No prefix of the full set is cut: there
    ``excluded`` is empty, every vertex outside ``chosen`` is one of the
    ``need``, and the counted layers are disjoint sets of such vertices.
    """
    full = g.full_mask
    masks = g._masks

    def viable(chosen: int, excluded: int, need: int) -> bool:
        # an accepted set lies in ``seen``: K, or ``below`` when the BFS
        # stops at the first layer it cannot afford (see the docstring)
        seen = layer = chosen & -chosen
        rest = full & ~excluded & ~seen  # not reached yet
        cost = 0
        while layer:
            layer = g.mask_reach(layer) & rest
            if layer and not layer & chosen:
                cost += 1
                if cost > need:
                    break
            rest ^= layer
            seen |= layer
        return not chosen & ~seen and g.mask_is_acyclic(full & ~seen)

    def accept(c: int) -> bool:
        # Graph.mask_is_connected's traversal, inlined: on the walk's small
        # sets the two calls behind it cost more than the traversal itself
        if c:
            todo = c & -c
            rest = c ^ todo  # not reached yet
            while todo:
                low = todo & -todo
                new = masks[low.bit_length() - 1] & rest
                rest ^= new
                todo ^= low | new
            if rest:
                return False
        return g.mask_is_acyclic(full & ~c)

    m, explored = first_subset(full, accept, start, viable)
    if m is None:
        raise ContradictionError("the full vertex set is always a connected FVS")
    return m, explored


def min_ds(g: Graph, limit: int | None = None) -> SolveResult:
    """Minimum dominating set."""
    _guard(g, limit)
    full = g.full_mask
    # no viability test, so the walk reaches the full set, which dominates
    m, explored = first_subset(full, lambda c: c | g.mask_reach(c) == full)
    return SolveResult(m.bit_count(), frozenset(iter_bits(m)), explored)


def min_cds(g: Graph, limit: int | None = None) -> SolveResult:
    """Minimum connected dominating set of a connected graph."""
    _guard(g, limit)
    if not g.is_connected():
        raise InvalidInputError("connected dominating set needs a connected graph")
    full = g.full_mask
    # no viability test, so the walk reaches the full set, which is connected
    # and dominates
    m, explored = first_subset(
        full, lambda c: c | g.mask_reach(c) == full and g.mask_is_connected(c), start=1
    )
    return SolveResult(m.bit_count(), frozenset(iter_bits(m)), explored)


def is_fvs(g: Graph, s) -> bool:
    """True iff deleting ``s`` from ``g`` leaves a forest."""
    return g.mask_is_acyclic(g.full_mask & ~g.vertex_mask(s))


def is_cfvs(g: Graph, s) -> bool:
    """FVS check plus connectivity; the empty set counts as connected."""
    m = g.vertex_mask(s)
    return g.mask_is_acyclic(g.full_mask & ~m) and (not m or g.mask_is_connected(m))


def fvs_and_cfvs(g: Graph, limit: int | None = None) -> tuple[int, int]:
    """fvs and cfvs of a connected graph, the cfvs walk starting at fvs.

    The caller checks connectivity; the limit applies through ``min_fvs``.
    """
    f = min_fvs(g, limit).optimum
    return f, _cfvs_walk(g, f)[0].bit_count()


def poc_ratio(g: Graph, limit: int | None = None) -> Fraction:
    """Exact cfvs/fvs ratio; undefined (input error) when fvs is 0."""
    if not g.is_connected():
        raise InvalidInputError("the connectivity price is defined for connected graphs")
    f, c = fvs_and_cfvs(g, limit)
    if f == 0:
        raise InvalidInputError("ratio undefined for forests (fvs = 0)")
    return Fraction(c, f)


def poc_difference(g: Graph, limit: int | None = None) -> int:
    """Exact cfvs - fvs."""
    if not g.is_connected():
        raise InvalidInputError("the connectivity price is defined for connected graphs")
    f, c = fvs_and_cfvs(g, limit)
    return c - f
