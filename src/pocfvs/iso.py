"""Induced-subgraph matching, isomorphism, and canonical labeling.

The matcher is a backtracking search over pattern vertices in a
most-constrained-first order; host candidates are filtered through bitmask
intersection of the adjacency and non-adjacency constraints imposed by the
already-matched vertices, so both edges and non-edges of the pattern are
preserved (induced semantics).

Canonical forms are computed by iterated degree refinement followed by a
branch-on-cell search over the remaining symmetric vertices; the vertex
order with the minimum adjacency encoding over the discrete refinements is
chosen, and the graph relabelled by that order is the canonical form;
equal forms characterize isomorphism.
"""

from __future__ import annotations

from .graph import Graph, iter_bits


def _matching_order(pattern: Graph) -> tuple[int, ...]:
    """Pattern vertices, most-constrained first, deterministic ties."""
    n = pattern.n
    order: list[int] = []
    placed = 0
    while len(order) < n:
        best = None
        for v in range(n):
            if placed >> v & 1:
                continue
            anchored = (pattern.mask(v) & placed).bit_count()
            key = (anchored, pattern.degree(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed |= 1 << best[1]
    return tuple(order)


def find_induced_embedding(pattern: Graph, host: Graph) -> dict[int, int] | None:
    """First induced embedding of ``pattern`` into ``host``, or ``None``.

    The returned map preserves both adjacency and non-adjacency. The search
    is complete: ``None`` means no induced embedding exists.
    """
    np_, nh = pattern.n, host.n
    if np_ == 0:
        return {}
    if np_ > nh or pattern.edge_count > host.edge_count:
        return None
    order = _matching_order(pattern)
    host_full = host.full_mask
    # degree-feasible host candidates per pattern vertex
    deg_ok = []
    for p in range(np_):
        dp = pattern.degree(p)
        deg_ok.append(sum(1 << v for v in range(nh) if host.degree(v) >= dp))
    # for each position, the earlier positions split into neighbors/others
    pre_adj: list[list[int]] = []
    pre_others: list[list[int]] = []
    for idx, p in enumerate(order):
        nb, ot = [], []
        for jdx in range(idx):
            (nb if pattern.has_edge(p, order[jdx]) else ot).append(jdx)
        pre_adj.append(nb)
        pre_others.append(ot)

    assignment = [0] * np_

    def backtrack(idx: int, used: int) -> bool:
        if idx == np_:
            return True
        p = order[idx]
        cands = deg_ok[p] & ~used & host_full
        for jdx in pre_adj[idx]:
            cands &= host.mask(assignment[jdx])
            if not cands:
                return False
        for jdx in pre_others[idx]:
            cands &= ~host.mask(assignment[jdx])
            if not cands:
                return False
        for w in iter_bits(cands):
            assignment[idx] = w
            if backtrack(idx + 1, used | (1 << w)):
                return True
        return False

    if backtrack(0, 0):
        return {order[idx]: assignment[idx] for idx in range(np_)}
    return None


def embeds_induced(pattern: Graph, host: Graph) -> bool:
    return find_induced_embedding(pattern, host) is not None


def is_free(g: Graph, family) -> bool:
    """True iff no member of ``family`` embeds into ``g`` as an induced subgraph."""
    return all(find_induced_embedding(h, g) is None for h in family)


def is_linear_forest(g: Graph) -> bool:
    """True iff every component is a path: acyclic with maximum degree <= 2."""
    return g.max_degree() <= 2 and g.is_acyclic()


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return find_induced_embedding(g, h) is not None


# -- canonical forms --------------------------------------------------------


def _refine(g: Graph, parts: list[list[int]]) -> list[list[int]]:
    while True:
        masks = [sum(1 << v for v in cell) for cell in parts]
        new: list[list[int]] = []
        changed = False
        for cell in parts:
            if len(cell) == 1:
                new.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((g.mask(v) & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    new.append(buckets[sig])
        if not changed:
            return new
        parts = new


def _discrete_orders(g: Graph, parts: list[list[int]]):
    parts = _refine(g, parts)
    target = next((i for i, cell in enumerate(parts) if len(cell) > 1), None)
    if target is None:
        yield tuple(cell[0] for cell in parts)
        return
    cell = parts[target]
    for v in cell:
        rest = [w for w in cell if w != v]
        child = parts[:target] + [[v], rest] + parts[target + 1 :]
        yield from _discrete_orders(g, child)


def _encode(g: Graph, order: tuple[int, ...]) -> int:
    code = 0
    for a in range(len(order)):
        ma = g.mask(order[a])
        for b in range(a + 1, len(order)):
            code = (code << 1) | (ma >> order[b] & 1)
    return code


def canonical_form(g: Graph) -> Graph:
    """``g`` relabelled into its canonical form.

    Two graphs are isomorphic exactly when their forms are equal, so the
    form is a dictionary key for an isomorphism class. Edgeless and complete
    graphs, the empty graph included, are their own forms.
    """
    if g.edge_count == 0 or g.is_complete():
        return g
    best_code = None
    best_order = None
    # the first refinement pass splits the single cell by degree
    for order in _discrete_orders(g, [list(range(g.n))]):
        code = _encode(g, order)
        if best_code is None or code < best_code:
            best_code, best_order = code, order
    return g.relabel(best_order)
