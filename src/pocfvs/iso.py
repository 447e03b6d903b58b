"""Induced-subgraph matching, isomorphism, and canonical labeling.

The matcher is a backtracking search over pattern vertices in a
most-constrained-first order; host candidates are filtered through bitmask
intersection of the adjacency and non-adjacency constraints imposed by the
already-matched vertices, so both edges and non-edges of the pattern are
preserved (induced semantics).

Canonical forms come from one search over the refinement tree on cell
bitmasks, pruned by the automorphisms it finds (McKay and Piperno,
"Practical graph isomorphism, II", 2014). The graph relabelled by the leaf
order with the least adjacency code is the canonical form, and equal forms
characterize isomorphism. Pruning skips only branches that are images of
explored ones, so the least code is that of the exhaustive search.
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


def _refine(masks: tuple[int, ...], cells: list[int], split: list[int]) -> list[int]:
    """Refine the ordered partition ``cells`` until it is equitable.

    A round splits each cell by its vertices' neighbour counts into the
    cells in ``split``, in partition order, and orders the pieces by those
    counts. Counts into other cells are constant within a cell: cells not
    split in the round before, and the last piece of a split cell.
    """
    width = len(masks).bit_length()
    while split:
        out: list[int] = []
        pieces: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            buckets: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                m = masks[low.bit_length() - 1]
                sig = 0
                for s in split:
                    sig = sig << width | (m & s).bit_count()
                buckets[sig] = buckets.get(sig, 0) | low
            new = [buckets[sig] for sig in sorted(buckets)]
            out += new
            pieces += new[:-1]
        cells, split = out, pieces
    return cells


def _search(masks: tuple[int, ...]) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """The least leaf code, a vertex order reaching it, and automorphisms found.

    A leaf's code is the upper-triangle adjacency bits of the graph
    relabelled by its order, row by row. A leaf whose code equals the first
    or the best leaf's gives an automorphism ``p`` (``v`` maps to ``p[v]``)
    and sends the search back to where the two paths part; a child in the
    orbit of an explored sibling under the automorphisms fixing the path is
    skipped. The automorphisms returned generate the automorphism group.
    """
    n = len(masks)
    auts: list[tuple[int, ...]] = []
    leaves: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []  # first, best

    def leaf(cells: list[int], path: tuple[int, ...]) -> int:
        order = tuple(c.bit_length() - 1 for c in cells)
        code = 0
        for i, v in enumerate(order):
            m = masks[v]
            for w in order[i + 1 :]:
                code = code << 1 | m >> w & 1
        if not leaves:
            leaves[:] = [(code, order, path)] * 2
        for known, known_order, known_path in leaves:
            if code == known and order != known_order:
                auts.append(tuple(b for _, b in sorted(zip(known_order, order))))
                return next(d for d, (a, b) in enumerate(zip(known_path, path)) if a != b)
        if code < leaves[1][0]:
            leaves[1] = (code, order, path)
        return len(path)

    def visit(cells: list[int], path: tuple[int, ...]) -> int:
        """Explore a node; return the depth the search resumes at."""
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            return leaf(cells, path)
        cell = cells[target]
        explored = 0
        for v in iter_bits(cell):
            if explored and auts:
                gens = [p for p in auts if all(p[u] == u for u in path)]
                orbit, frontier = explored, explored
                while frontier:
                    frontier = sum({1 << p[w] for p in gens for w in iter_bits(frontier)}) & ~orbit
                    orbit |= frontier
                if orbit >> v & 1:
                    continue
            explored |= 1 << v
            child = cells[:target] + [1 << v, cell ^ 1 << v] + cells[target + 1 :]
            back = visit(_refine(masks, child, [1 << v]), path + (v,))
            if back < len(path):
                return back
        return len(path)

    full = (1 << n) - 1
    visit(_refine(masks, [full] if n else [], [full]), ())
    code, order, _ = leaves[1]
    return code, order, auts


def canonical_form(g: Graph) -> Graph:
    """``g`` relabelled into its canonical form.

    Two graphs are isomorphic exactly when their forms are equal, so the
    form is a dictionary key for an isomorphism class.
    """
    return g.relabel(_search(g._masks)[1])
