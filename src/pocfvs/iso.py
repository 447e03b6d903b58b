"""Induced-subgraph matching, isomorphism, and canonical labeling.

The matcher is a backtracking search over pattern vertices in a
most-constrained-first order; host candidates are filtered through bitmask
intersection of the adjacency and non-adjacency constraints imposed by the
already-matched vertices, so both edges and non-edges of the pattern are
preserved (induced semantics). A pattern compiles once into its matching
order and per-position constraint lists; callers that test one pattern or
family against many hosts hold the compiled form (``free_filter``), so
only the host-dependent degree masks are built per host. Twins are
vertices with the same neighbours apart from each other. A pattern vertex
is matched only above the image of its latest earlier twin: swapping the
images of two pattern twins gives another embedding, so the least
embedding, the one the search returns, already lists twin images in
increasing order. An anchored pattern starts its order at one vertex, and
its search pins that position to one host vertex. Compiled once per
orbit of the pattern's automorphism group, it tells whether some copy
passes through a given host vertex; the level filter asks this of each new
vertex.

Canonical forms come from one search over the refinement tree on cell
bitmasks, pruned by the automorphisms it finds (McKay and Piperno,
"Practical graph isomorphism, II", 2014). The graph relabelled by the leaf
order with the least adjacency code is the canonical form, and equal forms
characterize isomorphism. Pruning skips only branches that are images of
explored ones, so the least code is that of the exhaustive search.
Refinement takes shortcuts that keep its partitions: a round with one
splitter cell counts neighbours with one popcount, a singleton splitter
{u} cuts each cell with two mask ANDs, and a cell whose vertices all count
alike stays whole unsorted. When the refined root partition is already
discrete, it is the only leaf, and the search returns it at once. When
every cell of it is a twin class, the search returns at once too, with
each cell in ascending order and the transpositions of twins as the group.

Level growth asks only for codes, and many of its candidates are one graph
under different labels. ``_least_code`` answers a tree search from a memo
keyed by the code of the graph relabelled by its root partition, each cell
listed ascending. Equal keys mean the two graphs coincide after that
relabelling, so they are isomorphic, and the least leaf code is an
isomorphism invariant: they share it. A memo serves one vertex count,
since codes of different orders can be equal numerically.
"""

from __future__ import annotations

from .graph import Graph, iter_bits


def _matching_order(pattern: Graph, first: int | None = None) -> tuple[int, ...]:
    """Pattern vertices, most-constrained first, deterministic ties; ``first`` leads if given."""
    n = pattern.n
    order: list[int] = [] if first is None else [first]
    placed = 0 if first is None else 1 << first
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


class _Pattern:
    """A pattern compiled once for induced matching against many hosts.

    Holds the matching order, the pattern degree at each position, the
    earlier positions each position must be adjacent and non-adjacent to,
    and the latest earlier position holding a twin of it (-1 if none).
    Compiled at an ``anchor``, the order starts there, so that
    :meth:`embed` can pin position 0 to one host vertex. No twin bound then
    points at position 0: a swap with it would move the pin, and the level
    filter pins the host's largest vertex, above which no twin can map.
    """

    __slots__ = ("n", "edge_count", "order", "degrees", "adj", "non_adj", "twin")

    def __init__(self, pattern: Graph, anchor: int | None = None):
        self.n, self.edge_count = pattern.n, pattern.edge_count
        self.order = order = _matching_order(pattern, anchor)
        self.degrees = tuple(pattern.degree(p) for p in order)
        self.adj = tuple(
            tuple(j for j in range(i) if pattern.has_edge(p, order[j])) for i, p in enumerate(order)
        )
        self.non_adj = tuple(
            tuple(j for j in range(i) if not pattern.has_edge(p, order[j]))
            for i, p in enumerate(order)
        )
        masks = pattern._masks
        first = 0 if anchor is None else 1
        self.twin = tuple(
            max(
                (
                    j
                    for j in range(first, i)
                    if masks[p] & ~(1 << order[j]) == masks[order[j]] & ~(1 << p)
                ),
                default=-1,
            )
            for i, p in enumerate(order)
        )

    def degree_masks(self, masks: tuple[int, ...]) -> dict[int, int]:
        """For each pattern degree d, the mask of host vertices of degree at least d."""
        return {
            d: sum(1 << v for v, m in enumerate(masks) if m.bit_count() >= d)
            for d in set(self.degrees)
        }

    def find(self, host: Graph) -> dict[int, int] | None:
        """First induced embedding into ``host``, or ``None``; see :func:`find_induced_embedding`."""
        n = self.n
        if n == 0:
            return {}
        if n > host.n or self.edge_count > host.edge_count:
            return None
        masks = host._masks
        assignment = self.embed(masks, self.degree_masks(masks))
        return None if assignment is None else dict(zip(self.order, assignment))

    def embed(self, masks: tuple[int, ...], by_degree: dict[int, int], pin: int = -1):
        """The least embedding's host vertex at each position, or ``None``.

        ``by_degree`` is :meth:`degree_masks` of the host ``masks``, and
        position 0 takes only host vertices in the mask ``pin``.
        """
        n = self.n
        feasible = [by_degree[d] for d in self.degrees]
        feasible[0] &= pin
        adj, non_adj, twin = self.adj, self.non_adj, self.twin
        assignment = [0] * n

        def extend(idx: int, used: int) -> bool:
            if idx == n:
                return True
            cands = feasible[idx] & ~used
            if twin[idx] >= 0:  # above the image of the latest earlier twin
                cands &= -(2 << assignment[twin[idx]])
            for j in adj[idx]:
                cands &= masks[assignment[j]]
                if not cands:
                    return False
            for j in non_adj[idx]:
                cands &= ~masks[assignment[j]]
                if not cands:
                    return False
            while cands:
                low = cands & -cands
                assignment[idx] = low.bit_length() - 1
                if extend(idx + 1, used | low):
                    return True
                cands ^= low
            return False

        return assignment if extend(0, 0) else None


def find_induced_embedding(pattern: Graph, host: Graph) -> dict[int, int] | None:
    """First induced embedding of ``pattern`` into ``host``, or ``None``.

    The returned map preserves both adjacency and non-adjacency. The search
    is complete: ``None`` means no induced embedding exists.
    """
    return _Pattern(pattern).find(host)


def embeds_induced(pattern: Graph, host: Graph) -> bool:
    return find_induced_embedding(pattern, host) is not None


def is_free(g: Graph, family) -> bool:
    """True iff no member of ``family`` embeds into ``g`` as an induced subgraph."""
    return free_filter(family)(g)


def free_filter(family):
    """The test :func:`is_free` runs against ``family``, compiling each member once.

    Hold it to test many graphs against the same family.
    """
    patterns = [_Pattern(h) for h in family]
    return lambda g: all(p.find(g) is None for p in patterns)


def _copies_through(family):
    """The test whether a member of ``family`` has an induced copy in a host through vertex ``v``.

    A copy through ``v`` maps some pattern vertex to it, and composing the
    copy with an automorphism of the pattern moves that vertex anywhere in
    its orbit. So each member is compiled once per orbit, anchored at the
    orbit's least vertex, with position 0 pinned to ``v``; the degree masks
    are built once per host and member. The empty pattern has no vertex,
    so no copy of it passes through ``v``.
    """
    members = [[_Pattern(h, a) for a in _orbit_anchors(h)] for h in family if h.n]

    def through(g: Graph, v: int) -> bool:
        masks = g._masks
        for anchored in members:
            lead = anchored[0]
            if lead.n > g.n or lead.edge_count > g.edge_count:
                continue
            by_degree = lead.degree_masks(masks)
            if any(p.embed(masks, by_degree, 1 << v) is not None for p in anchored):
                return True
        return False

    return through


def _orbit_anchors(g: Graph) -> list[int]:
    """The least vertex of each orbit of ``g``'s automorphism group, ascending."""
    gens = _search(g._masks)[2]
    anchors: list[int] = []
    seen = 0
    for v in range(g.n):
        if not seen >> v & 1:
            anchors.append(v)
            seen |= _orbit(gens, 1 << v)
    return anchors


def _orbit(gens, mask: int) -> int:
    """The union of the orbits of the vertices in ``mask`` under the group ``gens`` generate."""
    orbit = frontier = mask
    while frontier:
        frontier = sum({1 << p[w] for p in gens for w in iter_bits(frontier)}) & ~orbit
        orbit |= frontier
    return orbit


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
    split in the round before, and the last piece of a split cell. A round
    with one splitter counts with one popcount, and a singleton splitter
    {u} splits a cell into its non-neighbours and then its neighbours of u.
    """
    width = len(masks).bit_length()
    while split:
        out: list[int] = []
        pieces: list[int] = []
        if len(split) == 1 and not split[0] & (split[0] - 1):
            m = masks[split[0].bit_length() - 1]
            for cell in cells:
                low, high = cell & ~m, cell & m
                if low and high:
                    out += (low, high)
                    pieces.append(low)
                else:
                    out.append(cell)
            cells, split = out, pieces
            continue
        one = split[0] if len(split) == 1 else 0
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
                if one:
                    sig = (m & one).bit_count()
                else:
                    sig = 0
                    for s in split:
                        sig = sig << width | (m & s).bit_count()
                buckets[sig] = buckets.get(sig, 0) | low
            if len(buckets) == 1:
                out.append(cell)
                continue
            new = [buckets[sig] for sig in sorted(buckets)]
            out += new
            pieces += new[:-1]
        cells, split = out, pieces
    return cells


def _root(
    masks: tuple[int, ...]
) -> tuple[list[int], tuple[int, ...], list[tuple[int, int]] | None]:
    """The refined root partition, its vertices cell by cell ascending, and its twin pairs.

    The pairs are each vertex of a cell with its cell's least vertex u, or
    ``None`` when the search does not end at the root. A discrete root is
    the only leaf, and has no pairs. When every vertex of each root cell is
    a twin of u (``masks[u]`` and ``masks[v]`` agree off ``{u, v}``), no
    leaf is visited either. Such a cell cannot hold both an adjacent and a
    non-adjacent twin of u, so it is one twin class. Individualising a twin
    splits no cell, since twins see every other vertex alike, so the first
    leaf lists each cell in ascending order. Every other leaf is its image
    under twin swaps and has the same code, so the search would return
    this first leaf. The partition is invariant under automorphisms, so
    the group is the product of each cell's symmetric group, and the
    transpositions (u v) generate it.
    """
    n = len(masks)
    full = (1 << n) - 1
    root = _refine(masks, [full], [full]) if n else []
    if len(root) == n:
        return root, tuple(c.bit_length() - 1 for c in root), []
    order = tuple(v for c in root for v in iter_bits(c))
    pairs = [((c & -c).bit_length() - 1, v) for c in root for v in iter_bits(c & (c - 1))]
    if all(masks[u] & ~(1 << v) == masks[v] & ~(1 << u) for u, v in pairs):
        return root, order, pairs
    return root, order, None


def _search(masks: tuple[int, ...]) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """The least leaf code, a vertex order reaching it, and automorphisms found.

    A leaf's code is the upper-triangle adjacency bits of the graph
    relabelled by its order, row by row. At a discrete or twin root
    (:func:`_root`) the root's order is the answer, and the group is
    generated by the twin transpositions. Otherwise :func:`_tree` searches.
    """
    root, order, pairs = _root(masks)
    if pairs is None:
        return _tree(masks, root)
    auts = []
    for u, v in pairs:
        p = list(range(len(masks)))
        p[u], p[v] = v, u
        auts.append(tuple(p))
    return _code(masks, order), order, auts


def _least_code(masks: tuple[int, ...], memo: dict[int, int]) -> int:
    """``_search(masks)[0]``, with tree searches answered from ``memo`` where it can.

    ``memo`` maps the code of a graph relabelled by its root order, cells
    ascending, to that graph's least code; hold one per vertex count, since
    codes of different orders can be equal. Equal keys mean the two graphs
    coincide after relabelling, so they are isomorphic and share the least
    code, which is an isomorphism invariant.
    """
    root, order, pairs = _root(masks)
    if pairs is not None:
        return _code(masks, order)
    key = _code(masks, order)
    code = memo.get(key)
    if code is None:
        code = memo[key] = _tree(masks, root)[0]
    return code


def _tree(
    masks: tuple[int, ...], root: list[int]
) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """:func:`_search` below a ``root`` partition that is neither discrete nor of twin classes.

    A leaf whose code equals the first or the best leaf's gives an
    automorphism ``p`` (``v`` maps to ``p[v]``) and sends the search back to
    where the two paths part; a child in the orbit of an explored sibling
    under the automorphisms fixing the path is skipped. The automorphisms
    returned generate the automorphism group.
    """
    n = len(masks)
    auts: list[tuple[int, ...]] = []
    leaves: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []  # first, best

    def leaf(cells: list[int], path: tuple[int, ...]) -> int:
        order = tuple(c.bit_length() - 1 for c in cells)
        code = _code(masks, order)
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
        if len(cells) == n:
            return leaf(cells, path)
        target = next(i for i, c in enumerate(cells) if c & (c - 1))
        cell = cells[target]
        explored = 0
        for v in iter_bits(cell):
            if explored and auts:
                gens = [p for p in auts if all(p[u] == u for u in path)]
                if _orbit(gens, explored) >> v & 1:
                    continue
            explored |= 1 << v
            child = cells[:target] + [1 << v, cell ^ 1 << v] + cells[target + 1 :]
            back = visit(_refine(masks, child, [1 << v]), path + (v,))
            if back < len(path):
                return back
        return len(path)

    visit(root, ())
    code, order, _ = leaves[1]
    return code, order, auts


def _code(masks: tuple[int, ...], order: tuple[int, ...]) -> int:
    """Upper-triangle adjacency bits of the graph relabelled by ``order``, row by row."""
    code = 0
    for i, v in enumerate(order):
        m = masks[v]
        for w in order[i + 1 :]:
            code = code << 1 | m >> w & 1
    return code


def canonical_form(g: Graph) -> Graph:
    """``g`` relabelled into its canonical form.

    Two graphs are isomorphic exactly when their forms are equal, so the
    form is a dictionary key for an isomorphism class.
    """
    return g.relabel(_search(g._masks)[1])
