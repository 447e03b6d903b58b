"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against raw edge lists with its
own traversal code, so a bug in the library's search strategies cannot
hide inside the oracle that checks them. The exceptions say so in their
docstrings: ``enumerate_all_graphs`` is a test corpus assembled from the
library's own connected enumeration, ``reassemble`` and the ``*_by_hosts``
searches build the library's generators and run its matcher, and
``normalize_min_fvs`` states a claim of the paper with the library's
solvers, and ``plain_cfvs_walk`` accepts with the library's mask tests,
since what it checks is the order and the count of the walk.
``as_networkx`` only hands a graph to networkx, whose own algorithms are
the oracle there.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations


def edge_set(g) -> set[tuple[int, int]]:
    return {(u, v) for u, v in g.edges()}


def as_networkx(g):
    """``g`` as a networkx graph on the nodes 0..n-1, added in order, for networkx's oracles."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def dfs_is_acyclic(n: int, edges: set[tuple[int, int]], keep=None) -> bool:
    """Cycle detection with an explicit DFS stack and parent tracking."""
    keep = set(range(n)) if keep is None else set(keep)
    adj = {v: [] for v in keep}
    for u, v in edges:
        if u in keep and v in keep:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    for root in keep:
        if root in seen:
            continue
        stack = [(root, -1)]
        seen.add(root)
        while stack:
            node, parent = stack.pop()
            for w in adj[node]:
                if w == parent:
                    continue
                if w in seen:
                    return False
                seen.add(w)
                stack.append((w, node))
    return True


def reachable(n: int, edges: set[tuple[int, int]], start: int, keep=None) -> set[int]:
    keep = set(range(n)) if keep is None else set(keep)
    adj = {v: set() for v in keep}
    for u, v in edges:
        if u in keep and v in keep:
            adj[u].add(v)
            adj[v].add(u)
    out = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in out:
                    out.add(w)
                    nxt.append(w)
        frontier = nxt
    return out


def is_connected_subset(n: int, edges, subset) -> bool:
    subset = set(subset)
    if not subset:
        return False
    start = min(subset)
    return reachable(n, edges, start, subset) == subset


def naive_min_fvs(g) -> int:
    n, edges = g.n, edge_set(g)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if dfs_is_acyclic(n, edges, keep=set(range(n)) - set(combo)):
                return k
    raise AssertionError("unreachable")


def naive_min_cfvs(g) -> int:
    n, edges = g.n, edge_set(g)
    if dfs_is_acyclic(n, edges):
        return 0
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            if not is_connected_subset(n, edges, combo):
                continue
            if dfs_is_acyclic(n, edges, keep=set(range(n)) - set(combo)):
                return k
    raise AssertionError("unreachable")


def naive_min_ds(g) -> int:
    n, edges = g.n, edge_set(g)
    closed = {v: {v} for v in range(n)}
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            cover = set()
            for v in combo:
                cover |= closed[v]
            if len(cover) == n:
                return k
    raise AssertionError("unreachable")


def naive_min_cds(g) -> int:
    n, edges = g.n, edge_set(g)
    closed = {v: {v} for v in range(n)}
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            cover = set()
            for v in combo:
                cover |= closed[v]
            if len(cover) == n and is_connected_subset(n, edges, combo):
                return k
    raise AssertionError("unreachable")


def floyd_warshall(g):
    n = g.n
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for m in range(n):
        for a in range(n):
            dam = dist[a][m]
            if dam == math.inf:
                continue
            row = dist[a]
            for b in range(n):
                alt = dam + dist[m][b]
                if alt < row[b]:
                    row[b] = alt
    return dist


def _degrees(n, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _degree_multiset(n, edges):
    return sorted(_degrees(n, edges))


def vertices_with_degree(g, d: int) -> tuple[int, ...]:
    """The vertices of degree ``d`` in ascending order, counted off the edge list."""
    return tuple(v for v, k in enumerate(_degrees(g.n, g.edges())) if k == d)


def is_linear_forest(g) -> bool:
    """Every component is a path: acyclic, with maximum degree at most 2."""
    return max(_degrees(g.n, g.edges()), default=0) <= 2 and dfs_is_acyclic(g.n, edge_set(g))


def is_cycle_graph(g) -> bool:
    """A connected graph on at least 3 vertices with every degree 2."""
    edges = edge_set(g)
    return (
        g.n >= 3
        and all(k == 2 for k in _degrees(g.n, edges))
        and reachable(g.n, edges, 0) == set(range(g.n))
    )


def perm_isomorphic(g, h) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    ge, he = edge_set(g), edge_set(h)
    if _degree_multiset(g.n, ge) != _degree_multiset(h.n, he):
        return False
    for perm in permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in he for u, v in ge):
            return True
    return False


def subset_embedding_exists(pattern, host) -> bool:
    """Exhaustive induced-embedding oracle: every host subset of the right
    size, then every bijection onto it."""
    k = pattern.n
    if k == 0:
        return True
    if k > host.n:
        return False
    pe = edge_set(pattern)
    for combo in combinations(range(host.n), k):
        sub_edges = {
            (a, b)
            for a in range(k)
            for b in range(a + 1, k)
            if host.has_edge(combo[a], combo[b])
        }
        if len(sub_edges) != len(pe):
            continue
        for perm in permutations(range(k)):
            mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pe}
            if mapped == sub_edges:
                return True
    return False


def enumerate_all_graphs(n: int):
    """All graphs (connected or not) on exactly ``n`` vertices, up to isomorphism.

    Assembled as multisets of connected pieces, one per partition of n.
    """
    from pocfvs import Graph
    from pocfvs.harness import enumerate_connected
    from pocfvs.iso import canonical_form

    def partitions(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first, *rest)

    out = {}
    for shape in partitions(n, n):
        pools = [enumerate_connected(k) for k in shape]

        # choose one graph per part; identical part sizes need multisets
        def assemble(idx: int, acc, last_pick):
            if idx == len(shape):
                out.setdefault(canonical_form(acc), acc)
                return
            for pick, g in enumerate(pools[idx]):
                if idx > 0 and shape[idx] == shape[idx - 1] and pick < last_pick:
                    continue
                assemble(idx + 1, acc + g, pick)

        assemble(0, Graph(0), 0)
    return [out[c] for c in sorted(out, key=Graph.edges)]


def canonical_form_exhaustive(g):
    """Canonical form by visiting every leaf of the refinement tree.

    The ordered partition is refined until each vertex's neighbour counts
    into every cell agree within its cell; the first non-singleton cell is
    then split by individualizing each of its vertices in turn. Of all the
    discrete orders reached, the first whose upper-triangle adjacency bits,
    read row by row, form the least integer gives the form. No leaf is
    pruned, so symmetric graphs cost up to n! leaves; edgeless and complete
    graphs, the only ones where every order is a leaf, are their own forms.
    """
    from pocfvs import Graph

    n, edges = g.n, sorted(edge_set(g))
    if not edges or len(edges) == n * (n - 1) // 2:
        return Graph(n, edges)
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def refine(parts):
        while True:
            masks = [sum(1 << v for v in cell) for cell in parts]
            new, changed = [], False
            for cell in parts:
                buckets = {}
                for v in cell:
                    sig = tuple((adj[v] & m).bit_count() for m in masks)
                    buckets.setdefault(sig, []).append(v)
                changed |= len(buckets) > 1
                new.extend(buckets[sig] for sig in sorted(buckets))
            if not changed:
                return new
            parts = new

    def leaves(parts):
        parts = refine(parts)
        target = next((i for i, cell in enumerate(parts) if len(cell) > 1), None)
        if target is None:
            yield tuple(cell[0] for cell in parts)
            return
        cell = parts[target]
        for v in cell:
            rest = [w for w in cell if w != v]
            yield from leaves(parts[:target] + [[v], rest] + parts[target + 1 :])

    def encode(order):
        code = 0
        for a in range(n):
            for b in range(a + 1, n):
                code = (code << 1) | (adj[order[a]] >> order[b] & 1)
        return code

    best = min(leaves([list(range(n))]), key=encode)
    pos = {v: i for i, v in enumerate(best)}
    return Graph(n, [(pos[u], pos[v]) for u, v in edges])


def tetrachotomy_by_hosts(h):
    """``(verdict, constant)`` of one forbidden graph, by embedding it in each host.

    Class iv unless h is a linear forest; class i when h embeds in P_3;
    class ii when h embeds in P_5 + s*P_1 or in s*P_3, with the smaller of
    the two additive constants over the least such s (h has n vertices, so
    s <= n suffices); class iii, with constant 4(2n + 1), otherwise. Each
    host is built and searched with the library's induced matcher.
    """
    from pocfvs.constructive import p5sp1_constant, sp3_constant
    from pocfvs.generators import path
    from pocfvs.iso import embeds_induced

    n = max(1, h.n)
    if not is_linear_forest(h):
        return "class-iv", None
    if embeds_induced(h, path(3)):
        return "class-i", 0
    s_p5 = next((s for s in range(n + 1) if embeds_induced(h, path(5) + s * path(1))), None)
    s_p3 = next((s for s in range(1, n + 1) if embeds_induced(h, s * path(3))), None)
    constants = [f(s) for f, s in ((p5sp1_constant, s_p5), (sp3_constant, s_p3)) if s is not None]
    if constants:
        return "class-ii", min(constants)
    return "class-iii", 4 * (2 * h.n + 1)


def pair_bullet_by_hosts(h1, h2):
    """The catalog reason that holds for a pair, or None, by embedding in hosts.

    One member is a linear forest, or the members embed (in either role
    order) in a triangle tadpole and a double short-leg spider, or in a
    double triangle tadpole and a short-leg spider. The tail and the long
    leg have n + c vertices for a member with n vertices and c components:
    an embedding can be slid along the tail or leg until at most one gap
    vertex precedes each component's run, so a longer host embeds nothing
    more. Each host is searched with the library's induced matcher.
    """
    from pocfvs.generators import spider, tadpole
    from pocfvs.iso import embeds_induced

    if is_linear_forest(h1) or is_linear_forest(h2):
        return "one member is a linear forest"
    for a, b in ((h1, h2), (h2, h1)):
        na = a.n + len(a.mask_components(a.full_mask))
        nb = b.n + len(b.mask_components(b.full_mask))
        if embeds_induced(a, tadpole(na, 3)) and embeds_induced(b, 2 * spider(nb, 1, 1)):
            return "members embed in a triangle tadpole and a double short-leg spider"
        if embeds_induced(a, 2 * tadpole(na, 3)) and embeds_induced(b, spider(nb, 1, 1)):
            return "members embed in a double triangle tadpole and a short-leg spider"
    return None


def must_contain_by_hosts(family):
    """``(double_tadpole_member, double_spider_member)``, each the first index or None.

    A member of n vertices qualifies when it embeds in 2 * tadpole(n, 3),
    or in 2 * spider(n, n, n); these monotone hosts are as long as any
    embedding of it needs.
    """
    from pocfvs.generators import spider, tadpole
    from pocfvs.iso import embeds_induced

    hosts = [lambda n: 2 * tadpole(n, 3), lambda n: 2 * spider(n, n, n)]
    return tuple(
        next((i for i, h in enumerate(family) if embeds_induced(h, host(max(1, h.n)))), None)
        for host in hosts
    )


def reassemble(profile):
    """Disjoint union of a structure profile's recorded parts, built by the
    library's generators: paths, then tadpoles, then spiders."""
    from pocfvs import Graph
    from pocfvs.generators import path, spider, tadpole

    out = Graph(0)
    for k in profile.linear_forest:
        out = out + path(k)
    for t, r in profile.tadpoles:
        out = out + tadpole(t, r)
    for a, b, c in profile.spiders:
        out = out + spider(a, b, c)
    return out


def lies_on_cycle(g, v: int) -> bool:
    """True iff some cycle of ``g`` passes through ``v``."""
    rest = g.full_mask & ~(1 << v)
    for comp in g.mask_components(rest):
        if (comp & g.mask(v)).bit_count() >= 2:
            return True
    return False


def plain_first_subset(universe_mask: int, accept, start: int = 0):
    """The subset walk with nothing pruned: (first accepted mask or None, sets tried).

    Every subset of ``universe_mask`` is tried, by size from ``start``,
    lexicographically within a size.
    """
    bits = [1 << v for v in range(universe_mask.bit_length()) if universe_mask >> v & 1]
    explored = 0
    for k in range(start, len(bits) + 1):
        for m in map(sum, combinations(bits, k)):
            explored += 1
            if accept(m):
                return m, explored
    return None, explored


def plain_cfvs_walk(g, start: int):
    """``solvers._cfvs_walk`` by the plain walk: (witness mask, sets tried)."""
    full = g.full_mask
    return plain_first_subset(
        full,
        lambda c: (not c or g.mask_is_connected(c)) and g.mask_is_acyclic(full & ~c),
        start,
    )


def normalize_min_fvs(g, limit: int | None = None):
    """A minimum FVS whose vertices all have degree >= 3 and lie on a cycle.

    The paper claims such a set exists for every connected non-cycle graph.
    The search tries every set of size fvs(g) lexicographically, and
    failure raises ``ContradictionError`` because it would falsify that
    claim.
    """
    from pocfvs import ContradictionError, InvalidInputError
    from pocfvs.graph import iter_bits
    from pocfvs.solvers import SolveResult, _guard, min_fvs

    _guard(g, limit)
    if not g.is_connected():
        raise InvalidInputError("normalization needs a connected graph")
    if is_cycle_graph(g):
        raise InvalidInputError("normalization is undefined for cycles")
    k = min_fvs(g, limit).optimum
    full = g.full_mask
    good = sum(1 << v for v in range(g.n) if g.degree(v) >= 3 and lies_on_cycle(g, v))
    explored = 0
    for m in map(sum, combinations([1 << v for v in range(g.n)], k)):
        explored += 1
        if not m & ~good and g.mask_is_acyclic(full & ~m):
            return SolveResult(k, frozenset(iter_bits(m)), explored)
    raise ContradictionError(
        "no minimum feedback vertex set with all vertices of degree >= 3 on cycles; "
        f"graph n={g.n} edges={g.edges()}"
    )


def orbit_roots_by_closure(n: int, perms) -> list[int]:
    """Each mask on ``n`` vertices mapped to the least mask of its orbit under ``perms``.

    The generators are closed into the whole group, identity included, and
    each mask's least image under an element of the group is its root.
    """
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = tuple(p[v] for v in x)
            if y not in group:
                group.add(y)
                frontier.append(y)

    def image(g, s):
        return sum(1 << g[v] for v in range(n) if s >> v & 1)

    return [min(image(g, s) for g in group) for s in range(1 << n)]
