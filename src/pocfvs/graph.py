"""Immutable undirected simple graphs on dense integer vertices.

Every structure in this package is built on :class:`Graph`. Instances are
immutable after construction and hashable, so they can be shared between
threads and used as dictionary keys. Adjacency is kept twice: as sorted
neighbor tuples (for iteration) and as per-vertex bitmasks (for the
subset-heavy exhaustive searches in the solver and matcher modules).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator

from .errors import InvalidInputError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    Self-loops are rejected and parallel edges collapse. All operations are
    pure; anything that looks like a mutation returns a new graph.
    """

    __slots__ = ("n", "_nbrs", "_masks", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidInputError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._nbrs = tuple(tuple(sorted(s)) for s in adj)
        self._masks = tuple(sum(1 << w for w in s) for s in self._nbrs)
        self._m = sum(len(s) for s in self._nbrs) // 2

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._m

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in range(self.n) for v in self._nbrs[u] if u < v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def mask(self, v: int) -> int:
        return self._masks[v]

    def closed_mask(self, v: int) -> int:
        return self._masks[v] | (1 << v)

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self._nbrs)

    def max_degree(self) -> int:
        return max((len(s) for s in self._nbrs), default=0)

    def vertices_with_degree(self, d: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if len(self._nbrs[v]) == d)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[u] >> v & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"

    # -- construction -----------------------------------------------------

    def __add__(self, other: "Graph") -> "Graph":
        return disjoint_union(self, other)

    def __rmul__(self, s: int) -> "Graph":
        if not isinstance(s, int) or s < 0:
            raise InvalidInputError(f"copy count must be a non-negative integer, got {s!r}")
        n, edges = self.n, self.edges()
        return Graph(s * n, [(u + k * n, v + k * n) for k in range(s) for u, v in edges])

    def relabel(self, order: Iterable[int]) -> "Graph":
        """Return the graph with old vertex ``order[i]`` renamed to ``i``."""
        order = tuple(order)
        if sorted(order) != list(range(self.n)):
            raise InvalidInputError("relabel order must be a permutation of the vertices")
        pos = {v: i for i, v in enumerate(order)}
        return Graph(self.n, ((pos[u], pos[v]) for u, v in self.edges()))

    def check_vertex_set(self, s: Iterable[int]) -> frozenset[int]:
        out = frozenset(s)
        for v in out:
            if not (isinstance(v, int) and 0 <= v < self.n):
                raise InvalidInputError(f"vertex {v!r} is not in 0..{self.n - 1}")
        return out

    def induced_subgraph(self, s: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Return the subgraph induced by ``s`` plus the kept-vertex order.

        New vertex ``i`` corresponds to ``kept[i]`` in the original graph;
        ``kept`` is sorted ascending, which fixes the index mapping.
        """
        kept = tuple(sorted(self.check_vertex_set(s)))
        pos = {v: i for i, v in enumerate(kept)}
        edges = [(pos[u], pos[v]) for u in kept for v in self._nbrs[u] if v in pos and u < v]
        return Graph(len(kept), edges), kept

    def without(self, s: Iterable[int]) -> "Graph":
        """Induced subgraph on the complement of ``s`` (index mapping dropped)."""
        drop = self.check_vertex_set(s)
        return self.induced_subgraph(v for v in range(self.n) if v not in drop)[0]

    # -- connectivity and cycles ------------------------------------------

    def mask_reach(self, mask: int) -> int:
        """Bitmask of every vertex adjacent to a vertex of ``mask``."""
        reach = 0
        while mask:
            low = mask & -mask
            reach |= self._masks[low.bit_length() - 1]
            mask ^= low
        return reach

    def mask_component(self, start: int, mask: int) -> int:
        """Bitmask of the component of ``start`` inside the induced ``mask``."""
        comp = 1 << start
        frontier = comp
        while frontier:
            frontier = self.mask_reach(frontier) & mask & ~comp
            comp |= frontier
        return comp

    def mask_components(self, mask: int) -> list[int]:
        """Component bitmasks of the induced subgraph, ordered by least vertex."""
        out = []
        rest = mask
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = self.mask_component(start, rest)
            out.append(comp)
            rest &= ~comp
        return out

    def mask_is_connected(self, mask: int) -> bool:
        if mask == 0:
            return False
        start = (mask & -mask).bit_length() - 1
        return self.mask_component(start, mask) == mask

    def mask_edge_count(self, mask: int) -> int:
        return sum((self._masks[v] & mask).bit_count() for v in iter_bits(mask)) // 2

    def mask_is_acyclic(self, mask: int) -> bool:
        # a graph is a forest iff edges = vertices - components
        return self.mask_edge_count(mask) == mask.bit_count() - len(self.mask_components(mask))

    def connected_components(self) -> list[frozenset[int]]:
        return [frozenset(iter_bits(m)) for m in self.mask_components(self.full_mask)]

    def is_connected(self) -> bool:
        """True for exactly one component; the empty graph counts as disconnected."""
        return self.n >= 1 and self.mask_is_connected(self.full_mask)

    def is_acyclic(self) -> bool:
        return self.mask_is_acyclic(self.full_mask)

    def is_cycle_graph(self) -> bool:
        return self.n >= 3 and self.is_connected() and all(d == 2 for d in self.degrees())

    def is_complete(self) -> bool:
        return self._m == self.n * (self.n - 1) // 2

    # -- distances ---------------------------------------------------------

    def bfs_distances(self, source: int) -> list[float]:
        dist: list[float] = [math.inf] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._nbrs[u]:
                if dist[w] == math.inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def distance_matrix(self) -> tuple[tuple[float, ...], ...]:
        """All-pairs hop distances, ``math.inf`` for unreachable pairs."""
        return tuple(tuple(self.bfs_distances(v)) for v in range(self.n))

    def diameter(self) -> int:
        if not self.is_connected():
            raise InvalidInputError("diameter is defined for connected graphs only")
        return int(max(max(row) for row in self.distance_matrix()))

    def shortest_path(self, u: int, v: int) -> tuple[int, ...]:
        """A shortest u-v path, ties broken by smallest predecessor index."""
        self.check_vertex_set((u, v))
        dist = self.bfs_distances(u)
        if dist[v] == math.inf:
            raise InvalidInputError(f"vertices {u} and {v} are in different components")
        path = [v]
        cur = v
        while cur != u:
            cur = min(w for w in self._nbrs[cur] if dist[w] == dist[cur] - 1)
            path.append(cur)
        return tuple(reversed(path))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; ``g2``'s vertices are shifted up by ``g1.n``."""
    shift = g1.n
    edges = list(g1.edges()) + [(u + shift, v + shift) for u, v in g2.edges()]
    return Graph(g1.n + g2.n, edges)
