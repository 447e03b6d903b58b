"""Immutable undirected simple graphs on dense integer vertices.

Every structure in this package is built on :class:`Graph`. Instances are
immutable after construction and hashable, so they can be shared between
threads and used as dictionary keys. Adjacency is one bitmask per vertex,
and every query, traversal and search runs on these masks. The component
and forest tests are one pass each. A component grows from one vertex,
popping one vertex at a time and adding its unreached neighbours in the
mask. The forest test grows each component from its least vertex the same
way, and stops at the first popped vertex that sees a reached neighbour
other than its parent, since that edge closes a cycle. A vertex set given
from outside enters as a mask through :meth:`Graph.vertex_mask`, which
validates it once.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from .errors import InvalidInputError, ResourceLimitError

# the largest order a graph may have; every vertex stores an n-bit adjacency
# mask, and the induced matcher recurses once per pattern vertex, which
# overflows the interpreter stack near 985
MAX_ORDER = 512


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

    __slots__ = ("n", "_masks", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not isinstance(n, int):
            raise InvalidInputError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise InvalidInputError(f"vertex count must be non-negative, got {n}")
        if n > MAX_ORDER:
            # n itself is not formatted: str() refuses an int of over 4,300 digits
            raise ResourceLimitError(f"graph has more than {MAX_ORDER} vertices")
        masks = [0] * n
        # a non-integer endpoint or an edge that is not a pair fails in the
        # comparison, the unpacking or the shift; no per-edge type test
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise InvalidInputError(f"self-loop at vertex {u}")
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        except InvalidInputError:  # a ValueError; its message stays
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"edges must be pairs of integer vertices: {exc}") from exc
        self.n = n
        self._masks = tuple(masks)
        self._m = sum(m.bit_count() for m in masks) // 2

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
        """Every edge once as ``(u, v)`` with ``u < v``, in ascending order."""
        # -(2 << u) keeps the neighbours above u
        return tuple((u, v) for u, m in enumerate(self._masks) for v in iter_bits(m & -(2 << u)))

    def mask(self, v: int) -> int:
        return self._masks[v]

    def closed_mask(self, v: int) -> int:
        return self._masks[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._masks)

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
        n = self.n
        # lazy, so Graph refuses an oversized order before any copy is made;
        # copies innermost, so an edgeless graph takes no pass over range(s)
        copies = ((u + k * n, v + k * n) for u, v in self.edges() for k in range(s))
        return Graph(s * n, copies)

    def relabel(self, order: Iterable[int]) -> "Graph":
        """Return the graph with old vertex ``order[i]`` renamed to ``i``."""
        order = tuple(order)
        if sorted(order) != list(range(self.n)):
            raise InvalidInputError("relabel order must be a permutation of the vertices")
        pos = [0] * self.n
        for i, v in enumerate(order):
            pos[v] = i
        masks = self._masks
        relabelled = (sum(1 << pos[w] for w in iter_bits(masks[v])) for v in order)
        return Graph._from_masks(tuple(relabelled))

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...]) -> "Graph":
        """The graph with these adjacency masks, taken as valid: symmetric, loop-free, in range."""
        g = object.__new__(cls)
        g.n = len(masks)
        g._masks = masks
        g._m = sum(m.bit_count() for m in masks) // 2
        return g

    def vertex_mask(self, s: Iterable[int]) -> int:
        """Bitmask of the vertex set ``s``; anything but a vertex is an input error."""
        mask = 0
        for v in s:
            if not (isinstance(v, int) and 0 <= v < self.n):
                raise InvalidInputError(f"vertex {v!r} is not in 0..{self.n - 1}")
            mask |= 1 << v
        return mask

    def without(self, s: Iterable[int]) -> "Graph":
        """Induced subgraph on the complement of ``s`` (index mapping dropped)."""
        return self.mask_subgraph(self.full_mask & ~self.vertex_mask(s))[0]

    def mask_subgraph(self, keep: int) -> tuple["Graph", tuple[int, ...]]:
        """The subgraph induced by the vertex mask ``keep``, taken as valid.

        Returns the subgraph and the kept vertices in ascending order: new
        vertex ``i`` is ``kept[i]`` of this graph.
        """
        kept = tuple(iter_bits(keep))
        pos = {v: i for i, v in enumerate(kept)}
        edges = [(pos[u], pos[v]) for u in kept for v in iter_bits(self._masks[u] & keep) if u < v]
        return Graph(len(kept), edges), kept

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
        masks = self._masks
        todo = 1 << start
        rest = mask & ~todo  # not reached yet
        while todo:
            low = todo & -todo
            new = masks[low.bit_length() - 1] & rest
            rest ^= new
            todo ^= low | new
        return (mask ^ rest) | 1 << start

    def mask_components(self, mask: int) -> list[int]:
        """Component bitmasks of the induced subgraph, ordered by least vertex."""
        out = []
        while mask:
            comp = self.mask_component((mask & -mask).bit_length() - 1, mask)
            out.append(comp)
            mask ^= comp
        return out

    def mask_is_connected(self, mask: int) -> bool:
        return mask != 0 and self.mask_component((mask & -mask).bit_length() - 1, mask) == mask

    def mask_edge_count(self, mask: int) -> int:
        masks = self._masks
        ends = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            ends += (masks[low.bit_length() - 1] & mask).bit_count()
        return ends // 2

    def mask_is_acyclic(self, mask: int) -> bool:
        """True when the subgraph induced by ``mask`` is a forest."""
        masks = self._masks
        rest = mask  # not reached yet
        while rest:
            # grow the component of the least unreached vertex
            todo = rest & -rest
            rest ^= todo
            while todo:
                low = todo & -todo
                nbrs = masks[low.bit_length() - 1] & mask
                new = nbrs & rest
                # in a forest a popped vertex has reached only its parent;
                # any other reached neighbour closes a cycle
                seen = nbrs ^ new
                if seen & (seen - 1):
                    return False
                rest ^= new
                todo ^= low | new
        return True

    def is_connected(self) -> bool:
        """True for exactly one component; the empty graph counts as disconnected."""
        return self.n >= 1 and self.mask_is_connected(self.full_mask)

    def is_acyclic(self) -> bool:
        return self.mask_is_acyclic(self.full_mask)

    def is_complete(self) -> bool:
        return self._m == self.n * (self.n - 1) // 2

    # -- distances ---------------------------------------------------------

    def _layers(self, source: int) -> list[int]:
        """BFS from ``source``: ``layers[d]`` masks the vertices at distance ``d``."""
        layers = [1 << source]
        seen = layers[0]
        while frontier := self.mask_reach(layers[-1]) & ~seen:
            layers.append(frontier)
            seen |= frontier
        return layers

    def diameter(self) -> int:
        if not self.is_connected():
            raise InvalidInputError("diameter is defined for connected graphs only")
        return max(len(self._layers(v)) for v in range(self.n)) - 1

    def shortest_path(self, u: int, v: int) -> tuple[int, ...]:
        """A shortest u-v path, ties broken by smallest predecessor index."""
        self.vertex_mask((u, v))
        layers = self._layers(u)
        dist = next((d for d, layer in enumerate(layers) if layer >> v & 1), None)
        if dist is None:
            raise InvalidInputError(f"vertices {u} and {v} are in different components")
        path = [v]
        for layer in reversed(layers[:dist]):
            back = self._masks[path[-1]] & layer
            path.append((back & -back).bit_length() - 1)
        return tuple(reversed(path))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; ``g2``'s vertices are shifted up by ``g1.n``."""
    shift = g1.n
    shifted = ((u + shift, v + shift) for u, v in g2.edges())
    return Graph(g1.n + g2.n, chain(g1.edges(), shifted))
