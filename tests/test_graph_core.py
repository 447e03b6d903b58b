import math
import random
from types import ModuleType

import pytest

import pocfvs
from pocfvs import (
    Graph,
    InvalidInputError,
    ResourceLimitError,
    butterfly,
    cycle,
    disjoint_union,
    hourglass_chain,
    path,
)
from pocfvs.graph import MAX_ORDER, iter_bits
from pocfvs.harness import enumerate_connected_upto
from pocfvs.iso import are_isomorphic
from pocfvs.solvers import is_fvs

from _oracles import (
    as_networkx,
    dfs_is_acyclic,
    edge_set,
    floyd_warshall,
    reachable,
    vertices_with_degree,
)


def test_star_import_binds_no_module():
    assert pocfvs.__all__ and "Graph" in pocfvs.__all__
    modules = [name for name in pocfvs.__all__ if isinstance(getattr(pocfvs, name), ModuleType)]
    assert modules == []


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_graph_rejects_bad_edges():
    with pytest.raises(InvalidInputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InvalidInputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InvalidInputError):
        Graph(-1)
    for bad in ([(0, 1.5)], [(0, "1")], [(0,)], [(0, 1, 2)]):
        with pytest.raises(InvalidInputError):
            Graph(3, bad)
    for bad_n in (2.5, "3"):
        with pytest.raises(InvalidInputError):
            Graph(bad_n)


def test_graph_order_is_capped_before_allocation():
    assert Graph(MAX_ORDER).n == MAX_ORDER
    for huge in (MAX_ORDER + 1, 10**9, 2**63):
        with pytest.raises(ResourceLimitError):
            Graph(huge)
    with pytest.raises(ResourceLimitError):
        (MAX_ORDER // 2 + 1) * path(2)
    # refused before the copies' edge list is built
    with pytest.raises(ResourceLimitError):
        10**12 * path(3)
    # an edgeless graph's copies take no pass over the count
    assert (10**12 * Graph(0)).n == 0


def test_order_too_long_to_print_is_still_a_resource_limit():
    # str() refuses an int of more than 4,300 digits, so the refusal must not format n
    huge = 10**5000
    for build in (lambda: Graph(huge), lambda: huge * path(1), lambda: butterfly(3, 3, huge)):
        with pytest.raises(ResourceLimitError, match="more than 512 vertices"):
            build()


def test_vertex_sets_are_validated():
    g = cycle(5)
    for bad in ((5,), (0, -1), (1.0,), ("2",), (2, None)):
        with pytest.raises(InvalidInputError):
            g.vertex_mask(bad)
        with pytest.raises(InvalidInputError):
            g.without(bad)
    for u, v in ((0, 5), (-1, 2), (0, 1.0), ("0", 2)):
        with pytest.raises(InvalidInputError):
            g.shortest_path(u, v)
        with pytest.raises(InvalidInputError):
            g.shortest_path(v, u)


def test_parallel_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_induced_subgraph_of_cycle_is_path_segment():
    g = cycle(5)
    sub, kept = g.mask_subgraph(g.vertex_mask([0, 1, 2]))
    assert kept == (0, 1, 2)
    assert are_isomorphic(sub, path(3))


def test_induced_subgraph_identity():
    g = butterfly(3, 4, 2)
    sub, kept = g.mask_subgraph(g.vertex_mask(range(g.n)))
    assert sub == g
    assert kept == tuple(range(g.n))


def test_butterfly_restricted_to_first_cycle():
    b = butterfly(5, 9, 4)
    sub, _ = b.mask_subgraph(b.vertex_mask(range(5)))
    assert are_isomorphic(sub, cycle(5))


def test_acyclicity_basics():
    assert path(7).is_acyclic()
    assert not cycle(3).is_acyclic()
    assert Graph(0).is_acyclic()


def mask_test_hosts():
    # the disconnected host has masks whose first component is a tree and a
    # later one a cycle
    return (*enumerate_connected_upto(6), cycle(3) + path(3) + cycle(4))


def test_mask_is_acyclic_matches_networkx_on_every_mask():
    # independent oracle: networkx's forest test on each induced subgraph
    nx = pytest.importorskip("networkx")
    for g in mask_test_hosts():
        whole = as_networkx(g)
        for mask in range(1, 1 << g.n):  # networkx refuses the empty graph
            assert g.mask_is_acyclic(mask) == nx.is_forest(whole.subgraph(iter_bits(mask)))
    assert path(3).mask_is_acyclic(0)


def test_mask_components_match_networkx_on_every_mask():
    nx = pytest.importorskip("networkx")
    for g in mask_test_hosts():
        whole = as_networkx(g)
        for mask in range(1, 1 << g.n):
            sub = whole.subgraph(iter_bits(mask))
            comps = [g.vertex_mask(c) for c in nx.connected_components(sub)]
            comps.sort(key=lambda c: c & -c)  # by least vertex
            assert g.mask_components(mask) == comps
            assert g.mask_is_connected(mask) == nx.is_connected(sub)
            for v in iter_bits(mask):
                assert g.mask_component(v, mask) == next(c for c in comps if c >> v & 1)
    assert path(3).mask_components(0) == []
    assert not path(3).mask_is_connected(0)


def test_butterfly_minus_hubs_is_acyclic():
    b = butterfly(3, 3, 1)
    hubs = [v for v in b.vertices() if b.degree(v) == 3]
    assert len(hubs) == 2
    stripped = b.without(hubs)
    assert stripped.is_acyclic()
    assert dfs_is_acyclic(stripped.n, edge_set(stripped))


def test_connectivity_basics():
    assert path(3).is_connected()
    assert not (path(3) + path(3)).is_connected()
    assert not Graph(0).is_connected()
    assert Graph(1).is_connected()
    l2 = hourglass_chain(2)
    assert l2.is_connected()
    assert reachable(l2.n, edge_set(l2), 0) == set(range(l2.n))


def test_components_ordering():
    g = path(2) + cycle(3)
    assert g.mask_components(g.full_mask) == [0b00011, 0b11100]


def test_distance_examples():
    assert len(path(4).shortest_path(0, 3)) - 1 == 3
    assert len(cycle(6).shortest_path(0, 3)) - 1 == 3
    b = butterfly(3, 3, 2)
    x, y = 0, 3 + 2 - 1
    assert len(b.shortest_path(x, y)) - 1 == 2


def distances_from_routes(g):
    """Every pair's distance read off ``shortest_path``; inf where it refuses."""
    dist = [[math.inf] * g.n for _ in range(g.n)]
    for u in range(g.n):
        for v in range(g.n):
            try:
                dist[u][v] = len(g.shortest_path(u, v)) - 1
            except InvalidInputError:
                pass
    return dist


def test_distance_matrix_matches_floyd_warshall_and_properties():
    rng = random.Random(20130902)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_graph(rng, n)
        ours = distances_from_routes(g)
        ref = floyd_warshall(g)
        for a in range(n):
            for b in range(n):
                assert ours[a][b] == ref[a][b]
                assert ours[a][b] == ours[b][a]
                for c in range(n):
                    if ours[a][c] < math.inf and ours[c][b] < math.inf:
                        assert ours[a][b] <= ours[a][c] + ours[c][b]
        for a in range(n):
            assert ours[a][a] == 0
        if g.is_connected():
            assert g.diameter() == max(max(row) for row in ref)

def test_diameter_examples():
    assert cycle(5).diameter() == 2
    from pocfvs import complete_bipartite

    assert complete_bipartite(3, 4).diameter() == 2
    for k in range(1, 6):
        b = butterfly(3, 3, k)
        ref = floyd_warshall(b)
        expect = int(max(max(row) for row in ref))
        assert b.diameter() == expect == k + 2
    with pytest.raises(InvalidInputError):
        (path(2) + path(2)).diameter()


def test_shortest_path_deterministic_tiebreak():
    # both 0-1-2 and 0-3-2 are shortest in C_4; smallest predecessor wins
    assert cycle(4).shortest_path(0, 2) == (0, 1, 2)
    g = path(5)
    assert g.shortest_path(0, 4) == (0, 1, 2, 3, 4)
    with pytest.raises(InvalidInputError):
        (path(2) + path(2)).shortest_path(0, 3)


def test_shortest_path_length_matches_distance():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 9))
        dist = floyd_warshall(g)
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][v] < math.inf:
                    route = g.shortest_path(u, v)
                    assert len(route) == dist[u][v] + 1
                    assert route[0] == u and route[-1] == v
                    assert all(g.has_edge(a, b) for a, b in zip(route, route[1:]))


def test_disjoint_union():
    g = path(1) + path(2)
    assert g.n == 3 and g.edge_count == 1
    assert are_isomorphic(3 * path(3), path(3) + path(3) + path(3))
    two_triangles = disjoint_union(cycle(3), cycle(3))
    assert len(two_triangles.mask_components(two_triangles.full_mask)) == 2


def test_disjoint_union_component_counts():
    rng = random.Random(99)
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(0, 6))
        g2 = random_graph(rng, rng.randint(0, 6))
        u = disjoint_union(g1, g2)
        whole, left, right = (len(x.mask_components(x.full_mask)) for x in (u, g1, g2))
        assert whole == left + right


def test_fvs_definition_crosscheck():
    rng = random.Random(4242)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8))
        s = {v for v in range(g.n) if rng.random() < 0.3}
        rest, _ = g.mask_subgraph(g.vertex_mask(set(range(g.n)) - s))
        assert is_fvs(g, s) == rest.is_acyclic()


def test_degree_helpers():
    b = butterfly(3, 4, 2)
    assert max(b.degrees()) == 3
    assert vertices_with_degree(b, 3) == (0, 4)
    assert sum(b.degrees()) == 2 * b.edge_count


def test_relabel_roundtrip():
    g = butterfly(3, 3, 2)
    perm = (3, 0, 5, 1, 6, 2, 4)
    assert are_isomorphic(g.relabel(perm), g)
    with pytest.raises(InvalidInputError):
        g.relabel((0,) * g.n)
