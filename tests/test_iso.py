import hashlib
import json
import random
import time
from itertools import combinations

import pytest

from pocfvs import (
    Graph,
    butterfly,
    claw,
    complete_bipartite,
    cycle,
    hourglass,
    hourglass_chain,
    path,
    spider,
    tadpole,
)
from pocfvs.cover import LINEAR_FOREST, structure_profile
from pocfvs import iso
from pocfvs.harness import enumerate_connected
from pocfvs.iso import (
    _Pattern,
    _copies_through,
    _search,
    are_isomorphic,
    canonical_form,
    embeds_induced,
    find_induced_embedding,
    is_free,
)
from pocfvs.verification import oracle_catalog

from _oracles import enumerate_all_graphs, is_linear_forest, perm_isomorphic, subset_embedding_exists


def assert_valid_embedding(pattern, host, phi):
    assert sorted(phi) == list(range(pattern.n))
    assert len(set(phi.values())) == pattern.n
    for u in range(pattern.n):
        for v in range(u + 1, pattern.n):
            assert pattern.has_edge(u, v) == host.has_edge(phi[u], phi[v])


def test_embedding_examples():
    phi = find_induced_embedding(path(3), cycle(5))
    assert phi is not None
    assert_valid_embedding(path(3), cycle(5), phi)
    assert find_induced_embedding(cycle(4), butterfly(3, 3, 2)) is None
    assert not subset_embedding_exists(cycle(4), butterfly(3, 3, 2))
    phi = find_induced_embedding(spider(1, 2, 4), butterfly(8, 3, 9))
    assert phi is not None
    assert_valid_embedding(spider(1, 2, 4), butterfly(8, 3, 9), phi)


def test_empty_pattern_embeds():
    assert find_induced_embedding(Graph(0), cycle(3)) == {}
    assert find_induced_embedding(Graph(0), Graph(0)) == {}


def test_is_free_examples():
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert is_free(k5, [path(3)])
    assert is_free(cycle(5), [cycle(3), cycle(4)])
    assert is_free(hourglass_chain(2), [path(6), path(4) + path(2)])
    assert not is_free(cycle(5), [path(4)])


def test_matcher_agrees_with_subset_oracle():
    patterns = [g for n in range(1, 5) for g in enumerate_all_graphs(n)]
    patterns += [path(5), cycle(5), claw() + path(1), spider(1, 1, 2)]
    hosts = [g for n in range(1, 7) for g in enumerate_connected(n)]
    rng = random.Random(60031)
    hosts += [
        Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.35])
        for _ in range(12)
    ]
    for pattern in patterns:
        for host in hosts:
            if pattern.n > host.n:
                continue
            got = find_induced_embedding(pattern, host)
            expect = subset_embedding_exists(pattern, host)
            assert (got is not None) == expect, (pattern.edges(), host.edges())
            if got is not None:
                assert_valid_embedding(pattern, host, got)


def test_mutual_embedding_means_isomorphic():
    catalog = [path(4), cycle(4), claw(), tadpole(1, 3), spider(1, 1, 2), 2 * path(2)]
    for g in catalog:
        for h in catalog:
            if embeds_induced(g, h) and embeds_induced(h, g):
                assert are_isomorphic(g, h)
    # equal order and size: the degree sequences (1, 1, 2, 2) and (1, 1, 1, 3) decide
    assert not are_isomorphic(path(4), complete_bipartite(1, 3))


def test_linear_forest():
    examples = [(path(5) + 2 * path(1), True), (claw(), False), (cycle(3), False), (Graph(0), True)]
    for h, expect in examples:
        assert is_linear_forest(h) == expect
        assert (structure_profile(h).kind == LINEAR_FOREST) == expect
    # equivalent formulation: acyclic with maximum degree at most 2
    for g in enumerate_all_graphs(5):
        assert (structure_profile(g).kind == LINEAR_FOREST) == is_linear_forest(g)
        assert is_linear_forest(g) == (g.is_acyclic() and max(g.degrees(), default=0) <= 2)


def test_canonical_form_characterizes_isomorphism_upto_6():
    # different (n, m) force different canonical edge tuples outright, so
    # only same-size buckets need the brute-force comparison
    by_bucket = {}
    for n in range(0, 7):
        for g in enumerate_all_graphs(n) if n else [Graph(0)]:
            by_bucket.setdefault((g.n, g.edge_count), []).append(g)
    total_pairs = 0
    for bucket in by_bucket.values():
        for g, h in combinations(bucket, 2):
            total_pairs += 1
            same_form = canonical_form(g) == canonical_form(h)
            assert same_form == perm_isomorphic(g, h)
        for g in bucket:
            assert canonical_form(g) == canonical_form(g)
    assert total_pairs > 1000


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(1123)
    for _ in range(120):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_canonical_graph_is_isomorphic_representative():
    for g in [butterfly(3, 4, 2), hourglass(), spider(2, 2, 2), 2 * cycle(3)]:
        cg = canonical_form(g)
        assert are_isomorphic(cg, g)
        assert canonical_form(cg) == canonical_form(g)


# sha256 of json.dumps([n, edges]) of the canonical form of every graph on
# up to 6 vertices and of a seeded relabelled copy of each, as the
# reference implementation computed them
CANONICAL_FORMS_DIGEST = "f59b28637ebd8a4a13511741d217e5a337528a3f6410d60e324981d5393bf72f"


def test_canonical_forms_are_byte_stable():
    rng = random.Random(2015)
    h = hashlib.sha256()
    for n in range(7):
        for g in enumerate_all_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for x in (g, g.relabel(perm)):
                c = canonical_form(x)
                h.update(json.dumps([c.n, c.edges()]).encode())
                h.update(b"\n")
    assert h.hexdigest() == CANONICAL_FORMS_DIGEST


def test_complete_graph_canonicalization_is_fast():
    k8 = Graph(8, [(a, b) for a in range(8) for b in range(a + 1, 8)])
    assert canonical_form(k8) == k8


def test_search_automorphisms_generate_the_group(monkeypatch):
    # a wrong automorphism would let the enumeration's orbit pruning drop a
    # class, so every permutation is checked and the group it generates is
    # counted against networkx's isomorphism enumeration
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [g for n in range(1, 7) for g in enumerate_all_graphs(n)]
    symmetric = [complete_bipartite(3, 3), 3 * cycle(3), 2 * _complete(4), complete_bipartite(1, 8)]
    refines = []
    refine = iso._refine

    def counted_refine(*args):
        refines.append(args)
        return refine(*args)

    monkeypatch.setattr(iso, "_refine", counted_refine)
    # the twin exit refines the root alone and returns transpositions
    exits = set()
    for g in graphs + symmetric:
        refines.clear()
        auts = _search(g._masks)[2]
        exits.add("twins" if len(refines) == 1 and auts else "other")
        for p in auts:
            assert Graph(g.n, [(p[u], p[v]) for u, v in g.edges()]) == g
        group = {tuple(range(g.n))}
        frontier = list(group)
        while frontier:
            x = frontier.pop()
            for p in auts:
                y = tuple(p[v] for v in x)
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        G = nx.Graph(g.edges())
        G.add_nodes_from(range(g.n))
        assert len(group) == sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter()), g.edges()
    assert exits == {"twins", "other"}


def test_symmetric_graphs_canonicalise_quickly():
    # the exhaustive search visits up to n! leaves on these
    for g in (complete_bipartite(1, 13), 5 * cycle(3), complete_bipartite(10, 10)):
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        start = time.perf_counter()
        assert canonical_form(g.relabel(perm)) == canonical_form(g)
        assert time.perf_counter() - start < 1.0, g


def test_matching_determinism():
    host = butterfly(6, 6, 3)
    first = find_induced_embedding(claw(), host)
    second = find_induced_embedding(claw(), host)
    assert first == second


# sha256 of the sorted embedding (or null) that the compiled matcher finds
# for each oracle-catalog pattern and 2P_3 in every connected graph with
# n <= 7, as the matcher without the twin bound found them
MATCHER_DIGEST = "85b2ceaf9253a2dffbdba0179e3c130489b7d56e98cb07ca1a3af85b5d61fb96"


def test_matcher_embeddings_are_byte_stable():
    patterns = [h for _, h in oracle_catalog()] + [2 * path(3)]
    hosts = [g for n in range(1, 8) for g in enumerate_connected(n)]
    h = hashlib.sha256()
    for p in patterns:
        compiled = _Pattern(p)
        for g in hosts:
            phi = compiled.find(g)
            h.update(json.dumps(None if phi is None else sorted(phi.items())).encode())
            h.update(b"\n")
    assert h.hexdigest() == MATCHER_DIGEST


def test_copies_through_a_vertex_match_networkx():
    # the level filter asks whether some copy of a member uses the new
    # vertex; networkx lists every node-induced copy, so the union of their
    # images is exactly the set of vertices some copy passes through
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    patterns = [
        cycle(3),
        claw(),
        cycle(4),
        2 * path(2),
        path(3) + path(1),
        2 * path(3),
        complete_bipartite(2, 3),
        path(4),
    ]
    small = [g for n in range(1, 7) for g in enumerate_connected(n)]
    cases = [(h, small) for h in patterns]
    cases += [(h, enumerate_connected(7)) for h in (2 * path(3), path(4))]
    for h, hosts in cases:
        through = _copies_through([h])
        H = nx.Graph(h.edges())
        H.add_nodes_from(range(h.n))
        for g in hosts:
            G = nx.Graph(g.edges())
            G.add_nodes_from(range(g.n))
            images = set()
            for phi in GraphMatcher(G, H).subgraph_isomorphisms_iter():
                images |= phi.keys()
                if len(images) == g.n:
                    break
            assert {v for v in range(g.n) if through(g, v)} == images, (h.edges(), g.edges())


def _petersen():
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return Graph(10, outer + spokes + inner)


def _complete(n):
    return Graph(n, list(combinations(range(n), 2)))


# sha256 of json.dumps([n, edges]) of the canonical form of every connected
# graph on 7 and 8 vertices, of a seeded relabelled copy of each, and of six
# symmetric graphs, as the exhaustive leaf search computed them
LARGER_CANONICAL_FORMS_DIGEST = "2adec2fe74a85f4e1e8e54c768ee34b51cbb60fb9db325008dbe1ad23d6830ba"


def test_larger_canonical_forms_are_byte_stable():
    rng = random.Random(2015)
    h = hashlib.sha256()

    def add(g):
        c = canonical_form(g)
        h.update(json.dumps([c.n, c.edges()]).encode())
        h.update(b"\n")

    for n in (7, 8):
        for g in enumerate_connected(n):
            perm = list(range(n))
            rng.shuffle(perm)
            add(g)
            add(g.relabel(perm))
    symmetric = [
        complete_bipartite(1, 8),
        complete_bipartite(3, 3),
        complete_bipartite(4, 4),
        3 * cycle(3),
        2 * _complete(4),
        _petersen(),
    ]
    for g in symmetric:
        add(g)
    assert h.hexdigest() == LARGER_CANONICAL_FORMS_DIGEST
