import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocfvs import (
    ContradictionError,
    Graph,
    InvalidInputError,
    ResourceLimitError,
    butterfly,
    complete_bipartite,
    cycle,
    hourglass_chain,
    path,
    spider,
    tadpole,
)
from pocfvs import solvers
from pocfvs.graph import iter_bits
from pocfvs.harness import enumerate_connected, enumerate_connected_upto
from pocfvs.solvers import (
    _cfvs_walk,
    fvs_and_cfvs,
    is_cfvs,
    is_fvs,
    min_cds,
    min_cfvs,
    min_ds,
    min_fvs,
    poc_difference,
    poc_ratio,
    shortest_cycle,
)

from _oracles import (
    as_networkx,
    is_cycle_graph,
    lies_on_cycle,
    naive_min_cds,
    naive_min_cfvs,
    naive_min_ds,
    naive_min_fvs,
    normalize_min_fvs,
    plain_cfvs_walk,
)


def test_min_fvs_examples():
    assert min_fvs(spider(2, 3, 1)).optimum == 0
    assert min_fvs(path(6)).witness == frozenset()
    assert min_fvs(cycle(7)).optimum == 1
    assert min_fvs(butterfly(4, 6, 3)).optimum == 2
    res = min_fvs(butterfly(4, 6, 3))
    assert is_fvs(butterfly(4, 6, 3), res.witness)
    assert res.explored > 0


def test_min_cfvs_examples():
    assert min_cfvs(butterfly(3, 3, 4)).optimum == 5
    assert min_cfvs(hourglass_chain(2)).optimum == 5
    assert min_cfvs(complete_bipartite(3, 5)).optimum == 3
    assert min_cfvs(path(4)).optimum == 0
    res = min_cfvs(butterfly(3, 3, 4))
    assert is_cfvs(butterfly(3, 3, 4), res.witness)
    with pytest.raises(InvalidInputError):
        min_cfvs(path(2) + path(2))


def test_domination_examples():
    k6 = Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
    assert min_ds(k6).optimum == 1
    assert min_ds(cycle(6)).optimum == 2
    assert min_cds(path(7)).optimum == naive_min_cds(path(7)) == 5
    with pytest.raises(InvalidInputError, match="^connected dominating set needs a connected graph$"):
        min_cds(path(2) + path(2))


def test_solvers_match_naive_oracles_up_to_7():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            assert min_fvs(g).optimum == naive_min_fvs(g)
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert min_cfvs(g).optimum == naive_min_cfvs(g)
            assert min_ds(g).optimum == naive_min_ds(g)
            assert min_cds(g).optimum == naive_min_cds(g)


def test_connected_invariants_up_to_8():
    for n in range(1, 9):
        for g in enumerate_connected(n):
            f = min_fvs(g).optimum
            c = min_cfvs(g).optimum
            assert f <= c
            if is_cycle_graph(g) or f == 0 or g.is_complete():
                assert f == c
            ds = min_ds(g).optimum
            cds = min_cds(g).optimum
            assert cds <= 3 * ds - 2


def test_witness_superset_closure():
    rng = random.Random(31337)
    checked = 0
    pool = [g for n in range(4, 8) for g in enumerate_connected(n)]
    while checked < 100:
        g = rng.choice(pool)
        base = min_fvs(g).witness
        extra = {v for v in range(g.n) if rng.random() < 0.4}
        assert is_fvs(g, set(base) | extra)
        checked += 1


def test_shortest_cycle():
    assert shortest_cycle(path(5)) is None
    tri = shortest_cycle(tadpole(2, 3))
    assert tri is not None and len(tri) == 3
    assert len(shortest_cycle(cycle(9))) == 9
    b = butterfly(4, 5, 2)
    assert len(shortest_cycle(b)) == 4


def test_shortest_cycle_matches_networkx_girth():
    # independent oracle: networkx's girth, inf on a forest
    nx = pytest.importorskip("networkx")
    graphs = enumerate_connected_upto(7)
    assert len(graphs) == 996
    for g in graphs:
        found = shortest_cycle(g)
        assert (math.inf if found is None else len(found)) == nx.girth(as_networkx(g)), g.edges()


def test_domination_witnesses_match_networkx():
    # independent oracle: networkx's own (connected) domination tests
    nx = pytest.importorskip("networkx")
    for g in enumerate_connected_upto(7):
        whole = as_networkx(g)
        ds, cds = min_ds(g), min_cds(g)
        assert len(ds.witness) == ds.optimum and nx.is_dominating_set(whole, ds.witness)
        assert len(cds.witness) == cds.optimum
        assert nx.is_connected_dominating_set(whole, cds.witness), g.edges()


def test_lies_on_cycle():
    d = tadpole(2, 4)
    assert lies_on_cycle(d, 0)
    assert not lies_on_cycle(d, 5)
    assert all(lies_on_cycle(cycle(5), v) for v in range(5))


def test_normalize_min_fvs_examples():
    b = butterfly(3, 3, 1)
    res = normalize_min_fvs(b)
    assert res.witness == frozenset({0, 3})
    l1 = hourglass_chain(1)
    assert all(l1.degree(v) >= 3 for v in normalize_min_fvs(l1).witness)
    d = tadpole(2, 4)
    witness = normalize_min_fvs(d).witness
    assert len(witness) == 1
    v = next(iter(witness))
    assert d.degree(v) == 3 and lies_on_cycle(d, v)
    with pytest.raises(InvalidInputError):
        normalize_min_fvs(cycle(5))
    with pytest.raises(InvalidInputError):
        normalize_min_fvs(path(2) + path(2))


def test_normalized_exists_on_small_catalog():
    # the normalization claim, checked exhaustively at desk scale
    for n in range(2, 8):
        for g in enumerate_connected(n):
            if is_cycle_graph(g):
                continue
            res = normalize_min_fvs(g)
            assert res.optimum == min_fvs(g).optimum


def test_poc_ratio_and_difference():
    assert poc_ratio(butterfly(3, 3, 9)) == Fraction(5, 1)
    assert poc_ratio(cycle(6)) == 1
    assert poc_difference(hourglass_chain(3)) == 3
    assert poc_difference(path(9)) == 0
    with pytest.raises(InvalidInputError):
        poc_ratio(path(4))
    for price in (poc_ratio, poc_difference):
        with pytest.raises(InvalidInputError, match="^the connectivity price is defined for connected graphs$"):
            price(cycle(3) + cycle(3))


def test_poc_ratio_and_difference_match_the_two_solvers():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            f, c = min_fvs(g).optimum, min_cfvs(g).optimum
            assert fvs_and_cfvs(g) == (f, c)
            assert poc_difference(g) == c - f
            if f:
                assert poc_ratio(g) == Fraction(c, f)
    # the size limit still applies, through min_fvs
    with pytest.raises(ResourceLimitError):
        poc_difference(path(25))


def test_cfvs_walk_from_fvs_finds_the_same_witness():
    # no set smaller than fvs is an FVS, so starting there skips only rejects
    for n in range(1, 8):
        for g in enumerate_connected(n):
            f = min_fvs(g).optimum
            from_zero, tried_from_zero = _cfvs_walk(g, 0)
            from_fvs, tried_from_fvs = _cfvs_walk(g, f)
            assert from_fvs == from_zero
            assert tried_from_fvs <= tried_from_zero


def test_cfvs_walk_guard_trips_without_a_connected_fvs():
    # the walk trusts its caller to pass a connected graph; two triangles
    # have no connected FVS, so no set is accepted
    with pytest.raises(ContradictionError, match="^the full vertex set is always a connected FVS$"):
        _cfvs_walk(cycle(3) + cycle(3), 0)


def test_resource_limit_and_env(monkeypatch):
    big = path(25)
    with pytest.raises(ResourceLimitError):
        min_fvs(big)
    assert min_fvs(big, limit=25).optimum == 0
    monkeypatch.setenv("POCFVS_LIMIT", "30")
    assert min_fvs(big).optimum == 0
    monkeypatch.setenv("POCFVS_LIMIT", "asdf")
    with pytest.raises(InvalidInputError):
        min_fvs(big)
    # a negative limit is refused before any graph is measured against it
    monkeypatch.setenv("POCFVS_LIMIT", "-4")
    with pytest.raises(InvalidInputError, match="^POCFVS_LIMIT must be >= 0, got -4$"):
        min_fvs(Graph(0))
    for solver in (min_fvs, min_cfvs, min_ds, min_cds, poc_difference):
        with pytest.raises(InvalidInputError, match="^the vertex limit must be >= 0, got -1$"):
            solver(cycle(5), limit=-1)


def test_empty_and_tiny_graphs():
    assert min_fvs(Graph(0)).optimum == 0
    assert min_ds(Graph(0)).optimum == 0
    assert min_fvs(Graph(1)).optimum == 0
    assert min_cfvs(Graph(1)).optimum == 0
    assert is_cfvs(path(3), ())
    assert not is_cfvs(cycle(3), ())
    assert is_cfvs(cycle(3), (1,))


def test_fvs_checks_reject_bad_vertex_sets():
    g = cycle(5)
    for bad in ((5,), (0, -1), (1.0,), ("2",), (2, None)):
        with pytest.raises(InvalidInputError):
            is_fvs(g, bad)
        with pytest.raises(InvalidInputError):
            is_cfvs(g, bad)


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _solver_digest(results):
    return _digest([res.optimum, sorted(res.witness), res.explored] for res in results)


# sha256 of (optimum, sorted witness, explored), and of the sorted shortest
# cycle or None, as the reference implementation returned them; a changed
# witness, cycle or count fails here
SOLVER_DIGESTS = {
    "min_fvs": "23aa64984d764295bf4e940fb7514455228b766c2febb6513b219e749af21c33",
    "shortest_cycle": "0c610421baa295c9bf4ec42dea48631598b63dea6501f52f95e7d59d83315c72",
    "min_cfvs": "41b104d781e09e94d1c9e40d936d7d25fca95cee4ec433982bb41f6c9d70bbd2",
    "min_ds": "be60740165bca64d61bb09565f16a53c461740174de7769b4b67307135f96229",
    "min_cds": "01de7f13cba6f260b45e6d29fd01b2326852bce9b7f934ccb69c1e2ae5a513ec",
    "normalize_min_fvs": "a5ce10af1e16a3aa069319a5032d46b5683eb46383d1df7e706f586452b69df9",
}


def test_solver_witnesses_are_byte_stable():
    corpus = [g for n in range(1, 8) for g in enumerate_connected(n)]
    assert len(corpus) == 996
    normalizable = [g for g in corpus if not is_cycle_graph(g) and not g.is_acyclic()]
    assert len(normalizable) == 966
    digests = {
        "min_fvs": _solver_digest(min_fvs(g) for g in corpus),
        "shortest_cycle": _digest(shortest_cycle(g) for g in corpus),
        "min_cfvs": _solver_digest(min_cfvs(g) for g in corpus),
        "min_ds": _solver_digest(min_ds(g) for g in corpus),
        "min_cds": _solver_digest(min_cds(g) for g in corpus),
        "normalize_min_fvs": _solver_digest(normalize_min_fvs(g) for g in normalizable),
    }
    assert digests == SOLVER_DIGESTS


# sha256 of shortest_cycle(g, mask) for every vertex mask of every connected
# graph with n <= 6, as the reference implementation returned them
SHORTEST_CYCLE_ALL_MASKS_DIGEST = "9656ceddc1b72da28806d924966fed4542200a1ee7d610e2f1fc9e8e4099188d"


def test_shortest_cycle_is_byte_stable_on_every_mask():
    rows = (
        shortest_cycle(g, mask)
        for n in range(1, 7)
        for g in enumerate_connected(n)
        for mask in range(1 << n)
    )
    assert _digest(rows) == SHORTEST_CYCLE_ALL_MASKS_DIGEST


# (order n, bridge length k) of the butterflies the benchmark's query mix
# solves; cfvs = k + 1, so the cfvs walk passes every set of size <= k
BUTTERFLY_STRATA = [
    (6, 1), (8, 2), (9, 3), (11, 4), (12, 5), (14, 6), (15, 7),
    (16, 8), (17, 9), (18, 2), (18, 4), (18, 7), (18, 10),
]


def _walk_corpus(ell_max=8):
    """Relabelled butterflies of every stratum, L_1..L_3 and K_{3,l} for l = 3..ell_max."""
    rng = random.Random(0)

    def relabel(g):
        order = list(range(g.n))
        rng.shuffle(order)
        return g.relabel(order)

    out = []
    for n, k in BUTTERFLY_STRATA:
        i = rng.randint(3, n - k - 2)
        out.append(relabel(butterfly(i, n - k + 1 - i, k)))
    out += [relabel(hourglass_chain(k)) for k in (1, 2, 3)]
    out += [relabel(complete_bipartite(3, ell)) for ell in range(3, ell_max + 1)]
    return out


def _fvs_and_cfvs_row(g):
    m, explored = _cfvs_walk(g, min_fvs(g).optimum)
    return [*fvs_and_cfvs(g), list(iter_bits(m)), explored]


# sha256 of min_cfvs's (optimum, sorted witness, explored), and of fvs,
# cfvs, the witness and the count of the walk from fvs, on graphs whose
# walks pass tens of thousands of sets, as the reference implementation
# returned them
WALK_DIGESTS = {
    "min_cfvs": "31ad601228769ce1205d14f3a37967fb9b6653d0f7c249a2802f17da12a76714",
    "fvs_and_cfvs": "92a444b7368bd903cd9a3ec0f44a508b527d7fff732e0e87da52d24267410b09",
}


def test_cfvs_walks_are_byte_stable_on_large_witness_graphs():
    corpus = _walk_corpus()
    assert [g.n for g in corpus[:13]] == [n for n, _ in BUTTERFLY_STRATA]
    digests = {
        "min_cfvs": _solver_digest(min_cfvs(g) for g in corpus),
        "fvs_and_cfvs": _digest(_fvs_and_cfvs_row(g) for g in corpus),
    }
    assert digests == WALK_DIGESTS


def _count_tries(monkeypatch):
    """Count the sets ``accept`` is called on in every subset walk from here on."""
    tried = [0]
    real = solvers.first_subset

    def counting(universe_mask, accept, start=0, viable=None):
        def counted(m):
            tried[0] += 1
            return accept(m)

        return real(universe_mask, counted, start, viable)

    monkeypatch.setattr(solvers, "first_subset", counting)
    return tried


# the sets the walks try on _walk_corpus(); the walks pass 500,398 and
# 499,377 sets. A cut that stops firing leaves every digest above unchanged
# and shows only here
WALK_TRIES = {"min_cfvs": 21464, "from fvs": 20524}


def test_cfvs_walk_cuts_keep_firing_on_large_witness_graphs(monkeypatch):
    corpus = _walk_corpus()
    tried = _count_tries(monkeypatch)
    counts = {}
    for name, walk in (
        ("min_cfvs", min_cfvs),
        ("from fvs", lambda g: _cfvs_walk(g, min_fvs(g).optimum)),
    ):
        tried[0] = 0
        for g in corpus:
            walk(g)
        counts[name] = tried[0]
    assert counts == WALK_TRIES


# sha256 of min_fvs's (optimum, sorted witness, explored) on every connected
# graph with n <= 8 and on the query mix's witness graphs (K_{3,l} up to
# l = 15), as the reference implementation returned them
MIN_FVS_DIGESTS = {
    "connected n<=8": "c509e780e61150fbc576179c92f7ee21271ed1d0b53a2239e34d01cd9d879726",
    "witness graphs": "b1ec2fea124a5df7896e0736e1231fb8733b0bddf6072f2485e346f18201b7e7",
}


def test_min_fvs_is_byte_stable_up_to_8_and_on_large_witness_graphs():
    corpus = enumerate_connected_upto(8)
    assert len(corpus) == 12113
    witnesses = _walk_corpus(15)
    assert [g.n for g in witnesses[-13:]] == list(range(6, 19))
    digests = {
        "connected n<=8": _solver_digest(min_fvs(g) for g in corpus),
        "witness graphs": _solver_digest(min_fvs(g) for g in witnesses),
    }
    assert digests == MIN_FVS_DIGESTS


@st.composite
def connected_graphs(draw, max_n=13):
    """A random spanning tree plus random extra edges, randomly relabelled."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    if n >= 2:
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        extra = draw(st.integers(min_value=0, max_value=3 * n))
        edges += draw(st.lists(st.sampled_from(slots), min_size=extra, max_size=extra))
    return Graph(n, edges).relabel(draw(st.permutations(range(n))))


@given(connected_graphs())
@settings(max_examples=150, deadline=None)
def test_cfvs_walk_matches_the_plain_walk(g):
    res = min_cfvs(g)
    assert (g.vertex_mask(res.witness), res.explored) == plain_cfvs_walk(g, 0)
    f = min_fvs(g).optimum
    assert _cfvs_walk(g, f) == plain_cfvs_walk(g, f)


def _sparse_corpus(count=60):
    """Seeded sparse graphs, n = 10..16: cycles joined by paths, then pendant trees.

    Cycles of 3 to 5 new vertices follow one another, each joined to the end
    of the last and followed by a path of up to two new vertices, until two
    thirds of the drawn order are placed; each later vertex hangs from a
    random earlier one. The labels are shuffled.
    """
    rng = random.Random(2)
    out = []
    for _ in range(count):
        n = rng.randint(10, 16)
        edges = []
        size = 0
        while size < 2 * n // 3:
            length = rng.randint(3, 5)
            if size:
                edges.append((size - 1, size))
            edges += [(v, v + 1) for v in range(size, size + length - 1)]
            edges.append((size, size + length - 1))
            size += length
            for _ in range(rng.randint(0, 2)):
                edges.append((size - 1, size))
                size += 1
        while size < n:
            edges.append((rng.randrange(size), size))
            size += 1
        order = list(range(size))
        rng.shuffle(order)
        out.append(Graph(size, edges).relabel(order))
    return out


def test_cfvs_walk_matches_the_plain_walk_where_the_cut_fires(monkeypatch):
    # sparse graphs with long cycles far apart, where the layer and cycle
    # bounds cut most prefixes; the random graphs above are dense
    corpus = _sparse_corpus()
    assert {g.n for g in corpus} == set(range(10, 17))
    tried = _count_tries(monkeypatch)
    passed = 0
    for g in corpus:
        res = min_cfvs(g)
        assert (g.vertex_mask(res.witness), res.explored) == plain_cfvs_walk(g, 0)
        f = min_fvs(g).optimum
        walk = _cfvs_walk(g, f)
        assert walk == plain_cfvs_walk(g, f)
        passed += res.explored + walk[1]
    assert tried[0] < passed
