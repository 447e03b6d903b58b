import pytest

from pocfvs import (
    FamilySpec,
    InvalidInputError,
    ResourceLimitError,
    butterfly,
    claw,
    complete_bipartite,
    cycle,
    from_spec,
    gprime,
    graph_from_text,
    hourglass,
    hourglass_chain,
    path,
    spider,
    tadpole,
    three_p1_witness,
)
from pocfvs.generators import parse_spec_list
from pocfvs.graph import MAX_ORDER
from pocfvs.graph6 import encode
from pocfvs.iso import are_isomorphic, embeds_induced
from pocfvs.solvers import min_cfvs, min_fvs

from _oracles import subset_embedding_exists, vertices_with_degree


def test_path_and_cycle_basics():
    assert path(1).n == 1 and path(1).edge_count == 0
    assert path(2).edge_count == 1
    assert path(5).diameter() == 4
    tri = cycle(3)
    assert tri.n == 3 and tri.edge_count == 3
    assert all(cycle(r).degree(v) == 2 for r in range(3, 7) for v in range(r))
    for r in range(3, 9):
        assert min_fvs(cycle(r)).optimum == 1
    with pytest.raises(InvalidInputError):
        path(0)
    with pytest.raises(InvalidInputError):
        cycle(2)


def test_butterfly_counts_and_hubs():
    for i in range(3, 9):
        for j in range(3, 9):
            for k in range(1, 7):
                b = butterfly(i, j, k)
                assert b.n == i + j + k - 1
                assert b.edge_count == i + j + k
    b = butterfly(5, 9, 4)
    assert b.n == 17
    hubs = vertices_with_degree(b, 3)
    assert hubs == (0, 8)
    assert b.without(hubs).is_acyclic()
    with pytest.raises(InvalidInputError):
        butterfly(2, 3, 1)
    with pytest.raises(InvalidInputError):
        butterfly(3, 3, 0)


HUGE = 10**12

# one case per parameter position that can carry a huge order
OVERSIZED = [
    (butterfly, (HUGE, 3, 1)),
    (butterfly, (3, HUGE, 1)),
    (butterfly, (3, 3, HUGE)),
    (spider, (HUGE, 1, 1)),
    (spider, (1, HUGE, 1)),
    (spider, (1, 1, HUGE)),
    (tadpole, (HUGE, 3)),
    (tadpole, (0, HUGE)),
    (cycle, (HUGE,)),
    (hourglass_chain, (HUGE,)),
    (gprime, (HUGE,)),
    (gprime, (1, 1, 1, 1, 1, HUGE)),
    (path, (HUGE,)),
    (complete_bipartite, (HUGE, 1)),
    (complete_bipartite, (1, HUGE)),
]


@pytest.mark.parametrize(
    "build, params", OVERSIZED, ids=[f"{f.__name__}-{p.index(HUGE)}" for f, p in OVERSIZED]
)
def test_generators_refuse_an_oversized_order_before_building(build, params):
    # an edge list of 10**12 entries would exhaust memory long before Graph
    # could check the order, so every generator must hand it edges lazily
    with pytest.raises(ResourceLimitError):
        build(*params)


# specs whose order is exactly the cap build; one vertex more is refused,
# whether the excess comes from a family parameter, a copy count or a union
AT_CAP = ["P512", "2P256", "P256+P256", "butterfly:3,3,507", "gprime:1,1,1,1,1,504"]
OVER_CAP = ["P513", "2P257", "P256+P257", "257P2", "butterfly:3,3,508", "gprime:85", "Lk:103"]


@pytest.mark.parametrize(
    "text, fits", [(t, True) for t in AT_CAP] + [(t, False) for t in OVER_CAP]
)
def test_specs_at_the_order_cap(text, fits):
    if fits:
        assert graph_from_text(text).n == MAX_ORDER
    else:
        with pytest.raises(ResourceLimitError):
            graph_from_text(text)


def test_butterfly_solver_values_small():
    for i in (3, 4, 5):
        for j in (3, 4, 5):
            for k in (1, 2, 3):
                assert min_fvs(butterfly(i, j, k)).optimum == 2
    assert min_cfvs(butterfly(3, 3, 3)).optimum == 4


def test_spider_shapes():
    assert are_isomorphic(spider(1, 1, 1), complete_bipartite(1, 3))
    assert spider(1, 2, 4).n == 8
    for k, p, q in [(1, 1, 1), (2, 1, 3), (3, 3, 3), (1, 2, 4)]:
        s = spider(k, p, q)
        assert s.is_acyclic() and s.is_connected()
        assert vertices_with_degree(s, 3) == (0,)
    with pytest.raises(InvalidInputError):
        spider(0, 1, 1)


def test_tadpole_shapes():
    assert are_isomorphic(tadpole(0, 5), cycle(5))
    d35 = tadpole(3, 5)
    assert d35.n == 8 and d35.edge_count == 8
    assert vertices_with_degree(d35, 3) == (0,)
    for k in range(4):
        for r in range(3, 7):
            assert min_fvs(tadpole(k, r)).optimum == 1
    with pytest.raises(InvalidInputError):
        tadpole(-1, 3)
    with pytest.raises(InvalidInputError):
        tadpole(0, 2)


def test_spider_embeds_in_butterfly():
    for k, p, q in [(1, 1, 1), (1, 2, 2), (2, 1, 3)]:
        host = butterfly(p + q + 2, 3, k + 1)
        assert embeds_induced(spider(k, p, q), host)
    assert subset_embedding_exists(spider(1, 1, 1), butterfly(4, 3, 2))


def test_tadpole_monotone_chain():
    for ell in range(4):
        assert embeds_induced(tadpole(ell, 3), tadpole(ell + 1, 3))


def test_hourglass_chain_structure():
    hg = hourglass()
    assert hg.n == 5 and hg.edge_count == 6
    assert vertices_with_degree(hg, 4) == (0,)
    for k in (1, 2, 3):
        lk = hourglass_chain(k)
        assert lk.n == 5 * k + 1
        assert lk.degree(0) == 4 * k
        centers = [1 + 5 * b for b in range(k)]
        assert all(lk.degree(c) == 4 for c in centers)
    with pytest.raises(InvalidInputError):
        hourglass_chain(0)


def test_hourglass_chain_values_small():
    for k in (1, 2):
        lk = hourglass_chain(k)
        assert min_fvs(lk).optimum == k + 1
        assert min_cfvs(lk).optimum == 2 * k + 1


def test_complete_bipartite():
    assert complete_bipartite(1, 1).edge_count == 1
    assert are_isomorphic(complete_bipartite(2, 2), cycle(4))
    g = complete_bipartite(3, 4)
    assert min_fvs(g).optimum == 2
    assert min_cfvs(g).optimum == 3
    with pytest.raises(InvalidInputError, match="^complete bipartite sides must be >= 1, got 0, 3$"):
        complete_bipartite(0, 3)


def test_three_p1_witness():
    w = three_p1_witness()
    assert w.n == 6
    assert w.is_connected()
    # no independent triple, checked exhaustively
    from itertools import combinations

    for trio in combinations(range(6), 3):
        assert any(w.has_edge(a, b) for a, b in combinations(trio, 2))
    assert min_fvs(w).optimum == 2
    assert min_cfvs(w).optimum == 3


def test_gprime_structure_and_values():
    g1 = gprime(1)
    assert g1.n == 9
    assert vertices_with_degree(g1, 4) == (0, 1, 2)
    for t in (1, 2, 3):
        g = gprime(t)
        assert min_fvs(g, limit=g.n).optimum == 2
    assert gprime(1, 2, 1, 2, 1, 2).n == 3 + 9
    with pytest.raises(InvalidInputError):
        gprime(0)
    with pytest.raises(InvalidInputError):
        gprime(1, 1)


def test_copies():
    g = 3 * path(3)
    assert g.n == 9 and len(g.mask_components(g.full_mask)) == 3
    # copy k occupies vertices k*n .. k*n + n-1, as repeated disjoint unions do
    assert g.edges() == ((0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8))
    assert are_isomorphic(2 * cycle(3), tadpole(0, 3) + tadpole(0, 3))
    assert (0 * cycle(3)).n == 0
    with pytest.raises(InvalidInputError, match="^copy count must be a non-negative integer, got 2.5$"):
        2.5 * path(3)


def test_parse_spec_roundtrips():
    cases = {
        "butterfly:5,9,4": butterfly(5, 9, 4),
        "P6": path(6),
        "p3": path(3),
        "C7": cycle(7),
        "2P3": 2 * path(3),
        "P4+P2": path(4) + path(2),
        "Lk:2": hourglass_chain(2),
        "tadpole:2,5": tadpole(2, 5),
        "spider:1,2,4": spider(1, 2, 4),
        "claw": claw(),
        "hourglass": hourglass(),
        "kbip:3,4": complete_bipartite(3, 4),
        "gprime:2": gprime(2),
        "threep1": three_p1_witness(),
        "3p1": 3 * path(1),
        "2C3+P1": 2 * cycle(3) + path(1),
    }
    for text, expect in cases.items():
        assert are_isomorphic(graph_from_text(text), expect), text


def test_parse_spec_list():
    specs = parse_spec_list("C3;claw;P4+P2")
    assert len(specs) == 3
    specs = parse_spec_list("butterfly:3,3,1")
    assert len(specs) == 1
    assert from_spec(specs[0]) == butterfly(3, 3, 1)
    specs = parse_spec_list(" P4 ; kbip:4,4 ")
    assert [from_spec(spec) for spec in specs] == [path(4), complete_bipartite(4, 4)]
    # only ';' separates specs; a ',' belongs to a family's parameters
    with pytest.raises(InvalidInputError, match="^cannot parse graph spec 'C3,claw'$"):
        parse_spec_list("C3,claw")
    # only blank text is the empty list; a blank entry is an empty spec
    assert parse_spec_list("") == parse_spec_list(" ") == ()
    for text in ("C3;;claw", ";C3", "C3;", ";", " ; "):
        with pytest.raises(InvalidInputError, match="^empty graph spec$"):
            parse_spec_list(text)
    with pytest.raises(InvalidInputError, match="^graph spec number '03' has a leading zero$"):
        parse_spec_list("C3;kbip:03,4")


def test_parse_spec_errors():
    for bad in ("", "wat:1", "P", "butterfly:3,3", "spider:1,2", "kbip:3,x"):
        with pytest.raises(InvalidInputError):
            graph_from_text(bad)
    for bad in ("P3+", "P3+ +P2", " "):
        with pytest.raises(InvalidInputError, match="^empty graph spec$"):
            graph_from_text(bad)
    for bad in ("tadpole:-0,3", "tadpole:1,-0", "butterfly:3,3,-0"):
        with pytest.raises(InvalidInputError, match="^graph spec number '-0' is a signed zero$"):
            graph_from_text(bad)
    # a hand-built spec skips the parser; from_spec checks family and arity itself
    for bad in (FamilySpec("wat"), FamilySpec("claw", (1,)), FamilySpec("C", (3, 4))):
        for spec in (bad, FamilySpec("union", (), (FamilySpec("claw"), bad))):
            with pytest.raises(InvalidInputError):
                from_spec(spec)


# every spelling the spec language keeps, with the graph6 of the graph it
# builds; 2Lk:2, 2kbip:3,3 and 2butterfly:3,3,1 are pinned to the graph the
# union of two copies (Lk:2+Lk:2 and so on) builds
KEPT_SPELLINGS = {
    # README
    "P6": "EhCG",
    "C5": "Dhc",
    "2P3": "EgCG",
    "P4+P2": "Eh?G",
    "butterfly:5,9,4": "Phe?GC@?G?_@?@??_?G?@?GC",
    "spider:1,2,4": "Gp_GGC",
    "tadpole:2,5": "Fhe?G",
    "Lk:3": "O^rGCEB_cC_?_@_@o?c?H",
    "kbip:3,4": "FFzf?",
    "gprime:2": "NCUAK?`_@?g?G@O?C?G",
    "gprime:1,2,1,2,1,2": "KE`LC?`WA?C@",
    "claw": "Cs",
    "hourglass": "D{c",
    "threep1": "Eh~o",
    "12P1": "K???????????",
    "C4": "Cl",
    "2claw": "Gs?GOO",
    # copies of a family that takes parameters
    "2Lk:2": "U^rGCEB_cC_????@_?w?K?@c????GG?GK?CC?@@G",
    "2kbip:3,3": "KFz_????wF?[",
    "2butterfly:3,3,1": "K{CW?CB?_?_B",
    # the benchmark's specs
    "P1": "@",
    "P2": "A_",
    "P3": "Bg",
    "P4": "Ch",
    "P5": "DhC",
    "P5+2P1": "FhC??",
    "3P3": "HgCG?C@",
    "P7": "FhCGG",
    "C3": "Bw",
    "C3+P2": "DwC",
    "kbip:4,4": "G?~vf_",
    "3C3": "HwCW?CB",
    "kbip:1,6": "FsaC?",
    # names are case-insensitive, and whitespace may surround an atom or a '+'
    "p3": "Bg",
    "LK:2": "J^rGCEB_cC_",
    "KBIP:3,4": "FFzf?",
    "Claw": "Cs",
    "THREEP1": "Eh~o",
    " P4 + P2 ": "Eh?G",
    "3p1": "B?",
    "0P3": "?",
    "gprime:1": "HEqdB@_",
    "tadpole:0,3": "Bw",
    "2C3+P1": "FwCW?",
}


@pytest.mark.parametrize("text, g6", KEPT_SPELLINGS.items(), ids=list(KEPT_SPELLINGS))
def test_kept_spellings_build_their_pinned_graphs(text, g6):
    assert encode(graph_from_text(text)) == g6
