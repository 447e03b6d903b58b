import hashlib
import json
from itertools import product

import pytest

from pocfvs import (
    ContradictionError,
    Graph,
    InvalidInputError,
    ResourceLimitError,
    butterfly,
    claw,
    cycle,
    hourglass,
    path,
    spider,
    tadpole,
)
from pocfvs.cover import (
    CoverContext,
    LF_D,
    LF_DD,
    LF_DT,
    LF_T,
    LF_TT,
    LINEAR_FOREST,
    MAX_TABLE_SIDE,
    NOT_BUTTERFLY,
    PairSet,
    StructureProfile,
    _fits_spiders,
    _fits_triangle_tadpoles,
    classify_pair,
    covered_pairs,
    covers_bruteforce,
    family_covers_all,
    must_contain_check,
    pairs_for_profile,
    render_pair_table,
    structure_profile,
)
from pocfvs.iso import _Pattern, are_isomorphic, embeds_induced
from pocfvs.verification import oracle_catalog

from _oracles import (
    enumerate_all_graphs,
    is_linear_forest,
    must_contain_by_hosts,
    pair_bullet_by_hosts,
    reassemble,
)


def test_cover_context():
    assert CoverContext.for_graph(path(4)).N == 9
    assert CoverContext.for_graphs([path(4), cycle(6)]).N == 13
    assert CoverContext.for_graphs([]).N == 3
    with pytest.raises(InvalidInputError):
        CoverContext(4)


def test_covers_bruteforce_examples():
    assert covers_bruteforce(path(4), 3, 7)
    assert not covers_bruteforce(cycle(3), 4, 4)
    assert not covers_bruteforce(claw(), 3, 3)
    with pytest.raises(InvalidInputError):
        covers_bruteforce(path(3), 2, 5)


def test_structure_profiles():
    prof = structure_profile(path(2) + tadpole(3, 5))
    assert prof.kind == LF_D
    assert prof.tadpoles == ((3, 5),)
    assert prof.linear_forest == (2,)

    prof = structure_profile(2 * claw())
    assert prof.kind == LF_TT
    assert prof.spiders == ((1, 1, 1), (1, 1, 1))
    assert prof.linear_forest == ()

    assert structure_profile(hourglass()).kind == NOT_BUTTERFLY
    assert structure_profile(path(5) + 2 * path(1)).kind == LINEAR_FOREST
    assert structure_profile(Graph(0)).kind == LINEAR_FOREST
    assert structure_profile(cycle(3) + cycle(4)).kind == LF_DD
    assert structure_profile(cycle(3) + claw()).kind == LF_DT
    assert structure_profile(spider(1, 2, 4)).kind == LF_T
    assert structure_profile(butterfly(3, 3, 1)).kind == NOT_BUTTERFLY
    assert structure_profile(3 * cycle(3)).kind == NOT_BUTTERFLY


def _graphs_upto(n_max):
    """The empty graph and every graph, connected or not, on 1..n_max vertices."""
    return [Graph(0)] + [g for n in range(1, n_max + 1) for g in enumerate_all_graphs(n)]


def test_profile_reassembly_matches_input():
    named = oracle_catalog() + [(f"g{k}", g) for k, g in enumerate(_graphs_upto(7))]
    for name, h in named:
        prof = structure_profile(h)
        if prof.kind == NOT_BUTTERFLY:
            continue
        assert are_isomorphic(reassemble(prof), h), name


# sha256 of json.dumps([kind, tadpoles, spiders, linear_forest]) of the
# structure profile of every graph in _graphs_upto(7), as the reference
# implementation computed them
STRUCTURE_PROFILES_DIGEST = "0732e403887fd0c344eae79093e607e1ab3b65c4d244c653745cc2f379e5067c"


def test_structure_profiles_are_byte_stable():
    h = hashlib.sha256()
    for g in _graphs_upto(7):
        p = structure_profile(g)
        h.update(json.dumps([p.kind, p.tadpoles, p.spiders, p.linear_forest]).encode())
        h.update(b"\n")
    assert h.hexdigest() == STRUCTURE_PROFILES_DIGEST


# sha256 of json.dumps of each graph's covered_pairs verdicts on the pairs
# i <= j in 3..12, one line per graph of _graphs_upto(7) with n >= 1, as
# the reference implementation computed them
COVER_SWEEP_DIGEST = "c2961f507faa738227c884cd0712359dc4dc487354ea052a01d7b0be98690779"


def test_symbolic_cover_matches_the_matcher_up_to_7():
    # the lemma table against the matcher on every graph with n <= 7; the
    # host length 2n + 1 is the one covers_bruteforce builds
    h = hashlib.sha256()
    checks = 0
    for g in _graphs_upto(7)[1:]:
        pairs, pattern = covered_pairs(g), _Pattern(g)
        verdicts = []
        for i in range(3, 13):
            for j in range(i, 13):
                verdict = pairs.contains(i, j)
                assert verdict == (pattern.find(butterfly(i, j, 2 * g.n + 1)) is not None), (
                    g.edges(),
                    i,
                    j,
                )
                verdicts.append(verdict)
        checks += len(verdicts)
        h.update(json.dumps(verdicts).encode())
        h.update(b"\n")
    assert checks == 68_860
    assert h.hexdigest() == COVER_SWEEP_DIGEST


def test_pairset_primitives():
    row = PairSet(frozenset({("row", 5)}))
    assert row.contains(5, 11) and row.contains(3, 5)
    assert not row.contains(4, 6)
    cells = PairSet(frozenset({("cells", 3, 4)}))
    assert cells.contains(3, 4) and cells.contains(4, 3)
    assert not cells.contains(3, 3)
    rowtail = PairSet(frozenset({("rowtail", 5, 4)}))
    assert rowtail.contains(5, 4) and rowtail.contains(12, 5) and rowtail.contains(5, 5)
    assert not rowtail.contains(5, 3) and not rowtail.contains(6, 7)
    minmax = PairSet(frozenset({("minmax", 4, 6)}))
    assert minmax.contains(4, 6) and minmax.contains(7, 7)
    assert not minmax.contains(3, 9) and not minmax.contains(4, 5)
    assert PairSet.universe().first_uncovered() is None
    assert PairSet.empty().first_uncovered() is not None
    assert PairSet.empty().first_uncovered() == (3, 3)
    with pytest.raises(InvalidInputError):
        row.contains(2, 3)


def test_pairset_union_and_bound():
    u = PairSet(frozenset({("row", 3)})).union(PairSet(frozenset({("minmax", 4, 4)})))
    assert u.first_uncovered() is None
    assert u.test_bound() >= 5
    partial = PairSet(frozenset({("row", 3)})).union(PairSet(frozenset({("maxge", 6)})))
    assert partial.first_uncovered() == (4, 4)


def test_covered_pairs_examples():
    assert covered_pairs(path(6)).regions == frozenset({("all",)})
    ps = covered_pairs(cycle(3) + claw())
    assert ps.contains(3, 4) and ps.contains(4, 3) and ps.contains(12, 3)
    assert not ps.contains(3, 3) and not ps.contains(4, 4)
    # leg normalization: the long leg rides the bridge, so only the two
    # shortest legs of each spider constrain the cycles
    two_spiders = claw() + spider(1, 2, 2)
    ps = covered_pairs(two_spiders)
    assert ps.contains(4, 5)
    assert covers_bruteforce(two_spiders, 4, 5)
    assert not ps.contains(4, 4)
    assert not covers_bruteforce(two_spiders, 4, 4)


def test_pairset_symmetry_against_bruteforce():
    for _, h in oracle_catalog()[:8]:
        for i in range(3, 8):
            for j in range(i, 8):
                assert covers_bruteforce(h, i, j) == covers_bruteforce(h, j, i)


def test_context_monotonicity():
    # a small pattern embeds in a longer-bridge butterfly exactly when it
    # embeds in the shorter one, once the bridge is at least its order
    patterns = [path(4), claw(), cycle(3), path(2) + path(1)]
    for h in patterns:
        for i, j in ((3, 4), (4, 5)):
            base = None
            for k in range(max(1, h.n), 10):
                now = embeds_induced(h, butterfly(i, j, k))
                if base is None:
                    base = now
                assert now == base


def test_family_context_agrees_with_member_context():
    # the family's bridge is set by its largest member; each smaller member
    # must cover the same pairs at that bridge as at its own
    family = [cycle(3), 2 * claw()]
    bridge = CoverContext.for_graphs(family).N
    assert bridge > CoverContext.for_graph(family[0]).N
    for h in family:
        for i in range(3, 9):
            for j in range(3, 9):
                assert covers_bruteforce(h, i, j) == embeds_induced(h, butterfly(i, j, bridge))


def test_family_covers_all():
    assert family_covers_all([path(4)]).bounded
    res = family_covers_all([cycle(3)])
    assert not res.bounded
    assert res.uncovered_pair == (4, 4)
    assert family_covers_all([cycle(3), 2 * spider(2, 1, 1)]).bounded
    with pytest.raises(InvalidInputError):
        family_covers_all([])


def test_single_member_boundedness_is_linear_forest():
    for _, h in oracle_catalog():
        assert family_covers_all([h]).bounded == is_linear_forest(h)
        assert (structure_profile(h).kind == LINEAR_FOREST) == is_linear_forest(h)


def test_must_contain_check():
    rep = must_contain_check([path(4)])
    assert rep.applicable and rep.double_tadpole_member == 0 and rep.double_spider_member == 0
    rep = must_contain_check([cycle(3), 2 * claw()])
    assert rep.applicable
    rep = must_contain_check([cycle(3)])
    assert not rep.applicable and not rep.bounded
    # long legs are read off the profile, with no host of twice the member's order
    rep = must_contain_check([cycle(3), 2 * spider(100, 1, 1)])
    assert (rep.double_tadpole_member, rep.double_spider_member) == (0, 1)


def test_pairs_for_profile_rejects_an_unknown_kind():
    # structure_profile returns only the kinds pairs_for_profile handles, so
    # only a hand-built profile reaches the guard
    with pytest.raises(ContradictionError, match="unhandled profile kind 'LF\\+D\\+D\\+D'"):
        pairs_for_profile(StructureProfile("LF+D+D+D", tadpoles=((0, 3),) * 3))


def test_must_contain_parts_are_read_off_two_covered_pairs():
    # must_contain_check's guard cannot fire while these hold: a bounded
    # family covers (3, 3), which only a member fitting two triangle
    # tadpoles covers, and (N, N) past every member's cycle and legs, which
    # only a member fitting two spiders covers
    named = oracle_catalog() + [(f"g{k}", g) for k, g in enumerate(_graphs_upto(6))]
    for name, h in named:
        p, pairs, far = structure_profile(h), covered_pairs(h), h.n + 3
        assert pairs.contains(3, 3) == _fits_triangle_tadpoles(p, 2), name
        assert pairs.contains(far, far) == _fits_spiders(p, 2, False), name


def test_classify_pair_bullets():
    res = classify_pair(path(5), cycle(7))
    assert res.bounded and "linear forest" in res.reason
    res = classify_pair(tadpole(1, 3), 2 * spider(3, 1, 1))
    assert res.bounded and "double short-leg spider" in res.reason
    res = classify_pair(2 * tadpole(1, 3), spider(2, 1, 1))
    assert res.bounded and "double triangle tadpole" in res.reason
    res = classify_pair(cycle(4), claw())
    assert not res.bounded
    assert res.uncovered_pair == (3, 3)
    assert not covers_bruteforce(cycle(4), 3, 3)
    assert not covers_bruteforce(claw(), 3, 3)


def test_classify_pair_matches_the_union_on_padded_members():
    # isolated vertices lengthen the tail or leg a member needs in the catalog
    # hosts; the butterfly-shaped graphs with n <= 6 reach every profile kind
    firsts = [cycle(3), 2 * cycle(3), tadpole(1, 3), tadpole(2, 3), cycle(3) + path(2)]
    seconds = [claw(), 2 * claw(), spider(2, 1, 1), claw() + path(2)]
    padded = [
        (a + k * path(1), b + k2 * path(1))
        for a, b, k, k2 in product(firsts, seconds, range(5), range(5))
    ]
    shaped = [g for g in _graphs_upto(6)[1:] if structure_profile(g).kind != NOT_BUTTERFLY]
    assert len(shaped) == 63
    for h1, h2 in padded + list(product(shaped, repeat=2)):
        res, union = classify_pair(h1, h2), family_covers_all([h1, h2])
        assert res.bounded == union.bounded, (h1, h2)
        assert res.reason == (pair_bullet_by_hosts(h1, h2) or union.reason), (h1, h2)
        rep = must_contain_check([h1, h2])
        if rep.applicable:
            members = (rep.double_tadpole_member, rep.double_spider_member)
            assert members == must_contain_by_hosts([h1, h2]), (h1, h2)


# sha256 of json.dumps([classify_pair fields, must_contain_check fields]) of
# every ordered pair from _graphs_upto(5) (53 graphs, 2,809 pairs), as the
# catalog-host implementation computed them
PAIR_DECISIONS_DIGEST = "0cd8268fb44262e54bbffaaa9b6d094dbd1f8ff91320aef041a25f4b87028b25"


def test_pair_decisions_are_byte_stable():
    graphs = _graphs_upto(5)
    h = hashlib.sha256()
    for a, b in product(graphs, repeat=2):
        res = classify_pair(a, b)
        rep = must_contain_check([a, b])
        fields = [
            [res.verdict, res.reason, res.constant, res.uncovered_pair],
            [rep.applicable, rep.bounded, rep.double_tadpole_member, rep.double_spider_member],
        ]
        h.update(json.dumps(fields).encode())
        h.update(b"\n")
    assert h.hexdigest() == PAIR_DECISIONS_DIGEST


def test_render_pair_table():
    text = render_pair_table(covered_pairs(path(6)), 3, 5)
    lines = text.splitlines()
    assert len(lines) == 4
    assert text.count("✓") == 9
    text = render_pair_table(covered_pairs(cycle(3)), 3, 5)
    assert "·" in text and "✓" in text
    with pytest.raises(InvalidInputError):
        render_pair_table(PairSet.empty(), 2, 5)
    assert len(render_pair_table(PairSet.empty(), 3, 2 + MAX_TABLE_SIDE).splitlines()) == 101
    with pytest.raises(ResourceLimitError):
        render_pair_table(PairSet.empty(), 3, 3 + MAX_TABLE_SIDE)
