"""Acceptance gate: every criterion runs at its stated tolerance (exact)
and prints one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from dataclasses import replace

import pytest

from pocfvs import (
    ContradictionError,
    butterfly,
    complete_bipartite,
    cycle,
    hourglass_chain,
    path,
    three_p1_witness,
    verification,
)
from pocfvs.verification import CRITERIA, CheckResult, _result


@pytest.mark.parametrize(
    "number,name,check", [(num, name, fn) for num, name, _, fn in CRITERIA], ids=[name for _, name, _, _ in CRITERIA]
)
def test_acceptance_criterion(number, name, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {name}: {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"


def test_result_shows_the_first_five_failures_and_counts_the_rest():
    assert _result("demo", [], "all fine") == CheckResult("demo", True, "all fine")
    five = [f"bad {i}" for i in range(5)]
    assert _result("demo", five, "all fine") == CheckResult(
        "demo", False, "bad 0; bad 1; bad 2; bad 3; bad 4"
    )
    seven = [f"bad {i}" for i in range(7)]
    assert _result("demo", seven, "all fine") == CheckResult(
        "demo", False, "bad 0; bad 1; bad 2; bad 3; bad 4 (+2 more)"
    )


def _cfvs_one_too_many_on(monkeypatch, *targets):
    """Make ``verification.min_cfvs`` answer one above the optimum on ``targets`` only."""
    real = verification.min_cfvs

    def one_too_many(g):
        res = real(g)
        return replace(res, optimum=res.optimum + 1) if g in targets else res

    monkeypatch.setattr(verification, "min_cfvs", one_too_many)


def test_butterfly_values_fail_on_a_wrong_cfvs(monkeypatch):
    _cfvs_one_too_many_on(monkeypatch, butterfly(4, 5, 2))
    result = verification.check_butterfly_values()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "cfvs(B_{4,5,2}) = 4, expected 3"


def test_hourglass_chain_values_fail_on_a_wrong_cfvs(monkeypatch):
    _cfvs_one_too_many_on(monkeypatch, hourglass_chain(2))
    result = verification.check_hourglass_chain_values()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "cfvs(L_2) = 6, expected 5"


def test_p3_free_equality_fails_on_a_wrong_cfvs(monkeypatch):
    # the only connected P_3-free graph on 4 vertices is K_4, with fvs = cfvs = 2
    real = verification.min_cfvs

    def one_too_many(g):
        res = real(g)
        return replace(res, optimum=res.optimum + 1) if g.n == 4 else res

    monkeypatch.setattr(verification, "min_cfvs", one_too_many)
    result = verification.check_p3_free_equality()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "n=4: fvs 2 != cfvs 3"


def test_2p3_free_bound_fails_past_fvs_plus_42(monkeypatch):
    # a valid output on n <= 8 is too small to pass fvs + 42, so the fault
    # lowers the certified bound the criterion reads fvs from, on the triangle
    real = verification._connectify_sp3

    def lowered(g, s_param):
        result, trace = real(g, s_param)
        if g.n == 3 and g.edge_count == 3:
            trace.claimed_bound -= 43
        return result, trace

    monkeypatch.setattr(verification, "_connectify_sp3", lowered)
    result = verification.check_2p3_free_bound()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "n=3: size 1 > fvs -42 + 42"


def test_bipartite_and_3p1_values_fail_on_a_wrong_cfvs(monkeypatch):
    _cfvs_one_too_many_on(monkeypatch, complete_bipartite(3, 4), three_p1_witness())
    result = verification.check_bipartite_and_three_p1()
    assert result.passed is False
    assert result.detail.split("; ") == [
        "K_{3,4}: (fvs, cfvs) = (2, 4), expected (2, 3)",
        "three_p1_witness: (fvs, cfvs) = (2, 4), expected (2, 3)",
    ]


def test_oracle_equivalence_fails_on_a_flipped_brute_force(monkeypatch):
    real = verification.covers_bruteforce

    def flipped(h, i, j):
        got = real(h, i, j)
        return not got if (h, i, j) == (path(4), 3, 3) else got

    monkeypatch.setattr(verification, "covers_bruteforce", flipped)
    result = verification.check_oracle_equivalence()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "P_4 at (3,3): symbolic True, brute force False"


def test_pair_classification_fails_on_a_flipped_verdict(monkeypatch):
    real = verification.classify_pair

    def flipped(h1, h2):
        res = real(h1, h2)
        if (h1, h2) == (path(5), cycle(7)):
            return replace(res, verdict="unbounded", bounded=False)
        return res

    monkeypatch.setattr(verification, "classify_pair", flipped)
    result = verification.check_pair_classification()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "P_5 / C_7: got unbounded, expected bounded=True"


def test_tetrachotomy_catalog_fails_on_a_wrong_class(monkeypatch):
    real = verification.tetrachotomy_classify

    def demoted(h):
        res = real(h)
        return replace(res, verdict="class-i") if h == path(4) else res

    monkeypatch.setattr(verification, "tetrachotomy_classify", demoted)
    result = verification.check_tetrachotomy_catalog()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "Graph(n=4, m=3): got class-i, expected class-ii"


def test_p5_free_bound_fails_past_fvs_plus_3(monkeypatch):
    # every vertex of a connected graph is a connected FVS; on the two trees
    # with 4 vertices (fvs 0) that is one vertex past the bound
    real = verification.connectify_p5sp1

    def everything(g, s_param):
        result, trace = real(g, s_param)
        return (frozenset(range(g.n)) if g.n == 4 else result), trace

    monkeypatch.setattr(verification, "connectify_p5sp1", everything)
    result = verification.check_p5_free_bound()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "n=4: size 4 > fvs 0 + 3"


def test_path_construction_bound_fails_past_36_fvs(monkeypatch):
    # one vertex of a tree is a connected FVS, but fvs is 0 there
    real = verification.connectify_by_paths

    def one_vertex(g, s):
        result, trace = real(g, s)
        return (result or frozenset({0})), trace

    monkeypatch.setattr(verification, "connectify_by_paths", one_vertex)
    result = verification.check_path_construction_bound()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "n=1: size 1 > 36 * fvs 0"


def test_unboundedness_witnesses_fail_on_a_wrong_cfvs(monkeypatch):
    _cfvs_one_too_many_on(monkeypatch, butterfly(3, 3, 2))
    result = verification.check_unboundedness_witnesses()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "B_{3,3,2}: solver gave (2, 4), expected (2, 3)"


def test_unboundedness_witnesses_fail_on_a_wrong_chain_difference(monkeypatch):
    # cfvs one too high on L_2 and one too low on L_3: the L_k comparison
    # must refuse a difference on either side of k
    real = verification.min_cfvs
    shifts = {hourglass_chain(2): 1, hourglass_chain(3): -1}

    def shifted(g):
        res = real(g)
        return replace(res, optimum=res.optimum + shifts.get(g, 0))

    monkeypatch.setattr(verification, "min_cfvs", shifted)
    result = verification.check_unboundedness_witnesses()
    assert result.passed is False
    assert result.detail.split("; ") == [
        "L_2: difference 3, expected 2",
        "L_3: difference 2, expected 3",
    ]


def test_subdivided_triangle_family_fails_when_the_experiment_raises(monkeypatch):
    def contradicted(t_max):
        raise ContradictionError("a butterfly embeds into the t=2 instance")

    monkeypatch.setattr(verification, "gprime_experiment", contradicted)
    assert verification.check_subdivided_triangle_family() == CheckResult(
        "subdivided-triangle-family", False, "a butterfly embeds into the t=2 instance"
    )


def test_connected_domination_bound_fails_on_a_wrong_cds(monkeypatch):
    # the claw, the one graph with degrees 1, 1, 1, 3, has ds = cds = 1;
    # one more breaks cds <= 3*ds - 2
    real = verification.min_cds

    def one_too_many(g):
        res = real(g)
        if sorted(g.degrees()) == [1, 1, 1, 3]:
            return replace(res, optimum=res.optimum + 1)
        return res

    monkeypatch.setattr(verification, "min_cds", one_too_many)
    result = verification.check_connected_domination_bound()
    assert result.passed is False
    assert result.detail.split("; ")[0] == "n=4: cds 2 > 3*ds(1)-2"
