"""Acceptance gate: every criterion runs at its stated tolerance (exact)
and prints one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from dataclasses import replace

import pytest

from pocfvs import butterfly, hourglass_chain, verification
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


def _cfvs_one_too_many_on(monkeypatch, target):
    """Make ``verification.min_cfvs`` answer one above the optimum on ``target`` only."""
    real = verification.min_cfvs

    def one_too_many(g):
        res = real(g)
        return replace(res, optimum=res.optimum + 1) if g == target else res

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
