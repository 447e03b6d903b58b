"""Acceptance gate: every criterion runs at its stated tolerance (exact)
and prints one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import pytest

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
