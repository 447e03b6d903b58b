"""Regenerate expected.json: the answers the worker's gates compare against.

Usage: python3 perfbench/make_expected.py   (about 90 s)

Run it only on a commit whose outputs are known good; expected.json holds
the answers of the commit that defined this benchmark, and every later
commit must reproduce them byte for byte.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from pocfvs import generators, harness, verification  # noqa: E402

from worker import FAMILIES, SMOKE  # noqa: E402


def explore(n_max, forbidden=()):
    report = harness.max_poc(harness.EnumerationSpec(n_max=n_max, forbidden=forbidden))
    return report, hashlib.sha256(report.to_json(None).encode()).hexdigest()


def main():
    out = {"explore": {}, "verify": {}, "families": {}}
    for n_max in (SMOKE["explore_n"], 8):
        report, digest = explore(n_max)
        out["explore"][str(n_max)] = {"sha256": digest, "records": len(report.records),
                                      "max_ratio": str(report.max_ratio),
                                      "max_difference": report.max_difference}
    for family in FAMILIES:
        members = tuple(generators.graph_from_text(s) for s in family.split(";"))
        out["families"][family] = explore(6, members)[1]
    for num, res in verification.run_suite("all"):
        if not res.passed:
            raise SystemExit(f"criterion {num} fails; refusing to record it")
        out["verify"][str(num)] = [res.criterion, res.detail]
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
