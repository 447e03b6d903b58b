"""Smoke test of the benchmark itself at tiny sizes (about 20 s).

Run: python3 -m pytest perfbench/test_smoke.py -q

Explore n<=5, 20 queries and two cheap criteria: checks the metric names
and units against BENCHMARK.json, that the gates catch wrong answers, and
that the query stream is a function of the seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from pocfvs.solvers import SolveResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[int, dict]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "0",
                           "--size", "smoke", *args], capture_output=True, text=True, timeout=300)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def units(metrics: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def test_end_to_end_metrics_on_every_workload():
    code, results = bench("--workload", "all", "--trace", "0")
    assert code == 0
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for result in results.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units(SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["explore-n8", "queries"])
def test_per_layer_metrics_when_traced(workload):
    code, result = bench("--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units(SPEC["per_layer"])


def test_seed_determines_the_query_stream():
    one, again, other = (worker.query_digest(worker.make_queries(s, smoke=True)) for s in (1, 1, 2))
    assert one == again != other
    assert len(worker.make_queries(1, smoke=True)) == 20


def test_gates_catch_wrong_answers():
    queries = worker.make_queries(1, smoke=True)
    solve = next(q for q in queries if q["kind"] == "solve")
    assert worker.wrong(solve, SolveResult(solve["want"], frozenset(), 1)) is None
    assert worker.wrong(solve, SolveResult(solve["want"] + 1, frozenset(), 1))
    covers = next(q for q in queries if q["kind"] == "covers")
    assert worker.wrong(covers, (True, False))
    explore = next(q for q in queries if q["kind"] == "explore")

    class Report:
        def to_json(self, timestamp):
            return "{}"

    assert worker.wrong(explore, Report())
