"""One pass of one workload, in a fresh interpreter (started by run.py).

Usage: python3 perfbench/worker.py --workload W --seed N [--size smoke]
       [--trace --spans PATH] [--replica K] [--setup-only]

Imports pocfvs from ``src``, builds the workload's inputs from the seed,
runs them once with ``time.perf_counter`` around each operation, checks
every answer against closed forms and the digests in ``expected.json``,
and prints one JSON object on stdout. With ``--trace`` the pass runs under
``tracer`` and the object also carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from pocfvs import cover, generators, graph6, harness, solvers, verification  # noqa: E402

import tracer as tracing  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
CONNECTED_GRAPHS = [1, 1, 2, 6, 21, 112, 853, 11117]  # OEIS A001349, n = 1..8

# -- the query mix -------------------------------------------------------------
# Each stratum fixes what sets a query's cost (order, bridge length, solver,
# pattern), so every seed has the same cost profile; the seed draws the cycle
# splits, the labels, the extra classify cases and the order of the stream.
BUTTERFLIES = [  # (order n <= 18, bridge length k); cfvs = k + 1 scans sum C(n, <=k)
    (6, 1), (8, 2), (9, 3), (11, 4), (12, 5), (14, 6), (15, 7),
    (16, 8), (17, 9), (18, 2), (18, 4), (18, 7), (18, 10),
]
HOURGLASS_CHAINS = [1, 2, 3]
BIPARTITE = range(3, 16)  # K_{3,l}
TETRACHOTOMY = [  # the criterion-6 catalog
    ("P1", "class-i"), ("P2", "class-i"), ("P3", "class-i"),
    ("P4", "class-ii"), ("P5", "class-ii"), ("P5+2P1", "class-ii"),
    ("2P3", "class-ii"), ("3P3", "class-ii"),
    ("P6", "class-iii"), ("P4+P2", "class-iii"), ("P7", "class-iii"),
    ("C3", "class-iv"), ("claw", "class-iv"), ("hourglass", "class-iv"), ("C3+P2", "class-iv"),
]
# class-iii witnesses solve L_1..L_3, a hundred times the cost of the others,
# so the extra draws come from the other classes
CLASSIFY_EXTRA = 5
FAMILIES = ["kbip:4,4", "3C3", "kbip:1,6", "P4;kbip:4,4", "claw;3C3"]
FAMILY_REPEATS = 3  # the level cache is cold on the first query of a family only
SMOKE = {"explore_n": 5, "criteria": (3, 6)}


def relabel(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    return g.relabel(order)


def make_queries(seed: int, smoke: bool) -> list[dict]:
    """The seeded query stream: 45 solves, 20 classify, 23 covers and 15 explore queries."""
    rng = random.Random(seed)
    qs = []
    for n, k in BUTTERFLIES[:3] if smoke else BUTTERFLIES:
        i = rng.randint(3, n - k - 2)
        for quantity in ("fvs", "cfvs"):
            g = relabel(generators.butterfly(i, n - k + 1 - i, k), rng)
            qs.append({"kind": "solve", "what": f"B_{{{i},{n - k + 1 - i},{k}}}", "quantity": quantity,
                       "graph": g, "want": 2 if quantity == "fvs" else k + 1})
    for k in HOURGLASS_CHAINS[:1] if smoke else HOURGLASS_CHAINS:
        for quantity in ("fvs", "cfvs"):
            qs.append({"kind": "solve", "what": f"L_{k}", "quantity": quantity,
                       "graph": relabel(generators.hourglass_chain(k), rng),
                       "want": k + 1 if quantity == "fvs" else 2 * k + 1})
    for q, ell in enumerate(BIPARTITE[:1] if smoke else BIPARTITE):
        quantity = ("fvs", "cfvs")[q % 2]
        qs.append({"kind": "solve", "what": f"K_{{3,{ell}}}", "quantity": quantity,
                   "graph": relabel(generators.complete_bipartite(3, ell), rng),
                   "want": 2 if quantity == "fvs" else 3})
    cheap = [case for case in TETRACHOTOMY if case[1] != "class-iii"]
    picks = rng.sample(TETRACHOTOMY, 4) if smoke else TETRACHOTOMY + rng.sample(cheap, CLASSIFY_EXTRA)
    for spec, verdict in picks:
        qs.append({"kind": "classify", "what": spec, "graph": relabel(generators.graph_from_text(spec), rng),
                   "want": verdict})
    # one query per catalog pattern; i + j cycles through 6..16, so the size of
    # the butterfly host is fixed per pattern and the seed draws the split
    catalog = verification.oracle_catalog()
    for t, (name, h) in enumerate(catalog[:4] if smoke else catalog):
        total = 6 + t % 11
        i = rng.randint(max(3, total - 8), min(8, total - 3))
        qs.append({"kind": "covers", "what": name, "graph": relabel(h, rng), "i": i, "j": total - i})
    for family in FAMILIES[:3] if smoke else FAMILIES * FAMILY_REPEATS:
        members = tuple(relabel(generators.graph_from_text(s), rng) for s in family.split(";"))
        qs.append({"kind": "explore", "what": family, "graphs": members,
                   "spec": harness.EnumerationSpec(n_max=6, forbidden=members),
                   "want": EXPECTED["families"][family]})
    rng.shuffle(qs)
    return qs


def query_digest(qs: list[dict]) -> str:
    """sha256 over every query's kind, parameters and relabelled graph6 strings."""
    h = hashlib.sha256()
    for q in qs:
        graphs = q.get("graphs", (q.get("graph"),))
        row = [q["kind"], q["what"], q.get("quantity"), q.get("i"), q.get("j"),
               [graph6.encode(g) for g in graphs]]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def ask(q: dict):
    if q["kind"] == "solve":
        return (solvers.min_fvs if q["quantity"] == "fvs" else solvers.min_cfvs)(q["graph"])
    if q["kind"] == "classify":
        return harness.tetrachotomy_classify(q["graph"]), harness.unboundedness_witnesses(q["graph"], 3)
    if q["kind"] == "covers":
        h, i, j = q["graph"], q["i"], q["j"]
        return cover.covers_bruteforce(h, i, j), cover.covered_pairs(h).contains(i, j)
    return harness.max_poc(q["spec"])


def wrong(q: dict, answer) -> str | None:
    """Why an answer is wrong, or None."""
    what = f"{q['kind']} {q['what']}"
    if q["kind"] == "solve":
        if answer.optimum != q["want"]:
            return f"{what}: {q['quantity']} = {answer.optimum}, expected {q['want']}"
    elif q["kind"] == "classify":
        verdict, witnesses = answer
        if verdict.verdict != q["want"]:
            return f"{what}: verdict {verdict.verdict}, expected {q['want']}"
        if q["want"] == "class-iii":
            want = [(5 * k + 1, k + 1, 2 * k + 1) for k in (1, 2, 3)]
        elif q["want"] == "class-iv":
            i, j = verdict.uncovered_pair  # butterfly B_{i,j,k} has i+j+k-1 vertices, cfvs k+1
            want = [(b.n, 2, b.n - i - j + 2) for b, _, _ in witnesses] if len(witnesses) == 3 else None
        else:
            want = []
        if [(b.n, f, c) for b, f, c in witnesses] != want:
            return f"{what}: witnesses {[(b.n, f, c) for b, f, c in witnesses]}, expected {want}"
    elif q["kind"] == "covers":
        brute, symbolic = answer
        if brute != symbolic:
            return f"{what} ({q['i']},{q['j']}): brute force {brute} != symbolic {symbolic}"
    elif hashlib.sha256(answer.to_json(None).encode()).hexdigest() != q["want"]:
        return f"{what}: report digest differs from the seed commit's"
    return None


# -- workloads -------------------------------------------------------------------


class Pass:
    """What one pass measured; ``ops`` counts the workload's unit of work."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wall_s = 0.0
        self.ops = 0
        self.attempted = 0
        self.failures: list[str] = []


def run_explore(smoke: bool, span) -> Pass:
    n_max = SMOKE["explore_n"] if smoke else 8
    spec = harness.EnumerationSpec(n_max=n_max)
    out = Pass()
    t = time.perf_counter()
    report = span("workload.explore-n8", lambda: harness.max_poc(spec))
    out.wall_s = time.perf_counter() - t
    out.latencies, out.ops, out.attempted = [out.wall_s], len(report.records), 1
    want = EXPECTED["explore"][str(n_max)]
    levels = [sum(1 for r in report.records if r.order == n) for n in range(1, n_max + 1)]
    got = {"sha256": hashlib.sha256(report.to_json(None).encode()).hexdigest(),
           "records": len(report.records), "max_ratio": str(report.max_ratio),
           "max_difference": report.max_difference}
    if levels != CONNECTED_GRAPHS[:n_max]:
        out.failures.append(f"level counts {levels} != A001349 {CONNECTED_GRAPHS[:n_max]}")
    elif got != want:
        out.failures.append(f"report {got} != seed commit's {want}")
    return out


def run_verify(smoke: bool, span) -> Pass:
    out = Pass()
    chosen = SMOKE["criteria"] if smoke else range(1, 14)
    if smoke:
        verification.CRITERIA = [c for c in verification.CRITERIA if c[0] in chosen]
    t = time.perf_counter()
    try:
        results = span("workload.verify-all", lambda: verification.run_suite("all"))
    except Exception as exc:  # a crash fails every criterion; report it, do not hide it
        results = []
        out.failures.append(f"run_suite raised {exc!r}")
    out.wall_s = time.perf_counter() - t
    out.latencies = [out.wall_s]
    out.ops = out.attempted = len(chosen)
    for num, res in results:
        want = EXPECTED["verify"][str(num)]
        if not res.passed or [res.criterion, res.detail] != want:
            out.failures.append(f"criterion {num}: {res.passed} {res.criterion}: {res.detail}")
    out.failures += [f"criterion {n}: missing" for n in chosen if n not in dict(results)]
    return out


def run_queries(qs: list[dict], span) -> Pass:
    out = Pass()
    answers = []
    t = time.perf_counter()
    for q in qs:
        t_q = time.perf_counter()
        try:
            answers.append(span(f"query.{q['kind']}", ask, q))
        except Exception as exc:  # count it as a failed query and go on
            answers.append(exc)
        out.latencies.append(time.perf_counter() - t_q)
    out.wall_s = time.perf_counter() - t
    out.ops = out.attempted = len(qs)
    for q, answer in zip(qs, answers):
        why = f"{q['kind']} {q['what']}: raised {answer!r}" if isinstance(answer, Exception) else wrong(q, answer)
        if why:
            out.failures.append(why)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["explore-n8", "verify-all", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="where a traced pass writes its spans (gzip TSV)")
    ap.add_argument("--replica", type=int, help="index of this copy when run.py runs several at once")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    smoke = args.size == "smoke"
    if "POCFVS_LIMIT" in os.environ:
        raise SystemExit("POCFVS_LIMIT must be unset so the default 20-vertex limit applies")
    if getattr(harness, "_LEVEL_CACHE", None):
        raise SystemExit("the level cache must be empty at the start of a pass")
    qs = make_queries(args.seed, smoke) if args.workload == "queries" else []
    record = {"setup_s": time.perf_counter() - T0, "query_digest": query_digest(qs) if qs else None}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)
    span = tracer.span if tracer else (lambda name, fn, *a: fn(*a))
    if args.workload == "explore-n8":
        done = run_explore(smoke, span)
    elif args.workload == "verify-all":
        done = run_verify(smoke, span)
    else:
        done = run_queries(qs, span)
    record.update(wall_s=done.wall_s, latencies=done.latencies, ops=done.ops,
                  attempted=done.attempted, failures=done.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        record.update(layers=tracer.layer_metrics(), roots_s=tracer.roots_s(),
                      spans=len(tracer.name), absent=tracer.absent)
        if args.spans:
            spans = Path(args.spans)
            if args.replica is not None:
                spans = spans.with_name(spans.name.replace(".tsv", f"-replica{args.replica}.tsv"))
            tracer.write_spans(spans)
            record["spans_file"] = str(spans.relative_to(HERE.parent))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
