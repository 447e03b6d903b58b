"""Cross-validation batteries: exact reproduction of the published values
plus exhaustive desk-scale property checks.

Each criterion is a standalone callable returning a :class:`CheckResult`;
the test suite asserts them one by one and the CLI ``verify`` command runs
them by suite. Everything here is deterministic and self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cover import covered_pairs, covers_bruteforce, classify_pair
from .errors import ContradictionError
from .generators import (
    butterfly,
    claw,
    complete_bipartite,
    cycle,
    hourglass,
    hourglass_chain,
    path,
    spider,
    tadpole,
    three_p1_witness,
)
from .graph import Graph
from .harness import enumerate_connected_upto, gprime_experiment, tetrachotomy_classify
from .iso import is_free
from .constructive import _connectify_sp3, connectify_by_paths, connectify_p5sp1, sp3_constant
from .solvers import is_cfvs, is_fvs, min_cds, min_cfvs, min_ds, min_fvs


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str


def _result(criterion: str, failures: list[str], detail: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        return CheckResult(criterion, False, shown + more)
    return CheckResult(criterion, True, detail)


def check_butterfly_values() -> CheckResult:
    failures = []
    count = 0
    for i in range(3, 7):
        for j in range(3, 7):
            for k in range(1, 6):
                b = butterfly(i, j, k)
                f = min_fvs(b).optimum
                c = min_cfvs(b).optimum
                count += 1
                if f != 2:
                    failures.append(f"fvs(B_{{{i},{j},{k}}}) = {f}, expected 2")
                if c != k + 1:
                    failures.append(f"cfvs(B_{{{i},{j},{k}}}) = {c}, expected {k + 1}")
    return _result(
        "butterfly-values", failures, f"fvs = 2 and cfvs = k+1 on all {count} butterflies"
    )


def check_hourglass_chain_values() -> CheckResult:
    failures = []
    forbidden = [path(6), path(4) + path(2)]
    for k in range(1, 4):
        lk = hourglass_chain(k)
        f = min_fvs(lk).optimum
        c = min_cfvs(lk).optimum
        if f != k + 1:
            failures.append(f"fvs(L_{k}) = {f}, expected {k + 1}")
        if c != 2 * k + 1:
            failures.append(f"cfvs(L_{k}) = {c}, expected {2 * k + 1}")
        if not is_free(lk, forbidden):
            failures.append(f"L_{k} contains P_6 or P_4+P_2")
    return _result(
        "hourglass-chain-values",
        failures,
        "fvs = k+1, cfvs = 2k+1, and (P_6, P_4+P_2)-freeness for k = 1..3",
    )


def check_bipartite_and_three_p1() -> CheckResult:
    failures = []
    for ell in range(3, 7):
        g = complete_bipartite(3, ell)
        f, c = min_fvs(g).optimum, min_cfvs(g).optimum
        if (f, c) != (2, 3):
            failures.append(f"K_{{3,{ell}}}: (fvs, cfvs) = {(f, c)}, expected (2, 3)")
    w = three_p1_witness()
    f, c = min_fvs(w).optimum, min_cfvs(w).optimum
    if (f, c) != (2, 3):
        failures.append(f"three_p1_witness: (fvs, cfvs) = {(f, c)}, expected (2, 3)")
    return _result(
        "bipartite-and-3p1-values", failures, "fvs = 2 and cfvs = 3 on K_{3,l} and the 3P_1 witness"
    )


def oracle_catalog() -> list[tuple[str, Graph]]:
    """Structure profiles spanning every decomposition shape."""
    return [
        ("P_4", path(4)),
        ("P_6", path(6)),
        ("P_5+2P_1", path(5) + 2 * path(1)),
        ("P_1", path(1)),
        ("C_3", cycle(3)),
        ("C_4", cycle(4)),
        ("C_5", cycle(5)),
        ("C_6", cycle(6)),
        ("D_2^3+P_2", tadpole(2, 3) + path(2)),
        ("D_1^4", tadpole(1, 4)),
        ("2C_3", 2 * cycle(3)),
        ("C_3+C_4+P_1", cycle(3) + cycle(4) + path(1)),
        ("D_1^3+C_4", tadpole(1, 3) + cycle(4)),
        ("claw", claw()),
        ("T_1^{2,4}", spider(1, 2, 4)),
        ("2claw", 2 * claw()),
        ("claw+T_1^{2,2}+P_2", claw() + spider(1, 2, 2) + path(2)),
        ("C_3+claw", cycle(3) + claw()),
        ("D_2^5+T_1^{1,3}+P_1", tadpole(2, 5) + spider(1, 1, 3) + path(1)),
        ("hourglass", hourglass()),
        ("K_4", Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])),
        ("3C_3", 3 * cycle(3)),
        ("B_{3,3,1}", butterfly(3, 3, 1)),
    ]


def check_oracle_equivalence() -> CheckResult:
    failures = []
    pairs = 0
    for name, h in oracle_catalog():
        symbolic = covered_pairs(h)
        for i in range(3, 13):
            for j in range(3, 13):
                pairs += 1
                expect = covers_bruteforce(h, i, j)
                got = symbolic.contains(i, j)
                if expect != got:
                    failures.append(
                        f"{name} at ({i},{j}): symbolic {got}, brute force {expect}"
                    )
    return _result(
        "lemma-table-oracle-equivalence",
        failures,
        f"symbolic = brute force on {len(oracle_catalog())} profiles x 100 pairs "
        f"({pairs} checks)",
    )


def pair_catalog() -> list[tuple[str, Graph, Graph, bool]]:
    return [
        # one member a linear forest
        ("P_5 / C_7", path(5), cycle(7), True),
        ("P_4 / hourglass", path(4), hourglass(), True),
        ("2P_3 / C_3", 2 * path(3), cycle(3), True),
        ("P_1 / K_4", path(1), Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), True),
        ("C_5 / P_2+P_4", cycle(5), path(2) + path(4), True),
        # triangle tadpole with double short-leg spider
        ("D_1^3 / 2T_3^{1,1}", tadpole(1, 3), 2 * spider(3, 1, 1), True),
        ("C_3 / 2claw", cycle(3), 2 * claw(), True),
        ("D_2^3 / 2T_1^{1,1}", tadpole(2, 3), 2 * claw(), True),
        ("2claw / C_3 (swapped)", 2 * claw(), cycle(3), True),
        ("D_0^3+P_2 / 2T_2^{1,1}", cycle(3) + path(2), 2 * spider(2, 1, 1), True),
        # double triangle tadpole with single short-leg spider
        ("2C_3 / claw", 2 * cycle(3), claw(), True),
        ("2D_1^3 / T_2^{1,1}", 2 * tadpole(1, 3), spider(2, 1, 1), True),
        ("claw / 2D_2^3 (swapped)", claw(), 2 * tadpole(2, 3), True),
        ("C_3+D_1^3 / claw+P_1", cycle(3) + tadpole(1, 3), claw() + path(1), True),
        # near misses
        ("C_4 / claw", cycle(4), claw(), False),
        ("C_4 / 2claw", cycle(4), 2 * claw(), False),
        ("C_3 / C_4", cycle(3), cycle(4), False),
        ("claw / claw", claw(), claw(), False),
        ("hourglass / C_3", hourglass(), cycle(3), False),
        ("C_3 / T_2^{2,2}", cycle(3), spider(2, 2, 2), False),
        ("2C_3 / T_1^{2,2}", 2 * cycle(3), spider(1, 2, 2), False),
        ("C_3 / 2T_1^{2,2}", cycle(3), 2 * spider(1, 2, 2), False),
        ("hourglass / 2claw", hourglass(), 2 * claw(), False),
        ("C_5 / 2claw", cycle(5), 2 * claw(), False),
    ]


def check_pair_classification() -> CheckResult:
    failures = []
    for name, h1, h2, expect_bounded in pair_catalog():
        res = classify_pair(h1, h2)
        if res.bounded != expect_bounded:
            failures.append(f"{name}: got {res.verdict}, expected bounded={expect_bounded}")
    return _result(
        "pair-classification",
        failures,
        f"all {len(pair_catalog())} two-member verdicts match the catalog",
    )


def check_tetrachotomy_catalog() -> CheckResult:
    cases = [
        (path(1), "class-i"),
        (path(2), "class-i"),
        (path(3), "class-i"),
        (path(4), "class-ii"),
        (path(5), "class-ii"),
        (path(5) + 2 * path(1), "class-ii"),
        (2 * path(3), "class-ii"),
        (3 * path(3), "class-ii"),
        (path(6), "class-iii"),
        (path(4) + path(2), "class-iii"),
        (path(7), "class-iii"),
        (cycle(3), "class-iv"),
        (claw(), "class-iv"),
        (hourglass(), "class-iv"),
        (cycle(3) + path(2), "class-iv"),
    ]
    failures = []
    for h, expected in cases:
        got = tetrachotomy_classify(h).verdict
        if got != expected:
            failures.append(f"{h!r}: got {got}, expected {expected}")
    return _result(
        "tetrachotomy-catalog", failures, f"all {len(cases)} classifications match"
    )


def check_p3_free_equality() -> CheckResult:
    failures = []
    total = 0
    for g in enumerate_connected_upto(8, forbidden=(path(3),)):
        total += 1
        f, c = min_fvs(g).optimum, min_cfvs(g).optimum
        if f != c:
            failures.append(f"n={g.n}: fvs {f} != cfvs {c}")
    return _result(
        "p3-free-equality", failures, f"cfvs = fvs on all {total} connected P_3-free graphs n<=8"
    )


def check_p5_free_bound() -> CheckResult:
    failures = []
    total = 0
    for g in enumerate_connected_upto(7, forbidden=(path(5),)):
        total += 1
        result, _ = connectify_p5sp1(g, 0)
        f = min_fvs(g).optimum
        if not is_cfvs(g, result):
            failures.append(f"n={g.n}: invalid output on {g!r}")
        elif len(result) > f + 3:
            failures.append(f"n={g.n}: size {len(result)} > fvs {f} + 3")
    return _result(
        "p5-free-additive-bound",
        failures,
        f"valid connected FVS of size <= fvs+3 on all {total} connected P_5-free graphs n<=7",
    )


def audit_sp3_trace(g: Graph, trace) -> list[str]:
    """The 2P_3-free criterion's audit of one ``connectify_sp3`` trace.

    Recomputes from ``g``, not from the trace's own flags, that every
    checkpoint is an FVS and that every swap's closed neighbourhoods nest.
    Returns a failure line for the first breach of each, if any.
    """
    failures = []
    for intermediate in trace.fvs_checkpoints:
        if not is_fvs(g, intermediate):
            failures.append(f"n={g.n}: trace intermediate is not an FVS")
            break
    for swap in trace.swaps:
        x, y = swap["removed"], swap["added"]
        if g.closed_mask(x) & ~g.closed_mask(y):
            failures.append(f"n={g.n}: swap {x}->{y} lacks containment")
            break
    return failures


def check_2p3_free_bound() -> CheckResult:
    failures = []
    total = 0
    # the filter has already checked connectify_sp3's preconditions
    for g in enumerate_connected_upto(8, forbidden=(2 * path(3),)):
        total += 1
        result, trace = _connectify_sp3(g, 2)
        # the pipeline's certified bound is its minimum fvs plus the constant
        f = trace.claimed_bound - sp3_constant(2)
        if not is_cfvs(g, result):
            failures.append(f"n={g.n}: invalid output")
        elif len(result) > f + 42:
            failures.append(f"n={g.n}: size {len(result)} > fvs {f} + 42")
        failures += audit_sp3_trace(g, trace)
    return _result(
        "2p3-free-additive-bound",
        failures,
        f"valid connected FVS of size <= fvs+42 with audited traces on all "
        f"{total} connected 2P_3-free graphs n<=8",
    )


def check_path_construction_bound() -> CheckResult:
    bridge = 4 * 9  # covering context for a single 4-vertex pattern
    failures = []
    total = 0
    for g in enumerate_connected_upto(8, forbidden=(path(4),)):
        total += 1
        f_res = min_fvs(g)
        result, _ = connectify_by_paths(g, f_res.witness)
        if not is_cfvs(g, result):
            failures.append(f"n={g.n}: invalid output")
        elif len(result) > bridge * f_res.optimum:
            failures.append(f"n={g.n}: size {len(result)} > {bridge} * fvs {f_res.optimum}")
        if g.diameter() > bridge:
            failures.append(f"n={g.n}: diameter {g.diameter()} above {bridge}")
    return _result(
        "path-construction-bound",
        failures,
        f"connected FVS within 36*fvs and diameter <= 36 on all {total} "
        f"connected P_4-free graphs n<=8",
    )


def check_unboundedness_witnesses() -> CheckResult:
    failures = []
    for k in range(1, 6):
        b = butterfly(3, 3, k)
        f, c = min_fvs(b).optimum, min_cfvs(b).optimum
        if (f, c) != (2, k + 1):
            failures.append(f"B_{{3,3,{k}}}: solver gave {(f, c)}, expected (2, {k + 1})")
    for k in range(6, 10):
        b = butterfly(3, 3, k)
        hubs = [v for v in b.vertices() if b.degree(v) == 3]
        if len(hubs) != 2 or not b.without(hubs).is_acyclic():
            failures.append(f"B_{{3,3,{k}}}: hub removal did not leave a forest")
        if any(b.without([v]).is_acyclic() for v in b.vertices()):
            failures.append(f"B_{{3,3,{k}}}: a single vertex meets every cycle")
        bridge_set = b.shortest_path(0, 3 + k - 1)
        if len(bridge_set) != k + 1 or not is_cfvs(b, bridge_set):
            failures.append(f"B_{{3,3,{k}}}: bridge is not a connected FVS of size k+1")
    # the last pass built the k = 9 bridge and found fvs = 2 (two hubs, no one vertex)
    if Fraction(len(bridge_set), 2) < 5:
        failures.append("ratio (k+1)/2 fails to reach 5 at k = 9")
    for k in range(1, 4):
        lk = hourglass_chain(k)
        d = min_cfvs(lk).optimum - min_fvs(lk).optimum
        if d != k:
            failures.append(f"L_{k}: difference {d}, expected {k}")
    return _result(
        "unboundedness-witnesses",
        failures,
        "butterfly ratio reaches 5 by bridge 9 (solver to 5, structural beyond); "
        "hourglass-chain difference reaches k for k<=3",
    )


def check_subdivided_triangle_family() -> CheckResult:
    try:
        report = gprime_experiment(3)
    except ContradictionError as exc:
        return CheckResult("subdivided-triangle-family", False, str(exc))
    detail = ", ".join(f"t={r.t}: fvs={r.fvs} cfvs={r.cfvs}" for r in report.rows)
    return CheckResult(
        "subdivided-triangle-family", True, detail + "; no butterfly on <=12 vertices embeds"
    )


def check_connected_domination_bound() -> CheckResult:
    failures = []
    total = 0
    for g in enumerate_connected_upto(7):
        total += 1
        ds = min_ds(g).optimum
        cds = min_cds(g).optimum
        if cds > 3 * ds - 2:
            failures.append(f"n={g.n}: cds {cds} > 3*ds({ds})-2")
    return _result(
        "connected-domination-bound",
        failures,
        f"cds <= 3*ds - 2 on all {total} connected graphs n<=7",
    )


CRITERIA: list[tuple[int, str, str, Callable[[], CheckResult]]] = [
    (1, "butterfly-values", "witnesses", check_butterfly_values),
    (2, "hourglass-chain-values", "witnesses", check_hourglass_chain_values),
    (3, "bipartite-and-3p1-values", "witnesses", check_bipartite_and_three_p1),
    (4, "lemma-table-oracle-equivalence", "lemmas", check_oracle_equivalence),
    (5, "pair-classification", "lemmas", check_pair_classification),
    (6, "tetrachotomy-catalog", "lemmas", check_tetrachotomy_catalog),
    (7, "p3-free-equality", "constructive", check_p3_free_equality),
    (8, "p5-free-additive-bound", "constructive", check_p5_free_bound),
    (9, "2p3-free-additive-bound", "constructive", check_2p3_free_bound),
    (10, "path-construction-bound", "constructive", check_path_construction_bound),
    (11, "unboundedness-witnesses", "witnesses", check_unboundedness_witnesses),
    (12, "subdivided-triangle-family", "witnesses", check_subdivided_triangle_family),
    (13, "connected-domination-bound", "constructive", check_connected_domination_bound),
]


def run_suite(suite: str = "all") -> list[tuple[int, CheckResult]]:
    chosen = [
        (num, fn) for num, _, tag, fn in CRITERIA if suite == "all" or tag == suite
    ]
    return [(num, fn()) for num, fn in chosen]
