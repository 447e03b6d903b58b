import hashlib
import json
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from pocfvs import (
    ContradictionError,
    Graph,
    InvalidInputError,
    ResourceLimitError,
    butterfly,
    claw,
    cycle,
    gprime_experiment,
    hourglass,
    path,
    tadpole,
)
from pocfvs import graph6 as g6mod
from pocfvs import iso
from pocfvs.cover import ClassificationResult
from pocfvs.generators import graph_from_text
from pocfvs.graph6 import decode, encode, read_file
from pocfvs.harness import (
    EnumerationSpec,
    ExperimentReport,
    enumerate_connected,
    enumerate_connected_upto,
    evaluate_graphs,
    _orbit_minima,
    max_poc,
    tetrachotomy_classify,
    unboundedness_witnesses,
)
from pocfvs.iso import _search, are_isomorphic, canonical_form, is_free
from pocfvs.solvers import fvs_and_cfvs, min_cfvs, min_fvs
from pocfvs.verification import oracle_catalog

from _oracles import (
    dfs_is_acyclic,
    edge_set,
    enumerate_all_graphs,
    is_cycle_graph,
    orbit_minima_by_closure,
    perm_isomorphic,
    reachable,
    tetrachotomy_by_hosts,
)


def test_enumeration_counts_naive_crosscheck_small():
    # independent route: all labeled graphs, connectivity by BFS, classes
    # by permutation isomorphism
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        classes: list[Graph] = []
        for mask in range(1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            if len(reachable(n, set(edges), 0)) != n:
                continue
            g = Graph(n, edges)
            if not any(perm_isomorphic(g, h) for h in classes):
                classes.append(g)
        assert len(enumerate_connected(n)) == len(classes)


def test_enumeration_counts_published():
    expected = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, count in expected.items():
        assert len(enumerate_connected(n)) == count


def test_enumeration_examples():
    three = enumerate_connected(3)
    assert len(three) == 2
    assert any(are_isomorphic(g, path(3)) for g in three)
    assert any(are_isomorphic(g, cycle(3)) for g in three)
    p3_free = enumerate_connected(5, forbidden=(path(3),))
    assert len(p3_free) == 1
    assert p3_free[0].is_complete()


def test_enumeration_unique_and_connected():
    seen = set()
    for g in enumerate_connected(6):
        assert g.is_connected()
        key = canonical_form(g)
        assert key not in seen
        seen.add(key)


def test_enumerated_levels_are_fresh_lists(monkeypatch):
    # a caller that mutates a returned level, filtered or not, must not
    # change the level cache or the family memo
    from pocfvs import harness

    monkeypatch.setattr(harness, "_LEVEL_CACHE", {})
    monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})
    level = enumerate_connected(3)
    before = list(level)
    level.clear()
    assert enumerate_connected(3) == before
    assert len(enumerate_connected(4)) == 6
    family = (claw(),)
    for n in (4, 5):
        level = enumerate_connected(n, family)
        before = list(level)
        level.pop()
        level.append(Graph(n))
        assert enumerate_connected(n, family) == before
    upto = enumerate_connected_upto(5, family)
    upto.clear()
    assert len(enumerate_connected(5, family)) == 14


def test_enumeration_ignores_family_labels_and_order(monkeypatch):
    # freeness is isomorphism-invariant, so a relabelled or reordered
    # family yields the same levels; each family gets a cold cache and an
    # empty family memo here, so no family reads another's entry
    from pocfvs import harness

    def levels(family):
        monkeypatch.setattr(harness, "_LEVEL_CACHE", {})
        monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})
        return [enumerate_connected(n, family) for n in range(1, 7)]

    c4 = cycle(4)
    for family, same in [
        ((claw(),), (claw().relabel((3, 2, 0, 1)),)),
        ((path(4), c4), (c4, path(4))),
    ]:
        first = levels(family)
        assert first == levels(same)
        # the family prunes: at n = 4 some connected graphs are dropped
        assert len(first[3]) < 6


# sha256 of every level's (n, edge list), in order, as the reference
# implementation enumerated them; a changed representative, vertex label
# or level order fails here
LEVEL_DIGESTS = {
    "unfiltered": "5afcdf32e65f912d1036f8562c78fed75b4bcf98c141dda2eb81bc660a8860b6",
    "P3": "ce6f307299615cec7fa1cfb44ba5213b3264ae07a3ebe2c40b213fcc86a21b5d",
    "P5": "32ea2744ad10ad07f41e49f218702a96a4cf31aade117504930796dca7322aed",
    "2P3": "0aa3696092585e97d1883fcbf4c5409c04b0b49f114fd4899c0afa8b925f476d",
    "P4": "d3f2e0018d1a2733cde84c9acede937ccf34924362e217526d05a5a4ec920243",
    "P5+P1": "c44d43e5c4041e4ff078006c295ca1c7aa1471271b83ae0774df8dd8b1d07454",
    "claw": "15c5c73995085186db095f07255166805cd5255423b88441186f0863bac5e619",
    "P4,C4": "40df1bd6ebd0f13787dbbc96f2690f7883e746066ba5d88d0942e866e205a8f8",
}


def _level_digest(family, n_max):
    h = hashlib.sha256()
    for n in range(1, n_max + 1):
        level = [(g.n, g.edges()) for g in enumerate_connected(n, family)]
        h.update(json.dumps(level).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_enumeration_levels_are_byte_stable(monkeypatch):
    from pocfvs import harness

    families = {
        "unfiltered": ((), 8),
        "P3": ((path(3),), 8),
        "P5": ((path(5),), 7),
        "2P3": ((2 * path(3),), 8),
        "P4": ((path(4),), 8),
        "P5+P1": ((path(5) + path(1),), 7),
        "claw": ((claw(),), 6),
        "P4,C4": ((path(4), cycle(4)), 6),
    }
    digests = {}
    for name, (family, n_max) in families.items():
        monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})  # each family runs cold
        digests[name] = _level_digest(family, n_max)
    assert digests == LEVEL_DIGESTS


# sha256 of the n <= 7 levels, one by one and joined, of one-member families
# of every oracle-catalog pattern, of the benchmark's query families, of the
# empty pattern (which keeps nothing) and of a pattern too large for any
# level, as the plain filter over each level found them
FAMILY_LEVELS_DIGEST = "7e940dc7f6297920361fe268263ffa56bbc76a6a1578e05d490bc6b5575ba572"


def test_family_levels_are_byte_stable(monkeypatch):
    from pocfvs import harness

    families = [(h,) for _, h in oracle_catalog()]
    for text in ["kbip:4,4", "3C3", "kbip:1,6", "P4;kbip:4,4", "claw;3C3"]:
        families.append(tuple(graph_from_text(s) for s in text.split(";")))
    families += [(Graph(0),), (cycle(8),)]
    # freeness ignores labels, so seeded relabelled members give the same levels
    rng = random.Random(25)
    for family in families[:]:
        families.append(tuple(m.relabel(rng.sample(range(m.n), m.n)) for m in family))
    h = hashlib.sha256()
    for family in families:
        # an empty memo, so a relabelled family is filtered, not read from its original's entry
        monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})
        h.update(_level_digest(family, 7).encode())
        h.update(json.dumps([g.edges() for g in enumerate_connected_upto(7, family)]).encode())
    assert h.hexdigest() == FAMILY_LEVELS_DIGEST


def _counting_filters(monkeypatch):
    """An empty family memo, and a list that grows by one for each family filtered afresh."""
    from pocfvs import harness

    built = []

    def counting(family):
        built.append(family)
        return iso._copies_through(family)

    monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})
    monkeypatch.setattr(harness, "_copies_through", counting)
    return built


def test_family_memo_shares_one_entry_per_class(monkeypatch):
    from pocfvs import harness

    built = _counting_filters(monkeypatch)
    p4, c4 = path(4), cycle(4)
    first = enumerate_connected_upto(6, (p4, c4))
    assert len(built) == 1
    # relabelled, reordered and repeated members, and members too large for
    # any level asked for, all read the one entry
    for family in [
        (c4.relabel((2, 0, 3, 1)), p4.relabel((3, 1, 2, 0))),
        (c4, p4, p4.relabel((3, 2, 1, 0)), c4),
        (p4, cycle(7), c4, path(8)),
    ]:
        assert enumerate_connected_upto(6, family) == first
    assert len(built) == 1
    assert len(harness._FAMILY_LEVELS) == 1
    # the entry is keyed by every member that fits, not by the first alone
    p4_free = enumerate_connected_upto(6, (p4,))
    assert len(built) == 2 and p4_free != first
    # more levels extend the entry from its top; C7 fits level 7, so it is a new family
    assert enumerate_connected_upto(7, (c4, p4))[: len(first)] == first
    assert len(built) == 2
    enumerate_connected_upto(7, (p4, c4, cycle(7)))
    assert len(built) == 3


def test_warm_family_levels_equal_cold(monkeypatch):
    # the benchmark's query families at n <= 6 and the pinned families at
    # n <= 7, asked twice each, then once more each from an empty memo
    from pocfvs import harness

    families = [
        tuple(graph_from_text(s) for s in text.split(";"))
        for text in ("kbip:4,4", "3C3", "kbip:1,6", "P4;kbip:4,4", "claw;3C3")
    ]
    asks = [(6, family) for family in families]
    pinned = ["P3", "P5", "2P3", "P4", "P5+P1", "claw", "P4;C4"]
    asks += [(7, tuple(map(graph_from_text, text.split(";")))) for text in pinned]
    monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})
    warm = [[harness._free_levels(n_max, f) for n_max, f in asks] for _ in range(2)]
    assert warm[0] == warm[1]
    for (n_max, family), levels in zip(asks, warm[1]):
        monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})
        assert harness._free_levels(n_max, family) == levels
        # a warm call that asks for fewer levels gets the bottom of the entry
        assert harness._free_levels(n_max - 1, family) == levels[:-1]


def test_family_memo_drops_the_least_recent_past_its_bound(monkeypatch):
    from pocfvs import harness

    built = _counting_filters(monkeypatch)
    bound = harness._FAMILY_BOUND
    members = enumerate_connected(6)[: bound + 1]
    for h in members[:bound]:
        enumerate_connected_upto(6, (h,))
    enumerate_connected_upto(6, (members[0],))  # now the most recent
    assert len(built) == bound
    enumerate_connected_upto(6, (members[bound],))
    assert len(harness._FAMILY_LEVELS) == bound
    assert canonical_form(members[1]) not in set().union(*harness._FAMILY_LEVELS)
    enumerate_connected_upto(6, (members[0],))
    assert len(built) == bound + 1
    enumerate_connected_upto(6, (members[1],))
    assert len(built) == bound + 2


def test_family_memo_is_safe_across_threads(monkeypatch):
    # six threads, more than the cores, ask for one family's levels in six
    # orders from an empty memo, with a short switch interval; an entry
    # extended twice at once would hold a level twice
    from pocfvs import harness

    family = (claw(),)
    expected = {n: enumerate_connected_upto(n, family) for n in range(2, 8)}
    orders = [[2, 5, 3, 7, 6, 4][k:] + [2, 5, 3, 7, 6, 4][:k] for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(harness, "_FAMILY_LEVELS", {})
            results = []

            def ask(order):
                for n in order:
                    results.append((n, enumerate_connected_upto(n, family)))

            threads = [threading.Thread(target=ask, args=(order,)) for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 36
            assert all(levels == expected[n] for n, levels in results)
    finally:
        sys.setswitchinterval(interval)


def test_enumeration_and_canonical_keys_match_the_networkx_atlas():
    # independent oracle: the atlas lists every graph on up to 7 vertices
    # exactly once, with its own isomorphism classes
    nx = pytest.importorskip("networkx")
    atlas = [Graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()]
    keys = [canonical_form(g) for g in atlas]
    assert len(atlas) == 1253
    assert len(set(keys)) == len(keys)
    counts = []
    for n in range(1, 8):
        connected = {k for g, k in zip(atlas, keys) if g.n == n and g.is_connected()}
        assert connected == {canonical_form(g) for g in enumerate_connected(n)}
        counts.append(len(connected))
    assert counts == [1, 1, 2, 6, 21, 112, 853]


def test_filtered_level_counts_match_oeis():
    # independent oracle: published counts of five hereditary classes of
    # connected graphs, n = 1..8; they check the growth, the matcher and
    # the family filter with numbers none of them produced
    trees = [sum(g.is_acyclic() for g in enumerate_connected(n)) for n in range(1, 9)]
    assert trees == [1, 1, 1, 2, 3, 6, 11, 23]  # A000055, trees
    for family, counts in [
        ((path(4),), [1, 1, 2, 5, 12, 33, 90, 261]),  # A000669, cographs
        ((claw(),), [1, 1, 2, 5, 14, 50, 191, 881]),  # A022562, claw-free
        ((cycle(3),), [1, 1, 1, 3, 6, 19, 59, 267]),  # A024607, triangle-free
        ((cycle(3), cycle(5), cycle(7)), [1, 1, 1, 3, 5, 17, 44, 182]),  # A005142, bipartite
    ]:
        assert [len(enumerate_connected(n, family)) for n in range(1, 9)] == counts


def test_level_cache_holds_each_canonical_form():
    from pocfvs import harness

    for n in range(1, 9):
        enumerate_connected(n)
        level = harness._LEVEL_CACHE[n]
        assert list(level) == enumerate_connected(n)
        for h, code in level.items():
            assert code == _search(h._masks)[0]
            assert g6mod.from_code(n, code) == encode(canonical_form(h))


def test_least_code_matches_the_search_on_every_growth_candidate(monkeypatch):
    # the candidates are what a cold growth to n = 7 hands _least_code;
    # relabelled copies are the same graphs after another relabelling, so
    # they hit the memo entries of their originals or add their own
    from pocfvs import harness, iso

    candidates = []

    def recording(masks, memo):
        candidates.append(masks)
        return iso._least_code(masks, memo)

    monkeypatch.setattr(harness, "_LEVEL_CACHE", {})
    monkeypatch.setattr(harness, "_least_code", recording)
    enumerate_connected(7)
    assert len(candidates) == 4159
    rng = random.Random(27)
    shared: dict[int, dict[int, int]] = {}  # one memo per order, as the growth holds
    for masks in candidates:
        n = len(masks)
        code = _search(masks)[0]
        copy = Graph._from_masks(masks).relabel(rng.sample(range(n), n))._masks
        assert iso._least_code(masks, {}) == iso._least_code(copy, {}) == code
        memo = shared.setdefault(n, {})
        assert iso._least_code(masks, memo) == iso._least_code(copy, memo) == code


def test_level_growth_memo_counts(monkeypatch):
    # a miss adds an entry, a hit answers a tree search from one; the other
    # candidates end at a discrete or twin root and never reach the memo
    from pocfvs import harness, iso

    memos: dict[int, dict[int, int]] = {}
    counts: dict[int, list[int]] = {}

    def counting(masks, memo):
        n = len(masks)
        assert memos.setdefault(n, memo) is memo
        before = len(memo)
        code = iso._least_code(masks, memo)
        hits_misses = counts.setdefault(n, [0, 0])
        if len(memo) > before:
            hits_misses[1] += 1
        elif iso._root(masks)[2] is None:
            hits_misses[0] += 1
        return code

    enumerate_connected(6)
    monkeypatch.setattr(harness, "_LEVEL_CACHE", {n: harness._LEVEL_CACHE[n] for n in range(1, 7)})
    monkeypatch.setattr(harness, "_least_code", counting)
    enumerate_connected(8)
    assert counts == {7: [640, 363], 8: [7849, 3864]}
    assert memos[7] is not memos[8]


def test_max_poc_takes_level_forms_from_the_cache(monkeypatch):
    from pocfvs import harness

    def no_search(masks):
        raise AssertionError("a level graph was searched again")

    for n in range(1, 7):
        enumerate_connected(n)
    monkeypatch.setattr(harness, "_search", no_search)
    assert len(max_poc(EnumerationSpec(n_max=6, forbidden=(claw(),))).records) == 73


def test_evaluate_graphs_names_relabelled_graphs_canonically(monkeypatch):
    # relabelled copies miss the level cache and are canonicalised afresh,
    # and only level representatives enter the record memo
    from pocfvs import harness

    monkeypatch.setattr(harness, "_RECORDS", {})
    rnd = random.Random(12)
    copies = []
    for g in enumerate_connected_upto(7):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        copies.append(g.relabel(perm))
    rnd.shuffle(copies)
    assert sum(c not in harness._LEVEL_CACHE[c.n] for c in copies) > len(copies) // 2
    expected = max_poc(EnumerationSpec(n_max=7))
    report = evaluate_graphs(copies, expected.spec)
    assert report.to_json(None) == expected.to_json(None)
    assert harness._RECORDS
    assert all(g in harness._LEVEL_CACHE[g.n] for g in harness._RECORDS)


def test_warm_record_memo_reports_are_byte_identical_to_cold(monkeypatch):
    # the families overlap, so later reports come largely from the memo
    from pocfvs import harness

    specs = [
        EnumerationSpec(6, tuple(graph_from_text(s) for s in family.split(";")))
        for family in ("kbip:4,4", "3C3", "kbip:1,6", "P4;kbip:4,4", "claw;3C3")
    ]
    specs += [EnumerationSpec(n) for n in range(1, 8)]
    warm = [max_poc(spec).to_json(None) for spec in specs]
    assert len(harness._RECORDS) >= sum(len(harness._LEVEL_CACHE[n]) for n in range(1, 8))
    for spec, report in zip(specs, warm):
        monkeypatch.setattr(harness, "_RECORDS", {})
        assert max_poc(spec).to_json(None) == report


def test_record_memo_hits_still_apply_the_limit(monkeypatch):
    from pocfvs import harness

    def refusal(limit=None):
        with pytest.raises(ResourceLimitError) as info:
            max_poc(EnumerationSpec(n_max=6), limit=limit)
        return str(info.value)

    with monkeypatch.context() as cold:
        cold.setattr(harness, "_RECORDS", {})
        expected = refusal(limit=5)
    assert expected == "graph has 6 vertices, exhaustive limit is 5"
    max_poc(EnumerationSpec(n_max=6))
    assert refusal(limit=5) == expected
    monkeypatch.setenv("POCFVS_LIMIT", "5")
    assert refusal() == expected


def test_orbit_minima_match_the_group_closure():
    # the growth extends each parent by these masks, so a wrong minimum
    # drops or repeats a class; n <= 7 holds every parent of level 8
    assert _orbit_minima(3, []) == orbit_minima_by_closure(3, []) == list(range(1, 8))
    for n in range(1, 8):
        for g in enumerate_connected(n):
            perms = _search(g._masks)[2]
            assert _orbit_minima(n, perms) == orbit_minima_by_closure(n, perms), g.edges()


def test_enumeration_limits():
    with pytest.raises(ResourceLimitError):
        enumerate_connected(10)
    with pytest.raises(ResourceLimitError):
        enumerate_connected(9)
    for bad in (0, -3):
        for enumerate_ in (enumerate_connected, enumerate_connected_upto):
            with pytest.raises(InvalidInputError, match=f"^order must be >= 1, got {bad}$"):
                enumerate_(bad)
    with pytest.raises(ResourceLimitError):
        EnumerationSpec(n_max=12)
    with pytest.raises(ResourceLimitError):
        EnumerationSpec(n_max=9)
    with pytest.raises(InvalidInputError):
        EnumerationSpec(n_max=0)


def test_enumerate_all_graphs_counts():
    assert len(enumerate_all_graphs(4)) == 11
    assert len(enumerate_all_graphs(5)) == 34


def test_max_poc_report():
    report = max_poc(EnumerationSpec(n_max=6))
    assert report.max_difference >= 1
    assert report.max_ratio >= Fraction(3, 2)
    # aggregates equal the fold over records
    best = max((r.ratio for r in report.records if r.ratio is not None))
    assert report.max_ratio == best
    assert report.forest_count == sum(1 for r in report.records if r.ratio is None)
    k33 = Graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])
    gid = encode(canonical_form(k33))
    diffs = {r.graph_id: r.difference for r in report.records}
    assert diffs[gid] == 1


# sha256 of the n <= 7 report as the reference implementation wrote it;
# it covers every record's canonical graph6 ID
MAX_POC_7_DIGEST = "3915a6d1a596898ab7bac38a15660b1a695a2b1e8a4447e414ae5f53adbe41ee"


def test_max_poc_report_is_byte_stable():
    report = max_poc(EnumerationSpec(n_max=7)).to_json(None)
    assert hashlib.sha256(report.encode()).hexdigest() == MAX_POC_7_DIGEST


# sha256 of filtered reports as the reference implementation wrote them; a
# filtered level must pair each representative with its own canonical ID
FILTERED_MAX_POC_DIGESTS = {
    "P5<=7": "dacde89ff7bb2e7bad2180dddb9b595535c9f404cc980aed1eb18fa94fbd5a78",
    "P4<=8": "3d9a596990d4db96155f9faa4ffe53fe170472e89bc3eff52660eeea41a84763",
    "claw<=7": "42317ef2828823f69772bbb62214b2ac483820afcc6d5895d9a6f6ec74351e2e",
}


def test_filtered_max_poc_reports_are_byte_stable():
    digests = {}
    for name, family, n_max in [
        ("P5<=7", (path(5),), 7),
        ("P4<=8", (path(4),), 8),
        ("claw<=7", (claw(),), 7),
    ]:
        report = max_poc(EnumerationSpec(n_max=n_max, forbidden=family)).to_json(None)
        digests[name] = hashlib.sha256(report.encode()).hexdigest()
    assert digests == FILTERED_MAX_POC_DIGESTS


def test_max_poc_p3_free_all_equal():
    report = max_poc(EnumerationSpec(n_max=7, forbidden=(path(3),)))
    assert all(r.ratio in (None, Fraction(1)) for r in report.records)
    assert report.max_difference == 0


def test_report_serialization_stable():
    report = max_poc(EnumerationSpec(n_max=4))
    blob = report.to_json()
    again = max_poc(EnumerationSpec(n_max=4)).to_json()
    assert blob == again
    payload = json.loads(blob)
    assert payload["record_count"] == len(report.records)
    assert "generated_at" not in payload
    stamped = json.loads(report.to_json(timestamp="now"))
    assert stamped["generated_at"] == "now"
    text = report.to_text()
    assert "max ratio" in text


def test_to_json_is_json_dumps_of_to_dict():
    forbidden = (claw(), graph_from_text("3C3"))
    reports = [
        ExperimentReport(spec="empty"),
        max_poc(EnumerationSpec(n_max=1)),
        max_poc(EnumerationSpec(n_max=6, forbidden=forbidden)),
        max_poc(EnumerationSpec(n_max=8)),
    ]
    for report in reports:
        for stamp in (None, "2026-10-20T12:00:00+00:00"):
            assert report.to_json(stamp) == json.dumps(report.to_dict(stamp), indent=2)


def test_to_json_peak_memory_stays_near_its_length():
    # json.dumps(indent=2) holds every encoder chunk before joining: about
    # 11.8 times the text's length at n <= 8, against 3.7 for batched joins
    report = max_poc(EnumerationSpec(n_max=8))
    tracemalloc.start()
    try:
        text = report.to_json(None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


def test_graph_records_have_no_instance_dict():
    record = max_poc(EnumerationSpec(n_max=3)).records[0]
    assert not hasattr(record, "__dict__")


def test_tetrachotomy_spot_checks():
    assert tetrachotomy_classify(path(3)).verdict == "class-i"
    assert tetrachotomy_classify(2 * path(3)).verdict == "class-ii"
    assert tetrachotomy_classify(path(5)).verdict == "class-ii"
    assert tetrachotomy_classify(path(6)).verdict == "class-iii"
    assert tetrachotomy_classify(claw()).verdict == "class-iv"
    res = tetrachotomy_classify(path(5))
    assert res.constant == 3
    res = tetrachotomy_classify(2 * path(3))
    assert res.constant == 42


# sha256 of json.dumps([verdict, reason, constant, uncovered_pair]) of the
# tetrachotomy of every graph, connected or not, on 1..7 vertices, as the
# reference implementation computed them
TETRACHOTOMY_DIGEST = "d3239d81b5f1688a452ea62044cb6c735aea2d69d023c07c3b964e8aaeebc63b"


def test_tetrachotomy_is_byte_stable():
    h = hashlib.sha256()
    for n in range(1, 8):
        for g in enumerate_all_graphs(n):
            r = tetrachotomy_classify(g)
            h.update(json.dumps([r.verdict, r.reason, r.constant, r.uncovered_pair]).encode())
            h.update(b"\n")
    assert h.hexdigest() == TETRACHOTOMY_DIGEST


def _path_unions(n: int, cap: int):
    """Each linear forest on n vertices once, as a union of paths of non-increasing order."""
    if n == 0:
        yield Graph(0)
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _path_unions(n - first, first):
            yield path(first) + rest


def test_tetrachotomy_matches_the_host_search_on_linear_forests():
    forests = [h for n in range(1, 10) for h in _path_unions(n, n)]
    assert len(forests) == 96
    for h in forests:
        r = tetrachotomy_classify(h)
        assert (r.verdict, r.constant) == tetrachotomy_by_hosts(h), h.edges()


def test_unboundedness_witnesses_triangle():
    wits = unboundedness_witnesses(cycle(3), 3)
    assert len(wits) == 3
    for idx, (b, f, c) in enumerate(wits, start=1):
        assert is_free(b, [cycle(3)])
        assert f == 2
        assert c == idx + 1
        assert c - f == idx - 1
    # butterfly on the uncovered pair (4, 4)
    assert are_isomorphic(wits[0][0], butterfly(4, 4, 1))


def test_unboundedness_witnesses_p6():
    wits = unboundedness_witnesses(path(6), 2)
    assert [(f, c) for _, f, c in wits] == [(2, 3), (3, 5)]


def test_unboundedness_witnesses_none_for_low_classes():
    assert unboundedness_witnesses(path(3), 3) == []
    assert unboundedness_witnesses(2 * path(3), 3) == []
    assert unboundedness_witnesses(cycle(3), 0) == []
    for h in (path(3), path(6), cycle(3)):
        with pytest.raises(InvalidInputError):
            unboundedness_witnesses(h, -1)


WITNESS_PATTERNS = ["P6", "P4+P2", "P7", "C3", "claw", "hourglass", "C3+P2"]


def _witness_rows(spec, count=3, limit=None):
    rows = unboundedness_witnesses(graph_from_text(spec), count, limit)
    return [(b.n, b.edges(), f, c) for b, f, c in rows]


def _counting_solves(monkeypatch):
    from pocfvs import harness

    solved = []

    def counting(g, limit=None):
        solved.append(g.n)
        return fvs_and_cfvs(g, limit)

    monkeypatch.setattr(harness, "fvs_and_cfvs", counting)
    return solved


def test_warm_witness_rows_equal_cold_rows(monkeypatch):
    from pocfvs import harness

    warm = {spec: _witness_rows(spec) for spec in WITNESS_PATTERNS}
    solved = _counting_solves(monkeypatch)
    assert {spec: _witness_rows(spec) for spec in WITNESS_PATTERNS} == warm
    assert solved == []  # every row came from the memo
    for spec in WITNESS_PATTERNS:
        monkeypatch.setattr(harness, "_WITNESS_OPTIMA", {})
        assert _witness_rows(spec) == warm[spec], spec
    # the class-iii patterns share L_1..L_3, and each is solved once
    monkeypatch.setattr(harness, "_WITNESS_OPTIMA", {})
    solved.clear()
    assert [_witness_rows(spec) for spec in ("P6", "P4+P2", "P7")] == [warm["P6"]] * 3
    assert solved == [6, 11, 16]
    assert [row[2:] for row in warm["P6"]] == [(2, 3), (3, 5), (4, 7)]


def test_witness_memo_hits_still_apply_the_limit(monkeypatch):
    from pocfvs import harness

    def refusal(spec, count, limit=None):
        with pytest.raises(ResourceLimitError) as info:
            unboundedness_witnesses(graph_from_text(spec), count, limit)
        return str(info.value)

    solved = _counting_solves(monkeypatch)
    monkeypatch.setattr(harness, "_WITNESS_OPTIMA", {})
    # cold: L_1 is solved, L_2 is refused before its solve
    assert refusal("P6", 2, limit=10) == "graph has 11 vertices, exhaustive limit is 10"
    assert solved == [6]
    # L_4 is refused under the default limit, after L_1..L_3 are solved
    assert refusal("P6", 4) == "graph has 21 vertices, exhaustive limit is 20"
    assert solved == [6, 11, 16]
    assert refusal("C3", 2, limit=8) == "graph has 9 vertices, exhaustive limit is 8"
    assert solved == [6, 11, 16, 8]
    # warm: every hit raises the same way, and nothing is solved again
    _witness_rows("C3", 3)
    solved.clear()
    assert refusal("P4+P2", 2, limit=10) == "graph has 11 vertices, exhaustive limit is 10"
    assert refusal("P7", 4) == "graph has 21 vertices, exhaustive limit is 20"
    assert refusal("C3", 2, limit=8) == "graph has 9 vertices, exhaustive limit is 8"
    monkeypatch.setenv("POCFVS_LIMIT", "10")
    assert refusal("P6", 3) == "graph has 11 vertices, exhaustive limit is 10"
    monkeypatch.setenv("POCFVS_LIMIT", "9")
    assert refusal("C3", 3) == "graph has 10 vertices, exhaustive limit is 9"
    assert solved == []
    with pytest.raises(InvalidInputError, match="^the vertex limit must be >= 0, got -1$"):
        unboundedness_witnesses(path(6), 1, limit=-1)


def test_witness_memo_holds_only_returned_graphs(monkeypatch):
    from pocfvs import harness

    monkeypatch.setattr(harness, "_WITNESS_OPTIMA", {})
    returned = set()
    for spec in WITNESS_PATTERNS + ["P3", "2P3"]:
        for count in (0, 2, 3):
            returned.update(b for b, _, _ in unboundedness_witnesses(graph_from_text(spec), count))
    with pytest.raises(ResourceLimitError):
        unboundedness_witnesses(path(6), 4)
    assert harness._WITNESS_OPTIMA
    assert set(harness._WITNESS_OPTIMA) <= returned
    assert all(
        harness._WITNESS_OPTIMA[b] == fvs_and_cfvs(b) for b in harness._WITNESS_OPTIMA
    )


def test_hourglass_chain_guards_trip(monkeypatch):
    from pocfvs import harness

    # a chain that contains P_6 is refused when it is first solved
    monkeypatch.setattr(harness, "_WITNESS_OPTIMA", {})
    monkeypatch.setattr(harness, "hourglass_chain", lambda k: path(6))
    with pytest.raises(ContradictionError, match="^hourglass chains must avoid P_6 and P_4"):
        unboundedness_witnesses(path(7), 1)
    assert harness._WITNESS_OPTIMA == {}
    monkeypatch.undo()
    # a pattern that L_1 contains, forced to class iii
    forced = ClassificationResult("class-iii", True, "forced", 52)
    monkeypatch.setattr(harness, "tetrachotomy_classify", lambda h: forced)
    with pytest.raises(ContradictionError, match="^a class-iii pattern contains P_6 or P_4"):
        unboundedness_witnesses(cycle(3), 1)


def test_gprime_experiment():
    report = gprime_experiment(2)
    assert [row.fvs for row in report.rows] == [2, 2]
    assert report.rows[0].cfvs < report.rows[1].cfvs
    assert all(row.butterfly_free for row in report.rows)
    with pytest.raises(InvalidInputError, match="^t_max must be >= 1, got 0$"):
        gprime_experiment(0)


def test_gprime_experiment_checks_trip(monkeypatch):
    from pocfvs import harness

    monkeypatch.setattr(harness, "fvs_and_cfvs", lambda g, limit: (3, 4))
    with pytest.raises(ContradictionError, match="^subdivided doubled triangle t=1 has fvs 3 != 2$"):
        gprime_experiment(1)
    monkeypatch.setattr(harness, "fvs_and_cfvs", lambda g, limit: (2, 4))
    with pytest.raises(ContradictionError, match="^cfvs failed to increase strictly at t=2: 4 -> 4$"):
        gprime_experiment(2)
    monkeypatch.undo()
    # B_{3,3,1} has fvs 2 and is one of the small butterflies itself
    monkeypatch.setattr(harness, "gprime", lambda t: butterfly(3, 3, 1))
    with pytest.raises(ContradictionError, match="^a butterfly embeds into the t=1 instance$"):
        gprime_experiment(1)


def test_graph6_known_encoding():
    assert encode(cycle(3)) == "Bw"
    assert decode("Bw") == cycle(3)


def test_graph6_roundtrip():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert decode(encode(g)) == g
    for g in [Graph(0), butterfly(4, 5, 3), hourglass(), tadpole(3, 4)]:
        assert decode(encode(g)) == g


def test_graph6_matches_networkx():
    # independent oracle: networkx writes and reads graph6 with its own
    # code; the canonical forms are the graphs every report names
    nx = pytest.importorskip("networkx")
    forms = [canonical_form(g) for g in enumerate_connected_upto(8)]
    assert len(forms) == 12113
    for g in [*forms, path(62)]:
        line = encode(g)
        back = nx.from_graph6_bytes(line.encode())  # g itself when the line is right
        assert decode(line) == Graph(back.number_of_nodes(), back.edges()) == g
        assert nx.to_graph6_bytes(back, header=False) == f"{line}\n".encode()
    with pytest.raises(InvalidInputError, match="^graph6 support here stops at 62 vertices, got 63$"):
        encode(path(63))


def test_graph6_header_and_errors(tmp_path):
    assert decode(">>graph6<<Bw") == cycle(3)
    with pytest.raises(InvalidInputError):
        decode("")
    with pytest.raises(InvalidInputError):
        decode("~???")
    with pytest.raises(InvalidInputError):
        decode("B")
    with pytest.raises(InvalidInputError):
        decode("BwXYZ")  # bytes past the body
    with pytest.raises(InvalidInputError):
        decode("B~")  # non-zero padding bits
    with pytest.raises(InvalidInputError, match=r"^invalid graph6 order byte '\\x7f'$"):
        decode("\x7f")
    with pytest.raises(InvalidInputError, match=r"^invalid graph6 byte '\\x7f'$"):
        decode("C\x7f")
    with pytest.raises(InvalidInputError):
        encode(Graph(63))
    with pytest.raises(InvalidInputError):
        g6mod.from_code(63, 0)
    corpus = tmp_path / "graphs.g6"
    corpus.write_text(">>graph6<<\n" + encode(cycle(4)) + "\n" + encode(path(2)) + "\n")
    graphs = read_file(str(corpus))
    assert len(graphs) == 2
    assert graphs[0] == cycle(4)
    with pytest.raises(InvalidInputError):
        read_file(str(tmp_path / "missing.g6"))
    binary = tmp_path / "binary.g6"
    binary.write_bytes(b"\xff\n")
    with pytest.raises(InvalidInputError):
        read_file(str(binary))


def test_evaluate_graphs_skips_disconnected():
    report = evaluate_graphs([cycle(3), path(2) + path(2)], "mixed")
    assert len(report.records) == 1


def test_harness_connected_invariants_small():
    for g in enumerate_connected_upto(6):
        f = min_fvs(g).optimum
        c = min_cfvs(g).optimum
        assert f <= c
        if is_cycle_graph(g) or f == 0 or g.is_complete():
            assert f == c
        assert dfs_is_acyclic(g.n, edge_set(g)) == (f == 0)
