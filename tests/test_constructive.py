import hashlib
import itertools
import json
from types import SimpleNamespace

import pytest

from pocfvs import (
    ContradictionError,
    Graph,
    InvalidInputError,
    butterfly,
    complete_bipartite,
    cycle,
    path,
    spider,
    tadpole,
)
from pocfvs.constructive import (
    ProcedureTrace,
    _connectify_sp3,
    _sp3_pipeline,
    connectify_by_paths,
    connectify_p5sp1,
    connectify_sp3,
    move_step,
)
from pocfvs.graph import iter_bits
from pocfvs.graph6 import decode
from pocfvs.harness import enumerate_connected, enumerate_connected_upto
from pocfvs.iso import find_induced_embedding, is_free
from pocfvs.solvers import is_cfvs, is_fvs, min_fvs
from pocfvs.verification import audit_sp3_trace


def test_paths_on_butterfly():
    b = butterfly(3, 3, 4)
    hubs = {v for v in b.vertices() if b.degree(v) == 3}
    result, trace = connectify_by_paths(b, hubs)
    assert is_cfvs(b, result)
    assert len(result) == 5
    assert len(result) <= trace.claimed_bound


def test_paths_on_complete_bipartite():
    g = complete_bipartite(3, 4)
    seed = min_fvs(g).witness
    result, trace = connectify_by_paths(g, seed)
    assert is_cfvs(g, result)
    assert len(result) <= len(seed) + (len(seed) - 1) * (g.diameter() - 1)
    assert len(result) <= 3


def test_paths_trivial_cases():
    c = cycle(5)
    result, _ = connectify_by_paths(c, {2})
    assert result == frozenset({2})
    result, _ = connectify_by_paths(path(4), set())
    assert result == frozenset()


def test_paths_errors():
    with pytest.raises(InvalidInputError):
        connectify_by_paths(butterfly(3, 3, 2), {0})  # not an FVS
    with pytest.raises(InvalidInputError):
        connectify_by_paths(path(2) + path(2), set())
    for bad in ((5,), (0, -1), (1.0,), ("2",)):
        with pytest.raises(InvalidInputError):
            connectify_by_paths(cycle(5), bad)


def test_p5sp1_examples():
    g = complete_bipartite(3, 4)
    result, trace = connectify_p5sp1(g, 0)
    assert is_cfvs(g, result)
    assert len(result) <= min_fvs(g).optimum + 3
    result, _ = connectify_p5sp1(cycle(4), 0)
    assert is_cfvs(cycle(4), result)
    assert len(result) <= 4
    # a P_5-free input meets the precondition at every s, and no pattern is built
    assert connectify_p5sp1(cycle(4), 1000)[0] == result


def test_p5sp1_with_isolated_budget():
    # C_7 contains an induced P_5 but no P_5 + P_1, exercising the
    # independent-set branch
    c7 = cycle(7)
    assert not is_free(c7, [path(5)])
    assert is_free(c7, [path(5) + path(1)])
    result, trace = connectify_p5sp1(c7, 1)
    assert is_cfvs(c7, result)
    assert len(result) <= min_fvs(c7).optimum + 3 * 1 + 10
    stages = [step["stage"] for step in trace.steps]
    assert "p5-and-independents" in stages


def test_p5sp1_exhaustive_with_one_isolated():
    # every connected (P_5 + P_1)-free graph up to 7 vertices, covering
    # both the dominating-clique branch and the independent-set branch
    pattern = path(5) + path(1)
    p5_branch = 0
    for n in range(1, 8):
        for g in enumerate_connected(n, forbidden=(pattern,)):
            result, trace = connectify_p5sp1(g, 1)
            assert is_cfvs(g, result)
            assert len(result) <= min_fvs(g).optimum + 13
            if any(step["stage"] == "p5-and-independents" for step in trace.steps):
                p5_branch += 1
    assert p5_branch > 0


def test_p5sp1_errors():
    with pytest.raises(InvalidInputError):
        connectify_p5sp1(path(6), 0)  # contains an induced P_5
    with pytest.raises(InvalidInputError, match=r"P_5 \+ 1\*P_1"):
        connectify_p5sp1(path(7), 1)  # acyclic, and holds a P_5 + P_1; C_7 holds none
    with pytest.raises(InvalidInputError):
        connectify_p5sp1(path(2) + path(2), 0)
    with pytest.raises(InvalidInputError):
        connectify_p5sp1(cycle(4), -1)


def test_p5sp1_acyclic_shortcut():
    result, _ = connectify_p5sp1(spider(1, 1, 2), 0)
    assert result == frozenset()


def test_move_step_noop_when_u_untouched():
    # the tail of the tadpole induces a P_3 and is the whole seed
    g = tadpole(3, 3)
    seed = {3, 4, 5}
    z = frozenset(seed)
    result, _ = move_step(g, seed, z, set(), 2)
    assert result == frozenset(seed)
    # a u-vertex with no seed component to touch changes nothing either
    result, _ = move_step(g, seed, z, {1}, 2)
    assert result == frozenset(seed)


def test_move_step_preconditions():
    # each case passes every check before its own; z = {0, 1, 2} is a P_3
    g, z = cycle(6), frozenset({0, 1, 2})
    with pytest.raises(InvalidInputError, match=r"^the pattern scale must be >= 1, got 0$"):
        move_step(g, z, z, {4}, 0)
    with pytest.raises(InvalidInputError, match=r"^move step needs a connected graph$"):
        move_step(path(3) + path(3), {0}, frozenset({0}), set(), 2)
    with pytest.raises(InvalidInputError, match=r"^input contains an induced 2\*P_3$"):
        move_step(path(7), {0, 1, 2}, frozenset({0, 1, 2}), {4}, 2)
    with pytest.raises(InvalidInputError, match="^z must be exactly one component"):
        move_step(g, {0, 1}, frozenset({0}), {3}, 2)
    with pytest.raises(InvalidInputError, match=r"^z must contain an induced 1\*P_3$"):
        move_step(g, {0, 1}, frozenset({0, 1}), {3}, 2)
    with pytest.raises(InvalidInputError, match="^u must be disjoint from the seed set$"):
        move_step(g, z, z, {2}, 2)
    with pytest.raises(InvalidInputError, match="^u must be an independent set$"):
        move_step(g, z, z, {3, 4}, 2)
    g, seed = tadpole(3, 3), {3, 4, 5}
    for bad in ({6}, {-1}, {2.5}, {"3"}):
        with pytest.raises(InvalidInputError):
            move_step(g, seed | bad, frozenset(seed), set(), 2)
        with pytest.raises(InvalidInputError):
            move_step(g, seed, frozenset(seed | bad), set(), 2)
        with pytest.raises(InvalidInputError):
            move_step(g, seed, frozenset(seed), bad, 2)


def _move_step_corpus():
    # every 2P_3-free connected graph whose seed has a path-bearing hub
    # component; u is the greedy maximal independent set off the seed
    pattern = 2 * path(3)
    p3 = path(3)
    for n in range(4, 8):
        for g in enumerate_connected(n, forbidden=(pattern,)):
            hit = find_induced_embedding(p3, g)
            if hit is None:
                continue
            seed = set(min_fvs(g).witness) | set(hit.values())
            comps = _seed_components(g, seed)
            z = next(
                (
                    c
                    for c in comps
                    if find_induced_embedding(p3, g.mask_subgraph(g.vertex_mask(c))[0]) is not None
                ),
                None,
            )
            if z is None:
                continue
            taken = 0
            u = []
            for v in range(g.n):
                if v in seed or (g.mask(v) & taken):
                    continue
                u.append(v)
                taken |= 1 << v
            yield g, seed, z, u


def test_move_step_exhaustive_small():
    ran = 0
    for g, seed, z, u in _move_step_corpus():
        result, trace = move_step(g, seed, z, u, 2)
        ran += 1
        assert seed <= result
        assert len(result) <= len(seed) + 2
    assert ran > 200


# sha256 of the public move_step results and traces on the corpus above,
# as the reference implementation produced them
MOVE_STEP_DIGEST = "b8d395490286732c0ffe9023be2a95cc20b679245437a19e30d6f964d3982854"


def test_move_step_results_are_byte_stable():
    h = hashlib.sha256()
    for g, seed, z, u in _move_step_corpus():
        result, trace = move_step(g, seed, z, u, 2)
        h.update(json.dumps(sorted(result)).encode())
        h.update(trace.to_json().encode())
        h.update(b"\n")
    assert h.hexdigest() == MOVE_STEP_DIGEST


def _non_fvs_seed_corpus():
    # every connected 2P_3-free graph with n <= 8 and a P_3: the seed is the
    # first P_3 hit plus a nonempty set of vertices outside its closed
    # neighborhood, kept only when it is not an FVS; z is the hit, and u the
    # greedy maximal independent set off the seed
    for g in enumerate_connected_upto(8, forbidden=(2 * path(3),)):
        hit = find_induced_embedding(path(3), g)
        if hit is None:
            continue
        z = frozenset(hit.values())
        z_mask = g.vertex_mask(z)
        outside = list(iter_bits(g.full_mask & ~(z_mask | g.mask_reach(z_mask))))
        for k in range(1, len(outside) + 1):
            for extra in itertools.combinations(outside, k):
                seed = z | set(extra)
                if is_fvs(g, seed):
                    continue
                taken = 0
                u = []
                for v in range(g.n):
                    if v in seed or (g.mask(v) & taken):
                        continue
                    u.append(v)
                    taken |= 1 << v
                yield g, seed, z, u


# sha256 of the public move_step results and traces on seeds that are not an
# FVS, where the grown sets are recorded but not checkpointed
NON_FVS_MOVE_STEP_DIGEST = "7a23865b0d8750f07b0a995f16f2347aee4fd775e5e8d2952d0e6cbd58d19473"


def test_move_step_non_fvs_seeds_are_byte_stable():
    h = hashlib.sha256()
    runs = recorded = 0
    for g, seed, z, u in _non_fvs_seed_corpus():
        result, trace = move_step(g, seed, z, u, 2)
        payload = trace.to_dict()
        assert payload["fvs_checkpoints"] == []
        recorded += any(step["stage"] == "after-u2" for step in payload["steps"])
        runs += 1
        h.update(json.dumps(sorted(result)).encode())
        h.update(trace.to_json().encode())
        h.update(b"\n")
    assert (runs, recorded) == (413, 245)
    assert h.hexdigest() == NON_FVS_MOVE_STEP_DIGEST


def _seed_components(g, members):
    mask = sum(1 << v for v in members)
    return [frozenset(iter_bits(m)) for m in g.mask_components(mask)]


def test_sp3_complete_graphs():
    for n in range(1, 7):
        kn = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
        result, trace = connectify_sp3(kn, 1)
        assert len(result) == min_fvs(kn).optimum
        assert is_cfvs(kn, result)


def test_sp3_on_bipartite():
    g = complete_bipartite(3, 4)
    assert is_free(g, [2 * path(3)])
    result, trace = connectify_sp3(g, 2)
    assert is_cfvs(g, result)
    assert len(result) <= min_fvs(g).optimum + 42


def test_sp3_recursion_branch():
    # complete graphs are P_3-free, so s=2 falls through to the base case
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    result, trace = connectify_sp3(k5, 2)
    assert len(result) == 3
    assert any(step["stage"] == "recurse" for step in trace.steps)


def test_sp3_errors():
    with pytest.raises(InvalidInputError):
        connectify_sp3(3 * path(3), 2)  # disconnected
    with pytest.raises(InvalidInputError):
        connectify_sp3(cycle(3), 0)
    g = path(3) + path(3)
    g2 = Graph(g.n + 1, g.edges() + tuple((v, g.n) for v in range(g.n)))
    # g2 is connected and contains 2P_3; the s=2 precondition must fail
    with pytest.raises(InvalidInputError):
        connectify_sp3(g2, 2)


def test_sp3_trace_audit():
    g = complete_bipartite(3, 4)
    result, trace = connectify_sp3(g, 2)
    for checkpoint in trace.fvs_checkpoints:
        assert is_fvs(g, checkpoint)
    payload = json.loads(trace.to_json())
    assert payload["procedure"] == "connectify-sp3"
    assert payload["result_size"] == len(result)
    assert payload["claimed_bound"] == trace.claimed_bound


def test_trace_swap_validation():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    trace = ProcedureTrace("test", g.n)
    trace.record_swap(g, 2, 1)  # N[2] = {1,2,3} within N[1] = {0,1,2,3}
    assert trace.swaps[0]["closed_neighborhood_contained"]
    with pytest.raises(ContradictionError):
        trace.record_swap(g, 1, 2)


def test_trace_bound_violation():
    trace = ProcedureTrace("test", 3)
    with pytest.raises(ContradictionError):
        trace.finish(0b111, 2)


def test_trace_checkpoint_rejects_non_fvs():
    trace = ProcedureTrace("test", 3)
    with pytest.raises(ContradictionError):
        trace.checkpoint(cycle(3), 0, "bad")


def test_sp3_pipeline_refuses_too_many_middle_vertices():
    # C_14 contains 2P_3, so the paper's lemma does not apply, and the core
    # trusts its caller. With the scaffold {0, 1, 2} the path 3..13 is left
    # outside the set, and its 9 = 4s + 1 inner vertices are middles, one
    # more than the certified 4s
    g = cycle(14)
    trace = ProcedureTrace("test", g.n)
    with pytest.raises(ContradictionError, match="too many middle vertices"):
        _sp3_pipeline(g, 2, {0: 0, 1: 1, 2: 2}, min_fvs(g), trace)


# graphs found by randomized search that drive the rarer pipeline stages;
# at n <= 8 these stages never fire, so they are pinned here explicitly
SWAP_CASES = [("HKcKJ_O", 2), ("JG`_CkHCOn?", 2), ("Hz?x@Wo", 2),
              ("M?OP?A[?PP@MO?c_?", 3), ("J_FOO_?CXo?", 3)]
SECOND_COVER_CASES = [("Ic@~?PHAW", 2), ("J_OGAb_G?N?", 2)]
ABSORB_CASES = [("KOHs[?P@Bo?C", 3)]


def _run_pinned(code, s):
    g = decode(code)
    result, trace = connectify_sp3(g, s)
    assert is_cfvs(g, result)
    bound = 0 if s == 1 else 12 * s * s - 2 * s - 2
    assert len(result) <= min_fvs(g).optimum + bound
    for checkpoint in trace.fvs_checkpoints:
        assert is_fvs(g, checkpoint)
    return trace


@pytest.mark.parametrize("code,s", SWAP_CASES)
def test_sp3_swap_stage(code, s):
    trace = _run_pinned(code, s)
    assert trace.swaps
    for swap in trace.swaps:
        assert swap["closed_neighborhood_contained"]
    # the 2P_3-free criterion's audit, which no trace of its own corpus
    # reaches with a swap, recomputes each containment from the graph
    assert audit_sp3_trace(decode(code), trace) == []


def test_sp3_trace_audit_reports_each_breach():
    g = cycle(3) + path(3)
    # the empty set leaves the triangle; N[5] = {4, 5} is inside N[4] =
    # {3, 4, 5}, which is not inside N[3] = {3, 4}
    forged = SimpleNamespace(
        fvs_checkpoints=[[0], []], swaps=[{"removed": 5, "added": 4}, {"removed": 4, "added": 3}]
    )
    assert audit_sp3_trace(g, forged) == [
        "n=6: trace intermediate is not an FVS",
        "n=6: swap 4->3 lacks containment",
    ]


@pytest.mark.parametrize("code,s", SECOND_COVER_CASES)
def test_sp3_second_cover_stage(code, s):
    trace = _run_pinned(code, s)
    assert any(step["stage"] == "move-u2" and step["sets"].get("u2") for step in trace.steps)


@pytest.mark.parametrize("code,s", ABSORB_CASES)
def test_sp3_absorb_stage(code, s):
    trace = _run_pinned(code, s)
    assert any(step["stage"] == "absorb-outside" for step in trace.steps)


# sha256 of the connectify_sp3 traces, one JSON document per line, as the
# reference implementation wrote them; a changed trace byte fails here
CORPUS_TRACE_DIGEST = "8bdfdd827e37d4b49d8d1f2f394ea170462c1362e0a7bf7024c45eadeea09998"
PINNED_TRACE_DIGEST = "5e91d51ae8f4bb8a5301a1bf3ecfee18f407f1e4ae723e5afc23bc047d03bae7"


def _trace_digest(runs, connectify=connectify_sp3):
    h = hashlib.sha256()
    for g, s in runs:
        _, trace = connectify(g, s)
        h.update(trace.to_json().encode())
        h.update(b"\n")
    return h.hexdigest()


def test_sp3_traces_are_byte_stable():
    # every connected 2P_3-free graph with n <= 7; at s = 3 each one takes
    # the descent to s = 2 before the pipeline runs
    corpus = [g for n in range(1, 8) for g in enumerate_connected(n, forbidden=(2 * path(3),))]
    assert len(corpus) == 981
    assert _trace_digest((g, s) for g in corpus for s in (2, 3)) == CORPUS_TRACE_DIGEST
    # the private run, which skips the public checks, writes the same bytes
    runs = [(g, s) for g in corpus for s in (2, 3)]
    assert _trace_digest(runs, _connectify_sp3) == CORPUS_TRACE_DIGEST
    pinned = SWAP_CASES + SECOND_COVER_CASES + ABSORB_CASES
    assert _trace_digest((decode(code), s) for code, s in pinned) == PINNED_TRACE_DIGEST


# sha256 of the s = 2 traces on every connected 2P_3-free graph with n <= 8,
# the corpus the 2P_3-free verification criterion runs
CRITERION_TRACE_DIGEST = "f3fcc27bbb994003d4eb4eb4c745a3349ea4515cce30c8b9b490f26a58e23aa1"


def test_sp3_criterion_corpus_traces_are_byte_stable():
    corpus = enumerate_connected_upto(8, forbidden=(2 * path(3),))
    assert len(corpus) == 11420
    assert _trace_digest((g, 2) for g in corpus) == CRITERION_TRACE_DIGEST


# sha256 of the connectify_p5sp1 traces at s = 0 and 1 on every connected
# (P_5 + s*P_1)-free graph with n <= 7, as the reference implementation
# wrote them
P5SP1_TRACE_DIGEST = "3a02851698c6ce0ec7307644c0c0d929607ad26348488f4784d810b2eaef8d93"


def test_p5sp1_traces_are_byte_stable():
    h = hashlib.sha256()
    runs = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            for s in (0, 1):
                if not is_free(g, [path(5) + s * path(1)]):
                    continue
                _, trace = connectify_p5sp1(g, s)
                h.update(trace.to_json().encode())
                h.update(b"\n")
                runs += 1
    assert runs == 1615
    assert h.hexdigest() == P5SP1_TRACE_DIGEST


# sha256 of the connectify_p5sp1 traces at s = 2 on every connected graph
# with n <= 7; at this scale some vertices lie outside the closed
# neighborhood of the P_5, so the independent-set loop fills
P5SP1_S2_TRACE_DIGEST = "998e1a0a84103a1fba80e41a77612a6f73e8eab8b9bb9ac472aa161ec3118ee8"


def test_p5sp1_s2_traces_are_byte_stable():
    corpus = enumerate_connected_upto(7)
    assert len(corpus) == 996
    h = hashlib.sha256()
    filled = 0
    for g in corpus:
        _, trace = connectify_p5sp1(g, 2)
        payload = trace.to_dict()
        filled += any(step["sets"].get("independent") for step in payload["steps"])
        h.update(trace.to_json().encode())
        h.update(b"\n")
    assert filled == 6
    assert h.hexdigest() == P5SP1_S2_TRACE_DIGEST


# sha256 of the connectify_by_paths traces, seeded with the minimum FVS, on
# every connected P_4-free graph with n <= 8, the corpus the path
# construction criterion runs
PATHS_TRACE_DIGEST = "4515b6b0a8757e76f1ed11adabc064a846372d1e656b79faab7e1d0c6dc19093"


def test_paths_criterion_corpus_traces_are_byte_stable():
    corpus = enumerate_connected_upto(8, forbidden=(path(4),))
    assert len(corpus) == 405
    h = hashlib.sha256()
    for g in corpus:
        _, trace = connectify_by_paths(g, min_fvs(g).witness)
        h.update(trace.to_json().encode())
        h.update(b"\n")
    assert h.hexdigest() == PATHS_TRACE_DIGEST
