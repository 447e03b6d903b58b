"""Constructive connectification of feedback vertex sets, with certificates.

Three procedures turn a feedback vertex set into a connected one while
certifying an explicit size bound:

* ``connectify_by_paths``: joins every set member to an anchor through
  shortest paths; bound |S| + (|S|-1)(diameter-1).
* ``connectify_p5sp1``: for graphs with no induced P_5 + s*P_1, glues a
  minimum FVS to a small (connected) dominating set; bound fvs + 3 in the
  P_5-free case and fvs + 3s + 10 otherwise.
* ``connectify_sp3``: for graphs with no induced s*P_3, runs an absorb /
  move / swap pipeline around a connected scaffold; bound
  fvs + 12s^2 - 2s - 2 (0 when s = 1).

Every procedure returns its result together with a :class:`ProcedureTrace`
that records each named intermediate set, re-verifies that each enlarged
set is still a feedback vertex set, and verifies each swap's closed
neighborhood containment before performing it. Any failed certificate is a
``ContradictionError``: it cannot happen unless one of the structural
guarantees the pipeline relies on is false.

Public entry points check their preconditions and raise
``InvalidInputError`` when one fails. The private cores behind them
(``_move_step``, ``_connectify_sp3``, ``_sp3_pipeline``) trust their
callers and check none of them again, but keep every certificate; the
move step and the pipeline record into their caller's trace. The cores
hold vertex sets as bitmasks, built by ``Graph.vertex_mask`` as everywhere
in the package; results leave as frozensets. Traces hold the masks as
given, and their views sort them into lists when read.

Internal exhaustive minima (covering subsets, smallest dominating cliques)
run the solvers' one subset search, ``first_subset``: the bounds require
true minimality and the package only targets desk-scale inputs.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import ContradictionError, InvalidInputError
from .generators import path
from .graph import Graph, iter_bits
from .iso import _Pattern, find_induced_embedding, is_free
from .solvers import SolveResult, first_subset, is_cfvs, min_cds, min_fvs


class ProcedureTrace:
    """Step-by-step audit record of one constructive run.

    Every set is given and held as a vertex mask. The ``steps`` and
    ``fvs_checkpoints`` views sort the masks into lists when they are read,
    in the shape ``to_dict`` writes.
    """

    def __init__(self, procedure: str, graph_order: int) -> None:
        self.procedure = procedure
        self.graph_order = graph_order
        self.swaps: list[dict] = []
        self.claimed_bound: int | None = None
        self._steps: list[tuple[str, dict[str, int], str]] = []
        self._checkpoints: list[int] = []
        self._result = 0

    @property
    def steps(self) -> list[dict]:
        return [
            {"stage": stage, "sets": {k: list(iter_bits(m)) for k, m in sets.items()}, "note": note}
            for stage, sets, note in self._steps
        ]

    @property
    def fvs_checkpoints(self) -> list[list[int]]:
        return [list(iter_bits(m)) for m in self._checkpoints]

    def record(self, stage: str, note: str = "", **sets: int) -> None:
        self._steps.append((stage, sets, note))

    def checkpoint(self, g: Graph, mask: int, stage: str) -> None:
        """Record an intermediate set and verify it is still an FVS."""
        if not g.mask_is_acyclic(g.full_mask & ~mask):
            raise ContradictionError(f"{self.procedure}/{stage}: intermediate set is not an FVS")
        self._checkpoints.append(mask)
        self.record(stage, note="fvs checkpoint", current=mask)

    def record_swap(self, g: Graph, removed: int, added: int) -> None:
        if g.closed_mask(removed) & ~g.closed_mask(added):
            raise ContradictionError(
                f"{self.procedure}: swap {removed}->{added} lacks closed "
                "neighborhood containment"
            )
        self.swaps.append(
            {"removed": removed, "added": added, "closed_neighborhood_contained": True}
        )

    def finish(self, mask: int, claimed_bound: int) -> None:
        self._result = mask
        self.claimed_bound = claimed_bound
        if mask.bit_count() > claimed_bound:
            raise ContradictionError(
                f"{self.procedure}: result size {mask.bit_count()} exceeds "
                f"certified bound {claimed_bound}"
            )

    def to_dict(self) -> dict:
        return {
            "procedure": self.procedure,
            "graph_order": self.graph_order,
            "steps": self.steps,
            "swaps": self.swaps,
            "fvs_checkpoints": self.fvs_checkpoints,
            "claimed_bound": self.claimed_bound,
            "result": list(iter_bits(self._result)),
            "result_size": self._result.bit_count(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# -- shortest-path connectification ------------------------------------------


def connectify_by_paths(g: Graph, s) -> tuple[frozenset[int], ProcedureTrace]:
    """Join all of ``s`` to its least member through shortest paths.

    Requires a connected graph and a feedback vertex set. The result is a
    connected FVS of size at most |s| + (|s|-1)(diameter-1).
    """
    trace = ProcedureTrace("connectify-by-paths", g.n)
    if not g.is_connected():
        raise InvalidInputError("connectification needs a connected graph")
    seed = g.vertex_mask(s)
    if not g.mask_is_acyclic(g.full_mask & ~seed):
        raise InvalidInputError("the seed set is not a feedback vertex set")
    if not seed:
        trace.record("trivial", note="empty seed set")
        trace.finish(0, 0)
        return frozenset(), trace
    members = tuple(iter_bits(seed))
    anchor = members[0]
    diam = g.diameter()
    bound = len(members) + (len(members) - 1) * max(0, diam - 1)
    trace.record("seed", anchor=1 << anchor, seed=seed)
    out = seed
    for y in members[1:]:
        route = g.vertex_mask(g.shortest_path(anchor, y))
        out |= route
        trace.record("join", note=f"anchor to {y}", path=route)
    trace.checkpoint(g, out, "joined")
    trace.finish(out, bound)
    return frozenset(iter_bits(out)), trace


# -- dominating-set connectification -----------------------------------------


def _smallest_clique_or_p3_dominating(g: Graph) -> int | None:
    """Smallest dominating set inducing a complete graph or a 3-vertex path."""
    full = g.full_mask

    def accept(m: int) -> bool:
        if m | g.mask_reach(m) != full:
            return False
        k, edges = m.bit_count(), g.mask_edge_count(m)
        # three vertices with two edges always induce a path
        return edges == k * (k - 1) // 2 or (k == 3 and edges == 2)

    return first_subset(full, accept, start=1)[0]


def connectify_p5sp1(g: Graph, s_param: int) -> tuple[frozenset[int], ProcedureTrace]:
    """Connectify via domination in graphs with no induced P_5 + s*P_1.

    P_5-free inputs admit a dominating set that is a clique or induces a
    3-vertex path, giving bound fvs + 3. Otherwise a maximal independent
    set away from a P_5's closed neighborhood has at most s-1 vertices, so
    a minimum connected dominating set has size at most 3(5+s-1)-2 and the
    bound is fvs + 3s + 10.
    """
    trace = ProcedureTrace("connectify-p5sp1", g.n)
    if s_param < 0:
        raise InvalidInputError(f"the isolated-vertex count must be >= 0, got {s_param}")
    if not g.is_connected():
        raise InvalidInputError("connectification needs a connected graph")
    # every copy of P_5 + s*P_1 holds a P_5, so a P_5-free input needs no second search
    p5_hit = find_induced_embedding(path(5), g)
    if p5_hit is not None and not is_free(g, [path(5) + s_param * path(1)]):
        raise InvalidInputError(
            f"input contains an induced P_5 + {s_param}*P_1; precondition violated"
        )
    if g.is_acyclic():
        trace.record("trivial", note="acyclic input")
        trace.finish(0, 0)
        return frozenset(), trace
    fvs_res = min_fvs(g)
    f = g.vertex_mask(fvs_res.witness)
    trace.record("minimum-fvs", seed=f)
    if p5_hit is None:
        dom = _smallest_clique_or_p3_dominating(g)
        if dom is None:
            raise ContradictionError(
                "a connected graph with no induced P_5 must have a dominating "
                "clique or dominating 3-vertex path"
            )
        trace.record("dominating-core", core=dom, note="clique or P_3 dominating set")
        out = f | dom
        bound = fvs_res.optimum + p5sp1_constant(0)
    else:
        p5_mask = g.vertex_mask(p5_hit.values())
        indep = 0
        for v in iter_bits(g.full_mask & ~(p5_mask | g.mask_reach(p5_mask))):
            if not (g.mask(v) & indep):
                indep |= 1 << v
        trace.record("p5-and-independents", p5=p5_mask, independent=indep)
        if indep.bit_count() > s_param - 1:
            raise ContradictionError(
                f"maximal independent set outside the P_5 neighborhood has "
                f"{indep.bit_count()} vertices, exceeding {s_param - 1}"
            )
        cds = min_cds(g)
        if cds.optimum > 3 * (5 + indep.bit_count()) - 2:
            raise ContradictionError(
                "connected domination exceeded three times domination minus two"
            )
        core = g.vertex_mask(cds.witness)
        trace.record("dominating-core", core=core)
        out = f | core
        bound = fvs_res.optimum + p5sp1_constant(s_param)
    trace.checkpoint(g, out, "fvs-plus-core")
    trace.finish(out, bound)
    return frozenset(iter_bits(out)), trace


# -- the move step and the s*P_3 pipeline -------------------------------------


def _min_cover(g: Graph, universe: int, groups: list[int]) -> int:
    """Lexicographically first minimum subset of ``universe`` touching every
    group; each caller passes only groups that ``universe`` touches."""
    return first_subset(universe, lambda c: all(g.mask_reach(c) & grp for grp in groups))[0]


@lru_cache(maxsize=16)
def _p3_copies(s_param: int) -> _Pattern:
    """``s_param`` disjoint 3-vertex paths, compiled once per scale.

    Keyed by the integer scale, so the cache holds at most a few patterns.
    """
    return _Pattern(s_param * path(3))


def move_step(
    g: Graph, s_set, z_set, u_set, s_param: int
) -> tuple[frozenset[int], ProcedureTrace]:
    """Grow ``s_set`` by at most 2s-2 vertices so the given independent set
    interacts tamely with the components outside ``z_set``.

    ``z_set`` must be a connected component of the subgraph induced by
    ``s_set`` and must contain an induced (s-1)*P_3; ``u_set`` must be
    independent and disjoint from ``s_set``. On return, with Z' the
    component of the enlarged set containing ``z_set``:

    * every added vertex lies in Z';
    * every remaining u-vertex is adjacent to at most one component
      other than Z';
    * every component other than Z' is adjacent to at most one
      remaining u-vertex.
    """
    s_mask, z_mask, u_mask = g.vertex_mask(s_set), g.vertex_mask(z_set), g.vertex_mask(u_set)
    if s_param < 1:
        raise InvalidInputError(f"the pattern scale must be >= 1, got {s_param}")
    if not g.is_connected():
        raise InvalidInputError("move step needs a connected graph")
    if _p3_copies(s_param).find(g) is not None:
        raise InvalidInputError(f"input contains an induced {s_param}*P_3")
    if z_mask not in g.mask_components(s_mask):
        raise InvalidInputError("z must be exactly one component of the induced seed set")
    z_graph, _ = g.mask_subgraph(z_mask)
    if _p3_copies(s_param - 1).find(z_graph) is None:
        raise InvalidInputError(f"z must contain an induced {s_param - 1}*P_3")
    if u_mask & s_mask:
        raise InvalidInputError("u must be disjoint from the seed set")
    if g.mask_reach(u_mask) & u_mask:
        raise InvalidInputError("u must be an independent set")
    trace = ProcedureTrace("move-step", g.n)
    moved = _move_step(g, s_mask, z_mask, u_mask, s_param, trace)
    trace.finish(moved, s_mask.bit_count() + 2 * s_param - 2)
    return frozenset(iter_bits(moved)), trace


def _move_step(
    g: Graph, s_mask: int, z_mask: int, u_mask: int, s_param: int, trace: ProcedureTrace
) -> int:
    """Core of :func:`move_step` on vertex masks: records into ``trace`` and
    returns the grown set. Trusts the caller to meet its preconditions."""
    anchor = next(iter_bits(z_mask))
    s_cur = s_mask
    seed_is_fvs = g.mask_is_acyclic(g.full_mask & ~s_mask)

    def note_growth(stage: str) -> None:
        # only sets grown from an FVS seed are FVSs, and only they are checkpointed
        if seed_is_fvs:
            trace.checkpoint(g, s_cur, stage)
        else:
            trace.record(stage, current=s_cur)

    u_reach = g.mask_reach(u_mask)
    comps_a = [c for c in g.mask_components(s_mask) if c != z_mask and c & u_reach]
    # components are disjoint, so their sum is their union
    trace.record("collect", z=z_mask, u=u_mask, a=sum(comps_a))
    if comps_a:
        u1 = _min_cover(g, u_mask, comps_a)
        # each vertex u of the minimum cover u1 has a private component: no rival touches it
        a1: set[int] = set()
        for u in iter_bits(u1):
            rivals = g.mask_reach(u1 & ~(1 << u))
            a1.add(next(c for c in comps_a if g.mask(u) & c and not rivals & c))
        a2 = [c for c in comps_a if c not in a1]
        u2 = _min_cover(g, u1, a2)
        if u2.bit_count() > s_param - 1:
            raise ContradictionError(
                f"second cover has {u2.bit_count()} vertices; at most {s_param - 1} are possible"
            )
        for u in iter_bits(u2):
            if not g.mask(u) & z_mask:
                raise ContradictionError(
                    "a vertex adjacent to two component layers must reach the hub component"
                )
        s_cur |= u2
        trace.record("move-u2", u1=u1, u2=u2)
        note_growth("after-u2")

        remaining = [c for c in comps_a if not c & g.mask_reach(u2)]
        u3 = u_mask & ~u1
        a3 = [c for c in remaining if c & g.mask_reach(u3)]
        u4 = _min_cover(g, u3, a3)
        if u4.bit_count() > s_param - 1:
            raise ContradictionError(
                f"third cover has {u4.bit_count()} vertices; at most {s_param - 1} are possible"
            )
        z_now = g.mask_component(anchor, s_cur)
        w_set = g.vertex_mask(u for u in iter_bits(u4) if sum(1 for c in a3 if g.mask(u) & c) >= 2)
        for u in iter_bits(w_set):
            if not g.mask(u) & z_now:
                raise ContradictionError(
                    "a vertex adjacent to two private components must reach the hub component"
                )
        for c in a3:
            if g.mask_reach(w_set) & c:
                continue
            owners = [u for u in iter_bits(u1 & ~u2) if g.mask(u) & c]
            helpers = [u for u in iter_bits(u4 & ~w_set) if g.mask(u) & c]
            candidates = [v for v in sorted(owners + helpers) if g.mask(v) & z_now]
            if not candidates:
                raise ContradictionError(
                    "neither attachment of a private component reaches the hub component"
                )
            w_set |= 1 << candidates[0]
        if w_set.bit_count() > s_param - 1:
            raise ContradictionError(
                f"relay set has {w_set.bit_count()} vertices; at most {s_param - 1} are possible"
            )
        s_cur |= w_set
        trace.record("move-w", u3=u3, u4=u4, w=w_set)
        note_growth("after-w")
    else:
        trace.record("noop", note="no outside component touches u")

    # every added vertex touched the hub when added, and u2 and w are capped
    # above, so the growth is at most 2s - 2; verify the other two promises
    z_final = g.mask_component(anchor, s_cur)
    u_left = u_mask & ~s_cur
    side = [c for c in g.mask_components(s_cur) if c != z_final]
    for u in iter_bits(u_left):
        if sum(1 for c in side if g.mask(u) & c) > 1:
            raise ContradictionError(f"u-vertex {u} still touches two outside components")
    for c in side:
        if sum(1 for u in iter_bits(u_left) if g.mask(u) & c) > 1:
            raise ContradictionError("an outside component still touches two u-vertices")
    trace.record("done", result=s_cur)
    return s_cur


def sp3_constant(s_param: int) -> int:
    """Additive constant of the s*P_3-free bound: 12s^2 - 2s - 2, and 0 when s = 1."""
    return 0 if s_param == 1 else 12 * s_param * s_param - 2 * s_param - 2


def p5sp1_constant(s_param: int) -> int:
    """Additive constant of the (P_5 + s*P_1)-free bound: 3s + 10, and 3 when s = 0."""
    return 3 * s_param + 10 if s_param else 3


def connectify_sp3(g: Graph, s_param: int) -> tuple[frozenset[int], ProcedureTrace]:
    """Connectify a minimum FVS in a graph with no induced s*P_3.

    Certified bound: fvs + 12s^2 - 2s - 2 for s >= 2; for s = 1 the graph
    is complete and a minimum FVS is already connected (bound fvs + 0).
    The pipeline scaffolds a connected core around an induced (s-1)*P_3,
    absorbs high-degree and then middle forest vertices, runs the move
    step on both halves of the leftover matching, absorbs every outside
    component that still contains a 3-vertex path, and finally swaps one
    vertex per remaining component along a closed-neighborhood containment.
    A graph with no induced (s-1)*P_3 is handled at scale s-1, repeatedly;
    each level skipped this way leaves one ``recurse`` step at the front of
    the trace, and the certified bound stays the one for the requested s.
    """
    if s_param < 1:
        raise InvalidInputError(f"the pattern scale must be >= 1, got {s_param}")
    if not g.is_connected():
        raise InvalidInputError("connectification needs a connected graph")
    if _p3_copies(s_param).find(g) is not None:
        raise InvalidInputError(f"input contains an induced {s_param}*P_3")
    return _connectify_sp3(g, s_param)


def _connectify_sp3(g: Graph, s_param: int) -> tuple[frozenset[int], ProcedureTrace]:
    """Core of :func:`connectify_sp3`; trusts its caller: ``s_param`` >= 1,
    and ``g`` is connected with no induced s*P_3."""
    level, hit = s_param, None
    while level > 1:
        hit = _p3_copies(level - 1).find(g)
        if hit is not None:
            break
        level -= 1
    fvs_res = min_fvs(g)
    trace = ProcedureTrace("connectify-sp3", g.n)
    if level == 1:
        if not g.is_complete():
            raise ContradictionError("a connected graph with no induced P_3 must be complete")
        out = (1 << (g.n - 2)) - 1 if g.n >= 3 else 0
        if out.bit_count() != fvs_res.optimum or not is_cfvs(g, iter_bits(out)):
            raise ContradictionError("the first n-2 vertices of a complete graph "
                                     "must form a minimum connected FVS")
        trace.record("complete", result=out)
    else:
        out = _sp3_pipeline(g, level, hit, fvs_res, trace)
    trace._steps[:0] = [
        ("recurse", {"result": out}, f"input avoids {t - 1}*P_3") for t in range(s_param, level, -1)
    ]
    trace.finish(out, fvs_res.optimum + sp3_constant(s_param))
    return frozenset(iter_bits(out)), trace


def _sp3_pipeline(
    g: Graph, s_param: int, hit: dict[int, int], fvs_res: SolveResult, trace: ProcedureTrace
) -> int:
    """Core of :func:`connectify_sp3` once ``g`` holds an induced (s-1)*P_3 ``hit``.

    Trusts its caller: ``g`` is connected and has no induced s*P_3. Works
    on vertex masks and returns the connected FVS as one.
    """
    # pattern vertex 3t+1 is the middle of the t-th path
    middles = [hit[3 * t + 1] for t in range(s_param - 1)]
    scaffold = g.vertex_mask(hit.values())
    for v in middles[1:]:
        scaffold |= g.vertex_mask(g.shortest_path(middles[0], v))
    anchor = middles[0]
    if scaffold.bit_count() > 4 * s_param * s_param - 4 * s_param:
        raise ContradictionError("the scaffold outgrew its certified size")
    trace.record("scaffold", middles=g.vertex_mask(middles), scaffold=scaffold)

    s_cur = g.vertex_mask(fvs_res.witness) | scaffold
    trace.checkpoint(g, s_cur, "seed-plus-scaffold")

    mask = g.full_mask & ~s_cur
    deg3 = sum(1 << v for v in iter_bits(mask) if (g.mask(v) & mask).bit_count() >= 3)
    if deg3.bit_count() > 4 * s_param * s_param:
        raise ContradictionError("too many branch vertices outside the set")
    s_cur |= deg3
    trace.record("absorb-branch", absorbed=deg3)
    trace.checkpoint(g, s_cur, "after-branch")

    mask = g.full_mask & ~s_cur
    deg2 = sum(1 << v for v in iter_bits(mask) if (g.mask(v) & mask).bit_count() == 2)
    if deg2.bit_count() > 4 * s_param:
        raise ContradictionError("too many middle vertices outside the set")
    s_cur |= deg2
    trace.record("absorb-middle", absorbed=deg2)
    trace.checkpoint(g, s_cur, "after-middle")

    # outside vertices now have at most one outside neighbor: a single
    # vertex goes to u2, and an edge splits across both halves
    u1 = u2 = 0
    for comp in g.mask_components(g.full_mask & ~s_cur):
        top = 1 << (comp.bit_length() - 1)
        u1 |= comp ^ top
        u2 |= top
    trace.record("halves", u1=u1, u2=u2)

    for name, u_mask in (("u1", u1), ("u2", u2)):
        z_now = g.mask_component(anchor, s_cur)
        moved = _move_step(g, s_cur, z_now, u_mask, s_param, trace)
        trace.record(f"move-{name}", added=moved & ~s_cur)
        s_cur = moved
    trace.checkpoint(g, s_cur, "after-moves")

    # absorb every outside component that still contains a 3-vertex path;
    # a connected graph is P_3-free exactly when it is complete
    z_now = g.mask_component(anchor, s_cur)
    absorbed = 0
    for comp in g.mask_components(g.full_mask & ~z_now):
        k = comp.bit_count()
        if g.mask_edge_count(comp) == k * (k - 1) // 2:
            continue
        fresh = comp & ~s_cur
        if fresh.bit_count() > 4 * s_param - 2:
            raise ContradictionError("a path-bearing outside component is too large")
        absorbed += 1
        if absorbed > s_param - 1:
            raise ContradictionError("too many path-bearing outside components")
        s_cur |= comp
        trace.record("absorb-outside", component=comp, added=fresh)
    trace.checkpoint(g, s_cur, "after-absorb")

    # swap one vertex per leftover component into its outside clique; y
    # touches the hub and N[x] is inside N[y], so the rest of x's component
    # joins the hub through y and each swap removes one component
    while True:
        z_now = g.mask_component(anchor, s_cur)
        others = s_cur & ~z_now
        if not others:
            break
        x_candidate = (others & -others).bit_length() - 1
        a_comp = g.mask_component(x_candidate, others)
        comp_mask = g.mask_component(x_candidate, g.full_mask & ~z_now)
        # g is connected and a_comp does not touch the hub, so the rest does
        y = next(v for v in iter_bits(comp_mask & ~a_comp) if g.mask(v) & z_now)
        trace.record_swap(g, x_candidate, y)
        s_cur = (s_cur & ~(1 << x_candidate)) | (1 << y)
        trace.checkpoint(g, s_cur, f"after-swap-{x_candidate}-{y}")
    trace.record("done", result=s_cur)
    return s_cur
