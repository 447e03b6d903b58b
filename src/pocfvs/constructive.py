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
(``_move_step``, ``_sp3_pipeline``) trust their callers and check none of
them again, but keep every certificate.

Internal exhaustive subroutines (minimum covering subsets, smallest
dominating cliques) are deliberate: the bounds require true minimality and
the package only targets desk-scale inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .errors import ContradictionError, InvalidInputError
from .generators import path
from .graph import Graph, iter_bits
from .iso import find_induced_embedding, is_free
from .solvers import SolveResult, is_cfvs, is_fvs, min_cds, min_fvs


@dataclass
class TraceStep:
    stage: str
    sets: dict[str, tuple[int, ...]]
    note: str = ""


@dataclass
class ProcedureTrace:
    """Step-by-step audit record of one constructive run."""

    procedure: str
    graph_order: int
    steps: list[TraceStep] = field(default_factory=list)
    swaps: list[dict] = field(default_factory=list)
    fvs_checkpoints: list[tuple[int, ...]] = field(default_factory=list)
    claimed_bound: int | None = None
    result: tuple[int, ...] = ()

    def record(self, stage: str, note: str = "", **sets) -> None:
        self.steps.append(
            TraceStep(stage, {name: tuple(sorted(vs)) for name, vs in sets.items()}, note)
        )

    def checkpoint(self, g: Graph, s, stage: str) -> None:
        """Record an intermediate set and verify it is still an FVS."""
        s = tuple(sorted(s))
        if not is_fvs(g, s):
            raise ContradictionError(f"{self.procedure}/{stage}: intermediate set is not an FVS")
        self.fvs_checkpoints.append(s)
        self.record(stage, note="fvs checkpoint", current=s)

    def record_swap(self, g: Graph, removed: int, added: int) -> None:
        if g.closed_mask(removed) & ~g.closed_mask(added):
            raise ContradictionError(
                f"{self.procedure}: swap {removed}->{added} lacks closed "
                "neighborhood containment"
            )
        self.swaps.append(
            {"removed": removed, "added": added, "closed_neighborhood_contained": True}
        )

    def finish(self, result, claimed_bound: int) -> None:
        self.result = tuple(sorted(result))
        self.claimed_bound = claimed_bound
        if len(self.result) > claimed_bound:
            raise ContradictionError(
                f"{self.procedure}: result size {len(self.result)} exceeds "
                f"certified bound {claimed_bound}"
            )

    def to_dict(self) -> dict:
        return {
            "procedure": self.procedure,
            "graph_order": self.graph_order,
            "steps": [
                {"stage": st.stage, "sets": {k: list(v) for k, v in st.sets.items()}, "note": st.note}
                for st in self.steps
            ],
            "swaps": self.swaps,
            "fvs_checkpoints": [list(c) for c in self.fvs_checkpoints],
            "claimed_bound": self.claimed_bound,
            "result": list(self.result),
            "result_size": len(self.result),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# -- shortest-path connectification ------------------------------------------


def connectify_by_paths(g: Graph, s) -> tuple[frozenset[int], ProcedureTrace]:
    """Join all of ``s`` to its least member through shortest paths.

    Requires a connected graph and a feedback vertex set. The result is a
    connected FVS of size at most |s| + (|s|-1)(diameter-1).
    """
    trace = ProcedureTrace("connectify-by-paths", g.n)
    if not g.is_connected():
        raise InvalidInputError("connectification needs a connected graph")
    members = g.check_vertex_set(s)
    if not is_fvs(g, members):
        raise InvalidInputError("the seed set is not a feedback vertex set")
    if not members:
        trace.record("trivial", note="empty seed set")
        trace.finish((), 0)
        return frozenset(), trace
    anchor = min(members)
    diam = g.diameter()
    bound = len(members) + (len(members) - 1) * max(0, diam - 1)
    trace.record("seed", anchor=(anchor,), seed=members)
    out = set(members)
    for y in sorted(members - {anchor}):
        route = g.shortest_path(anchor, y)
        out.update(route[1:-1])
        trace.record("join", note=f"anchor to {y}", path=route)
    trace.checkpoint(g, out, "joined")
    if not is_cfvs(g, out):
        raise ContradictionError("path union failed to connect the seed set")
    trace.finish(out, bound)
    return frozenset(out), trace


# -- dominating-set connectification -----------------------------------------


def _smallest_clique_or_p3_dominating(g: Graph) -> tuple[int, ...] | None:
    """Smallest dominating set inducing a complete graph or a 3-vertex path."""
    closed = [g.closed_mask(v) for v in range(g.n)]
    full = g.full_mask
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered != full:
                continue
            sub, _ = g.induced_subgraph(combo)
            if sub.is_complete() or (k == 3 and sub.edge_count == 2 and sub.is_connected()):
                return combo
    return None


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
    pattern = path(5) + s_param * path(1)
    if not is_free(g, [pattern]):
        raise InvalidInputError(
            f"input contains an induced P_5 + {s_param}*P_1; precondition violated"
        )
    if g.is_acyclic():
        trace.record("trivial", note="acyclic input")
        trace.finish((), 0)
        return frozenset(), trace
    fvs_res = min_fvs(g)
    f = set(fvs_res.witness)
    trace.record("minimum-fvs", seed=f)
    p5_hit = find_induced_embedding(path(5), g)
    if p5_hit is None:
        dom = _smallest_clique_or_p3_dominating(g)
        if dom is None:
            raise ContradictionError(
                "a connected graph with no induced P_5 must have a dominating "
                "clique or dominating 3-vertex path"
            )
        trace.record("dominating-core", core=dom, note="clique or P_3 dominating set")
        out = f | set(dom)
        bound = fvs_res.optimum + 3
    else:
        if s_param < 1:
            raise ContradictionError("a P_5 was found in a graph verified P_5-free")
        p5_vertices = sorted(p5_hit.values())
        shielded = 0
        for v in p5_vertices:
            shielded |= g.closed_mask(v)
        outside = [v for v in range(g.n) if not (shielded >> v & 1)]
        indep: list[int] = []
        taken = 0
        for v in outside:
            if not (g.mask(v) & taken):
                indep.append(v)
                taken |= 1 << v
        trace.record("p5-and-independents", p5=p5_vertices, independent=indep)
        if len(indep) > s_param - 1:
            raise ContradictionError(
                f"maximal independent set outside the P_5 neighborhood has "
                f"{len(indep)} vertices, exceeding {s_param - 1}"
            )
        cds = min_cds(g)
        if cds.optimum > 3 * (5 + len(indep)) - 2:
            raise ContradictionError(
                "connected domination exceeded three times domination minus two"
            )
        trace.record("dominating-core", core=cds.witness)
        out = f | set(cds.witness)
        bound = fvs_res.optimum + 3 * s_param + 10
    trace.checkpoint(g, out, "fvs-plus-core")
    if not is_cfvs(g, out):
        raise ContradictionError("the dominating core failed to connect the set")
    trace.finish(out, bound)
    return frozenset(out), trace


# -- the move step and the s*P_3 pipeline -------------------------------------


def _component_sets(g: Graph, members) -> list[frozenset[int]]:
    mask = sum(1 << v for v in members)
    return [frozenset(iter_bits(m)) for m in g.mask_components(mask)]


def _component_of(g: Graph, members, anchor: int) -> frozenset[int]:
    """The component of the subgraph induced by ``members`` that holds ``anchor``."""
    mask = sum(1 << v for v in members)
    if not (mask >> anchor & 1):
        raise ContradictionError("anchor left the working set")
    return frozenset(iter_bits(g.mask_component(anchor, mask)))


def _adjacent(g: Graph, vertex: int, group) -> bool:
    return any(g.has_edge(vertex, w) for w in group)


def _min_cover(universe, groups, g: Graph) -> tuple[int, ...]:
    """Lexicographically first minimum subset of ``universe`` touching every group."""
    universe = sorted(universe)
    for k in range(len(universe) + 1):
        for combo in combinations(universe, k):
            if all(any(_adjacent(g, u, grp) for u in combo) for grp in groups):
                return combo
    raise ContradictionError("no covering subset exists; groups are not all adjacent")


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
    s_mem = g.check_vertex_set(s_set)
    z_mem = g.check_vertex_set(z_set)
    u_mem = g.check_vertex_set(u_set)
    if s_param < 1:
        raise InvalidInputError(f"the pattern scale must be >= 1, got {s_param}")
    if not g.is_connected():
        raise InvalidInputError("move step needs a connected graph")
    if not is_free(g, [s_param * path(3)]):
        raise InvalidInputError(f"input contains an induced {s_param}*P_3")
    if z_mem not in _component_sets(g, s_mem):
        raise InvalidInputError("z must be exactly one component of the induced seed set")
    z_graph, _ = g.induced_subgraph(z_mem)
    if find_induced_embedding((s_param - 1) * path(3), z_graph) is None:
        raise InvalidInputError(f"z must contain an induced {s_param - 1}*P_3")
    if u_mem & s_mem:
        raise InvalidInputError("u must be disjoint from the seed set")
    u_mask = sum(1 << w for w in u_mem)
    if any(g.mask(v) & u_mask for v in u_mem):
        raise InvalidInputError("u must be an independent set")
    return _move_step(g, s_mem, z_mem, u_mem, s_param)


def _move_step(
    g: Graph, s_mem: frozenset[int], z_mem: frozenset[int], u_mem: frozenset[int], s_param: int
) -> tuple[frozenset[int], ProcedureTrace]:
    """Core of :func:`move_step`; trusts the caller to meet its preconditions."""
    trace = ProcedureTrace("move-step", g.n)
    anchor = min(z_mem)
    seed_is_fvs = is_fvs(g, s_mem)
    s_cur = set(s_mem)

    def note_growth(stage: str) -> None:
        # sets grown from an FVS seed stay FVSs; only then is the
        # checkpoint meaningful
        if seed_is_fvs:
            trace.checkpoint(g, s_cur, stage)
        else:
            trace.record(stage, current=s_cur)

    others = [c for c in _component_sets(g, s_mem) if c != z_mem]
    comps_a = [c for c in others if any(_adjacent(g, u, c) for u in sorted(u_mem))]
    trace.record("collect", z=z_mem, u=u_mem, a=sorted(v for c in comps_a for v in c))
    if comps_a:
        u1 = _min_cover(u_mem, comps_a, g)
        # a private component of u is adjacent to no other cover vertex
        private: dict[int, frozenset[int]] = {}
        for u in u1:
            mine = [
                c
                for c in comps_a
                if _adjacent(g, u, c) and not any(_adjacent(g, w, c) for w in u1 if w != u)
            ]
            if not mine:
                raise ContradictionError("a minimum cover vertex lost its private component")
            private[u] = min(mine, key=min)
        a1 = set(private.values())
        a2 = [c for c in comps_a if c not in a1]
        u2 = _min_cover(u1, a2, g) if a2 else ()
        if len(u2) > s_param - 1:
            raise ContradictionError(
                f"second cover has {len(u2)} vertices; at most {s_param - 1} are possible"
            )
        for u in u2:
            if not _adjacent(g, u, z_mem):
                raise ContradictionError(
                    "a vertex adjacent to two component layers must reach the hub component"
                )
        s_cur |= set(u2)
        trace.record("move-u2", u1=u1, u2=u2)
        note_growth("after-u2")

        remaining = [c for c in comps_a if not any(_adjacent(g, u, c) for u in u2)]
        for c in remaining:
            if c not in a1:
                raise ContradictionError("an unabsorbed component is not private to the cover")
        u3 = sorted(u_mem - set(u1))
        a3 = [c for c in remaining if any(_adjacent(g, u, c) for u in u3)]
        u4 = _min_cover(u3, a3, g) if a3 else ()
        if len(u4) > s_param - 1:
            raise ContradictionError(
                f"third cover has {len(u4)} vertices; at most {s_param - 1} are possible"
            )
        z_now = _component_of(g, s_cur, anchor)
        w_set = [u for u in u4 if sum(1 for c in a3 if _adjacent(g, u, c)) >= 2]
        for u in w_set:
            if not _adjacent(g, u, z_now):
                raise ContradictionError(
                    "a vertex adjacent to two private components must reach the hub component"
                )
        for c in a3:
            if any(_adjacent(g, w, c) for w in w_set):
                continue
            owners = [u for u in u1 if u not in u2 and _adjacent(g, u, c)]
            helpers = [u for u in u4 if u not in w_set and _adjacent(g, u, c)]
            if not owners or not helpers:
                raise ContradictionError("a private component lost its two-sided attachment")
            candidates = [v for v in sorted(owners + helpers) if _adjacent(g, v, z_now)]
            if not candidates:
                raise ContradictionError(
                    "neither attachment of a private component reaches the hub component"
                )
            w_set.append(candidates[0])
        if len(w_set) > s_param - 1:
            raise ContradictionError(
                f"relay set has {len(w_set)} vertices; at most {s_param - 1} are possible"
            )
        s_cur |= set(w_set)
        trace.record("move-w", u3=u3, u4=u4, w=w_set)
        note_growth("after-w")
    else:
        trace.record("noop", note="no outside component touches u")

    # verify the contract
    if len(s_cur) > len(s_mem) + 2 * s_param - 2:
        raise ContradictionError(
            f"move step grew the set by {len(s_cur) - len(s_mem)}; "
            f"the certified growth is {2 * s_param - 2}"
        )
    z_final = _component_of(g, s_cur, anchor)
    if not (z_mem <= z_final and (s_cur - s_mem) <= z_final):
        raise ContradictionError("an added vertex fell outside the hub component")
    u_left = u_mem - s_cur
    side = [c for c in _component_sets(g, s_cur) if c != z_final]
    for u in sorted(u_left):
        if sum(1 for c in side if _adjacent(g, u, c)) > 1:
            raise ContradictionError(f"u-vertex {u} still touches two outside components")
    for c in side:
        if sum(1 for u in u_left if _adjacent(g, u, c)) > 1:
            raise ContradictionError("an outside component still touches two u-vertices")
    trace.record("done", result=s_cur)
    trace.finish(s_cur, len(s_mem) + 2 * s_param - 2)
    return frozenset(s_cur), trace


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
    if not is_free(g, [s_param * path(3)]):
        raise InvalidInputError(f"input contains an induced {s_param}*P_3")
    trace = ProcedureTrace("connectify-sp3", g.n)
    level, hit = s_param, None
    while level > 1:
        hit = find_induced_embedding((level - 1) * path(3), g)
        if hit is not None:
            break
        level -= 1
    fvs_res = min_fvs(g)
    if level == 1:
        if not g.is_complete():
            raise ContradictionError("a connected graph with no induced P_3 must be complete")
        out = frozenset(range(g.n - 2)) if g.n >= 3 else frozenset()
        if len(out) != fvs_res.optimum or not is_cfvs(g, out):
            raise ContradictionError("the first n-2 vertices of a complete graph "
                                     "must form a minimum connected FVS")
        trace.record("complete", result=out)
    else:
        out = _sp3_pipeline(g, level, hit, fvs_res, trace)
    trace.steps[:0] = [
        TraceStep("recurse", {"result": tuple(sorted(out))}, f"input avoids {t - 1}*P_3")
        for t in range(s_param, level, -1)
    ]
    trace.finish(out, fvs_res.optimum + _sp3_constant(s_param))
    return out, trace


def _sp3_constant(s_param: int) -> int:
    return 0 if s_param == 1 else 12 * s_param * s_param - 2 * s_param - 2


def _sp3_pipeline(
    g: Graph, s_param: int, hit: dict[int, int], fvs_res: SolveResult, trace: ProcedureTrace
) -> frozenset[int]:
    """Core of :func:`connectify_sp3` once ``g`` holds an induced (s-1)*P_3 ``hit``.

    Trusts its caller: ``g`` is connected and has no induced s*P_3.
    """
    # pattern vertex 3t+1 is the middle of the t-th path
    middles = [hit[3 * t + 1] for t in range(s_param - 1)]
    scaffold = set(hit.values())
    for v in middles[1:]:
        scaffold.update(g.shortest_path(middles[0], v))
    anchor = middles[0]
    if len(scaffold) > 4 * s_param * s_param - 4 * s_param:
        raise ContradictionError("the scaffold outgrew its certified size")
    if not g.mask_is_connected(sum(1 << v for v in scaffold)):
        raise ContradictionError("the scaffold failed to connect")
    trace.record("scaffold", middles=middles, scaffold=scaffold)

    s_cur = set(fvs_res.witness) | scaffold
    trace.checkpoint(g, s_cur, "seed-plus-scaffold")

    def outside_mask() -> int:
        return g.full_mask & ~sum(1 << v for v in s_cur)

    def outside_degree(v: int, mask: int) -> int:
        return (g.mask(v) & mask).bit_count()

    mask = outside_mask()
    deg3 = [v for v in iter_bits(mask) if outside_degree(v, mask) >= 3]
    if len(deg3) > 4 * s_param * s_param:
        raise ContradictionError("too many branch vertices outside the set")
    s_cur |= set(deg3)
    trace.record("absorb-branch", absorbed=deg3)
    trace.checkpoint(g, s_cur, "after-branch")

    mask = outside_mask()
    deg2 = [v for v in iter_bits(mask) if outside_degree(v, mask) == 2]
    if len(deg2) > 4 * s_param:
        raise ContradictionError("too many middle vertices outside the set")
    s_cur |= set(deg2)
    trace.record("absorb-middle", absorbed=deg2)
    trace.checkpoint(g, s_cur, "after-middle")

    outside = _component_sets(g, [v for v in range(g.n) if v not in s_cur])
    u1: list[int] = []
    u2: list[int] = []
    for comp in outside:
        if len(comp) == 1:
            u2.extend(comp)
        elif len(comp) == 2:
            a, b = sorted(comp)
            u1.append(a)
            u2.append(b)
        else:
            raise ContradictionError("outside components must be single vertices or edges")
    trace.record("halves", u1=u1, u2=u2)

    for name, uset in (("u1", u1), ("u2", u2)):
        z_now = _component_of(g, s_cur, anchor)
        moved, sub = _move_step(g, frozenset(s_cur), z_now, frozenset(uset), s_param)
        added = sorted(set(moved) - s_cur)
        s_cur = set(moved)
        trace.steps.extend(sub.steps)
        trace.fvs_checkpoints.extend(sub.fvs_checkpoints)
        trace.record(f"move-{name}", added=added)
    trace.checkpoint(g, s_cur, "after-moves")

    # absorb every outside component that still contains a 3-vertex path;
    # a connected graph is P_3-free exactly when it is complete
    z_now = _component_of(g, s_cur, anchor)
    rim = _component_sets(g, [v for v in range(g.n) if v not in z_now])
    absorbed = 0
    for comp in rim:
        sub_g, _ = g.induced_subgraph(comp)
        if sub_g.is_complete():
            continue
        fresh = sorted(comp - s_cur)
        if len(fresh) > 4 * s_param - 2:
            raise ContradictionError("a path-bearing outside component is too large")
        absorbed += 1
        if absorbed > s_param - 1:
            raise ContradictionError("too many path-bearing outside components")
        s_cur |= comp
        trace.record("absorb-outside", component=comp, added=fresh)
    trace.checkpoint(g, s_cur, "after-absorb")

    claimed = fvs_res.optimum + _sp3_constant(s_param)
    if len(s_cur) > claimed:
        raise ContradictionError(
            f"pipeline size {len(s_cur)} exceeds the certified bound {claimed}"
        )

    # swap one vertex per leftover component into its outside clique
    while True:
        comps = _component_sets(g, s_cur)
        z_now = _component_of(g, s_cur, anchor)
        rest = [c for c in comps if c != z_now]
        if not rest:
            break
        a_comp = min(rest, key=min)
        z_mask = sum(1 << v for v in z_now)
        free_mask = g.full_mask & ~z_mask
        x_candidate = min(a_comp)
        comp_mask = g.mask_component(x_candidate, free_mask)
        buddies = sorted(set(iter_bits(comp_mask)) - a_comp)
        gate = [v for v in buddies if g.mask(v) & z_mask]
        if not gate:
            raise ContradictionError("a leftover component cannot reach the hub component")
        y = gate[0]
        trace.record_swap(g, x_candidate, y)
        s_cur.discard(x_candidate)
        s_cur.add(y)
        trace.checkpoint(g, s_cur, f"after-swap-{x_candidate}-{y}")
        if len(_component_sets(g, s_cur)) >= len(comps):
            raise ContradictionError("a swap failed to reduce the component count")
    if not is_cfvs(g, s_cur):
        raise ContradictionError("the pipeline did not produce a connected FVS")
    trace.record("done", result=s_cur)
    return frozenset(s_cur)
