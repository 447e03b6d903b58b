"""Randomized structural properties, driven by hypothesis."""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocfvs import (
    Graph,
    InvalidInputError,
    ResourceLimitError,
    complete_bipartite,
    cycle,
    disjoint_union,
    is_fvs,
)
from pocfvs.generators import _FAMILIES, from_spec, parse_spec_list
from pocfvs.graph6 import decode, encode
from pocfvs.iso import are_isomorphic, canonical_form, find_induced_embedding
from pocfvs.solvers import min_fvs

from _oracles import canonical_form_exhaustive


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return Graph(n, [e for e, keep in zip(slots, picks) if keep])


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_graph6_roundtrip(g):
    assert decode(encode(g)) == g


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_form_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    c = canonical_form(g)
    assert c == canonical_form(g.relabel(perm))
    assert canonical_form(c) == c
    assert are_isomorphic(c, g)


# copies of one graph are symmetric on purpose; the oracle's cost grows with
# the automorphism group, so the copies stay within 9 vertices
symmetric_graphs = st.integers(min_value=2, max_value=3).flatmap(
    lambda k: graphs(max_n=9 // k).map(lambda g: k * g)
)


@given(st.one_of(graphs(max_n=9), symmetric_graphs))
@settings(max_examples=150, deadline=timedelta(seconds=10))
def test_canonical_form_matches_the_exhaustive_search(g):
    assert canonical_form(g) == canonical_form_exhaustive(g)


symmetric_hosts = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda ab: complete_bipartite(*ab)),
    st.integers(3, 12).map(cycle),
    st.integers(2, 4).map(lambda k: k * cycle(3)),
)


@given(graphs(max_n=6), st.one_of(graphs(max_n=12), symmetric_hosts))
@settings(max_examples=200, deadline=timedelta(seconds=5))
def test_induced_embedding_agrees_with_networkx(pattern, host):
    # independent oracle: networkx's VF2 subgraph test is node-induced
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def as_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges())
        return out

    phi = find_induced_embedding(pattern, host)
    assert (phi is not None) == GraphMatcher(as_nx(host), as_nx(pattern)).subgraph_is_isomorphic()
    if phi is not None:
        assert sorted(phi) == list(range(pattern.n))
        assert len(set(phi.values())) == pattern.n
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                assert pattern.has_edge(u, v) == host.has_edge(phi[u], phi[v])


@given(graphs(max_n=8), st.sets(st.integers(min_value=0, max_value=7)))
@settings(max_examples=80, deadline=None)
def test_fvs_witness_supersets_stay_feasible(g, extra):
    witness = set(min_fvs(g).witness)
    grown = witness | {v for v in extra if v < g.n}
    assert is_fvs(g, grown)


@given(graphs(max_n=6), graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_union_component_additivity(g1, g2):
    u = disjoint_union(g1, g2)
    whole, left, right = (len(x.mask_components(x.full_mask)) for x in (u, g1, g2))
    assert whole == left + right
    assert u.edge_count == g1.edge_count + g2.edge_count


def _family_tags(spec):
    if spec.family in ("union", "copies"):
        assert spec.parts
        for part in spec.parts:
            yield from _family_tags(part)
    else:
        yield spec.family


# arbitrary text, and text drawn from the spec grammar's own characters
spec_texts = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="pcPCkbiltwadgrsy-:;,+*x() 0123456789", max_size=30),
)


@given(spec_texts)
@settings(max_examples=300, deadline=None)
def test_parse_spec_list_yields_known_families(text):
    try:
        specs = parse_spec_list(text)
    except InvalidInputError:
        return
    assert all(tag in _FAMILIES for spec in specs for tag in _family_tags(spec))
    # a spec such as P99999999 must fail before it is built
    for spec in specs:
        try:
            g = from_spec(spec)
        except (InvalidInputError, ResourceLimitError):
            continue
        assert g.n <= 512
