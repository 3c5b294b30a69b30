import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from lcol3 import build_graph
from lcol3.graph import (DuplicateEdgeError, LoopEdgeError, VertexRangeError,
                         bipartite_check, components_within, induced_subgraph)
from lcol3.recognition import shortest_odd_cycle
from lcol3.testkit import cycle_graph


def test_build_path3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.bits == [0b010, 0b101, 0b010]


def test_build_trivial_graph():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0


def test_build_rejects_loop():
    with pytest.raises(LoopEdgeError):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        build_graph(2, [(0, 2)])


@st.composite
def edge_lists(draw, min_size=0):
    """A vertex count, small or large enough that a bit row spans many int
    digits, and distinct edges in random orientation."""
    n = draw(st.one_of(st.integers(1, 12), st.just(4097)))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          min_size=min_size, max_size=30,
                          unique_by=lambda e: frozenset(e)))
    return n, edges


def reference_graph(n, edges):
    """n, m and bits of the graph, built edge by edge."""
    bits = [0] * n
    for u, v in edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return n, len(edges), bits


@given(edge_lists(), st.booleans(), st.data())
def test_build_graph_matches_edge_by_edge_reference(case, as_generator, data):
    # and so does the subgraph that a drawn vertex set induces, on the
    # edges with both ends kept, renumbered in order
    n, edges = case
    g = build_graph(n, (e for e in edges) if as_generator else edges)
    assert (g.n, g.m, g.bits) == reference_graph(n, edges)
    keep = data.draw(st.integers(0, (1 << n) - 1))
    sub, ids = induced_subgraph(g, keep)
    index = {old: new for new, old in enumerate(ids)}
    assert (sub.n, sub.m, sub.bits) == reference_graph(
        len(ids), [(index[u], index[v]) for u, v in edges
                   if u in index and v in index])


@given(edge_lists(min_size=1), st.data())
def test_build_graph_rejects_a_repeated_edge(case, data):
    n, edges = case
    u, v = data.draw(st.sampled_from(edges))
    if data.draw(st.booleans()):
        u, v = v, u
    at = data.draw(st.integers(0, len(edges)))
    edges = edges[:at] + [(u, v)] + edges[at:]
    for given_edges in (edges, (e for e in edges)):
        with pytest.raises(DuplicateEdgeError) as exc:
            build_graph(n, given_edges)
        assert exc.value.edge == (min(u, v), max(u, v))


@given(edge_lists(), st.data())
def test_induced_subgraph_matches_build_graph_on_induced_edges(case, data):
    n, edges = case
    g = build_graph(n, edges)
    candidates = sorted({x for e in edges for x in e} | {0, n - 1})
    keep = data.draw(st.lists(st.sampled_from(candidates), unique=True))
    sub, ids = induced_subgraph(g, sum(1 << v for v in keep))
    assert ids == sorted(keep)
    index = {old: new for new, old in enumerate(ids)}
    expected = build_graph(len(ids), [(index[u], index[v]) for u, v in edges
                                      if u in index and v in index])
    assert (sub.n, sub.m, sub.bits) == (expected.n, expected.m, expected.bits)


def test_adjacency_query_c5():
    g = cycle_graph(5)
    assert g.has_edge(0, 1) and g.has_edge(4, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(3, 3)


def test_adjacency_query_symmetric_exhaustive():
    rng = random.Random(42)
    n = 50
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, rng.sample(pairs, 200))
    for u in range(n):
        for v in range(n):
            assert g.has_edge(u, v) == g.has_edge(v, u)


def test_components_c5_plus_k2():
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
    assert components_within(g, (1 << 7) - 1) == [0b11111, 0b1100000]


def test_components_connected():
    assert len(components_within(cycle_graph(6), (1 << 6) - 1)) == 1


def test_components_edgeless():
    assert components_within(build_graph(3, []), 0b111) == [0b1, 0b10, 0b100]


def test_bipartite_c4():
    assert bipartite_check(cycle_graph(4), 0b1111) == (0b0101, 0b1010)


def test_bipartite_c5_odd_cycle():
    assert bipartite_check(cycle_graph(5), 0b11111) is None


def test_bipartite_single_vertex():
    assert bipartite_check(build_graph(1, []), 0b1) == (0b1, 0)


def test_induced_subgraph_maps_ids():
    g = cycle_graph(6)
    sub, ids = induced_subgraph(g, 0b1110)
    assert ids == [1, 2, 3]
    assert sub.m == 2 and sub.has_edge(0, 1) and sub.has_edge(1, 2)


def test_induced_subgraph_on_every_vertex_shares_the_graph():
    g = cycle_graph(6)
    sub, ids = induced_subgraph(g, (1 << 6) - 1)
    assert sub is g and ids == list(range(6))


@given(graphs(), st.data())
def test_bipartite_xor_odd_cycle(g, data):
    # On the whole graph and on a drawn vertex subset: None exactly when the
    # induced subgraph has an odd cycle, else two sides that every edge
    # crosses, with each component's smallest vertex on side a.
    full = (1 << g.n) - 1
    for mask in (full, data.draw(st.integers(0, full))):
        res = bipartite_check(g, mask)
        if shortest_odd_cycle(induced_subgraph(g, mask)[0]) is not None:
            assert res is None
            continue
        assert res is not None
        a, b = res
        assert a & b == 0 and a | b == mask
        for u, v in g.edges():
            if mask >> u & mask >> v & 1:
                assert (a >> u & 1) != (a >> v & 1)
        for comp in components_within(g, mask):
            assert comp & -comp & a


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(map(int.bit_count, g.bits)) == 2 * g.m


@given(graphs())
def test_components_partition(g):
    comps = components_within(g, (1 << g.n) - 1)
    union = 0
    for c in comps:
        assert union & c == 0
        union |= c
    assert union == (1 << g.n) - 1
    for u, v in g.edges():
        assert any(c >> u & c >> v & 1 for c in comps)
