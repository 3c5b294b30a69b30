import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (breach_witness, brute_has_induced_p7, brute_triangle_free,
                      check_witness, false_twin_classes, graphs,
                      reference_find_induced_p7, reference_induced_p7,
                      reference_shortest_odd_cycle, subset_induces_path)
from lcol3 import build_graph, check_promise
from lcol3.errors import PreconditionBreach
from lcol3.graph import induced_subgraph, iter_bits
from lcol3.recognition import (find_induced_p7, find_triangle, is_induced_path,
                               is_triangle, p7_witness, recognize_blownup_c7,
                               shortest_odd_cycle, triangle_witness)
from lcol3.testkit import (GenSpec, cycle_graph, generate, groetzsch_graph,
                           path_graph, petersen_graph)
from test_properties import twin_expand


def test_find_triangle_k3():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert find_triangle(g) == (0, 1, 2)


def test_find_triangle_c5_none():
    assert find_triangle(cycle_graph(5)) is None


def test_find_triangle_petersen_matches_brute_force():
    g = petersen_graph()
    assert find_triangle(g) is None
    assert brute_triangle_free(g)


def test_find_induced_p7_on_p7():
    g = path_graph(7)
    assert find_induced_p7(g) == (0, 1, 2, 3, 4, 5, 6)


def test_find_induced_p7_c7_none():
    assert find_induced_p7(cycle_graph(7)) is None


def test_find_induced_p7_c8():
    got = find_induced_p7(cycle_graph(8))
    assert got is not None and is_induced_path(cycle_graph(8), got)


@settings(max_examples=60)
@given(graphs(max_n=11))
def test_find_induced_p7_matches_exhaustive(g):
    exists = brute_has_induced_p7(g) if g.n >= 7 else False
    got = find_induced_p7(g)
    assert (got is not None) == exists
    if got is not None:
        assert is_induced_path(g, got)


def test_find_induced_p7_exhaustive_larger_spot():
    rng = random.Random(7)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    g = build_graph(20, rng.sample(pairs, 24))
    assert (find_induced_p7(g) is not None) == brute_has_induced_p7(g)


def _agrees_with_reference(g):
    got = find_induced_p7(g)
    assert (got is None) == (reference_induced_p7(g) is None)
    if got is not None:
        assert is_induced_path(g, got)
    return got


@st.composite
def triangle_free_graphs(draw, max_n=12):
    # edges in drawn order, skipping any that would close a triangle
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = draw(st.permutations(pairs)) if pairs else []
    keep = draw(st.integers(min_value=0, max_value=len(pairs)))
    nbrs = [set() for _ in range(n)]
    edges = []
    for u, v in order[:keep]:
        if not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
            edges.append((u, v))
    return build_graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_find_induced_p7_matches_reference(g):
    _agrees_with_reference(g)


@settings(max_examples=150, deadline=None)
@given(triangle_free_graphs())
def test_find_induced_p7_matches_reference_triangle_free(g):
    assert find_triangle(g) is None
    _agrees_with_reference(g)


def _with_pendant_p6(g, at):
    edges = list(g.edges())
    path = [at] + list(range(g.n, g.n + 6))
    return build_graph(g.n + 6, edges + list(zip(path, path[1:])))


def _twin_quotient(g):
    return induced_subgraph(g, sum(cl & -cl for cl in false_twin_classes(g)))[0]


def test_find_induced_p7_matches_reference_on_skeletons():
    # skeleton_built graphs keep twins (their quotients have under 20
    # vertices), so each graph is checked whole, as its quotient, and with
    # a pendant P6, which always holds an induced P7
    rng = random.Random(11)
    sizes = []
    for seed in range(40):
        g, _ = generate(GenSpec("skeleton_built", seed=seed, scale=120))
        if not 30 <= g.n <= 80:
            continue
        sizes.append(g.n)
        assert _agrees_with_reference(g) is None
        assert _agrees_with_reference(_twin_quotient(g)) is None
        assert _agrees_with_reference(_with_pendant_p6(g, rng.randrange(g.n))) is not None
    assert len(sizes) >= 10 and max(sizes) > 60


@pytest.mark.parametrize("kind,length", [("blownup_c5", 5), ("blownup_c7", 7)])
def test_find_induced_p7_matches_reference_on_blowups(kind, length):
    rng = random.Random(length)
    for seed in range(12):
        sizes = tuple(rng.randint(1, 5) for _ in range(length))
        g, _ = generate(GenSpec(kind, seed=seed, class_sizes=sizes))
        assert _agrees_with_reference(g) is None
        assert _agrees_with_reference(_twin_quotient(g)) is None
        assert _agrees_with_reference(_with_pendant_p6(g, rng.randrange(g.n))) is not None


def _brute_shortest_odd_cycle_len(g, upper):
    for length in range(3, upper + 1, 2):
        for subset in combinations(range(g.n), length):
            rest = subset[1:]
            for perm in permutations(rest):
                order = (subset[0],) + perm
                if all(g.has_edge(order[i], order[(i + 1) % length])
                       for i in range(length)):
                    return length
    return None


def test_shortest_odd_cycle_c7():
    cyc = shortest_odd_cycle(cycle_graph(7))
    assert len(cyc) == 7


def test_shortest_odd_cycle_c5_pendant():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    assert len(shortest_odd_cycle(g)) == 5


def test_shortest_odd_cycle_groetzsch():
    g = groetzsch_graph()
    cyc = shortest_odd_cycle(g)
    assert len(cyc) == 5
    assert brute_triangle_free(g)
    assert _brute_shortest_odd_cycle_len(g, 5) == 5


def test_shortest_odd_cycle_bipartite_none():
    assert shortest_odd_cycle(cycle_graph(8)) is None


@settings(max_examples=50)
@given(graphs(max_n=9))
def test_shortest_odd_cycle_chordless_and_minimal(g):
    cyc = shortest_odd_cycle(g)
    brute = _brute_shortest_odd_cycle_len(g, g.n if g.n % 2 else g.n - 1)
    if cyc is None:
        assert brute is None
        return
    assert len(cyc) == brute
    for i, u in enumerate(cyc):
        for j in range(i + 1, len(cyc)):
            expected = j == i + 1 or (i == 0 and j == len(cyc) - 1)
            assert g.has_edge(u, cyc[j]) == expected


def test_shortest_odd_cycle_deterministic():
    rng = random.Random(3)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    g = build_graph(12, rng.sample(pairs, 20))
    assert shortest_odd_cycle(g) == shortest_odd_cycle(g)


@st.composite
def triangle_free_graphs(draw, max_n=14):
    """Random graphs with every edge that would close a triangle left out."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = draw(st.permutations(pairs)) if pairs else []
    keep = draw(st.integers(min_value=0, max_value=len(pairs)))
    rows = [0] * n
    edges = []
    for u, v in order[:keep]:
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            edges.append((u, v))
    return build_graph(n, edges)


@settings(max_examples=150)
@given(graphs(max_n=14))
def test_shortest_odd_cycle_matches_full_bfs(g):
    assert shortest_odd_cycle(g) == reference_shortest_odd_cycle(g)


@settings(max_examples=150)
@given(triangle_free_graphs())
def test_shortest_odd_cycle_matches_full_bfs_triangle_free(g):
    assert find_triangle(g) is None
    assert shortest_odd_cycle(g) == reference_shortest_odd_cycle(g)


def test_shortest_odd_cycle_triangle_after_a_c5():
    # The full BFS meets the C5 from root 0 first and the triangle only at
    # root 5; the triangle still wins.
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (5, 6), (6, 7), (5, 7)])
    assert reference_shortest_odd_cycle(g) == [5, 6, 7]
    assert shortest_odd_cycle(g) == [5, 6, 7]


def test_shortest_odd_cycle_matches_full_bfs_on_generated_graphs():
    rng = random.Random(9)
    graphs_ = [generate(GenSpec("skeleton_built", seed=seed, scale=25))[0]
               for seed in range(20)]
    for length in (5, 7):
        for seed in range(10):
            sizes = tuple(rng.randint(1, 4) for _ in range(length))
            kind = f"blownup_c{length}"
            graphs_.append(generate(GenSpec(kind, seed=seed, class_sizes=sizes))[0])
    lengths = set()
    for g in graphs_:
        cyc = shortest_odd_cycle(g)
        assert cyc == reference_shortest_odd_cycle(g)
        lengths.add(len(cyc))
    assert lengths == {5, 7}


# false_twin_classes is the conftest helper that the twin-free asserts and
# the quotient references rest on; these pin it on known graphs.
def test_false_twins_c4():
    classes = false_twin_classes(cycle_graph(4))
    assert classes == [0b0101, 0b1010]


def test_false_twins_c5_singletons():
    assert all(c.bit_count() == 1 for c in false_twin_classes(cycle_graph(5)))


def test_false_twins_doubled_c7():
    g, _ = generate(GenSpec("blownup_c7", class_sizes=(2,) * 7))
    classes = false_twin_classes(g)
    assert len(classes) == 7 and all(c.bit_count() == 2 for c in classes)


def test_recognize_c7_itself():
    assert recognize_blownup_c7(cycle_graph(7), list(range(7))) is None


def test_recognize_doubled_c7():
    g, _ = generate(GenSpec("blownup_c7", class_sizes=(2,) * 7))
    assert recognize_blownup_c7(g, shortest_odd_cycle(g)) is None


def test_recognize_consecutive_neighbours_is_triangle():
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(7, 1), (7, 2)]
    g = build_graph(8, edges)
    assert breach_witness(g, recognize_blownup_c7, list(range(7))).kind == "triangle"


def test_recognize_single_neighbour_is_p7():
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(7, 3)]
    g = build_graph(8, edges)
    assert breach_witness(g, recognize_blownup_c7, list(range(7))).kind == "induced_p7"


def test_recognize_distance_three_raises_on_a_graph_with_a_c5():
    # 7 closes the 5-cycle 7-0-1-2-3: the graph has odd girth 5, so
    # recognize_blownup_c7 is called outside its precondition, yet the graph
    # is in the class
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 3)]
    g = build_graph(8, edges)
    with pytest.raises(PreconditionBreach):
        recognize_blownup_c7(g, list(range(7)))
    assert check_promise(g) is None


def test_recognize_far_vertex_is_p7():
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(7, 6), (7, 1), (8, 7), (9, 8)]
    g = build_graph(10, edges)
    assert breach_witness(g, recognize_blownup_c7, list(range(7))).kind == "induced_p7"


@pytest.mark.parametrize("extra,kind", [
    # 7 is a twin of 0 and 8 a twin of 2, joined: a triangle with 1
    ([(7, 6), (7, 1), (8, 1), (8, 3), (7, 8)], "triangle"),
    # 7 is a twin of 0 and 8 a twin of 1, not joined: 7 6 5 4 3 2 8 is an
    # induced P7
    ([(7, 6), (7, 1), (8, 0), (8, 2)], "induced_p7"),
], ids=["class_edge", "missing_consecutive_edge"])
def test_recognize_class_adjacency_raises(extra, kind):
    g = build_graph(9, [(i, (i + 1) % 7) for i in range(7)] + extra)
    assert breach_witness(g, recognize_blownup_c7, list(range(7))).kind == kind


@st.composite
def density_graphs(draw, max_n=16):
    # G(n, p) at a drawn density, triangles included
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.sampled_from((0.15, 0.25, 0.35, 0.5, 0.7)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < density])


@settings(max_examples=300, deadline=None)
@given(density_graphs())
def test_find_induced_p7_returns_the_reference_path(g):
    assert find_induced_p7(g) == reference_find_induced_p7(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=2**32))
def test_find_induced_p7_returns_the_reference_path_on_skeleton_quotients(seed, salt):
    # the quotient itself is P7-free; a pendant P6 and a flipped vertex
    # pair give it paths to find
    g, _ = generate(GenSpec("skeleton_built", seed=seed, scale=60))
    q = _twin_quotient(g)
    rng = random.Random(salt)
    u, v = rng.sample(range(q.n), 2)
    edges = set(q.edges())
    edges ^= {(min(u, v), max(u, v))}
    flipped = build_graph(q.n, sorted(edges))
    for h in (q, _with_pendant_p6(q, rng.randrange(q.n)), flipped):
        assert find_induced_p7(h) == reference_find_induced_p7(h)


def _shuffled(g, rng):
    # the same graph with vertex v renamed perm[v], for a random perm
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                                   for u, v in g.edges()))


def _with_shadows(g, rng, shadows, isolated):
    # each shadow sees a non-empty part of one vertex's neighbourhood, so
    # that vertex's neighbourhood holds the shadow's; isolated vertices last
    edges = list(g.edges())
    n = g.n
    for _ in range(shadows):
        nbrs = list(iter_bits(g.bits[rng.randrange(g.n)]))
        if nbrs:
            edges += [(u, n) for u in rng.sample(nbrs, rng.randint(1, len(nbrs)))]
            n += 1
    return build_graph(n + isolated, edges)


def test_find_induced_p7_returns_the_reference_path_on_dominated_and_sparse_vertices():
    # isolated vertices, centres of degree one and vertices whose
    # neighbourhood lies inside another's, each under shuffled labels
    pendants = build_graph(16, [(i, i + 1) for i in range(7)]
                           + [(i, i + 8) for i in range(8)])
    bases = [path_graph(8), pendants, path_graph(9), cycle_graph(7),
             cycle_graph(8), cycle_graph(9), petersen_graph(),
             groetzsch_graph(), build_graph(9, [])]
    rng = random.Random(18)
    outcomes = []
    for base in bases:
        for k in range(15):
            g = _with_shadows(base, rng, k % 5, k % 3)
            for h in (g, _shuffled(g, rng)):
                path = find_induced_p7(h)
                assert path == reference_find_induced_p7(h)
                outcomes.append(path is None)
    assert find_induced_p7(pendants) == (8, 0, 1, 2, 3, 4, 5)
    assert 0 < sum(outcomes) < len(outcomes)


def _reference_check_promise(g):
    # check_promise as composed before its representatives came from a
    # dict of bit rows and its triangle search moved to the quotient
    tri = find_triangle(g)
    if tri is not None:
        return triangle_witness(g, *tri)
    quotient, ids = induced_subgraph(g, sum(cl & -cl for cl in false_twin_classes(g)))
    p7 = reference_find_induced_p7(quotient)
    return None if p7 is None else p7_witness(g, [ids[v] for v in p7])


@settings(max_examples=150, deadline=None)
@given(st.one_of(density_graphs(max_n=12), triangle_free_graphs()),
       st.integers(min_value=0, max_value=2**16))
def test_check_promise_matches_the_reference_on_twin_expansions(g, seed):
    rng = random.Random(seed)
    # twin_expand appends each twin after the vertex it copies; shuffling
    # the labels lets a twin come first and represent its class
    expanded = _shuffled(twin_expand(g, rng, rng.randint(0, 6)), rng)
    assert check_promise(expanded) == _reference_check_promise(expanded)


def test_find_induced_p7_and_check_promise_match_the_references_on_a_fixed_sweep():
    # the same 2 000 G(n, p) graphs on every run, triangles allowed, so the
    # visiting order is pinned on a fixed set; 1 011 of them hold an induced
    # P7, and their twin-expanded, shuffled copies give 1 415 triangles,
    # 126 induced P7s and 459 in-class graphs
    found = 0
    kinds = {}
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(7, 16)
        density = rng.uniform(0.1, 0.4)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < density])
        path = find_induced_p7(g)
        assert path == reference_find_induced_p7(g), seed
        found += path is not None
        expanded = _shuffled(twin_expand(g, rng, rng.randint(0, 6)), rng)
        witness = check_promise(expanded)
        assert witness == _reference_check_promise(expanded), seed
        kind = None if witness is None else witness.kind
        kinds[kind] = kinds.get(kind, 0) + 1
    assert found == 1011
    assert kinds == {"triangle": 1415, "induced_p7": 126, None: 459}


def test_recognize_reconstructs_generator_classes():
    # the generator's seven classes are the false-twin classes, one cycle
    # vertex in each, and the check accepts them
    for seed in range(10):
        g, _ = generate(GenSpec("blownup_c7", seed=seed))
        cyc = shortest_odd_cycle(g)
        classes = false_twin_classes(g)
        assert len(classes) == 7
        assert sorted(sum(cl >> v & 1 for v in cyc) for cl in classes) == [1] * 7
        assert recognize_blownup_c7(g, cyc) is None


def test_check_promise_c5_ok():
    assert check_promise(cycle_graph(5)) is None


def test_check_promise_k3_triangle():
    out = check_promise(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert out.kind == "triangle"


def test_check_promise_p8_induced_p7():
    out = check_promise(path_graph(8))
    assert out.kind == "induced_p7" and out.vertices == (0, 1, 2, 3, 4, 5, 6)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=9), st.integers(min_value=0, max_value=2**16))
def test_check_promise_on_twin_expansions_matches_brute_force(g, seed):
    # the induced-P7 search runs on the false-twin quotient
    rng = random.Random(seed)
    expanded = twin_expand(g, rng, rng.randint(0, 5))
    in_class = brute_triangle_free(expanded) and not (
        expanded.n >= 7 and brute_has_induced_p7(expanded))
    out = check_promise(expanded)
    assert (out is None) == in_class
    if out is not None:
        assert check_witness(expanded, out)


def test_long_odd_girth_reports_p7():
    for n in (9, 11):
        g = cycle_graph(n)
        cyc = shortest_odd_cycle(g)
        assert len(cyc) == n
        assert subset_induces_path(g, cyc[:7])
        out = check_promise(g)
        assert out is not None and out.kind == "induced_p7"


def test_is_triangle_and_is_induced_path():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert is_triangle(g, (0, 1, 2))
    assert not is_triangle(g, (0, 1, 3))
    assert is_induced_path(g, (0, 2, 3))
    assert not is_induced_path(g, (1, 0, 2))
