import pytest

from conftest import breach_witness, reference_anchor_classes
from lcol3 import build_graph, check_promise
from lcol3.errors import PreconditionBreach
from lcol3.graph import bipartite_check, components_within, iter_bits
from lcol3.recognition import shortest_odd_cycle
from lcol3.skeleton import (Chain, Skeleton, build_chain, build_skeleton,
                            wd_components)
from lcol3.testkit import GenSpec, generate

C5 = [(i, (i + 1) % 5) for i in range(5)]
ANCHORS = (0, 1, 2, 3, 4)


def mk(extra, n):
    return build_graph(n, C5 + extra)


def remainder_components(g, sk):
    """The non-trivial components of g minus S (the anchors with every T
    and D set), in the order build_skeleton lists their neighbourhoods."""
    s_mask = sum(1 << v for v in sk.c)
    for i in range(5):
        s_mask |= sk.t[i] | sk.d[i]
    rest = ((1 << g.n) - 1) & ~s_mask
    return [comp for comp in components_within(g, rest) if comp.bit_count() > 1]


def test_classify_t_set():
    # neighbour of c1 and c3 sits in T_2 (0-based)
    sk = build_skeleton(mk([(5, 1), (5, 3)], 6), ANCHORS)
    assert isinstance(sk, Skeleton)
    assert sk.t[2] == 1 << 5
    assert all(not sk.d[i] for i in range(5))


def test_classify_d_set():
    sk = build_skeleton(mk([(5, 0)], 6), ANCHORS)
    assert isinstance(sk, Skeleton)
    assert sk.d[0] == 1 << 5


def test_consecutive_anchor_neighbours_is_triangle():
    g = mk([(5, 0), (5, 1)], 6)
    assert breach_witness(g, build_skeleton, ANCHORS).kind == "triangle"


def test_intra_t_edge_is_triangle():
    g = mk([(5, 1), (5, 3), (6, 1), (6, 3), (5, 6)], 7)
    assert breach_witness(g, build_skeleton, ANCHORS).kind == "triangle"


def test_component_with_d_neighbour_yields_p7():
    # edge (6,7) off S, 6 adjacent to a D_0 vertex
    g = mk([(5, 0), (6, 5), (6, 7)], 8)
    assert breach_witness(g, build_skeleton, ANCHORS).kind == "induced_p7"


def test_odd_component_cycle_yields_witness():
    # 5-cycle hanging off T_2 makes the remainder non-bipartite
    comp = [(6, 7), (7, 8), (8, 9), (9, 10), (10, 6), (6, 5)]
    g = mk([(5, 1), (5, 3)] + comp, 11)
    breach_witness(g, build_skeleton, ANCHORS)


def test_nonuniform_side_neighbourhood_yields_p7():
    # path 6-7-8 with only one endpoint seeing T_2
    g = mk([(5, 1), (5, 3), (6, 5), (6, 7), (7, 8)], 9)
    assert breach_witness(g, build_skeleton, ANCHORS).kind == "induced_p7"


def test_component_sides_sharing_an_s_neighbour_raise_on_a_triangle():
    # edge 6-7 off S with both ends seeing 5 in T_2
    g = mk([(5, 1), (5, 3), (6, 5), (7, 5), (6, 7)], 8)
    assert breach_witness(g, build_skeleton, ANCHORS).kind == "triangle"


def test_component_info_fields():
    # component {6, 7}: side {6} sees 5 in T_2, side {7} nothing in S
    g = mk([(5, 1), (5, 3), (6, 5), (6, 7)], 8)
    sk = build_skeleton(g, ANCHORS)
    assert isinstance(sk, Skeleton)
    assert sk.components == (1 << 5,)
    assert remainder_components(g, sk) == [1 << 6 | 1 << 7]
    assert not sk.w


def test_wd_single_component():
    # component {6, 7} of G[W ∪ D_0]: w(7) sees 5 in T_0, d(6) nothing there
    g = mk([(5, 4), (5, 1), (6, 0), (7, 6), (7, 5)], 8)
    assert check_promise(g) is None
    sk = build_skeleton(g, ANCHORS)
    assert sk.d[0] == 1 << 6 and sk.w == 1 << 7
    assert wd_components(g, sk, 0) == [1 << 5]
    assert wd_components(g, sk, 1) == []
    # an empty T_0 leaves the component with an empty neighbourhood there
    g = mk([(5, 0), (6, 5)], 7)
    assert wd_components(g, build_skeleton(g, ANCHORS), 0) == [0]


def test_wd_consecutive_d_neighbours_yields_p7():
    g = mk([(5, 0), (6, 1), (7, 5), (7, 6)], 8)
    sk = build_skeleton(g, ANCHORS)
    assert breach_witness(g, wd_components, sk, 0).kind == "induced_p7"


def test_wd_sides_sharing_a_t_neighbour_raise_on_a_triangle():
    # d(5) in D_0 and w(6) in W both see t(7) in T_0
    g = mk([(7, 4), (7, 1), (5, 0), (6, 5), (5, 7), (6, 7)], 8)
    sk = build_skeleton(g, ANCHORS)
    assert breach_witness(g, wd_components, sk, 0).kind == "triangle"


def test_wd_no_w_vertices_empty():
    g = mk([(5, 0)], 6)
    sk = build_skeleton(g, ANCHORS)
    assert wd_components(g, sk, 0) == []


def test_wd_nonuniform_t_neighbourhood_yields_p7():
    # P3 d'(6)-w(7)-d(5) in G[W ∪ D_0] where only d sees t ∈ T_0
    g = mk([(8, 4), (8, 1), (5, 0), (6, 0), (7, 5), (7, 6), (5, 8)], 9)
    sk = build_skeleton(g, ANCHORS)
    assert breach_witness(g, wd_components, sk, 0).kind == "induced_p7"


def test_chain_nested_levels():
    # T_2 = {5, 6, 7}; components with neighbourhoods {5} and {5, 6}
    extra = [(5, 1), (5, 3), (6, 1), (6, 3), (7, 1), (7, 3),
             (8, 5), (8, 9), (10, 5), (10, 6), (10, 11)]
    g = mk(extra, 12)
    assert check_promise(g) is None
    sk = build_skeleton(g, ANCHORS)
    chain = build_chain(g, sk, 2)
    assert isinstance(chain, Chain)
    assert chain.v0 == 5 and chain.r == 2
    assert chain.levels == (0b100000, 0b100000, 0b1100000, 0b11100000)


def test_chain_degenerate():
    g = mk([(5, 1), (5, 3), (6, 1), (6, 3)], 7)
    sk = build_skeleton(g, ANCHORS)
    chain = build_chain(g, sk, 2)
    assert chain.r == 0 and chain.v0 == 5
    assert chain.levels == (0b100000, 0b1100000)


def test_chain_level_equal_to_t_merges_with_sentinel():
    g = mk([(5, 1), (5, 3), (6, 5), (6, 7)], 8)
    sk = build_skeleton(g, ANCHORS)
    chain = build_chain(g, sk, 2)
    assert chain.r == 0
    assert chain.levels == (0b100000, 0b100000)


def test_chain_crossing_neighbourhoods_violate():
    # two components seeing incomparable subsets {5} and {6} of T_2; such
    # an instance cannot be in the promise class at all
    extra = [(5, 1), (5, 3), (6, 1), (6, 3),
             (8, 5), (8, 9), (10, 6), (10, 11)]
    g = mk(extra, 12)
    sk = build_skeleton(g, ANCHORS)
    assert breach_witness(g, build_chain, sk, 2).kind == "induced_p7"


def test_chain_includes_wd_component_neighbourhoods():
    # wd component {d, w} with w seeing a prefix of T_0
    g = mk([(5, 4), (5, 1), (6, 4), (6, 1), (7, 0), (8, 7), (8, 5)], 9)
    assert check_promise(g) is None
    sk = build_skeleton(g, ANCHORS)
    chain = build_chain(g, sk, 0)
    assert chain.r == 1
    assert chain.levels == (0b100000, 0b100000, 0b1100000)


def test_generated_instances_build_cleanly():
    seen_component = False
    for seed in range(40):
        g, _ = generate(GenSpec("skeleton_built", seed=seed, scale=25))
        if bipartite_check(g, (1 << g.n) - 1) is not None:
            continue
        cyc = shortest_odd_cycle(g)
        if len(cyc) != 5:
            continue
        sk = build_skeleton(g, cyc)
        assert isinstance(sk, Skeleton), seed
        covered = sum(1 << v for v in sk.c) | sk.w
        for i in range(5):
            covered |= sk.t[i] | sk.d[i]
        comps = remainder_components(g, sk)
        assert len(comps) == len(sk.components), seed
        for comp in comps:
            assert not covered & comp, seed
            covered |= comp
            seen_component = True
        assert covered == (1 << g.n) - 1
        for i in range(5):
            if sk.t[i]:
                chain = build_chain(g, sk, i)
                assert isinstance(chain, Chain), seed
                levels = chain.levels
                assert levels[-1] == sk.t[i]
                for a, b in zip(levels, levels[1:]):
                    assert a & ~b == 0
    assert seen_component


def test_anchor_classes_match_reference():
    # Generated skeletons, anchored in two vertex orders, and triangles
    # planted in them: D_i vertices joined to the next anchor, one at a time
    # and all at once; T_i vertices joined to anchor i; the first and last
    # vertex of a T_i joined.  The rest of build_skeleton reads only the T
    # and D sets, so equal sets give an equal Skeleton.
    planted = 0
    for seed in range(30):
        g, _ = generate(GenSpec("skeleton_built", seed=seed, scale=25))
        cyc = shortest_odd_cycle(g)
        sk = build_skeleton(g, cyc)
        edges = list(g.edges())
        joins = [[(v, cyc[(i + 1) % 5])] for i in range(5)
                 for v in iter_bits(sk.d[i])]
        joins.append([e for join in joins for e in join])
        t_lists = [list(iter_bits(sk.t[i])) for i in range(5)]
        joins += [[(v, cyc[i])] for i in range(5) for v in t_lists[i]]
        joins += [[(t_lists[i][0], t_lists[i][-1])]
                  for i in range(5) if len(t_lists[i]) >= 2]
        cases = [g] + [build_graph(g.n, edges + join) for join in joins]
        for anchors in (cyc, (cyc[3], cyc[2], cyc[1], cyc[0], cyc[4])):
            for h in cases:
                want = reference_anchor_classes(h, anchors)
                if want is None:
                    with pytest.raises(PreconditionBreach):
                        build_skeleton(h, anchors)
                    planted += 1
                else:
                    got = build_skeleton(h, anchors)
                    assert isinstance(got, Skeleton), seed
                    assert list(got.t) == want[0], seed
                    assert list(got.d) == want[1], seed
    assert planted >= 500


def test_component_sides_match_bipartite_check():
    # bipartite_check gives each remainder component's sides as its
    # 2-colouring by a plain BFS over the neighbour tuples, the side of its
    # smallest vertex first; every edge of the component crosses them.
    checked = 0
    for seed in range(30):
        g, _ = generate(GenSpec("skeleton_built", seed=seed, scale=25))
        cyc = shortest_odd_cycle(g)
        if cyc is None or len(cyc) != 5:
            continue
        sk = build_skeleton(g, cyc)
        assert isinstance(sk, Skeleton), seed
        for comp in remainder_components(g, sk):
            start = (comp & -comp).bit_length() - 1
            side = {start: 0}
            queue = [start]
            for x in queue:
                for y in iter_bits(g.bits[x]):
                    if comp >> y & 1:
                        if y not in side:
                            side[y] = side[x] ^ 1
                            queue.append(y)
                        assert side[y] != side[x], seed
            sides = [0, 0]
            for v, s in side.items():
                sides[s] |= 1 << v
            assert sides[0] | sides[1] == comp
            assert bipartite_check(g, comp) == tuple(sides), seed
            checked += 1
    assert checked > 0


def test_component_edge_t_neighbourhood_union_property():
    # union of T_i-neighbourhoods over any component edge equals the
    # component's T_i-neighbourhood, the T_i part of its S-neighbourhood
    checked = 0
    for seed in range(60):
        g, _ = generate(GenSpec("skeleton_built", seed=seed, scale=25))
        if bipartite_check(g, (1 << g.n) - 1) is not None:
            continue
        cyc = shortest_odd_cycle(g)
        if len(cyc) != 5:
            continue
        sk = build_skeleton(g, cyc)
        if not isinstance(sk, Skeleton):
            continue
        bits = g.bits
        comps = remainder_components(g, sk)
        assert len(comps) == len(sk.components), seed
        for mask, nbhd in zip(comps, sk.components):
            for u in iter_bits(mask):
                for v in iter_bits(g.bits[u]):
                    if v < u or not (mask >> v) & 1:
                        continue
                    for i in range(5):
                        union = (bits[u] | bits[v]) & sk.t[i]
                        assert union == nbhd & sk.t[i]
                        checked += 1
    assert checked


def test_small_skeleton_sets_chain_and_wd_component():
    extra = [(5, 1), (5, 3), (6, 1), (7, 6), (8, 5), (8, 9)]
    g = mk(extra, 10)
    assert check_promise(g) is None
    sk = build_skeleton(g, ANCHORS)
    assert sk.c == ANCHORS
    assert sk.t == (0, 0, 1 << 5, 0, 0)
    assert sk.d == (0, 1 << 6, 0, 0, 0)
    assert sk.w == 1 << 7
    assert remainder_components(g, sk) == [1 << 8 | 1 << 9]
    assert sk.components == (1 << 5,)
    assert build_chain(g, sk, 2).v0 == 5
    # the one component {6, 7} of G[W ∪ D_1]; T_1 is empty
    assert wd_components(g, sk, 1) == [0]
