import pathlib
import random
import sys

import pytest

from conftest import reference_oracle_solve
from lcol3 import build_graph, check_promise, solve, verify_colouring
from lcol3.cli import parse_instance
from lcol3.engine import FULL_MASK, mask_of
from lcol3.graph import bipartite_check, iter_bits
from lcol3.testkit import (GenSpec, RejectionBudgetExceeded, cycle_graph,
                           enumerate_colourings, generate, groetzsch_graph,
                           mycielski, oracle_solve, path_graph,
                           petersen_graph, vertex_bound)

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def test_oracle_c5_full():
    g = cycle_graph(5)
    got = oracle_solve(g)
    assert got is not None and verify_colouring(g, None, got)


def test_oracle_c5_restricted_unsat():
    assert oracle_solve(cycle_graph(5), [mask_of([1, 2])] * 5) is None


def test_oracle_empty_graph():
    assert oracle_solve(build_graph(0, [])) == []


# The oracle's answer on each sample, as its recursive form gave it.
ORACLE_SAMPLE_COLOURINGS = {
    "anchor_breach.lcol": (1, 1, 2, 1, 2, 1, 2, 3, 3, 2),
    "bipartite_lists.lcol": (2, 1, 2, 1, 2, 1),
    "c5.lcol": (1, 2, 1, 2, 3),
    "c5_commented.lcol": (1, 2, 1, 2, 3),
    "c5_unsat.lcol": None,
    "c7_blowup.lcol": (1, 1, 2, 1, 1, 2, 1, 1, 2, 3, 3),
    "c7_blowup_lists.lcol": (1, 2, 2, 1, 1, 3, 3, 2, 2, 1, 1, 3, 2),
    "groetzsch.lcol": None,
    "p8.lcol": (1, 2, 1, 2, 1, 2, 1, 2),
    "skeleton_lists.lcol": None,
    "skeleton_small.lcol": (1, 2, 1, 2, 3, 1, 2, 2, 1, 1, 1, 2, 1, 2, 2),
    "triangle.lcol": (1, 2, 3),
    "triangle_two_lists.lcol": (1, 2, 3),
}


def test_oracle_keeps_its_colourings_and_the_recursion_limit(monkeypatch):
    # The search keeps its own stack: it never changes the process-wide
    # recursion limit, finds the same colouring in the same vertex and
    # colour order, and runs deeper than the limit.
    names = sorted(path.name for path in INSTANCES.glob("*.lcol"))
    assert sorted(ORACLE_SAMPLE_COLOURINGS) == names
    limit = sys.getrecursionlimit()
    set_limit = sys.setrecursionlimit
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    for name, want in ORACLE_SAMPLE_COLOURINGS.items():
        g, masks = parse_instance((INSTANCES / name).read_text())
        got = oracle_solve(g, masks)
        assert (got if got is None else tuple(got)) == want, name
    # on a path with lists {1, 2} each vertex forces the next, so the
    # search is as deep as the path is long
    set_limit(200)
    try:
        got = oracle_solve(path_graph(300), [mask_of([1, 2])] * 300)
    finally:
        set_limit(limit)
    assert got == [1, 2] * 150
    assert calls == []


def test_oracle_matches_the_reference_scan_oracle():
    # The heap pick must choose what the reference's full rescan chose,
    # the least (list size, vertex) among the uncoloured vertices, so both
    # searches walk the same tree and return the same colouring or None.
    # The first input backtracks through vertices whose lists grow back
    # after their only heap entries went stale; without the push on a
    # restore, or the one on uncolouring, the heap loses a vertex there.
    # Then random graphs of up to 16 vertices, triangles allowed, with
    # lists of one, two and three colours.
    rng = random.Random(30)
    inputs = [(build_graph(7, [(0, 1), (0, 2), (0, 3), (1, 5), (1, 6), (2, 4),
                               (2, 6), (3, 6), (4, 5), (4, 6), (5, 6)]),
               [6, 3, 3, 3, 6, 7, 6])]
    for _ in range(3000):
        n = rng.randint(0, 16)
        density = rng.choice((0.2, 0.3, 0.4, 0.5))
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < density])
        inputs.append((g, [rng.choice((1, 2, 4) if rng.random() < 0.1
                                      else (3, 5, 6, 7)) for _ in range(n)]))
    found = {True: 0, False: 0}
    for g, masks in inputs:
        got = oracle_solve(g, masks)
        assert got == reference_oracle_solve(g, masks), (list(g.edges()), masks)
        found[got is not None] += 1
    assert min(found.values()) > 1000


def test_oracle_matches_engine_on_mixed_instances():
    for seed in range(60):
        g, masks = generate(GenSpec("skeleton_built", seed=seed, scale=30,
                                    lists="random"))
        assert (oracle_solve(g, masks) is not None) == solve(g, masks).is_sat


def test_oracle_relabelling_invariance():
    rng = random.Random(17)
    for seed in range(20):
        g, masks = generate(GenSpec("skeleton_built", seed=seed, scale=18,
                                    lists="random"))
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        g2 = build_graph(g.n, edges)
        masks2 = [0] * g.n
        for v in range(g.n):
            masks2[perm[v]] = masks[v]
        assert (oracle_solve(g, masks) is None) == (oracle_solve(g2, masks2) is None)


def test_enumerate_k2_full():
    assert len(list(enumerate_colourings(build_graph(2, [(0, 1)])))) == 6


def test_enumerate_c5_full():
    assert len(list(enumerate_colourings(cycle_graph(5)))) == 30


def test_enumerate_single_vertex_forced():
    got = list(enumerate_colourings(build_graph(1, []), [mask_of([2])]))
    assert got == [(2,)]


def test_enumerate_counts_match_chromatic_polynomial():
    for n in range(3, 9):
        paths = len(list(enumerate_colourings(path_graph(n))))
        assert paths == 3 * 2 ** (n - 1)
        cycles = len(list(enumerate_colourings(cycle_graph(n))))
        assert cycles == 2 ** n + 2 * (-1) ** n


def test_enumerate_size_guard():
    with pytest.raises(ValueError,
                       match=r"^enumeration limited to 16 vertices, got 17$"):
        list(enumerate_colourings(path_graph(17)))


def test_generators_always_pass_promise_check():
    kinds = ["blownup_c5", "blownup_c7", "skeleton_built", "random_rejection"]
    for seed in range(40):
        spec = GenSpec(kinds[seed % 4], seed=seed, scale=25, n=9, target_edges=10)
        g, masks = generate(spec)
        assert check_promise(g) is None, (spec,)
        assert len(masks) == g.n


def test_generation_reproducible():
    spec = GenSpec("skeleton_built", seed=99, scale=30, lists="random")
    g1, m1 = generate(spec)
    g2, m2 = generate(spec)
    assert list(g1.edges()) == list(g2.edges()) and m1 == m2


def test_blownup_c5_structure():
    g, _ = generate(GenSpec("blownup_c5", class_sizes=(2, 2, 2, 2, 2)))
    assert g.n == 10 and g.m == 5 * 4
    assert solve(g).is_sat


def test_blownup_c7_doubled():
    g, _ = generate(GenSpec("blownup_c7", class_sizes=(2,) * 7))
    assert g.n == 14
    assert check_promise(g) is None


def test_type2_w_pattern_reachable():
    # some seed yields a W vertex adjacent to two non-consecutive D sets
    from lcol3.recognition import shortest_odd_cycle
    from lcol3.skeleton import Skeleton, build_skeleton

    found = False
    for seed in range(400):
        g, _ = generate(GenSpec("skeleton_built", seed=seed, scale=25))
        if bipartite_check(g, (1 << g.n) - 1) is not None:
            continue
        cyc = shortest_odd_cycle(g)
        if len(cyc) != 5:
            continue
        sk = build_skeleton(g, cyc)
        if not isinstance(sk, Skeleton):
            continue
        for w in iter_bits(sk.w):
            hit = {i for i in range(5) if g.bits[w] & sk.d[i]}
            if len(hit) == 2:
                found = True
                break
        if found:
            break
    assert found


@pytest.mark.parametrize("kind, scales", [
    ("spider", (0, 1, 7)),
    ("skeleton_built", (1, 8, 20, 24, 40, 97)),
    ("blownup_c5", (20,)),
    ("blownup_c7", (20,)),
    ("random_rejection", (20,)),
])
def test_vertex_bound_holds_for_every_generated_instance(kind, scales):
    for scale in scales:
        for seed in range(25):
            spec = GenSpec(kind, seed=seed, scale=scale)
            assert generate(spec)[0].n <= vertex_bound(spec), spec


def test_vertex_bound_is_exact_for_given_sizes():
    for spec in (GenSpec("spider", scale=9), GenSpec("random_rejection", n=13),
                 GenSpec("blownup_c5", class_sizes=(1, 2, 3, 4, 5)),
                 GenSpec("blownup_c7", class_sizes=(2,) * 7)):
        assert generate(spec)[0].n == vertex_bound(spec), spec


def test_rejection_budget_exceeded():
    # a 40-vertex near-tree almost surely holds an induced P7
    with pytest.raises(RejectionBudgetExceeded):
        generate(GenSpec("random_rejection", seed=1, n=40, target_edges=39,
                         rejection_budget=3))


def test_random_rejection_with_zero_vertices_is_empty():
    # n = 0 is an explicit size, not the default of 10
    g, masks = generate(GenSpec("random_rejection", seed=3, n=0))
    assert (g.n, g.m, masks) == (0, 0, [])


@pytest.mark.parametrize("kind,count", [("blownup_c5", "five"),
                                        ("blownup_c7", "seven")])
def test_blowup_with_empty_class_sizes_raises(kind, count):
    # an empty tuple is an explicit (wrong) size list, not "draw at random"
    with pytest.raises(ValueError, match=f"needs {count} positive class sizes"):
        generate(GenSpec(kind, class_sizes=()))


def test_named_graphs():
    assert petersen_graph().m == 15
    g = groetzsch_graph()
    assert g.n == 11 and g.m == 20
    assert mycielski(path_graph(2)).n == 5


@pytest.mark.parametrize("k", range(9))
def test_spider_is_in_class_and_bipartite(k):
    g, masks = generate(GenSpec("spider", scale=k))
    assert g.n == 2 * k + 7 and g.m == 2 * k + 8
    assert check_promise(g) is None
    assert bipartite_check(g, (1 << g.n) - 1) is not None
    assert len(masks) == g.n and masks[:k] == [FULL_MASK] * k


def test_spider_rejects_other_lists_and_negative_legs():
    with pytest.raises(ValueError):
        generate(GenSpec("spider", scale=3, lists="random"))
    with pytest.raises(ValueError):
        generate(GenSpec("spider", scale=-1))


def test_generate_rejects_a_scale_below_1_and_a_negative_edge_target():
    for scale in (0, -3):
        with pytest.raises(ValueError, match="scale"):
            generate(GenSpec("skeleton_built", scale=scale))
    with pytest.raises(ValueError, match="edge target"):
        generate(GenSpec("random_rejection", target_edges=-5))
    g, _ = generate(GenSpec("skeleton_built", scale=1))
    assert check_promise(g) is None
    g, _ = generate(GenSpec("random_rejection", n=6, target_edges=0))
    assert g.n == 6 and g.m == 0


def test_genspec_keeps_field_order_and_defaults():
    assert GenSpec._fields == ("kind", "seed", "class_sizes", "n",
                               "target_edges", "scale", "lists",
                               "rejection_budget")
    spec = GenSpec("spider")
    assert spec == GenSpec("spider", 0, None, None, None, 20, "full", 10_000)
    assert spec.scale == 20
