import ast
import gc
import glob
import os
import pathlib
import random
import subprocess
import sys
import types
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import (ReferenceListState, check_witness, false_twin_classes,
                      graphs, reference_colouring_fits,
                      reference_full_vertex_search, reference_normalize_lists,
                      reference_peel, reference_propagate,
                      reference_removable, reference_residual_to_2sat,
                      reference_sweep, reference_twin_representatives,
                      seeds_of_branch)
from lcol3 import build_graph, check_promise, solve, verify_colouring
import lcol3
from lcol3 import engine
from lcol3.cli import dispatch, emit_instance, parse_instance
from lcol3.engine import (_SIZE, FULL_MASK, InternalError, ListState,
                          SolveStats, anchor_seeds, choice_lists,
                          enumerate_c5_colourings, mask_of, palette_analysis,
                          propagate, residual_to_2sat)
from lcol3.errors import PreconditionBreach
from lcol3.graph import bipartite_check, iter_bits
from lcol3.recognition import (PromiseViolation, recognize_blownup_c7,
                               shortest_odd_cycle)
from lcol3.sat2 import solve_2sat
from lcol3.skeleton import Chain, Skeleton, build_chain, build_skeleton
from lcol3.testkit import (GenSpec, cycle_graph, enumerate_colourings,
                           generate, groetzsch_graph, oracle_solve, path_graph)
from test_properties import twin_expand

C5 = [(i, (i + 1) % 5) for i in range(5)]
ANCHORS = (0, 1, 2, 3, 4)
INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def test_enumerate_c5_colourings_full():
    cols = enumerate_c5_colourings([FULL_MASK] * 5)
    assert len(cols) == 30  # chromatic polynomial of C5 at 3: 2^5 - 2
    assert cols == sorted(cols)
    for col in cols:
        assert all(col[i] != col[(i + 1) % 5] for i in range(5))


def test_enumerate_c5_colourings_forced():
    masks = [mask_of([c]) for c in (1, 2, 1, 2, 3)]
    assert enumerate_c5_colourings(masks) == [(1, 2, 1, 2, 3)]


def test_enumerate_c5_colourings_empty():
    masks = [mask_of([1]), mask_of([1])] + [FULL_MASK] * 3
    assert enumerate_c5_colourings(masks) == []


def test_palette_analysis_reference_colouring():
    pal = palette_analysis((1, 2, 1, 2, 3))
    assert pal.q == 3
    assert pal.forced == {0: 1, 3: 2, 4: 3}
    assert {i: set(v) for i, v in pal.options.items()} == {1: {2, 3}, 2: {1, 3}}
    assert pal.undetermined == (1, 2)
    assert pal.free_d == (0, 3, 4)
    assert pal.d_options == {0: (2, 3), 1: (1, 3), 2: (2, 3), 3: (1, 3), 4: (1, 2)}


def test_palette_analysis_permuted_colouring():
    perm = {1: 2, 2: 3, 3: 1}
    pal = palette_analysis(tuple(perm[c] for c in (1, 2, 1, 2, 3)))
    assert pal.q == 1
    assert pal.forced == {0: 2, 3: 3, 4: 1}
    assert pal.undetermined == (1, 2)


def test_palette_analysis_rotated():
    pal = palette_analysis((2, 3, 2, 3, 1))
    assert pal.undetermined == (1, 2)
    assert pal.q == 1


def _skeleton_instance(extra, n):
    g = build_graph(n, C5 + extra)
    sk = build_skeleton(g, ANCHORS)
    assert isinstance(sk, Skeleton)
    chains = {i: build_chain(g, sk, i) for i in range(5) if sk.t[i]}
    return g, sk, chains


def _branches(sk, chains, col):
    return list(product(*choice_lists(sk, chains, palette_analysis(col))))


def test_enumerate_branches_trivial():
    g, sk, chains = _skeleton_instance([], 5)
    assert _branches(sk, chains, (1, 2, 1, 2, 3)) == [(None,) * 5]


def test_enumerate_branches_t_set_of_three():
    # T_2 (0-based index 1) of size 3, no components: 2 + 2*(|T|-1) = 6
    extra = [(5, 0), (5, 2), (6, 0), (6, 2), (7, 0), (7, 2)]
    g, sk, chains = _skeleton_instance(extra, 8)
    branches = _branches(sk, chains, (1, 2, 1, 2, 3))
    # q = 3 and T_2's non-shared colour is 2: (c), (d), then (a) and (b)
    # with the chain's base {5} and witnesses 6 and 7
    t_set = 1 << 5 | 1 << 6 | 1 << 7
    assert [b[0] for b in branches] == [
        ((t_set, 2),), ((t_set, 3),),
        ((1 << 5, 2), (1 << 6, 3)), ((1 << 5, 2), (1 << 7, 3)),
        ((1 << 5, 3), (1 << 6, 2)), ((1 << 5, 3), (1 << 7, 2))]
    assert all(b[1:] == (None,) * 4 for b in branches)


def test_enumerate_branches_single_free_d():
    # one D vertex on a free index: only whole-set cases (g), (h)
    extra = [(5, 4)]
    g, sk, chains = _skeleton_instance(extra, 6)
    branches = _branches(sk, chains, (1, 2, 1, 2, 3))
    # D_5's options are (1, 2)
    assert [b[4] for b in branches] == [((1 << 5, 1),), ((1 << 5, 2),)]


def test_enumerate_branches_count_formula():
    rng = random.Random(5)
    for seed in range(25):
        g, masks = generate(GenSpec("skeleton_built", seed=seed, scale=25))
        if bipartite_check(g, (1 << g.n) - 1) is not None:
            continue
        cyc = shortest_odd_cycle(g)
        if len(cyc) != 5:
            continue
        sk = build_skeleton(g, cyc)
        chains = {i: build_chain(g, sk, i) for i in range(5) if sk.t[i]}
        col = rng.choice(enumerate_c5_colourings([FULL_MASK] * 5))
        pal = palette_analysis(col)
        count = len(_branches(sk, chains, col))
        formula = 1
        for i in pal.undetermined:
            if sk.t[i]:
                levels = chains[i].levels
                total = sum((levels[k + 1] & ~levels[k]).bit_count()
                            for k in range(chains[i].r + 1))
                assert total == sk.t[i].bit_count() - 1
                formula *= 2 + 2 * total
        for i in pal.free_d:
            if sk.d[i]:
                formula *= 2 + 2 * (sk.d[i].bit_count() - 1)
        assert count == formula
        bound = 32
        for i in pal.undetermined:
            bound *= max(1, sk.t[i].bit_count())
        for i in pal.free_d:
            bound *= max(1, sk.d[i].bit_count())
        assert count <= bound


T_PAIR = ([(5, 0), (5, 2), (6, 0), (6, 2)], 1)  # T_2 (0-based 1) = {5, 6}
D_PAIR = ([(5, 4), (6, 4)], 4)  # D_5 (0-based 4) = {5, 6}
PAIR = 1 << 5 | 1 << 6


def _applied_case(skeleton, at):
    """The seed list of the at-th choice on the one non-empty set of the
    skeleton under the anchor colouring (1, 2, 1, 2, 3), and the masks that
    seeding a full-list state with its branch leaves on vertices 5 and 6.
    There q = 3, T_2's non-shared colour is 2 and D_5's options are
    (1, 2)."""
    extra, i = skeleton
    g, sk, chains = _skeleton_instance(extra, 7)
    palette = palette_analysis((1, 2, 1, 2, 3))
    branch = _branches(sk, chains, palette.c5_colouring)[at]
    st = ListState(g, [FULL_MASK] * g.n, SolveStats())
    assert st.assign_all(seeds_of_branch(sk, palette, branch))
    position = (palette.undetermined + palette.free_d).index(i)
    return branch[position], st.masks[5:7]


def test_apply_branch_case_c():
    # case (c) forces T_2's non-shared colour 2 on the whole set
    assert _applied_case(T_PAIR, 0) == (((PAIR, 2),), [mask_of([2])] * 2)


def test_apply_branch_case_a_k0():
    # v0 = 5 takes the non-shared colour, the witness 6 takes q
    assert _applied_case(T_PAIR, 2) == (((1 << 5, 2), (1 << 6, 3)),
                                        [mask_of([2]), mask_of([3])])


def test_apply_branch_case_e():
    # the lowest vertex 5 takes a = 1, the witness 6 takes b = 2
    assert _applied_case(D_PAIR, 2) == (((1 << 5, 1), (1 << 6, 2)),
                                        [mask_of([1]), mask_of([2])])


@pytest.mark.parametrize("skeleton,at,seeds,colours", [
    (T_PAIR, 1, ((PAIR, 3),), (3, 3)),                   # (d)
    (T_PAIR, 3, ((1 << 5, 3), (1 << 6, 2)), (3, 2)),     # (b)
    (D_PAIR, 0, ((PAIR, 1),), (1, 1)),                   # (g)
    (D_PAIR, 1, ((PAIR, 2),), (2, 2)),                   # (h)
    (D_PAIR, 3, ((1 << 5, 2), (1 << 6, 1)), (2, 1)),     # (f)
], ids=["d", "b", "g", "h", "f"])
def test_apply_branch_case_pins_its_seeds(skeleton, at, seeds, colours):
    assert _applied_case(skeleton, at) == (seeds, [mask_of([c]) for c in colours])


def test_case_choices_on_an_empty_set_are_none():
    g, sk, chains = _skeleton_instance([], 5)
    palette = palette_analysis((1, 2, 1, 2, 3))
    assert [engine.t_case_choices(sk, palette, chains, i)
            for i in palette.undetermined] == [[None]] * 2
    assert [engine.d_case_choices(sk, palette, i)
            for i in palette.free_d] == [[None]] * 3


def test_apply_branch_conflict():
    g, sk, chains = _skeleton_instance([], 5)
    col = (1, 2, 1, 2, 3)
    branch = _branches(sk, chains, col)[0]
    st = ListState(g, [mask_of([2])] + [FULL_MASK] * 4, SolveStats())
    assert not st.assign_all(seeds_of_branch(sk, palette_analysis(col), branch))


def test_propagate_removes_colour():
    g = build_graph(2, [(0, 1)])
    st = ListState(g, [mask_of([1]), mask_of([1, 2])], SolveStats())
    assert propagate(st) is st
    assert st.masks == [mask_of([1]), mask_of([2])]


def test_propagate_conflict():
    g = build_graph(2, [(0, 1)])
    st = ListState(g, [mask_of([1]), mask_of([1])], SolveStats())
    assert propagate(st) is None


def test_propagate_c5_partial():
    g = cycle_graph(5)
    st = ListState(g, [FULL_MASK] * 4 + [mask_of([3])], SolveStats())
    assert propagate(st) is st
    assert st.masks[0] == mask_of([1, 2])
    assert st.masks[3] == mask_of([1, 2])
    assert st.masks[1] == FULL_MASK and st.masks[2] == FULL_MASK


def test_residual_gives_a_safe_vertex_its_smallest_safe_colour():
    g = path_graph(3)
    st = ListState(g, [mask_of([1, 2]), FULL_MASK, mask_of([1, 2])],
                   SolveStats())
    inst, var_info = residual_to_2sat(st)
    assert st.masks[1] == mask_of([3]) and list(st.pending) == [1]
    assert st.stats.propagations == 2
    assert [v for v, _, _ in var_info] == [0, 2] and inst.clauses == []


def test_residual_gives_an_isolated_full_vertex_colour_1():
    g = build_graph(1, [])
    st = ListState(g, [FULL_MASK], SolveStats())
    inst, var_info = residual_to_2sat(st)
    assert st.masks == [mask_of([1])] and var_info == []


def test_residual_without_a_safe_colour_raises():
    g = path_graph(3)
    st = ListState(g, [mask_of([1, 2]), FULL_MASK, mask_of([2, 3])],
                   SolveStats())
    with pytest.raises(PreconditionBreach):
        residual_to_2sat(st)
    assert st.masks[1] == FULL_MASK and st.stats.propagations == 0


def test_residual_assigns_two_safe_vertices_in_one_scan():
    g = path_graph(5)
    st = ListState(g, [mask_of([1, 2]), FULL_MASK, mask_of([1, 2]),
                       FULL_MASK, mask_of([1, 2])], SolveStats())
    inst, var_info = residual_to_2sat(st)
    assert st.masks[1] == st.masks[3] == mask_of([3])
    assert list(st.pending) == [1, 3] and st.stats.propagations == 4
    assert [v for v, _, _ in var_info] == [0, 2, 4]


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_propagation_after_safe_elimination_removes_nothing(data):
    # A branch leaf is at a propagation fixpoint; a safe colour is missing
    # from every neighbour, so propagating the vertices that the residual
    # scan coloured safely cannot remove a colour or fail, also when the
    # scan stops at a full vertex without a safe colour.
    g = data.draw(graphs(max_n=10))
    masks = data.draw(hst.lists(hst.sampled_from((3, 5, 6, 7, 7, 1, 2, 4)),
                                min_size=g.n, max_size=g.n))
    st = ListState(g, masks, SolveStats())
    if propagate(st) is None:
        return
    full = [v for v, m in enumerate(st.masks) if m == FULL_MASK]
    try:
        residual_to_2sat(st)
    except PreconditionBreach:
        pass
    else:
        assert FULL_MASK not in st.masks
    safe = [v for v in full if st.masks[v] != FULL_MASK]
    assert list(st.pending) == safe
    assert all(_SIZE[st.masks[v]] == 1 for v in safe)
    after = st.masks.copy()
    removals = st.stats.propagations
    assert propagate(st) is st
    assert st.masks == after and st.stats.propagations == removals


class _LoggedState(ListState):
    """A fresh-stats copy of a state at its fixpoint that logs every
    assign call as (vertex, colour, result)."""

    __slots__ = ("log",)

    def __init__(self, state):
        super().__init__(state.graph, state.masks, SolveStats())
        self.pending.clear()
        self.log = []

    def assign(self, v, colour):
        ok = super().assign(v, colour)
        self.log.append((v, colour, ok))
        return ok


def _assign_by_vertex(state, seeds):
    """ListState.assign_all's contract spelled out: assign each seed's
    vertices one at a time, lowest first, up to the first refusal."""
    for vset, colour in seeds:
        for v in range(state.graph.n):
            if vset >> v & 1 and not state.assign(v, colour):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_propagations_count_every_colour_dropped_from_the_lists(data):
    # assign_all takes (vertex bitmask, colour) seeds and acts as assign
    # on each seed's vertices in ascending order: the same result, masks,
    # queue and count, and the same assign calls up to the same refusal.
    # assign and propagate add each colour they remove to the state's
    # stats, failed seeds and failed propagations up to the failure
    # included, and a copy of a state at its fixpoint counts into the same
    # stats.
    g = data.draw(graphs(max_n=10))
    masks = data.draw(hst.lists(hst.integers(1, FULL_MASK),
                                min_size=g.n, max_size=g.n))
    seeds = hst.lists(hst.tuples(hst.integers(0, (1 << g.n) - 1),
                                 hst.integers(1, 3)), max_size=4)
    colours = lambda state: sum(map(_SIZE.__getitem__, state.masks))
    stats = SolveStats()
    st = ListState(g, masks, stats)
    start = colours(st)
    ok = propagate(st) is not None
    assert stats.propagations == start - colours(st)
    if not ok:
        return
    copy = st.copy()
    assert copy.stats is stats and copy.masks == st.masks and not copy.pending
    start = colours(st)
    dropped = stats.propagations
    for state in (st, copy):
        drawn = data.draw(seeds)
        got, want = _LoggedState(state), _LoggedState(state)
        assert got.assign_all(drawn) == _assign_by_vertex(want, drawn)
        assert got.log == want.log and got.masks == want.masks
        assert list(got.pending) == list(want.pending)
        assert got.stats == want.stats
        ok = state.assign_all(drawn) and propagate(state) is not None
        dropped += start - colours(state)
        assert stats.propagations == dropped
        if not ok:
            return


def _same_state(got, want):
    """The plane state got holds want's lists, queue and counters."""
    assert got.masks == want.masks
    assert list(got.pending) == list(want.pending)
    assert got.stats == want.stats


def _residual_of(state, encode):
    """encode's result on the state as plain data, or the error it raised."""
    try:
        inst, var_info = encode(state)
    except (PreconditionBreach, InternalError) as exc:
        return type(exc), str(exc)
    return inst.var_count, inst.clauses, var_info


def _random_listed_graph(rng, n, p, single):
    """G(n, p) with triangles allowed; each list is a singleton with
    probability single, else a two- or three-colour list."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    masks = [rng.choice((1, 2, 4) if rng.random() < single else (3, 5, 6, 7))
             for _ in range(n)]
    return build_graph(n, edges), masks


def test_colour_planes_match_the_list_reference():
    # The plane state against the list-based one it replaced: the same
    # propagate result, lists, queue order and propagations count, clashes
    # met part way through a forced vertex's neighbours included; then the
    # same after a copy is seeded and propagated, as the searches do, and
    # the same 2-SAT residual or the same error.
    rng = random.Random(20_341)
    inputs = [_random_listed_graph(rng, rng.randint(1, 24),
                                   rng.choice((0.1, 0.2, 0.35, 0.5)),
                                   rng.choice((0.1, 0.3, 0.6)))
              for _ in range(3_000)]
    inputs += [_random_listed_graph(rng, rng.randint(190, 210),
                                    rng.choice((0.005, 0.01, 0.02)), 0.9)
               for _ in range(6)]
    outcomes = {"clash": 0, "seeded clash": 0, "breach": 0, "2-SAT": 0}
    for g, masks in inputs:
        got = ListState(g, masks, SolveStats())
        want = ReferenceListState(g, masks, SolveStats())
        _same_state(got, want)
        ok = reference_propagate(want) is want
        assert (propagate(got) is got) == ok, (g, masks)
        _same_state(got, want)
        if not ok:
            outcomes["clash"] += 1
            continue
        seeds = [(1 << rng.randrange(g.n), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2))]
        got, want = got.copy(), want.copy()
        ok = want.assign_all(seeds) and reference_propagate(want) is want
        assert (got.assign_all(seeds) and propagate(got) is got) == ok
        _same_state(got, want)
        if not ok:
            outcomes["seeded clash"] += 1
            continue
        residual = _residual_of(want, reference_residual_to_2sat)
        assert _residual_of(got, residual_to_2sat) == residual
        _same_state(got, want)
        outcomes["breach" if residual[0] is PreconditionBreach else "2-SAT"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_a_clash_counts_the_colours_removed_before_it():
    # Vertex 0 is forced to colour 1; its neighbours 1 to 4 are walked in
    # ascending order: 1 loses colour 1 and is queued, 2 admits colour 1
    # alone, so propagation stops there, and 3 and 4 keep their lists.
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    masks = [mask_of([1]), mask_of([1, 2]), mask_of([1]), mask_of([1, 3]),
             FULL_MASK]
    st = ListState(g, masks, SolveStats())
    assert list(st.pending) == [0, 2]
    assert propagate(st) is None
    assert st.stats.propagations == 1
    assert st.masks == [mask_of([1]), mask_of([2]), mask_of([1]),
                        mask_of([1, 3]), FULL_MASK]
    assert list(st.pending) == [2, 1]


def test_residual_both_masks_equal():
    g = build_graph(2, [(0, 1)])
    st = ListState(g, [mask_of([1, 2]), mask_of([1, 2])], SolveStats())
    inst, var_info = residual_to_2sat(st)
    assert inst.var_count == 2
    assert sorted(inst.clauses) == [(1, 3), (2, 0)] or len(inst.clauses) == 2
    solution = solve_2sat(inst)
    a, b = solution
    assert a != b  # endpoints must take different colours


def test_residual_single_common_colour():
    g = build_graph(2, [(0, 1)])
    st = ListState(g, [mask_of([1, 2]), mask_of([2, 3])], SolveStats())
    inst, _ = residual_to_2sat(st)
    assert len(inst.clauses) == 1


def test_residual_empty_instance():
    g = build_graph(2, [(0, 1)])
    st = ListState(g, [mask_of([1]), mask_of([2])], SolveStats())
    propagate(st)
    inst, var_info = residual_to_2sat(st)
    assert inst.var_count == 0 and inst.clauses == []
    assert solve_2sat(inst) == []


def test_residual_rejects_full_mask():
    g = build_graph(2, [(0, 1)])
    st = ListState(g, [FULL_MASK, FULL_MASK], SolveStats())
    with pytest.raises(PreconditionBreach):
        residual_to_2sat(st)


def _c7_blowup(sizes):
    """A blown-up C7 with these class sizes and its shortest odd cycle, one
    vertex of each class in cyclic order; the check accepts the pair."""
    g, _ = generate(GenSpec("blownup_c7", class_sizes=sizes))
    cyc = shortest_odd_cycle(g)
    assert recognize_blownup_c7(g, cyc) is None
    return g, cyc


def _solve_matches_oracle(g, masks):
    """Solve, check the answer against the oracle and any colouring against
    the lists; the outcome."""
    out = solve(g, masks)
    assert out.is_sat == (oracle_solve(g, masks) is not None)
    if out.is_sat:
        assert verify_colouring(g, masks, out.colouring)
    return out


def test_blownup_c7_full_lists_solve():
    g, _ = _c7_blowup((2, 1, 2, 1, 2, 1, 2))
    assert _solve_matches_oracle(g, None).is_sat


def test_blownup_c7_forced_class_matches_oracle():
    # with classes of one vertex, each class is its cycle vertex
    g, cyc = _c7_blowup((1, 1, 1, 1, 1, 1, 1))
    for v in cyc:
        masks = [FULL_MASK] * g.n
        masks[v] = mask_of([3])
        _solve_matches_oracle(g, masks)


def test_blownup_c7_adjacent_singletons_unsat():
    g, cyc = _c7_blowup((1, 1, 1, 1, 1, 1, 1))
    masks = [FULL_MASK] * g.n
    masks[cyc[0]] = masks[cyc[1]] = mask_of([1])
    assert _solve_matches_oracle(g, masks).is_unsat


def test_blownup_c7_random_lists_match_oracle():
    for seed in range(40):
        g, masks = generate(GenSpec("blownup_c7", seed=seed, lists="random"))
        _solve_matches_oracle(g, masks)


def test_solve_c5_full():
    out = solve(cycle_graph(5))
    assert out.is_sat and verify_colouring(cycle_graph(5), None, out.colouring)


def test_solve_c5_two_colour_lists_unsat():
    out = solve(cycle_graph(5), [mask_of([1, 2])] * 5)
    assert out.is_unsat


def test_solve_groetzsch_unsat():
    g = groetzsch_graph()
    from lcol3 import check_promise
    assert check_promise(g) is None
    assert oracle_solve(g) is None
    out = solve(g, mode="verify")
    assert out.is_unsat


def test_solve_rejects_bad_mode():
    with pytest.raises(ValueError):
        solve(cycle_graph(5), mode="fast")


def test_verify_colouring_examples():
    g = cycle_graph(5)
    assert verify_colouring(g, None, [1, 2, 1, 2, 3])
    assert not verify_colouring(g, None, [1, 1, 2, 1, 2])
    lists = [mask_of([2, 3])] + [FULL_MASK] * 4
    assert not verify_colouring(g, lists, [1, 2, 1, 2, 3])


def test_verify_colouring_refuses_colours_that_are_not_ints():
    # 1.0 and True equal the colour 1, but like 2.5 and '1' they are no
    # colour: each is refused, not raised on
    g = build_graph(2, [(0, 1)])
    assert verify_colouring(g, None, [1, 2])
    assert not verify_colouring(g, None, [1.0, 2.0])
    for bad in (1.0, True, "1", 2.5):
        assert not verify_colouring(g, None, [bad, 2])
        assert not verify_colouring(g, None, [2, bad])


@settings(max_examples=400, deadline=None)
@given(hst.data())
def test_colouring_fits_matches_the_edge_walk(data):
    # A colouring the oracle found (when there is one) or a random one, then
    # maybe spoilt: a vertex recoloured (improper or out of its list), a
    # colour 0 or 4, or a colouring one vertex short or long.
    g = data.draw(graphs(max_n=8))
    masks = data.draw(hst.lists(hst.sampled_from([FULL_MASK, FULL_MASK, 3, 6, 5]),
                                min_size=g.n, max_size=g.n))
    colouring = oracle_solve(g, masks)
    if colouring is None:
        colouring = data.draw(hst.lists(hst.integers(1, 3), min_size=g.n,
                                        max_size=g.n))
    spoil = data.draw(hst.sampled_from(["none", "recolour", "recolour", "0", "4",
                                        "short", "long"]))
    v = data.draw(hst.integers(0, g.n - 1))
    if spoil == "recolour":
        colouring[v] = data.draw(hst.integers(1, 3))
    elif spoil in ("0", "4"):
        colouring[v] = int(spoil)
    elif spoil == "short":
        colouring.pop()
    elif spoil == "long":
        colouring.append(1)
    assert (engine._colouring_fits(g, engine._planes_of(masks), colouring)
            == reference_colouring_fits(g, masks, colouring))


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_layer0_removes_every_twin_the_reference_twin_pass_drops(data):
    # Each vertex of a small base graph becomes a class of one to three
    # false twins; a narrow palette makes classes of one mask common.
    # Layer 0 keeps one vertex of each class of exact twins and leaves
    # twins with different lists to the domination rule of its sweep, so
    # on the propagated lists it removes every vertex the old twin pass
    # dropped, a twin of a settled vertex included (settled vertices leave
    # before the sweep but still serve there as dominators).
    base = data.draw(graphs(max_n=6))
    sizes = data.draw(hst.lists(hst.integers(1, 3), min_size=base.n,
                                max_size=base.n))
    starts = [sum(sizes[:i]) for i in range(base.n + 1)]
    edges = [(a, b) for u, v in base.edges()
             for a in range(starts[u], starts[u + 1])
             for b in range(starts[v], starts[v + 1])]
    g = build_graph(starts[-1], edges)
    palette = data.draw(hst.sampled_from([[FULL_MASK], [FULL_MASK, 3],
                                          list(range(1, FULL_MASK + 1))]))
    masks = data.draw(hst.lists(hst.sampled_from(palette), min_size=g.n,
                                max_size=g.n))
    fixed = _propagated(g, masks)
    out = solve(g, masks)
    if fixed is None:
        assert out.is_unsat
        return
    rest = _sweep(g, fixed, *_sweep_masks(g, fixed))[0]
    rep = reference_twin_representatives(g, fixed)
    for v, u in enumerate(rep):
        if u != v:
            assert not rest >> v & 1, v
    if out.is_sat:
        assert verify_colouring(g, masks, out.colouring)


def test_solve_disconnected_components():
    edges = C5 + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    g = build_graph(12, edges)
    out = solve(g)
    assert out.is_sat and verify_colouring(g, None, out.colouring)


def test_solve_walks_components_by_smallest_kept_vertex():
    # A K_{3,3} on 4, 5, 6 and 7, 8, 9 whose sides carry the lists {1, 2},
    # {1, 3} and {2, 3} is not colourable, and no list is a singleton, so
    # propagation leaves it to its component.  0 sees 7, 8 and 9 too and is
    # a dominated twin of 4, 5 and 6.  Walked by smallest input vertex,
    # {0, 4, ..., 9} would come first and answer unsat; by smallest kept
    # vertex the K4 on 1, 2, 3 and 10 comes first.  Each of its vertices
    # has three neighbours, so none is peeled, and the full lists of the
    # triangle 1, 2, 3 send it to the structural checks.
    g = build_graph(11, [(a, b) for a in (0, 4, 5, 6) for b in (7, 8, 9)]
                    + [(1, 2), (2, 3), (1, 3), (1, 10), (2, 10), (3, 10)])
    pairs = [mask_of([1, 2]), mask_of([1, 3]), mask_of([2, 3])]
    lists = [FULL_MASK] * 4 + pairs + pairs + [mask_of([1, 2])]
    out = solve(g, lists, mode="trust")
    assert out.is_invalid and out.violation.kind == "triangle"
    assert tuple(out.violation.vertices) == (1, 2, 3)


def test_solve_trust_mode_detects_triangle_on_path():
    # K4: each vertex has three neighbours, so layer 0 peels none, and the
    # triangle's full lists keep the component off the 2-SAT shortcut
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    out = solve(g, [FULL_MASK] * 3 + [mask_of([1, 2])], mode="trust")
    assert out.is_invalid and out.violation.kind == "triangle"


def test_solve_long_odd_girth_invalid():
    # A C9 on 0..8 with a second path 0, 9, 10, 11, 4: its odd cycles have
    # nine vertices.  0 and 4 have three neighbours each, so their full
    # lists survive layer 0 and the odd-girth search runs on the component.
    g = build_graph(12, [(i, (i + 1) % 9) for i in range(9)]
                    + [(0, 9), (9, 10), (10, 11), (11, 4)])
    masks = [mask_of([1, 2])] * 12
    masks[0] = masks[4] = FULL_MASK
    out = solve(g, masks, mode="trust")
    assert out.is_invalid and out.violation.kind == "induced_p7"


@pytest.mark.parametrize("g, masks", [
    (cycle_graph(3), [mask_of([1, 2]), mask_of([2, 3]), mask_of([1, 3])]),
    (cycle_graph(3), [mask_of([1, 2])] * 3),
    (cycle_graph(9), [mask_of([1, 2])] * 9),
    (cycle_graph(9), [mask_of([1, 2])] * 8 + [mask_of([1, 3])]),
])
def test_a_component_of_two_lists_is_decided_by_two_sat_alone(g, masks):
    # A triangle or a C9 with no full list: trust mode answers exactly,
    # with one 2-SAT instance and no structural check or search
    out = solve(g, masks, mode="trust")
    assert not out.is_invalid
    assert out.is_sat == (oracle_solve(g, masks) is not None)
    if out.is_sat:
        assert verify_colouring(g, masks, out.colouring)
    stats = out.stats
    assert (stats.peeled, stats.dominated, stats.settled) == (0, 0, 0)
    assert (stats.sat_instances, stats.branches, stats.fallback_used) == (1, 0, 0)
    # verify mode still reports the violation
    out = solve(g, masks, mode="verify")
    assert out.is_invalid and check_witness(g, out.violation)
    assert out.violation.kind == ("triangle" if g.n == 3 else "induced_p7")


def test_solve_hands_on_no_singleton_list(monkeypatch):
    # Layer 0 settles every vertex left with one colour, so each component
    # _solve_component receives has two- and three-colour lists only, and
    # propagation on it has nothing to do.
    seen = []
    component = engine._solve_component

    def spy(sub, masks, stats):
        assert all(_SIZE[m] > 1 for m in masks), masks
        seen.append((kind, FULL_MASK in masks))
        return component(sub, masks, stats)

    monkeypatch.setattr(engine, "_solve_component", spy)
    rng = random.Random(22)
    palette = (7, 7, 3, 5, 6, 3, 5, 6, 3, 5, 6, 1)  # one singleton in 12
    for seed in range(30):
        a, b = rng.randint(4, 9), rng.randint(4, 9)
        inputs = {
            "skeleton": generate(GenSpec("skeleton_built", seed=seed,
                                         scale=25))[0],
            "blow-up": generate(GenSpec(("blownup_c5", "blownup_c7")[seed % 2],
                                        seed=seed))[0],
            "bipartite": build_graph(a + b, [(u, a + v) for u in range(a)
                                             for v in range(b)
                                             if rng.random() < 0.7]),
        }
        for kind, g in inputs.items():
            masks = [rng.choice(palette) for _ in range(g.n)]
            out = solve(g, masks)
            assert not out.is_invalid
            if out.is_sat:
                assert verify_colouring(g, masks, out.colouring)
    # each kind hands on components with and without a full list
    assert set(seen) == {(kind, full) for kind in inputs for full in (True, False)}


def test_solve_verify_mode_reports_p7():
    out = solve(path_graph(8), mode="verify")
    assert out.is_invalid and out.violation.kind == "induced_p7"


def test_solve_bipartite_full_lists_two_colours():
    # Layer 0 peels the path away; the cube, 3-regular and twin-free, keeps
    # all its vertices and reaches the two-side colouring of a bipartite
    # component with full lists.
    cube = build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                           if u < u ^ b])
    for g in (path_graph(6), cube):
        out = solve(g)
        assert out.is_sat and set(out.colouring) <= {1, 2}
        assert verify_colouring(g, None, out.colouring)
        assert out.stats.fallback_used == 0
    assert out.stats.peeled == 0 and out.stats.dominated == 0


def test_solve_bipartite_lists_uses_fallback_when_needed():
    # The cube: bipartite, twin-free and 3-regular, so no neighbourhood
    # holds another and full lists stay after layer 0; the fallback
    # branches on one of them.
    g = build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                        if u < u ^ b])
    masks = [mask_of([1, 2])] + [FULL_MASK] * 7
    out = solve(g, masks)
    assert out.is_sat and verify_colouring(g, masks, out.colouring)
    assert out.stats.peeled == 0 and out.stats.dominated == 0
    assert out.stats.fallback_used >= 1 and out.stats.fallback_nodes >= 1


def test_branch_completeness_small_instances():
    checked = 0
    for seed in range(60):
        kind = "blownup_c5" if seed % 2 else "skeleton_built"
        g, masks = generate(GenSpec(kind, seed=seed, scale=12,
                                    class_sizes=(1, 1, 2, 1, 2) if kind == "blownup_c5" else None,
                                    lists="random" if seed % 3 else "full"))
        if g.n > 14 or bipartite_check(g, (1 << g.n) - 1) is not None:
            continue
        cyc = shortest_odd_cycle(g)
        if len(cyc) != 5:
            continue
        sk = build_skeleton(g, cyc)
        if not isinstance(sk, Skeleton):
            continue
        chains = {i: build_chain(g, sk, i) for i in range(5) if sk.t[i]}
        per_colouring = {}
        for f in enumerate_colourings(g, masks):
            col = tuple(f[c] for c in sk.c)
            if col not in per_colouring:
                per_colouring[col] = _branches(sk, chains, col)
            palette = palette_analysis(col)
            agreeing = False
            for branch in per_colouring[col]:
                seeds = seeds_of_branch(sk, palette, branch)
                if all(f[v] == c for vset, c in seeds for v in iter_bits(vset)):
                    agreeing = True
                    break
            assert agreeing, (seed, f)
            checked += 1
    assert checked > 100


def test_claims_leave_no_full_masks_on_promise_instances():
    # a vertex left with all three colours raises PreconditionBreach, which
    # solve turns into an InternalError on these in-class instances
    for seed in range(80):
        g, masks = generate(GenSpec("skeleton_built", seed=seed, scale=25,
                                    lists="random" if seed % 2 else "full"))
        out = solve(g, masks, mode="trust")
        assert not out.is_invalid, (seed, out.violation)


def test_solve_deterministic_across_runs():
    for seed in (0, 3, 11):
        g, masks = generate(GenSpec("skeleton_built", seed=seed, scale=25,
                                    lists="random"))
        runs = [solve(g, masks) for _ in range(2)]
        assert runs[0].kind == runs[1].kind
        assert runs[0].colouring == runs[1].colouring
        key = lambda s: (s.branches, s.branches_survived, s.propagations,
                         s.sat_instances, s.fallback_used)
        assert key(runs[0].stats) == key(runs[1].stats)


def test_oracle_equivalence_random_sample():
    kinds = ["blownup_c5", "blownup_c7", "skeleton_built", "random_rejection"]
    for seed in range(120):
        spec = GenSpec(kinds[seed % 4], seed=seed, scale=20, n=8,
                       target_edges=9, lists="random" if seed % 3 else "full")
        g, masks = generate(spec)
        got = solve(g, masks)
        want = oracle_solve(g, masks)
        assert got.kind != "invalid"
        assert got.is_sat == (want is not None), (spec, got.kind)
        if got.is_sat:
            assert verify_colouring(g, masks, got.colouring)


def test_search_counters_count_the_nodes_the_searches_build(monkeypatch):
    # Every node a search builds below a component's state (an anchor
    # colouring, an (a)-(h) choice or a full-vertex colour) is one copy of
    # its parent, seeded and then propagated once unless a seed is refused;
    # every leaf goes to 2-SAT.  So branches counts the copies, which are
    # the searches' propagate calls (all but layer 0's, made in solve)
    # plus their refused seed lists, and branches_survived counts the
    # 2-SAT calls but those _solve_component makes on a component without
    # a full list.
    seen = {"copy": 0, "propagate": 0, "refused": 0, "leaf": 0}
    leaf_callers = set()
    copy, assign_all = ListState.copy, ListState.assign_all
    real_propagate, real_leaf = engine.propagate, engine._two_sat_leaf

    def copy_spy(st):
        seen["copy"] += 1
        return copy(st)

    def assign_all_spy(st, seeds):
        ok = assign_all(st, seeds)
        seen["refused"] += not ok
        return ok

    def propagate_spy(st):
        seen["propagate"] += sys._getframe(1).f_code.co_name != "solve"
        return real_propagate(st)

    def leaf_spy(st):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_solve_component":
            seen["leaf"] += 1
            leaf_callers.add((caller, sys._getframe(2).f_code.co_name))
        return real_leaf(st)

    monkeypatch.setattr(ListState, "copy", copy_spy)
    monkeypatch.setattr(ListState, "assign_all", assign_all_spy)
    monkeypatch.setattr(engine, "propagate", propagate_spy)
    monkeypatch.setattr(engine, "_two_sat_leaf", leaf_spy)

    cube = build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                           if u < u ^ b])
    instances = [(groetzsch_graph(), None),
                 (cube, [mask_of([1, 2])] + [FULL_MASK] * 7),
                 parse_instance((INSTANCES / "c7_blowup_lists.lcol").read_text())]
    # seeds 58 and 89 at scale 25 have seed lists that assign_all refuses;
    # the named blown-up C7 seeds reach the full-vertex search, 697 and
    # 1164 with a failed child
    instances += [generate(GenSpec("skeleton_built", seed=seed, scale=scale,
                                   lists="random"))
                  for scale, seed in ((16, 917), (16, 3476), (25, 58), (25, 89))]
    instances += [generate(GenSpec("blownup_c7", seed=seed, lists="random"))
                  for seed in (*range(20), 89, 697, 1164)]
    instances += [generate(GenSpec("spider", scale=k)) for k in range(5)]
    refused = 0
    for g, masks in instances:
        for key in seen:
            seen[key] = 0
        stats = solve(g, masks).stats
        assert stats.branches == seen["copy"], (g, stats, seen)
        assert seen["copy"] == seen["propagate"] + seen["refused"], (g, seen)
        assert stats.branches_survived == seen["leaf"], (g, stats, seen)
        refused += seen["refused"]
    # both searches reached a leaf, each through the one search loop, and
    # some seed list was refused
    assert leaf_callers == {("_leaf_stream", "_solve_skeleton"),
                            ("_leaf_stream", "_full_vertex_search")}
    assert refused > 0


# (scale, seed) of a skeleton_built instance with random lists, none of
# them a singleton, so layer 0 does not propagate; its colouring and every
# SolveStats counter but millis, as the solver without layer-0 propagation
# gave them, with branches counting the nodes the search builds.  Each
# instance has a dead anchor colouring before its 2-SAT leaf, so seeding
# or propagating in another order, or propagating the shared state before
# the anchors are seeded, shows in `propagations`.  Layer 0 leaves one
# component, which reaches the anchored-C5 search.
PINNED_SKELETON_SOLVES = [
    ((12, 2914), [2, 3, 1, 3, 1, 1, 2, 2, 3],
     dict(branches=2, branches_survived=1, propagations=20,
          sat_instances=1, fallback_used=0, fallback_nodes=0, peeled=0,
          dominated=0, settled=0)),
    ((12, 2180), [1, 2, 1, 3, 2, 1, 1, 1, 3, 2, 2, 1],
     dict(branches=5, branches_survived=1, propagations=26,
          sat_instances=1, fallback_used=0, fallback_nodes=0, peeled=5,
          dominated=0, settled=0)),
    ((25, 763), [3, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 2, 3, 3, 1, 3, 2,
                  1],
     dict(branches=6, branches_survived=1, propagations=46,
          sat_instances=1, fallback_used=0, fallback_nodes=0, peeled=6,
          dominated=1, settled=0)),
]


@pytest.mark.parametrize("spec,colouring,counters", PINNED_SKELETON_SOLVES)
def test_skeleton_solves_keep_pinned_answers_and_counters(monkeypatch, spec,
                                                           colouring, counters):
    scale, seed = spec
    g, masks = generate(GenSpec("skeleton_built", seed=seed, scale=scale,
                                lists="random"))
    # each anchor colouring seeds its base through anchor_seeds, and a
    # live one then builds its choice lists
    events = []
    for name in ("anchor_seeds", "choice_lists", "_two_sat_leaf"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, real=real, name=name:
                            events.append(name) or real(*args))
    out = solve(g, masks)
    before = events[:events.index("_two_sat_leaf")]
    assert ("anchor_seeds", "anchor_seeds") in zip(before, before[1:])
    assert out.is_sat and out.colouring == colouring
    got = {name: getattr(out.stats, name) for name in out.stats._fields}
    del got["millis"]
    assert got == counters
    assert got["sat_instances"] >= 1 and got["branches_survived"] >= 1


def test_anchor_breach_sample_needs_the_branch_stream():
    # instances/anchor_breach.lcol keeps all ten vertices through layer 0.
    # At its first anchor colouring that survives propagation, the
    # three-colour rule finds no safe colour for vertex index 3 of the
    # base, so only the (a)-(h) branch stream decides the input.
    g, masks = parse_instance((INSTANCES / "anchor_breach.lcol").read_text())
    st = ListState(g, masks, SolveStats())
    sk = build_skeleton(g, shortest_odd_cycle(g))
    for palette in engine._anchor_palettes([st.masks[c] for c in sk.c]):
        base = st.copy()
        if (base.assign_all(anchor_seeds(sk, palette))
                and propagate(base) is not None):
            break
    else:
        pytest.fail("no anchor colouring survives propagation")
    with pytest.raises(PreconditionBreach, match="^vertex 3 "):
        engine._two_sat_leaf(base.copy())


def test_anchor_palettes_follow_enumeration_order():
    # every tuple of five anchor lists
    for masks in product(range(1, 8), repeat=5):
        got = [(p.c5_colouring, p) for p in engine._anchor_palettes(list(masks))]
        assert got == [(c, palette_analysis(c))
                       for c in enumerate_c5_colourings(list(masks))]


def test_full_vertex_search_depth_beyond_recursion_limit():
    # Half graph a_i ~ b_j for j <= i: twin-free and 2K2-free (so P7-free);
    # with a_0 precoloured the search branches about 300 levels deep.
    # Propagation settles a_0, N(a_i) ⊆ N(a_{i+1}), so layer 0 removes the
    # whole graph, and the search is driven on it directly.
    g, masks = _half_graph_input()
    assert len(false_twin_classes(g)) == g.n
    out = solve(g, masks)
    assert out.is_sat and verify_colouring(g, masks, out.colouring)
    assert out.stats.peeled + out.stats.dominated + out.stats.settled == g.n
    assert out.stats.settled == 1
    st = ListState(g, masks, SolveStats())
    assert propagate(st) is not None
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        colouring = engine._full_vertex_search(st)
    finally:
        sys.setrecursionlimit(limit)
    assert verify_colouring(g, masks, colouring)
    assert st.stats.fallback_used == 1 and st.stats.fallback_nodes == 299


def _half_graph_input():
    """The half graph of the test above, a_0 precoloured: (graph, masks)."""
    half = 300
    g = build_graph(2 * half, [(i, half + j) for i in range(half)
                               for j in range(i + 1)])
    return g, [mask_of([1])] + [FULL_MASK] * (2 * half - 1)


def test_full_vertex_search_matches_the_reference_resume_scan():
    # Each node branches on its lowest full-list vertex, found by one scan;
    # the reference resumes the scan where the node's parent branched.
    # Masks only shrink below a node, so both pick the same vertex at every
    # node, build the same nodes and return the same colouring.  The inputs
    # are shuffled disjoint unions of one to four twin-expanded bipartite
    # graphs and blown-up C7s from the generators, with random two- and
    # three-colour lists, and the half graph above, each propagated and
    # searched whole, without layer 0.
    rng = random.Random(30)
    inputs = [_half_graph_input()]
    i = 0
    while len(inputs) < 400:
        parts = []
        for _ in range(rng.randint(1, 4)):
            i += 1
            if i % 2:
                g = generate(GenSpec("blownup_c7", seed=i))[0]
            else:
                g = generate(GenSpec("random_rejection", seed=i,
                                     n=rng.randint(4, 12)))[0]
                if bipartite_check(g, (1 << g.n) - 1) is None:
                    continue
            parts.append(twin_expand(g, rng, rng.randint(0, 6)))
        g = _shuffled_union(parts, rng)
        inputs.append((g, [rng.choice((7, 7, 3, 5, 6)) for _ in range(g.n)]))
    counted = ("fallback_used", "fallback_nodes", "branches",
               "branches_survived", "propagations", "sat_instances")
    unsat = nodes = 0
    for g, masks in inputs:
        runs = []
        for search in (engine._full_vertex_search,
                       reference_full_vertex_search):
            st = ListState(g, masks, SolveStats())
            assert propagate(st) is not None
            runs.append((search(st), [getattr(st.stats, name)
                                      for name in counted]))
        assert runs[0] == runs[1], (g.n, list(g.edges()), masks)
        unsat += runs[0][0] is None
        nodes += runs[0][1][1]
    assert unsat > 50 and nodes > 1500


def test_twin_free_input_solves_on_the_graph_itself(monkeypatch):
    seen = []
    component = engine._solve_component

    def spy(sub, *args):
        seen.append(sub)
        return component(sub, *args)

    monkeypatch.setattr(engine, "_solve_component", spy)
    g = groetzsch_graph()
    assert len(false_twin_classes(g)) == g.n
    assert solve(g).is_unsat
    assert len(seen) == 1 and seen[0] is g


def test_dominated_twins_are_dropped_and_take_their_twins_colour(monkeypatch):
    seen = []
    component = engine._solve_component

    def spy(sub, *args):
        seen.append(sub.n)
        return component(sub, *args)

    monkeypatch.setattr(engine, "_solve_component", spy)
    g, _ = generate(GenSpec("blownup_c5", class_sizes=(3, 1, 2, 1, 4)))
    masks = [FULL_MASK] * g.n
    masks[1] = mask_of([2, 3])  # incomparable with its twin 2's {1, 3}
    masks[2] = mask_of([1, 3])
    # the classes of 4 and 6 keep two kept neighbours each: 2-lists keep
    # them from being peeled
    masks[4] = masks[5] = mask_of([1, 2])
    masks[6] = mask_of([2, 3])
    # 8 keeps its exact twins 9 and 10 out and gives the full-list 0 a
    # third kept neighbour, so the sweep finds 0 dominated by its twins 1
    # and 2 rather than peelable; then 7's smaller list dominates 8
    masks[7] = mask_of([1, 2])
    out = solve(g, masks)
    assert seen == [6] and out.stats.peeled == 0
    assert out.stats.dominated == 2
    assert out.is_sat and verify_colouring(g, masks, out.colouring)


def test_a_settled_vertex_dominates_its_twin_with_a_larger_list():
    # 0 and 1 are twins with lists {1} and {1, 2}, both adjacent to 2 and
    # 3, which have the pendants 4 and 5.  Propagation settles 0 and takes
    # colour 1 from 2 and 3, so no neighbour of 0 admits it.  The sweep
    # tests 1 first: it has two kept neighbours, too many to peel, and the
    # settled 0 dominates it.  Then the rest peels.
    g = build_graph(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])
    masks = [mask_of([1]), mask_of([1, 2])] + [FULL_MASK] * 4
    out = solve(g, masks)
    stats = out.stats
    assert (stats.settled, stats.dominated, stats.peeled) == (1, 1, 4)
    assert out.is_sat and verify_colouring(g, masks, out.colouring)
    assert out.colouring[:2] == [1, 1]
    fixed = _propagated(g, masks)
    assert _sweep_masks(g, fixed) == (0b111110, 0b1)
    assert _sweep(g, fixed, 0b111110, 0b1) == (0, [1, 2, 3, 4, 5], 1)
    # without 0 as a dominator, 1 stays until its neighbours peel
    assert _sweep(g, fixed, 0b111110, 0)[1:] == ([4, 2, 1, 3, 5], 0)


def test_failed_final_recheck_raises(monkeypatch):
    monkeypatch.setattr(engine, "_colouring_fits", lambda *args: False)
    with pytest.raises(InternalError):
        solve(cycle_graph(5))


def _normalized(normalize, n, lists):
    """What normalize(n, lists) gives: the masks with their types, or the
    error's type and message."""
    try:
        out = normalize(n, lists)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    assert out is not lists
    return out, [type(m) for m in out]


@pytest.mark.parametrize("n, lists", [
    (3, [1, 2, 7]),
    (3, (7, 4, 3)),
    (0, []),
    (2, [0, 1]),
    (2, [1, 8]),
    (2, [1, -1]),
    (2, [1, 2 ** 70]),
    (2, [1.0, 2]),
    (2, [True, 2]),
    (2, [False, 2]),
    (2, [(1, 2), 3]),
    (2, [3, (1, 2)]),
    (2, [[1, 3], {2}]),
    (2, [(), 1]),
    (2, [(4,), 1]),
    (2, [None, 1]),
    (2, [1, 2, 3]),
    (3, [1, 2]),
    (2, None),
])
def test_normalize_lists_accepts_and_rejects_as_the_per_vertex_loop(n, lists):
    # 1.0 and True equal int masks in a set test; the loop rejects 1.0 and
    # keeps True as it is, and a tuple of colours goes through mask_of.
    assert (_normalized(engine.normalize_lists, n, lists)
            == _normalized(reference_normalize_lists, n, lists))


def test_normalize_lists_matches_the_per_vertex_loop_on_mixed_entries():
    rng = random.Random(5)
    pool = [0, 1, 2, 3, 4, 5, 6, 7, 8, -3, True, False, 1.0, (1, 2), (3,),
            [2, 3], (), (1, 4)]
    for _ in range(2_000):
        n = rng.randrange(6)
        lists = [rng.choice(pool if rng.random() < 0.3 else range(1, 8))
                 for _ in range(n)]
        assert (_normalized(engine.normalize_lists, n, lists)
                == _normalized(reference_normalize_lists, n, lists)), lists


def test_sat_solve_normalises_the_lists_once(monkeypatch):
    # The final re-check reads the masks solve normalised on entry.
    calls = []
    real = engine.normalize_lists

    def counting(n, lists):
        calls.append(n)
        return real(n, lists)

    monkeypatch.setattr(engine, "normalize_lists", counting)
    g, masks = generate(GenSpec("skeleton_built", seed=7, scale=20,
                                lists="random"))
    out = solve(g, masks)
    assert out.is_sat
    assert calls == [g.n]


def test_final_recheck_reads_the_input_lists(monkeypatch):
    # Layer-0 propagation narrows the lists the solve works on (vertex 0's
    # colour leaves 1 and 4); the re-check holds the colouring to the
    # input's own lists.
    seen = []
    real = engine._colouring_fits
    monkeypatch.setattr(
        engine, "_colouring_fits",
        lambda g, planes, colouring: (seen.append(engine._masks_of(planes, g.n))
                                      or real(g, planes, colouring)))
    masks = [mask_of([1])] + [FULL_MASK] * 4
    out = solve(cycle_graph(5), masks)
    assert out.is_sat and out.stats.propagations == 2
    assert seen == [masks]


def test_blownup_c7_solve_normalises_the_lists_once(monkeypatch):
    # A blown-up C7 with classes of sizes 1, 2, ..., 2: the lone vertex has
    # a full list and four neighbours, and each class of two carries two
    # incomparable 2-lists, so layer 0 removes nothing and the solve
    # reaches recognize_blownup_c7.
    calls = []
    decompositions = []
    real = engine.normalize_lists
    recognize = engine.recognize_blownup_c7

    def counting(n, lists):
        calls.append(n)
        return real(n, lists)

    def spy(g, cycle):
        decompositions.append(recognize(g, cycle))
        return decompositions[-1]

    monkeypatch.setattr(engine, "normalize_lists", counting)
    monkeypatch.setattr(engine, "recognize_blownup_c7", spy)
    g, masks = parse_instance((INSTANCES / "c7_blowup_lists.lcol").read_text())
    out = solve(g, masks)
    assert out.is_sat and out.stats.peeled == 0
    assert len(decompositions) == 1
    assert calls == [g.n]


def _propagated(g, masks):
    """The lists after layer-0 propagation, or None when it empties one."""
    st = ListState(g, masks, SolveStats())
    return None if propagate(st) is None else st.masks


def _sweep(g, fixed, kept, settled):
    """engine._peel on the lists fixed, handed over as masks and planes."""
    return engine._peel(g, fixed, engine._planes_of(fixed), kept, settled)


def _sweep_masks(g, fixed):
    """(kept, settled): the smallest vertex of each class of equal
    neighbourhood and equal list, as two bitmasks: kept, which layer 0's
    sweep tests, and settled, those whose list has one colour, which only
    serve there as dominators."""
    first = {}
    for v in range(g.n):
        first.setdefault((g.bits[v], fixed[v]), v)
    kept = settled = 0
    for v in first.values():
        if _SIZE[fixed[v]] > 1:
            kept |= 1 << v
        else:
            settled |= 1 << v
    return kept, settled


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_layer0_sweep_reaches_the_joint_fixpoint_and_keeps_answers(data):
    g = data.draw(graphs(max_n=10))
    masks = data.draw(hst.lists(hst.integers(1, FULL_MASK), min_size=g.n,
                                max_size=g.n))
    out = solve(g, masks, mode="trust")
    # the sweep runs on the propagated lists
    fixed = _propagated(g, masks)
    if fixed is None:
        assert out.is_unsat
    else:
        kept, settled = _sweep_masks(g, fixed)
        rest, removed, dominated = _sweep(g, fixed, kept, settled)
        assert _sweep(g, fixed, kept, settled) == (rest, removed, dominated)
        assert len(set(removed)) == len(removed)
        assert not rest & sum(1 << v for v in removed)
        assert rest | sum(1 << v for v in removed) == kept
        # replay the removals: each is peelable or dominated when it
        # happens, and a domination is counted only where peeling does not
        # apply
        left = set(iter_bits(kept))
        dominators = set(iter_bits(settled))
        by_domination = 0
        for v in removed:
            peelable, dominated_now = reference_removable(g, fixed, left,
                                                          dominators)
            assert v in peelable | dominated_now
            by_domination += v not in peelable
            left.discard(v)
        assert by_domination == dominated
        assert left == set(iter_bits(rest))
        assert reference_removable(g, fixed, left, dominators) == (set(), set())
        assert left <= reference_peel(g, fixed, kept)
        assert ((out.stats.peeled, out.stats.dominated, out.stats.settled)
                == (len(removed) - dominated, dominated, len(dominators)))
    if out.is_sat:
        assert verify_colouring(g, masks, out.colouring)
    if check_promise(g) is None:
        want = oracle_solve(g, masks)
        for mode in ("trust", "verify"):
            got = solve(g, masks, mode=mode)
            assert got.kind == ("sat" if want is not None else "unsat"), mode


def _shuffled_union(parts, rng):
    """The disjoint union of the graphs `parts`, its vertices renamed by a
    seeded random permutation."""
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    perm = list(range(offset))
    rng.shuffle(perm)
    return build_graph(offset, [(perm[u], perm[v]) for u, v in edges])


def _any_kind(rng, i):
    # one spec of every generator kind in turn, each small
    return (GenSpec("blownup_c5", seed=i), GenSpec("blownup_c7", seed=i),
            GenSpec("skeleton_built", seed=i, scale=rng.randint(8, 60)),
            GenSpec("random_rejection", seed=i, n=rng.randint(5, 12)),
            GenSpec("spider", scale=rng.randint(0, 6)))[i % 5]


def test_layer0_sweep_matches_the_reference_sweep_on_shuffled_labels():
    # Layer 0 tests the highest dominator candidate and cuts the rest to a
    # neighbour of v that it misses; the reference tests the candidates
    # adjacent to v's lowest and highest neighbour one at a time.  Both
    # must remove the same vertices in the same order.  The inputs are
    # twin-expanded generated graphs under shuffled labels with random
    # lists, propagated and grouped as solve does them, and one in-class
    # graph of about 2 000 vertices: the shuffled disjoint union of such
    # graphs, which holds no triangle or induced P7 since each part holds
    # none.  The hypothesis sweep above draws at most ten vertices.
    rng = random.Random(29)
    inputs, parts = [], []
    for i in range(300):
        g = twin_expand(generate(_any_kind(rng, i))[0], rng, rng.randint(0, 8))
        inputs.append((_shuffled_union([g], rng), 0.03))
        if sum(part.n for part in parts) < 2000:
            parts.append(g)
    # no one-colour lists here, so that propagation cannot refute the union
    big = _shuffled_union(parts, rng)
    inputs.append((big, 0))
    assert 2000 <= big.n < 2100
    swept = dominated = 0
    for g, single in inputs:
        masks = [rng.choice((1, 2, 4) if rng.random() < single else (7, 7, 3, 5, 6))
                 for _ in range(g.n)]
        fixed = _propagated(g, masks)
        if fixed is None:
            continue
        kept, settled = _sweep_masks(g, fixed)
        got = _sweep(g, fixed, kept, settled)
        assert got == reference_sweep(g, fixed, kept, settled), g.n
        swept += 1
        dominated += got[2]
    assert swept > 250 and dominated > 500


def test_layer0_refutation_is_exact_on_any_graph(monkeypatch):
    # Random graphs of up to ten vertices, triangles allowed, with many
    # singleton lists: whenever propagation empties a list, solve answers
    # UNSAT before any component is solved, and the oracle agrees.
    component = engine._solve_component
    calls = []
    monkeypatch.setattr(engine, "_solve_component",
                        lambda *args: calls.append(args) or component(*args))
    rng = random.Random(19)
    refuted = 0
    for _ in range(1500):
        n = rng.randint(1, 10)
        density = rng.random()
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < density])
        masks = [rng.choice((1, 2, 4, 3, 5, 6, 7)) for _ in range(n)]
        if _propagated(g, masks) is not None:
            continue
        refuted += 1
        del calls[:]
        out = solve(g, masks, mode="trust")
        assert out.is_unsat and calls == [], (g.n, list(g.edges()), masks)
        assert oracle_solve(g, masks) is None
    assert refuted > 500


@pytest.mark.parametrize("k", range(9))
def test_spider_answers_agree_with_the_oracle(k):
    g, masks = generate(GenSpec("spider", scale=k))
    assert oracle_solve(g, masks) is None
    for mode in ("trust", "verify"):
        assert solve(g, masks, mode=mode).is_unsat


def test_spider_s40_is_answered_by_one_2sat_leaf():
    # Peeling removes every leg, x_i and then p_i; 2-SAT answers the
    # seven-vertex core at the root.
    g, masks = generate(GenSpec("spider", scale=40))
    assert g.n == 87
    for mode in ("trust", "verify"):
        out = solve(g, masks, mode=mode)
        assert out.is_unsat, mode
        assert out.stats.peeled == 80
        assert out.stats.sat_instances == 1
        assert out.stats.fallback_used == 0


def _raises_internal_error_under_optimisation(setup, call):
    src = os.path.dirname(os.path.dirname(os.path.abspath(lcol3.__file__)))
    script = (
        "from lcol3 import engine, sat2\n"
        "from lcol3.testkit import cycle_graph\n"
        f"{setup}\n"
        "try:\n"
        f"    {call}\n"
        "except engine.InternalError:\n"
        "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_failed_final_recheck_raises_under_optimisation():
    _raises_internal_error_under_optimisation(
        "engine._colouring_fits = lambda *args: False",
        "engine.solve(cycle_graph(5))")


def test_failed_2sat_self_check_raises_under_optimisation():
    # Every literal in its own component sets every variable true, which
    # breaks the clause (not x0 or not x0).
    _raises_internal_error_under_optimisation(
        "sat2._tarjan_components = lambda n, adj: list(range(n))",
        "sat2.solve_2sat(sat2.add_clause(sat2.TwoSatInstance(1), 1, 1))")


@pytest.mark.parametrize("setup,call", [
    # improper C5 colourings: no colour used once, and one with 1-1 and 2-2
    ("", "engine.palette_analysis((1, 1, 1, 1, 1))"),
    ("", "engine.palette_analysis((1, 1, 2, 2, 3))"),
    # vertex 0's singleton list is still queued for propagation
    ("st = engine.ListState(cycle_graph(5), [1] + [7] * 4, "
     "engine.SolveStats())", "st.copy()"),
    # the C5's same-level edge 2-3 sits at depth 2, not 3
    ("from lcol3 import recognition",
     "recognition._extract_odd_cycle(cycle_graph(5), 0, 2, 3, 3)"),
    # the oracle's colouring fails its re-check
    ("from lcol3 import testkit; "
     "testkit.verify_colouring = lambda *args: False",
     "testkit.oracle_solve(cycle_graph(5))"),
])
def test_answer_guards_raise_under_optimisation(setup, call):
    _raises_internal_error_under_optimisation(setup, call)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so none may guard the package.
    package = os.path.dirname(os.path.abspath(lcol3.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_solves_leave_no_reference_cycles():
    # Both searches run _leaf_stream with a children closure, and a found
    # colouring returns from it with its stack still full; verify mode on
    # the blown-up C7 sample runs find_induced_p7, recognize_blownup_c7
    # and the full-vertex search; the oracle and the enumerator are the
    # test kit's searches, each with a nested function.  None of them may
    # leave a cycle that holds skeletons, chains or functions.
    sk_graph, sk_masks = generate(GenSpec("skeleton_built", seed=763,
                                          scale=25, lists="random"))
    verify_graph, verify_masks = parse_instance(
        (INSTANCES / "c7_blowup_lists.lcol").read_text())
    kept = (Skeleton, Chain)
    flags = gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sk_stats = solve(sk_graph, sk_masks).stats
        verify_stats = solve(verify_graph, verify_masks, mode="verify").stats
        oracle_solve(cycle_graph(5))
        list(enumerate_colourings(cycle_graph(5)))
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage[start:]
                  if isinstance(obj, kept)]
        leaked += [obj.__qualname__ for obj in gc.garbage[start:]
                   if isinstance(obj, types.FunctionType)]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert sk_stats.sat_instances > 0  # the search reached a leaf
    assert verify_stats.fallback_used == 1  # the blown-up C7 was searched
    assert leaked == []


def test_residual_with_unpropagated_assignment_raises(monkeypatch):
    # Without propagation the precoloured end's colour stays admissible at
    # its neighbour, which the residual encoding assumes never happens.
    # A 4-cycle keeps every vertex through layer 0.
    monkeypatch.setattr(engine, "propagate", lambda st: st)
    with pytest.raises(InternalError):
        solve(cycle_graph(4), [mask_of([1]), mask_of([1, 2]), mask_of([2, 3]),
                               mask_of([2, 3])])


@hst.composite
def listed_graphs(draw):
    # mostly triangle-free graphs (an edge that would close a triangle is
    # left out), some with triangles, and lists of every size
    n = draw(hst.integers(min_value=1, max_value=24))
    with_triangles = draw(hst.sampled_from((False, False, False, True)))
    density = draw(hst.sampled_from((0.1, 0.2, 0.3, 0.45)))
    rng = random.Random(draw(hst.integers(min_value=0, max_value=2**32)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    rows = [0] * n
    edges = []
    for u, v in pairs:
        if rng.random() < density and (with_triangles or not rows[u] & rows[v]):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            edges.append((u, v))
    masks = [rng.choice((7, 7, 7, 3, 5, 6, 1, 2, 4)) for _ in range(n)]
    return build_graph(n, edges), masks


@settings(max_examples=300, deadline=None)
@given(listed_graphs())
def test_trust_mode_invalid_answers_carry_verified_witnesses(case):
    # every structural check that fails on the solving path ends in
    # check_promise's witness, and none raises out of solve
    g, masks = case
    out = solve(g, masks, mode="trust")
    if out.is_invalid:
        assert out.violation.kind in ("triangle", "induced_p7")
        assert check_witness(g, out.violation)


@pytest.mark.parametrize("mode", ["trust", "verify"])
def test_breach_on_an_in_class_component_is_an_internal_error(
        monkeypatch, tmp_path, capsys, mode):
    # A failed structural check on a component that check_promise accepts
    # is a gap in the solver, never an INVALID answer.  The instance has no
    # singleton list, and layer 0 leaves one component of eight of its nine
    # vertices, which reaches build_skeleton.
    g, masks = generate(GenSpec("skeleton_built", seed=2914, scale=12,
                                lists="random"))
    assert check_promise(g) is None
    calls = []

    def breach(*args):
        calls.append(args)
        raise PreconditionBreach("planted breach")

    monkeypatch.setattr(engine, "build_skeleton", breach)
    with pytest.raises(InternalError, match="planted breach"):
        solve(g, masks, mode=mode)
    assert calls
    path = tmp_path / "in_class.lcol"
    path.write_text(emit_instance(g, masks))
    assert dispatch(["solve", "--mode", mode, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error")


@pytest.mark.parametrize("record", [
    engine.Outcome, engine.Palette, PromiseViolation, Skeleton, Chain,
    GenSpec])
def test_frozen_records_reject_assignment(record):
    rec = record._make(range(len(record._fields)))
    with pytest.raises(AttributeError):
        setattr(rec, record._fields[0], -1)
    with pytest.raises(AttributeError):
        rec.extra = -1  # no instance dict either


def test_solve_stats_compare_by_value():
    a, b = SolveStats(), SolveStats()
    assert a == b
    a.branches = 3
    assert a != b
    b.branches = 3
    assert a == b
    assert SolveStats._fields[0] == "branches"
    assert SolveStats._fields[-1] == "millis"
