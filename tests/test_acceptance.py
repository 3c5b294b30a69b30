"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from itertools import product

from conftest import check_witness, seeds_of_branch
from lcol3 import build_graph, check_promise, engine, solve, verify_colouring
from lcol3.engine import (FULL_MASK, choice_lists, enumerate_c5_colourings,
                          palette_analysis)
from lcol3.graph import bipartite_check, iter_bits
from lcol3.recognition import shortest_odd_cycle
from lcol3.sat2 import TwoSatInstance, add_clause, solve_2sat
from lcol3.skeleton import Skeleton, build_chain, build_skeleton
from lcol3.testkit import (GenSpec, cycle_graph, enumerate_colourings,
                           generate, groetzsch_graph, oracle_solve)

C5_EDGES = [(i, (i + 1) % 5) for i in range(5)]
ANCHORS = (0, 1, 2, 3, 4)
C7_LISTS = (0b011, 0b101, 0b110, 0b111)  # {12, 13, 23, 123}


def _suite1_spec(seed):
    rng = random.Random(seed * 7919 + 13)
    roll = rng.random()
    lists = "full" if rng.random() < 0.35 else "random"
    if roll < 0.40:
        return GenSpec("skeleton_built", seed=seed, scale=rng.randint(10, 36),
                       lists=lists)
    if roll < 0.65:
        sizes = tuple(rng.randint(1, 8) for _ in range(5))
        while sum(sizes) > 40:
            sizes = tuple(rng.randint(1, 8) for _ in range(5))
        return GenSpec("blownup_c5", seed=seed, class_sizes=sizes, lists=lists)
    if roll < 0.85:
        sizes = tuple(rng.randint(1, 5) for _ in range(7))
        while sum(sizes) > 40:
            sizes = tuple(rng.randint(1, 5) for _ in range(7))
        return GenSpec("blownup_c7", seed=seed, class_sizes=sizes, lists=lists)
    return GenSpec("random_rejection", seed=seed, n=rng.randint(5, 12),
                   target_edges=rng.randint(4, 14), lists=lists)


def test_criterion_1_and_3_oracle_equivalence():
    """10,000 seeded promise instances, n in [5, 40]: solve's decision equals
    the oracle's on every one, no claim or validator ever fires, and the
    whole sweep stays under ten minutes."""
    t0 = time.perf_counter()
    total = 0
    disagreements = 0
    validator_failures = 0
    max_n = 0
    for seed in range(10_000):
        graph, masks = generate(_suite1_spec(seed))
        assert 5 <= graph.n <= 40, graph.n
        max_n = max(max_n, graph.n)
        outcome = solve(graph, masks, mode="trust")
        if outcome.is_invalid:
            validator_failures += 1
            continue
        expected = oracle_solve(graph, masks)
        if outcome.is_sat != (expected is not None):
            disagreements += 1
        if outcome.is_sat:
            assert verify_colouring(graph, masks, outcome.colouring)
        total += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert validator_failures == 0
    assert total == 10_000
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 1: PASS oracle equivalence on {total} instances "
          f"(max n {max_n}) in {elapsed:.1f}s")
    print("ACCEPTANCE 3: PASS zero claim-assertion or structural-validator "
          "failures across suite 1")


def _agreeing_branch(sk, chains, palette, colouring):
    """The seed list from each choice list that the colouring agrees with:
    the whole set when it takes one colour, else the first deviation, the
    longest one-coloured chain prefix (D_i's lowest vertex) with the lowest
    vertex of the next level (of D_i) that takes the other colour."""
    t_picks = []
    for i in palette.undetermined:
        t_set = sk.t[i]
        if not t_set:
            t_picks.append(None)
            continue
        chain = chains[i]
        q = palette.q
        other = palette.options[i][1]
        levels = chain.levels
        if all(colouring[v] == other for v in iter_bits(t_set)):
            t_picks.append(((t_set, other),))
            continue
        if all(colouring[v] == q for v in iter_bits(t_set)):
            t_picks.append(((t_set, q),))
            continue
        first, second = (other, q) if colouring[chain.v0] == other else (q, other)
        k = max(k for k in range(chain.r + 1)
                if all(colouring[v] == first for v in iter_bits(levels[k])))
        w = min(v for v in iter_bits(levels[k + 1] & ~levels[k])
                if colouring[v] == second)
        t_picks.append(((levels[k], first), (1 << w, second)))
    d_picks = []
    for i in palette.free_d:
        d_set = sk.d[i]
        if not d_set:
            d_picks.append(None)
            continue
        a, b = palette.d_options[i]
        members = list(iter_bits(d_set))
        if all(colouring[u] == a for u in members):
            d_picks.append(((d_set, a),))
        elif all(colouring[u] == b for u in members):
            d_picks.append(((d_set, b),))
        else:
            v = members[0]
            first, second = (a, b) if colouring[v] == a else (b, a)
            vp = min(u for u in members if colouring[u] == second)
            d_picks.append(((1 << v, first), (1 << vp, second)))
    return tuple(t_picks + d_picks)


def test_criterion_2_branch_completeness():
    """1,000 promise instances with n <= 14: every proper list-colouring
    agrees with some branch's seeds.  Zero misses."""
    t0 = time.perf_counter()
    instances = 0
    colourings_checked = 0
    misses = 0
    seed = 0
    while instances < 1_000:
        seed += 1
        rng = random.Random(seed * 31 + 5)
        if seed % 2:
            sizes = tuple(rng.randint(1, 2) for _ in range(5))
            spec = GenSpec("blownup_c5", seed=seed, class_sizes=sizes,
                           lists="random" if seed % 4 else "full")
        else:
            spec = GenSpec("skeleton_built", seed=seed,
                           scale=rng.randint(8, 12),
                           lists="random" if seed % 4 else "full")
        graph, masks = generate(spec)
        if graph.n > 14 or bipartite_check(graph, (1 << graph.n) - 1) is not None:
            continue
        cycle = shortest_odd_cycle(graph)
        if len(cycle) != 5:
            continue
        sk = build_skeleton(graph, cycle)
        assert isinstance(sk, Skeleton)
        chains = {i: build_chain(graph, sk, i) for i in range(5) if sk.t[i]}
        branch_sets = {}
        instances += 1
        for f in enumerate_colourings(graph, masks):
            anchor_col = tuple(f[c] for c in sk.c)
            palette = palette_analysis(anchor_col)
            if anchor_col not in branch_sets:
                branch_sets[anchor_col] = set(
                    product(*choice_lists(sk, chains, palette)))
            branch = _agreeing_branch(sk, chains, palette, f)
            if branch not in branch_sets[anchor_col]:
                misses += 1
                continue
            seeds = seeds_of_branch(sk, palette, branch)
            if any(f[v] != c for vset, c in seeds for v in iter_bits(vset)):
                misses += 1
            colourings_checked += 1
    elapsed = time.perf_counter() - t0
    assert misses == 0
    print(f"\nACCEPTANCE 2: PASS branch completeness on {instances} instances "
          f"({colourings_checked} colourings) in {elapsed:.1f}s")


def test_criterion_4_exact_branch_count():
    """Constructed skeletons with known set sizes and chain shapes: the
    number of branches equals the closed-form product."""
    checked = 0
    # T_1 (0-based) of size 3 with nested component neighbourhoods {5},{5,6};
    # D sets of sizes up to 3 sit on positions 0..2, the ones that coexist
    # with a component below T_1.  Across the 30 anchor colourings they take
    # the free-index role in turn.
    for d_sizes in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 1)):
        extra = [(5, 0), (5, 2), (6, 0), (6, 2), (7, 0), (7, 2),
                 (8, 5), (8, 9), (10, 5), (10, 6), (10, 11)]
        n = 12
        for idx, size in zip((0, 1, 2), d_sizes):
            for _ in range(size):
                extra.append((n, idx))
                n += 1
        graph = build_graph(n, C5_EDGES + extra)
        assert check_promise(graph) is None
        sk = build_skeleton(graph, ANCHORS)
        assert isinstance(sk, Skeleton)
        chains = {i: build_chain(graph, sk, i) for i in range(5) if sk.t[i]}
        chain = chains[1]
        assert chain.r == 2 and sk.t[1].bit_count() == 3

        for col in enumerate_c5_colourings([FULL_MASK] * 5):
            palette = palette_analysis(col)
            count = sum(1 for _ in product(*choice_lists(sk, chains, palette)))
            formula = 1
            for i in palette.undetermined:
                if sk.t[i]:
                    levels = chains[i].levels
                    pairs = sum((levels[k + 1] & ~levels[k]).bit_count()
                                for k in range(chains[i].r + 1))
                    formula *= 2 + 2 * pairs
            for i in palette.free_d:
                if sk.d[i]:
                    formula *= 2 + 2 * (sk.d[i].bit_count() - 1)
            assert count == formula, (d_sizes, col)
            bound = 32
            for i in palette.undetermined:
                bound *= max(1, sk.t[i].bit_count())
            for i in palette.free_d:
                bound *= max(1, sk.d[i].bit_count())
            assert count <= bound
            checked += 1
    print(f"\nACCEPTANCE 4: PASS exact branch counts on {checked} "
          f"(instance, colouring) pairs")


def test_criterion_5_two_sat_correctness():
    """1,000 random 2-SAT instances with <= 15 variables against a
    bit-parallel truth table; assignments checked clause by clause."""
    from test_sat2 import brute_force_sat

    rng = random.Random(20240)
    mismatches = 0
    for _ in range(1_000):
        nvars = rng.randint(1, 15)
        inst = TwoSatInstance(nvars)
        for _ in range(rng.randint(0, 4 * nvars)):
            add_clause(inst, rng.randrange(2 * nvars), rng.randrange(2 * nvars))
        solution = solve_2sat(inst)
        if (solution is not None) != brute_force_sat(inst):
            mismatches += 1
            continue
        if solution is not None:
            for l1, l2 in inst.clauses:
                v1 = solution[l1 >> 1] ^ bool(l1 & 1)
                v2 = solution[l2 >> 1] ^ bool(l2 & 1)
                assert v1 or v2
    assert mismatches == 0
    print("\nACCEPTANCE 5: PASS 1000 random 2-SAT instances match brute force")


def test_criterion_6_witness_validity():
    """1,000 seeded mutations that plant a triangle or an induced P7 inside
    promise instances: the checker always returns a witness and every
    witness verifies independently."""
    valid = 0
    for seed in range(1_000):
        rng = random.Random(seed + 777)
        graph, _ = generate(GenSpec("skeleton_built", seed=seed, scale=20))
        edges = list(graph.edges())
        if rng.random() < 0.5:
            u, v = edges[rng.randrange(len(edges))]
            mutated = build_graph(graph.n + 1, edges + [(graph.n, u), (graph.n, v)])
        else:
            base = graph.n
            extra = [(base + i, base + i + 1) for i in range(6)]
            extra.append((rng.randrange(graph.n), base))
            mutated = build_graph(graph.n + 7, edges + extra)
        witness = check_promise(mutated)
        assert witness is not None, seed
        assert witness.kind in ("triangle", "induced_p7")
        assert check_witness(mutated, witness), (seed, witness)
        valid += 1
    assert valid == 1_000
    print("\nACCEPTANCE 6: PASS 1000/1000 mutation witnesses verified "
          "independently")


def _c7_trial(rng, seed, sizes, planted):
    """A blow-up of C7 whose lists come from {12, 13, 23, 123}; when
    planted, each vertex's list holds its class's colour in a proper
    colouring of the C7 quotient, so the instance is SAT."""
    graph, _ = generate(GenSpec("blownup_c7", seed=seed, class_sizes=sizes))
    if not planted:
        return graph, [rng.choice(C7_LISTS) for _ in range(graph.n)]
    col = [0] * 7
    while any(col[i] == col[i - 1] for i in range(7)):
        col = [rng.randint(1, 3) for _ in range(7)]
    masks = [rng.choice([m for m in C7_LISTS if m >> (col[i] - 1) & 1])
             for i, size in enumerate(sizes) for _ in range(size)]
    return graph, masks


def test_criterion_7_blownup_c7_path(monkeypatch):
    """Blow-ups of C7 with classes up to 100 (n up to 700) and lists from
    {12, 13, 23, 123}, half of them planted around a proper colouring of
    the quotient: every decision matches the oracle, planted ones are SAT
    with a verified colouring, and each solve that reaches the blown-up-C7
    path branches at most 13 times; a full-list n = 700 blow-up is SAT."""
    reached = []
    recognize = engine.recognize_blownup_c7

    def spy(g, cycle):
        reached.append(cycle)
        return recognize(g, cycle)

    monkeypatch.setattr(engine, "recognize_blownup_c7", spy)
    rng = random.Random(4242)
    hits = sat = 0
    for trial in range(300):
        high = 100 if trial % 3 == 0 else 6
        sizes = tuple(rng.randint(1, high) for _ in range(7))
        planted = trial % 2 == 0
        graph, masks = _c7_trial(rng, trial, sizes, planted)
        before = len(reached)
        outcome = solve(graph, masks)
        assert outcome.is_sat == (oracle_solve(graph, masks) is not None), trial
        if outcome.is_sat:
            assert verify_colouring(graph, masks, outcome.colouring)
            sat += 1
        else:
            assert not planted, trial
        if len(reached) > before:
            assert outcome.stats.fallback_nodes <= 13, trial
            hits += 1
    assert hits == 60, hits  # the trials that reach the path, as recorded
    sizes = (100,) * 7
    graph, masks = generate(GenSpec("blownup_c7", seed=999, class_sizes=sizes))
    outcome = solve(graph, masks)
    assert graph.n == 700 and outcome.is_sat
    assert verify_colouring(graph, masks, outcome.colouring)
    print(f"\nACCEPTANCE 7: PASS blown-up C7 path (300 vs oracle, {sat} SAT, "
          f"{hits} reach the full-vertex search, plus n=700)")


def test_criterion_8_scale_smoke():
    """Blown-up C5 with n = 2,000 and full lists: a verified colouring in
    under five seconds with zero fallback activations."""
    graph, masks = generate(GenSpec("blownup_c5", seed=7, class_sizes=(400,) * 5))
    assert graph.n == 2_000
    t0 = time.perf_counter()
    outcome = solve(graph, masks)
    elapsed = time.perf_counter() - t0
    assert outcome.is_sat
    assert verify_colouring(graph, masks, outcome.colouring)
    assert outcome.stats.fallback_used == 0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 8: PASS n=2000 blow-up solved in {elapsed:.2f}s "
          f"(fallback activations: {outcome.stats.fallback_used})")


def test_criterion_9_known_no_instance():
    """The Grötzsch graph is uncolourable with three colours; it lies in the
    promise class, so the engine must answer UNSAT (otherwise a
    generator-built uncolourable instance found by oracle search stands in)."""
    graph = groetzsch_graph()
    assert oracle_solve(graph) is None
    if check_promise(graph) is None:
        outcome = solve(graph, mode="verify")
        assert outcome.is_unsat
        print("\nACCEPTANCE 9: PASS Groetzsch graph is promise-class and "
              "engine answers UNSAT")
        return
    # fallback: search generator seeds for an oracle-uncolourable instance
    for seed in range(10_000):
        graph, masks = generate(GenSpec("skeleton_built", seed=seed,
                                        scale=20, lists="random"))
        if oracle_solve(graph, masks) is None:
            outcome = solve(graph, masks, mode="verify")
            assert outcome.is_unsat
            print(f"\nACCEPTANCE 9: PASS substitute uncolourable promise "
                  f"instance (seed {seed}) answers UNSAT")
            return
    raise AssertionError("no uncolourable promise instance found")
