"""Differential properties on instance families independent of the seeded
generators: false-twin expansions and filtered random graphs.

Adding a false twin preserves both triangle-freeness and induced-path
freeness (an induced path can use at most one member of a twin class, so it
projects to the base graph), which turns any small promise instance into a
whole family of denser ones.
"""

import random

import pytest

from conftest import check_witness
from lcol3 import build_graph, check_promise, solve, verify_colouring
from lcol3.graph import iter_bits
from lcol3.testkit import GenSpec, generate, oracle_solve


def twin_expand(graph, rng, extra):
    adj = {v: set(iter_bits(graph.bits[v])) for v in range(graph.n)}
    for _ in range(extra):
        v = rng.randrange(len(adj))
        twin = len(adj)
        adj[twin] = set(adj[v])
        for u in adj[v]:
            adj[u].add(twin)
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    return build_graph(len(adj), edges)


def random_masks(rng, n):
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            out.append(0b111)
        elif roll < 0.8:
            out.append(0b111 & ~(1 << rng.randrange(3)))
        else:
            out.append(1 << rng.randrange(3))
    return out


def test_twin_expansions_stay_in_class_and_match_oracle():
    # Expansions make dominated twins, which solve drops before the
    # pipeline runs; both modes must still agree with the oracle.
    checked = 0
    for seed in range(150):
        rng = random.Random(seed * 37 + 1)
        base, _ = generate(GenSpec("random_rejection", seed=seed,
                                   n=rng.randint(5, 10),
                                   target_edges=rng.randint(4, 12)))
        expanded = twin_expand(base, rng, rng.randint(1, 8))
        assert check_promise(expanded) is None, seed
        masks = random_masks(rng, expanded.n)
        expected = oracle_solve(expanded, masks)
        for mode in ("verify", "trust"):
            outcome = solve(expanded, masks, mode=mode)
            assert not outcome.is_invalid
            assert outcome.is_sat == (expected is not None), (seed, mode)
            if outcome.is_sat:
                assert verify_colouring(expanded, masks, outcome.colouring)
        checked += 1
    assert checked == 150


def structured_base(seed, rng):
    """A seeded skeleton-built or blown-up C5/C7 graph in the class."""
    kind = seed % 3
    if kind == 0:
        spec = GenSpec("skeleton_built", seed=seed, scale=8)
    elif kind == 1:
        spec = GenSpec("blownup_c5", seed=seed,
                       class_sizes=tuple(rng.randint(1, 2) for _ in range(5)))
    else:
        spec = GenSpec("blownup_c7", seed=seed,
                       class_sizes=tuple(rng.randint(1, 2) for _ in range(7)))
    return generate(spec)[0]


def test_twin_expanded_structured_bases_match_oracle():
    # the non-bipartite layers (skeleton and blown-up cycles) behind the
    # twin reduction, in both modes
    checked = 0
    for seed in range(90):
        rng = random.Random(seed * 41 + 3)
        expanded = twin_expand(structured_base(seed, rng), rng,
                               rng.randint(1, 8))
        assert check_promise(expanded) is None, seed
        masks = random_masks(rng, expanded.n)
        expected = oracle_solve(expanded, masks)
        for mode in ("verify", "trust"):
            outcome = solve(expanded, masks, mode=mode)
            assert not outcome.is_invalid
            assert outcome.is_sat == (expected is not None), (seed, mode)
            if outcome.is_sat:
                assert verify_colouring(expanded, masks, outcome.colouring)
        checked += 1
    assert checked == 90


def test_pendant_p6_on_twin_expanded_blowup_is_witnessed_in_input_labels():
    for seed in range(40):
        rng = random.Random(seed + 9000)
        k = 5 if seed % 2 else 7
        base, _ = generate(GenSpec(f"blownup_c{k}", seed=seed,
                                   class_sizes=tuple(rng.randint(1, 3)
                                                     for _ in range(k))))
        g = twin_expand(base, rng, rng.randint(1, 6))
        n = g.n
        edges = list(g.edges()) + [(rng.randrange(n), n)]
        edges += [(n + i, n + i + 1) for i in range(5)]
        perm = list(range(n + 6))
        rng.shuffle(perm)
        planted = build_graph(n + 6, [(perm[u], perm[v]) for u, v in edges])
        for violation in (check_promise(planted),
                          solve(planted, mode="verify").violation):
            assert violation.kind == "induced_p7", seed
            assert check_witness(planted, violation), (seed, violation)


def test_filtered_random_graphs_match_oracle():
    # arbitrary promise members found by rejection over G(n, m), without any
    # of the generators' structural bias
    accepted = 0
    tried = 0
    seed = 0
    while accepted < 120 and tried < 6000:
        seed += 1
        tried += 1
        rng = random.Random(seed * 101 + 7)
        n = rng.randint(5, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(n - 2, min(len(pairs), 2 * n))
        g = build_graph(n, rng.sample(pairs, m))
        if check_promise(g) is not None:
            continue
        accepted += 1
        masks = random_masks(rng, n)
        outcome = solve(g, masks)
        expected = oracle_solve(g, masks)
        assert outcome.is_sat == (expected is not None), seed
        if outcome.is_sat:
            assert verify_colouring(g, masks, outcome.colouring)
    assert accepted >= 100


def arbitrary_instance(rng, max_n=12):
    """A graph on at most max_n vertices with no promise: G(n, p) over the
    vertex pairs in random order, with triangles allowed or with every
    pair that would close one skipped (induced P7s allowed), or a
    structured class member with a few vertex pairs flipped; its lists all
    full, all two-colour, mixed as random_masks draws them, or any
    non-empty list."""
    if rng.randrange(3):
        n = rng.randint(1, max_n)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 1.0))
        triangle_free = rng.randrange(3) > 0
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        rows = [0] * n
        edges = []
        for u, v in pairs:
            if rng.random() < p and not (triangle_free and rows[u] & rows[v]):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                edges.append((u, v))
    else:
        base = structured_base(rng.randrange(10_000), rng)
        while base.n > max_n:
            base = structured_base(rng.randrange(10_000), rng)
        n = base.n
        flipped = {tuple(sorted(rng.sample(range(n), 2)))
                   for _ in range(rng.randint(1, 3))}
        edges = sorted(set(base.edges()) ^ flipped)
    kind = rng.randrange(4)
    if kind == 0:
        masks = [0b111] * n
    elif kind == 1:
        masks = [rng.choice((0b011, 0b101, 0b110)) for _ in range(n)]
    elif kind == 2:
        masks = random_masks(rng, n)
    else:
        masks = [rng.randint(1, 0b111) for _ in range(n)]
    return build_graph(n, edges), masks


def _trust_mode_sweep(seeds, max_n):
    """Trust mode on arbitrary_instance(max_n) for each seed gives the
    oracle's answer, or INVALID with a witness that check_witness accepts,
    and never raises.  All three answers occur, and some inputs reach a
    branch search."""
    kinds = {"sat": 0, "unsat": 0, "invalid": 0}
    searched = 0
    for seed in seeds:
        g, masks = arbitrary_instance(random.Random(seed * 53 + 11), max_n)
        outcome = solve(g, masks, mode="trust")
        kinds[outcome.kind] += 1
        searched += outcome.stats.branches > 0
        if outcome.is_invalid:
            assert check_witness(g, outcome.violation), seed
            continue
        expected = oracle_solve(g, masks)
        assert outcome.is_sat == (expected is not None), seed
        if outcome.is_sat:
            assert verify_colouring(g, masks, outcome.colouring), seed
    assert min(kinds.values()) > 0 and searched > 0, (kinds, searched)


def test_trust_mode_is_exact_or_witnessed_beyond_the_class():
    # tier-1's slice of the sweep below: about 2 s
    _trust_mode_sweep(range(12_000), 12)


@pytest.mark.sweep
def test_trust_mode_sweep_up_to_14_vertices():
    # the full sweep, run with -m sweep: 300 000 further seeds, n up to 14
    _trust_mode_sweep(range(12_000, 312_000), 14)
