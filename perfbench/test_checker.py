"""Tests of the benchmark's own checker and generators.

    python3 -m pytest perfbench
"""

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FULL = checker.FULL
C5 = [(i, (i + 1) % 5) for i in range(5)]
P7 = [(i, i + 1) for i in range(6)]


def instance(n, edges, masks=None, in_class=True, mode="trust"):
    return workloads.Instance("t", n, edges, masks or [FULL] * n, mode,
                              in_class).finish()


def sat_text(colouring):
    return "SAT\n" + "".join(f"v {v + 1} {c}\n" for v, c in enumerate(colouring))


def in_the_class(n, edges):
    bits = checker.adjacency_bits(n, edges)
    return not checker.has_triangle(bits) and not checker.has_induced_p7(bits)


def brute_colourable(n, edges, masks):
    return any(all(masks[v] >> (col[v] - 1) & 1 for v in range(n))
               and all(col[u] != col[v] for u, v in edges)
               for col in itertools.product((1, 2, 3), repeat=n))


def brute_has_induced_p7(n, edges):
    eset = {frozenset(e) for e in edges}
    for sub in itertools.combinations(range(n), 7):
        inner = [e for e in eset if e <= set(sub)]
        if len(inner) != 6:
            continue
        deg = sorted(sum(v in e for e in inner) for v in sub)
        if deg != [1, 1, 2, 2, 2, 2, 2]:
            continue
        seen, todo = {sub[0]}, [sub[0]]
        while todo:
            x = todo.pop()
            for e in inner:
                if x in e:
                    (y,) = e - {x}
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
        if len(seen) == 7:
            return True
    return False


def test_accepts_correct_answers():
    assert checker.check_output(instance(5, C5), sat_text([1, 2, 1, 2, 3])) is None
    unsat = instance(5, C5, [0b011] * 5)
    assert unsat.expected == "UNSAT"
    assert checker.check_output(unsat, "UNSAT\n") is None


def test_rejects_a_corrupted_colouring():
    inst = instance(5, C5, [FULL, FULL, FULL, FULL, 0b011])
    assert checker.check_output(inst, sat_text([1, 2, 1, 2, 3])) is not None  # off-list
    assert checker.check_output(inst, sat_text([1, 2, 1, 2, 1])) is not None  # improper
    assert checker.check_output(inst, sat_text([1, 2, 1, 3])) is not None     # partial
    assert checker.check_output(inst, sat_text([1, 2, 1, 3, 2])) is None


def test_rejects_a_wrong_status():
    assert checker.check_output(instance(5, C5), "UNSAT\n") is not None
    unsat = instance(5, C5, [0b011] * 5)
    assert checker.check_output(unsat, sat_text([1, 2, 1, 2, 2])) is not None
    member = instance(5, C5)
    assert checker.check_output(member, "INVALID\nwitness triangle 1 2 3\n") is not None
    assert checker.check_output(member, "MAYBE\n") is not None


def test_rejects_a_chorded_p7():
    text = "INVALID\nwitness induced_p7 1 2 3 4 5 6 7\n"
    assert checker.check_output(instance(7, P7, in_class=False), text) is None
    chorded = instance(7, P7 + [(0, 3)], in_class=False)
    assert checker.check_output(chorded, text) is not None
    assert checker.check_output(chorded, "INVALID\nwitness structure_breach 1 2\n") is not None


def test_checks_triangle_witnesses():
    tri = instance(4, [(0, 1), (1, 2), (0, 2), (2, 3)], in_class=False)
    assert checker.check_output(tri, "INVALID\nwitness triangle 1 2 3\n") is None
    assert checker.check_output(tri, "INVALID\nwitness triangle 2 3 4\n") is not None


def test_rejects_an_answer_that_misses_a_planted_violation():
    tri = instance(4, [(0, 1), (1, 2), (0, 2), (2, 3)], in_class=False, mode="verify")
    assert checker.check_output(tri, sat_text([1, 2, 3, 1])) is not None
    assert checker.check_output(tri, "UNSAT\n") is not None
    p7 = instance(7, P7, in_class=False, mode="verify")
    assert checker.check_output(p7, sat_text([1, 2, 1, 2, 1, 2, 1])) is not None


def test_flags_decisions_that_raise():
    inst = instance(5, C5)
    reply = {"errors": ["RecursionError"], "outputs": [None], "unsteady": []}
    assert run.check([inst], reply) != []
    inst.known_fault = "RecursionError"
    assert run.check([inst], reply) == []
    reply["errors"] = ["IndexError"]
    assert run.check([inst], reply) != []
    reply = {"errors": [None], "outputs": ["UNSAT\n"], "unsteady": []}
    assert run.check([inst], reply) != []  # checked once it stops raising


def test_flags_output_that_changes_between_passes():
    inst = instance(5, C5)
    reply = {"errors": [None], "outputs": [sat_text([1, 2, 1, 2, 3])], "unsteady": []}
    assert run.check([inst], reply) == []
    reply["unsteady"] = [0]
    assert run.check([inst], reply) != []


def test_reference_search_matches_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        masks = [rng.choice((FULL, FULL, 0b011, 0b101, 0b110, 1, 2, 4)) for _ in range(n)]
        bits = checker.adjacency_bits(n, edges)
        found = checker.reference_colouring(n, checker.neighbour_lists(bits), masks)
        assert (found is not None) == brute_colourable(n, edges, masks)
        if found is not None:
            assert checker.is_proper_list_colouring(bits, masks, found)


def test_promise_search_matches_brute_force():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(7, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        bits = checker.adjacency_bits(n, edges)
        assert checker.has_induced_p7(bits) == brute_has_induced_p7(n, edges)


def test_generated_inputs_are_in_the_class():
    rng = random.Random(5)
    for size in (12, 20, 35, 50, 70):
        for _ in range(10):
            n, edges = workloads.skeleton_candidate(rng, size)
            assert n == size and in_the_class(n, edges)
    for a, b in ((12, 5), (30, 8)):
        assert in_the_class(*workloads.chain_graph(rng, a, b))
    assert in_the_class(*workloads.blowup([2] * 7))


def test_same_seed_same_inputs():
    first = list(workloads.generate("verify_promise", 7))
    again = list(workloads.generate("verify_promise", 7))
    assert [i.text for i in first] == [i.text for i in again]
    assert [i.expected for i in first].count("INVALID") == 4
    faults = [i.name for i in workloads.generate("bipartite_fallback", 7) if i.known_fault]
    assert faults == ["k1500x2"]
