import random

import pytest

from lcol3 import sat2
from lcol3.errors import InternalError
from lcol3.sat2 import TwoSatInstance, add_clause, neg, pos, solve_2sat


def brute_force_sat(inst):
    """Bit-parallel truth-table check: column c of variable v holds v's value
    across all assignments; a clause's satisfied-set is the OR of its
    literal columns."""
    rows = 1 << inst.var_count
    cols = []
    for v in range(inst.var_count):
        block = (1 << (1 << v)) - 1
        col = 0
        shift = 0
        while shift < rows:
            col |= block << (shift + (1 << v))
            shift += 1 << (v + 1)
        cols.append(col)
    full = (1 << rows) - 1
    feasible = full
    for l1, l2 in inst.clauses:
        c1 = cols[l1 >> 1] if l1 & 1 == 0 else full & ~cols[l1 >> 1]
        c2 = cols[l2 >> 1] if l2 & 1 == 0 else full & ~cols[l2 >> 1]
        feasible &= c1 | c2
    return feasible != 0


def test_single_literal_clause_forces():
    inst = TwoSatInstance(1)
    add_clause(inst, pos(0), pos(0))
    assert solve_2sat(inst) == [True]


def test_add_clause_appends():
    inst = TwoSatInstance(2)
    add_clause(inst, pos(0), neg(1))
    assert inst.clauses == [(0, 3)]


def test_add_clause_rejects_out_of_range():
    inst = TwoSatInstance(1)
    with pytest.raises(ValueError,
                       match=r"^literal 2 out of range for 1 variables$"):
        add_clause(inst, pos(0), pos(1))


def test_implication_example():
    inst = TwoSatInstance(2)
    add_clause(inst, pos(0), pos(1))
    add_clause(inst, neg(0), pos(1))
    solution = solve_2sat(inst)
    assert solution is not None and solution[1] is True


def test_contradiction_unsat():
    inst = TwoSatInstance(2)
    add_clause(inst, pos(0), pos(1))
    add_clause(inst, pos(0), neg(1))
    add_clause(inst, neg(0), pos(1))
    add_clause(inst, neg(0), neg(1))
    assert solve_2sat(inst) is None


def _random_instance(rng):
    nvars = rng.randint(1, 15)
    inst = TwoSatInstance(nvars)
    for _ in range(rng.randint(0, 4 * nvars)):
        l1 = rng.randrange(2 * nvars)
        l2 = rng.randrange(2 * nvars)
        add_clause(inst, l1, l2)
    return inst


def test_random_instances_match_truth_table():
    rng = random.Random(1234)
    for _ in range(300):
        inst = _random_instance(rng)
        solution = solve_2sat(inst)
        assert (solution is not None) == brute_force_sat(inst)


def test_deep_implication_chain_is_iterative():
    n = 30_000
    inst = TwoSatInstance(n)
    for v in range(n - 1):
        add_clause(inst, neg(v), pos(v + 1))
    add_clause(inst, pos(0), pos(0))
    solution = solve_2sat(inst)
    assert solution is not None and solution[0] and solution[-1]


def test_assignment_breaking_a_clause_raises(monkeypatch):
    # Every literal in its own component sets every variable true, which
    # breaks the clause (not x0 or not x0).
    monkeypatch.setattr(sat2, "_tarjan_components", lambda n, adj: list(range(n)))
    inst = add_clause(TwoSatInstance(1), neg(0), neg(0))
    with pytest.raises(InternalError):
        solve_2sat(inst)
