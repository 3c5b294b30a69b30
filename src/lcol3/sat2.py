"""Complete 2-SAT solver via strongly connected components of the
implication graph.

Literal encoding: 2*v for the positive literal of variable v, 2*v+1 for its
negation.  The SCC computation is iterative so deep implication chains do
not hit the recursion limit.
"""

from .errors import InternalError


def pos(var):
    return 2 * var


def neg(var):
    return 2 * var + 1


def negate(lit):
    return lit ^ 1


class TwoSatInstance:
    """var_count variables and a list of clauses, each a pair of literals;
    add_clause appends to it."""

    __slots__ = ("var_count", "clauses")

    def __init__(self, var_count):
        self.var_count = var_count
        self.clauses = []


def add_clause(inst, lit1, lit2):
    """Append the clause (lit1 ∨ lit2); duplicates are permitted."""
    for lit in (lit1, lit2):
        if not (0 <= lit < 2 * inst.var_count):
            raise ValueError(f"literal {lit} out of range for "
                             f"{inst.var_count} variables")
    inst.clauses.append((lit1, lit2))
    return inst


def solve_2sat(inst):
    """A satisfying assignment (list of bools), or None.

    Unsatisfiable iff some variable shares a strongly connected component
    with its negation; otherwise each variable takes the value whose literal
    component comes later in topological order (earlier in the order Tarjan
    emits components).
    """
    nlits = 2 * inst.var_count
    adj = [[] for _ in range(nlits)]
    for l1, l2 in inst.clauses:
        adj[negate(l1)].append(l2)
        adj[negate(l2)].append(l1)

    comp = _tarjan_components(nlits, adj)

    assignment = []
    for v in range(inst.var_count):
        cp, cn = comp[pos(v)], comp[neg(v)]
        if cp == cn:
            return None
        assignment.append(cp < cn)

    for l1, l2 in inst.clauses:
        if not (_lit_value(assignment, l1) or _lit_value(assignment, l2)):
            raise InternalError(f"2-SAT assignment violates clause ({l1}, {l2})")
    return assignment


def _lit_value(assignment, lit):
    value = assignment[lit >> 1]
    return value if lit & 1 == 0 else not value


def _tarjan_components(n, adj):
    """Component id per node; ids increase in emission order (reverse
    topological order of the condensation)."""
    index = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    comp = [-1] * n
    stack = []
    counter = 0
    comp_count = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            neighbours = adj[v]
            while ei < len(neighbours):
                w = neighbours[ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp[w] = comp_count
                    if w == v:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return comp
