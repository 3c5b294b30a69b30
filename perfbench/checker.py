"""Independent answers and output checks for the benchmark.

Nothing here imports the solver: graphs are the benchmark's own edge lists,
turned into neighbour bitmasks; the reference search is an iterative
backtracking list colourer; witnesses are checked directly on the edges.
"""

from __future__ import annotations

FULL = 0b111
SIZE = (0, 1, 1, 2, 1, 2, 2, 3)
COLOUR_OF = (0, 1, 2, 0, 3, 0, 0, 0)
TIE_SCAN = 256
FIRST_BUDGET = 2_000  # search nodes in the first round of restarts
ROUNDS = 6            # rounds of restarts, the budget growing fourfold each


class SearchBudgetExceeded(RuntimeError):
    """The reference search gave up on an input; set-up stops."""


def adjacency_bits(n, edges):
    bits = [0] * n
    for u, v in edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def neighbour_lists(bits):
    out = []
    for row in bits:
        nbrs = []
        while row:
            low = row & -row
            nbrs.append(low.bit_length() - 1)
            row ^= low
        out.append(nbrs)
    return out


def reference_colouring(n, nbrs, masks):
    """A proper list colouring, or None if there is none.

    Backtracking run times are heavy-tailed and which branching order is
    fast differs from input to input, so the search is restarted with each
    tie-break order in turn, the node budget growing fourfold per round.
    Raises SearchBudgetExceeded when every attempt gives up.
    """
    budget = FIRST_BUDGET
    for _ in range(ROUNDS):
        for tie in TIE_BREAKS:
            try:
                return _search(n, nbrs, masks, tie, budget)
            except SearchBudgetExceeded:
                pass
        budget *= 4
    raise SearchBudgetExceeded(f"no answer within {budget // 4} search nodes")


TIE_BREAKS = ("any", "lowest", "connected")


def _search(n, nbrs, masks, tie, budget):
    """Iterative depth-first search for a list colouring.

    It branches on an uncoloured vertex with the fewest colours left; among
    those it takes any one, the lowest-numbered one, or (for "connected",
    up to TIE_SCAN candidates) the one with most coloured neighbours.  Each
    choice removes its colour from the neighbours' lists, undone on
    backtrack.  Raises SearchBudgetExceeded after `budget` branch nodes.
    """
    dom = list(masks)
    colour = [0] * n
    seen = [0] * n  # coloured neighbours
    buckets = [set(), set(), set(), set()]  # uncoloured vertices by list size
    for v in range(n):
        buckets[SIZE[dom[v]]].add(v)
    if buckets[0]:
        return None
    trail = []  # (vertex, old list) pairs to restore on backtrack
    stack = []  # (vertex, colours left to try, trail length at entry)
    nodes = 0

    def pick():
        for size in (1, 2, 3):
            bucket = buckets[size]
            if bucket:
                if tie == "lowest":
                    v = min(bucket)
                elif tie == "connected" and len(bucket) <= TIE_SCAN:
                    v = max(bucket, key=lambda u: (seen[u], -u))
                else:
                    v = next(iter(bucket))
                bucket.discard(v)
                return v
        return None

    def set_colour(v, c):
        colour[v] = c
        step = 1 if c else -1
        for u in nbrs[v]:
            seen[u] += step

    def undo(v, mark):
        set_colour(v, 0)
        while len(trail) > mark:
            u, old = trail.pop()
            buckets[SIZE[dom[u]]].discard(u)
            dom[u] = old
            buckets[SIZE[old]].add(u)

    v = pick()
    if v is None:
        return colour
    stack.append((v, dom[v], len(trail)))
    while stack:
        v, left, mark = stack.pop()
        if colour[v]:
            undo(v, mark)
        if not left:
            buckets[SIZE[dom[v]]].add(v)
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"more than {budget} search nodes")
        cbit = left & -left
        stack.append((v, left ^ cbit, mark))
        set_colour(v, COLOUR_OF[cbit])
        dead = False
        for u in nbrs[v]:
            if colour[u] == 0 and dom[u] & cbit:
                buckets[SIZE[dom[u]]].discard(u)
                trail.append((u, dom[u]))
                dom[u] ^= cbit
                if dom[u] == 0:
                    dead = True
                    break
                buckets[SIZE[dom[u]]].add(u)
        if dead:
            continue
        w = pick()
        if w is None:
            return colour
        stack.append((w, dom[w], len(trail)))
    return None


def is_proper_list_colouring(bits, masks, colouring):
    n = len(bits)
    if len(colouring) != n:
        return False
    by_colour = [0, 0, 0, 0]
    for v in range(n):
        c = colouring[v]
        if c not in (1, 2, 3) or not masks[v] & (1 << (c - 1)):
            return False
        by_colour[c] |= 1 << v
    return all(not bits[v] & by_colour[colouring[v]] for v in range(n))


def is_triangle(bits, vs):
    if len(vs) != 3 or len(set(vs)) != 3:
        return False
    a, b, c = vs
    return bool(bits[a] >> b & 1 and bits[b] >> c & 1 and bits[a] >> c & 1)


def is_induced_p7(bits, vs):
    if len(vs) != 7 or len(set(vs)) != 7:
        return False
    return all(bool(bits[vs[i]] >> vs[j] & 1) == (j == i + 1)
               for i in range(7) for j in range(i + 1, 7))


def false_twin_classes(bits):
    """Vertices grouped by equal neighbourhood (false twins)."""
    groups = {}
    for v, row in enumerate(bits):
        groups.setdefault(row, []).append(v)
    return list(groups.values())


def has_triangle(bits):
    return any(bits[u] & bits[v] for u, nbrs in enumerate(neighbour_lists(bits))
               for v in nbrs if v > u)


def has_induced_p7(bits):
    """True iff the graph has an induced 7-vertex path.

    Searched on the false-twin quotient: an induced path on four or more
    vertices holds at most one vertex of each false-twin class, so the
    quotient has an induced P7 exactly when the graph has one.
    """
    reps = [cl[0] for cl in false_twin_classes(bits)]
    index = {v: i for i, v in enumerate(reps)}
    q = [0] * len(reps)
    for i, v in enumerate(reps):
        row = bits[v]
        while row:
            low = row & -row
            j = index.get(low.bit_length() - 1)
            if j is not None:
                q[i] |= 1 << j
            row ^= low
    n = len(q)
    if n < 7:
        return False
    # Depth-first growth of induced paths; `blocked` holds the path and the
    # neighbours of all its vertices but the last.  A path and its reverse
    # are both met, so only paths ending above their start count.
    for start in range(n):
        stack = [(start, 1 << start, 1)]
        while stack:
            v, blocked, length = stack.pop()
            cand = q[v] & ~blocked
            grown = blocked | q[v] | 1 << v
            while cand:
                low = cand & -cand
                cand ^= low
                if length == 6:
                    if low.bit_length() - 1 > start:
                        return True
                    continue
                stack.append((low.bit_length() - 1, grown, length + 1))
    return False


def parse_result(text):
    """Split emitted solver text into (status, colouring or None, witness
    (kind, vertices) or None); raises ValueError on text outside the
    documented format."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    status = lines[0]
    if status == "SAT":
        colouring = []
        for k, line in enumerate(lines[1:], start=1):
            parts = line.split()
            if len(parts) != 3 or parts[0] != "v" or int(parts[1]) != k:
                raise ValueError(f"bad colour line {line!r}")
            colouring.append(int(parts[2]))
        return status, colouring, None
    if status == "UNSAT":
        if len(lines) != 1:
            raise ValueError("text after UNSAT")
        return status, None, None
    if status == "INVALID":
        parts = lines[1].split() if len(lines) > 1 else []
        if len(parts) < 2 or parts[0] != "witness":
            raise ValueError("INVALID without a witness line")
        return status, None, (parts[1], tuple(int(x) - 1 for x in parts[2:]))
    raise ValueError(f"unknown status {status!r}")


def check_output(inst, text):
    """None if the emitted text is a correct answer for the instance, else
    a one-line reason."""
    try:
        status, colouring, witness = parse_result(text)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    if status != "INVALID" and not inst.in_class and inst.mode == "verify":
        return f"{status} answer in verify mode on an input outside the class"
    if status == "SAT":
        if not is_proper_list_colouring(inst.bits, inst.masks, colouring):
            return "SAT colouring is not a proper list colouring"
        if inst.expected == "UNSAT":
            return "SAT answer where the reference search found none"
        return None
    if status == "UNSAT":
        if inst.expected != "UNSAT":
            return f"UNSAT answer where the reference search found {inst.expected}"
        return None
    if inst.in_class:
        return "INVALID answer on an input in the class by construction"
    kind, vs = witness
    if kind == "triangle" and is_triangle(inst.bits, vs):
        return None
    if kind == "induced_p7" and is_induced_p7(inst.bits, vs):
        return None
    return f"witness {kind} {[v + 1 for v in vs]} does not hold in the graph"
