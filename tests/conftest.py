"""Shared test helpers: independent witness checkers and graph strategies."""

from itertools import combinations

import pytest
from hypothesis import strategies as st

from lcol3 import build_graph, check_promise, engine
from lcol3.cli import (DuplicateEdgeError, DuplicateListLineError,
                       EmptyListError, InstanceSyntaxError, OutOfRangeError,
                       ParseError)
from lcol3.engine import (_SIZE, FULL_MASK, anchor_seeds, colours_of,
                          mask_of, normalize_lists, verify_colouring)
from lcol3.errors import InternalError, PreconditionBreach
from lcol3.graph import DuplicateEdgeError as GraphDuplicateEdgeError
from lcol3.graph import iter_bits
from lcol3.recognition import _extract_odd_cycle


def neighbour_tuples(graph):
    """Each vertex's neighbours as an ascending tuple, read from its bit
    row: the neighbour lists that the reference searches below walk."""
    return [tuple(iter_bits(row)) for row in graph.bits]


def brute_triangle_free(graph):
    return all(
        not (graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c))
        for a, b, c in combinations(range(graph.n), 3))


def seeds_of_branch(sk, palette, branch):
    """All seeds of one branch, a pick from each of the anchor colouring's
    choice lists: the anchor colouring's own seeds, then each picked seed
    list's."""
    seeds = anchor_seeds(sk, palette)
    for picked in branch:
        if picked is not None:
            seeds.extend(picked)
    return seeds


def subset_induces_path(graph, subset):
    """Independent path test on a vertex subset: right edge count, degree
    multiset of a path, and connectivity."""
    subset = list(subset)
    k = len(subset)
    edges = [(u, v) for u, v in combinations(subset, 2) if graph.has_edge(u, v)]
    if len(edges) != k - 1:
        return False
    deg = {v: 0 for v in subset}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if sorted(deg.values()) != [1, 1] + [2] * (k - 2):
        return False
    seen = {subset[0]}
    frontier = [subset[0]]
    while frontier:
        x = frontier.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return len(seen) == k


def brute_has_induced_p7(graph):
    return any(subset_induces_path(graph, s)
               for s in combinations(range(graph.n), 7))


def reference_induced_p7(graph):
    """An induced 7-vertex path in path order, or None, by the end-first
    depth-first search: a path grows by a neighbour of its last vertex that
    sees no earlier one.  Independent of the solver's middle-out search,
    which the tests check against it."""
    bits = graph.bits
    path = []

    def extend(v, blocked):
        # blocked: the path so far and every neighbour of its vertices
        # before v
        path.append(v)
        if len(path) == 7:
            return True
        new_blocked = blocked | bits[v] | (1 << v)
        for w in iter_bits(bits[v] & ~blocked & ~(1 << v)):
            if extend(w, new_blocked):
                return True
        path.pop()
        return False

    for start in range(graph.n):
        if extend(start, 1 << start):
            return tuple(path)
    return None


def reference_find_induced_p7(graph):
    """The induced-P7 search as it stood before its per-centre masks, kept
    verbatim: it rebuilds both side lists for every centre and every
    non-adjacent pair of its neighbours.  find_induced_p7 must return the
    same value, path or None, on every graph."""
    n = graph.n
    if n < 7:
        return None
    adj = neighbour_tuples(graph)
    bits = graph.bits
    for c in range(n):
        row_c = bits[c]
        around = adj[c]
        for i, a1 in enumerate(around):
            row_a1 = bits[a1]
            for b1 in around[i + 1:]:
                if row_a1 >> b1 & 1:
                    continue
                row_b1 = bits[b1]
                common = row_c | row_a1 | row_b1
                # each side's second vertices that leave a third one open
                off_a2 = row_c | row_b1
                a_side = [(a2, bits[a2]) for a2 in adj[a1]
                          if not off_a2 >> a2 & 1 and bits[a2] & ~common]
                if not a_side:
                    continue
                off_b2 = row_c | row_a1
                b_side = [(b2, bits[b2]) for b2 in adj[b1]
                          if not off_b2 >> b2 & 1 and bits[b2] & ~common]
                for a2, row_a2 in a_side:
                    for b2, row_b2 in b_side:
                        if row_a2 >> b2 & 1:
                            continue
                        a3s = row_a2 & ~(common | row_b2)
                        b3s = row_b2 & ~(common | row_a2)
                        while a3s and b3s:
                            low = a3s & -a3s
                            a3 = low.bit_length() - 1
                            free = b3s & ~bits[a3]
                            if free:
                                b3 = (free & -free).bit_length() - 1
                                return (a3, a2, a1, c, b1, b2, b3)
                            a3s ^= low
    return None


def reference_shortest_odd_cycle(graph):
    """A minimum-length odd cycle, or None, by the full parity BFS: roots
    ascending, each BFS stopped only when it can no longer beat the best
    walk so far, so a triangle search still runs from every root after a
    C5 is found.  Within the winning root, the first same-level edge in
    (a, b) order.  The solver's search, which looks for a triangle first
    and stops at the first C5, must return the same list."""
    n = graph.n
    bits = graph.bits
    full = (1 << n) - 1
    best_len = None
    best = None
    for s in range(n):
        dmax = n if best_len is None else (best_len - 3) // 2
        if dmax < 1:
            break
        seen = level = 1 << s
        d = 0
        while level and d < dmax:
            d += 1
            nxt = 0
            for u in iter_bits(level):
                nxt |= bits[u]
            level = nxt & full & ~seen
            seen |= level
            hit = None
            for a in iter_bits(level):
                higher = bits[a] & level & ~((1 << (a + 1)) - 1)
                if higher:
                    hit = (a, (higher & -higher).bit_length() - 1)
                    break
            if hit is not None:
                best_len = 2 * d + 1
                best = (s, hit[0], hit[1], d)
                break
    if best is None:
        return None
    return _extract_odd_cycle(graph, *best)


def reference_anchor_classes(graph, c5):
    """The T and D sets of an anchored C5 as five int masks each, or None
    where build_skeleton must raise while classifying: a vertex seeing two
    consecutive anchors, or an edge inside a T or D set.  Walks every
    vertex's neighbour tuple, in the way build_skeleton once did; its walk
    over the anchors' bit rows must give the same."""
    adj = neighbour_tuples(graph)
    bits = graph.bits
    pos = {v: i for i, v in enumerate(c5)}
    t_sets = [0] * 5
    d_sets = [0] * 5
    for v in range(graph.n):
        if v in pos:
            continue
        hits = sorted(pos[u] for u in adj[v] if u in pos)
        if not hits:
            continue
        for idx in range(len(hits)):
            i, j = hits[idx], hits[(idx + 1) % len(hits)]
            if i != j and ((j - i) % 5 == 1 or (i - j) % 5 == 1):
                return None
        if len(hits) == 1:
            d_sets[hits[0]] |= 1 << v
        else:
            p, q = hits
            mid = (p + 1) % 5 if (q - p) % 5 == 2 else (q + 1) % 5
            t_sets[mid] |= 1 << v
    for i in range(5):
        for v in iter_bits(t_sets[i]):
            if bits[v] & t_sets[i]:
                return None
        for v in iter_bits(d_sets[i]):
            if bits[v] & d_sets[i]:
                return None
    return t_sets, d_sets


def reference_peel(graph, masks, kept):
    """The set of vertices of the bitmask `kept` that the naive peeling loop
    leaves: sweep the vertices left, remove each one with more colours than
    neighbours left, and sweep again until a sweep removes none.  The
    fixpoint does not depend on the order of removal, so layer 0's queue
    must leave the same set."""
    adj = neighbour_tuples(graph)
    left = set(iter_bits(kept))
    changed = True
    while changed:
        changed = False
        for v in sorted(left):
            colours = bin(masks[v]).count("1")
            if colours > sum(1 for u in adj[v] if u in left):
                left.discard(v)
                changed = True
    return left


def reference_removable(graph, masks, left, settled=frozenset()):
    """(peelable, dominated) within the vertex set `left`, by brute force:
    v in left is peelable when it has fewer neighbours in left than colours,
    and dominated when some other u in left or in `settled` has every
    neighbour of v in left as a neighbour and a list inside v's.  The
    layer-0 sweep must remove only such vertices, one at a time, and stop
    where both sets are empty."""
    adj = neighbour_tuples(graph)
    nbrs = {v: {u for u in adj[v] if u in left} for v in left}
    peelable = {v for v in left if bin(masks[v]).count("1") > len(nbrs[v])}
    dominated = {v for v in left
                 if any(u != v and nbrs[v] <= set(adj[u])
                        and masks[u] & ~masks[v] == 0
                        for u in left | settled)}
    return peelable, dominated


def reference_sweep(graph, masks, kept, settled):
    """engine._peel as it stood before its witness rule, kept verbatim: the
    dominator candidates of v are those adjacent to v's lowest and highest
    neighbour, and they are tested one at a time.  engine._peel must return
    the same (rest, removed, dominated) on every input."""
    bits = graph.bits
    inside = [0] * 7 + [-1]  # inside[m]: the vertices whose list lies inside m
    for v, m in enumerate(masks):
        if m != FULL_MASK:
            inside[m] |= 1 << v
    for m in (3, 5, 6):  # a two-colour list holds its two one-colour lists
        inside[m] |= inside[m & -m] | inside[m & (m - 1)]
    removed = []
    rest = due = kept
    dominated = 0
    while due:
        low = due & -due
        due ^= low
        v = low.bit_length() - 1
        row = bits[v] & rest
        m = masks[v]
        if row.bit_count() >= _SIZE[m]:
            # row is not empty: a dominator of v is adjacent to its lowest
            # and its highest neighbour
            cand = (inside[m] & (rest | settled)
                    & bits[(row & -row).bit_length() - 1]
                    & bits[row.bit_length() - 1]) ^ low
            while cand:
                u = cand.bit_length() - 1
                if not row & ~bits[u]:
                    break
                cand ^= 1 << u
            else:
                continue
            dominated += 1
        removed.append(v)
        rest ^= low
        due |= row
    return rest, removed, dominated


def reference_colouring_fits(graph, masks, colouring):
    """engine._colouring_fits as it stood before its colour-class masks,
    kept verbatim: a list check per vertex, then a walk over every edge."""
    if len(colouring) != graph.n:
        return False
    for v in range(graph.n):
        c = colouring[v]
        if c not in (1, 2, 3) or not masks[v] & (1 << (c - 1)):
            return False
    adj = neighbour_tuples(graph)
    for u in range(graph.n):
        cu = colouring[u]
        for v in adj[u]:
            if v > u and colouring[v] == cu:
                return False
    return True


def reference_oracle_solve(graph, lists=None):
    """testkit.oracle_solve as it stood before its heap, kept verbatim:
    pick rescans every vertex for the least (list size, vertex) among the
    uncoloured ones.  oracle_solve must return the same colouring or None
    on every input."""
    masks = normalize_lists(graph.n, lists)
    n = graph.n
    adj = neighbour_tuples(graph)
    work = list(masks)
    colouring = [0] * n

    def pick():
        best = None
        best_size = 4
        for v in range(n):
            if colouring[v] == 0:
                s = _SIZE[work[v]]
                if s < best_size:
                    best, best_size = v, s
                    if s == 1:
                        break
        return best

    stack = []  # per coloured vertex: it, its colours left, neighbours pruned
    v = pick()
    while v is not None:
        stack.append((v, iter(colours_of(work[v])), []))
        while True:  # the top vertex's next colour that empties no list
            if not stack:
                return None
            v, colours, touched = stack[-1]
            for u in touched:
                work[u] |= 1 << (colouring[v] - 1)
            touched.clear()
            c = colouring[v] = next(colours, 0)
            if not c:
                stack.pop()
                continue
            cbit = 1 << (c - 1)
            for u in adj[v]:
                if colouring[u] == 0 and work[u] & cbit:
                    work[u] &= ~cbit
                    touched.append(u)
                    if work[u] == 0:
                        break
            else:
                break
        v = pick()
    if not verify_colouring(graph, masks, colouring):
        raise InternalError("oracle colouring failed its re-check")
    return colouring


def reference_full_vertex_search(st):
    """engine._full_vertex_search as it stood before it found each node's
    lowest full-list vertex by one scan, kept verbatim with the leaf
    generator it ran on (each reads propagate and _two_sat_leaf from the
    engine module): each node resumes the scan where its parent branched,
    kept per depth of the current path, and the search loops over the
    generator's leaves itself.  Its seeds alone changed since: they are
    (vertex bitmask, colour) pairs, as ListState.assign_all takes them.
    engine._full_vertex_search must return the same colouring and count
    the same nodes on every input."""
    stats = st.stats
    stats.fallback_used += 1
    path = [0]  # path[d]: where the scan starts at depth d of the current path

    def children(node, depth):
        masks = node.masks
        i = path[depth]
        while i < len(masks) and masks[i] != FULL_MASK:
            i += 1
        if i == len(masks):
            return None
        del path[depth + 1:]
        path.append(i)
        stats.fallback_nodes += 1
        return ((1 << i, 1),), ((1 << i, 2),), ((1 << i, 3),)

    for leaf in _reference_leaf_stream(st, children):
        result = engine._two_sat_leaf(leaf)
        if result is not None:
            return result
    return None


def _reference_leaf_stream(root, children):
    """engine._leaf_stream as it stood when it yielded each leaf to its
    caller, kept verbatim; its seed lists hold (vertex bitmask, colour)
    pairs, as engine._leaf_stream's do."""
    stats = root.stats
    stack = []
    node = root
    while True:
        kids = children(node, len(stack))
        if kids is None:
            stats.branches_survived += 1
            yield node
        else:
            stack.append((node, iter(kids)))
        node = None
        while node is None:
            if not stack:
                return
            parent, kids = stack[-1]
            seeds = next(kids, None)
            if seeds is None:
                stack.pop()
                continue
            stats.branches += 1
            child = parent.copy()
            node = engine.propagate(child) if child.assign_all(seeds) else None


def reference_normalize_lists(n, lists):
    """engine.normalize_lists as it stood before its all-masks fast path,
    kept verbatim: every entry goes through the per-vertex loop."""
    if lists is None:
        return [FULL_MASK] * n
    if len(lists) != n:
        raise ValueError("list count does not match vertex count")
    out = []
    for v, entry in enumerate(lists):
        if isinstance(entry, int):
            m = entry
            if not 0 < m <= FULL_MASK:
                raise ValueError(f"bad colour mask {m} at vertex {v}")
        else:
            m = mask_of(entry)
            if m == 0:
                raise ValueError(f"empty colour list at vertex {v}")
        out.append(m)
    return out


def false_twin_classes(graph):
    """Partition of the vertices into classes of equal neighbourhood, as int
    bitmasks in order of smallest member."""
    groups = {}
    for v, row in enumerate(graph.bits):
        groups[row] = groups.get(row, 0) | 1 << v
    return list(groups.values())


def reference_twin_representatives(graph, masks):
    """engine._twin_representatives as it stood before its one-mask
    shortcut, kept verbatim: every class of two or more vertices goes
    through the minimal-mask search."""
    rep = list(range(graph.n))
    classes = {}  # bit row -> its vertices ascending: the false-twin classes
    for v, row in enumerate(graph.bits):
        classes.setdefault(row, []).append(v)
    for cl in classes.values():
        if len(cl) == 1:
            continue
        first = {}
        for v in cl:
            first.setdefault(masks[v], v)
        kept = sorted(u for m, u in first.items()
                      if not any(o != m and o & ~m == 0 for o in first))
        pick = {m: next(u for u in kept if masks[u] & ~m == 0) for m in first}
        for v in cl:
            rep[v] = pick[masks[v]]
    return rep


def reference_parse_lines(lines):
    """The instance parser as it stood before its lookup tables, kept
    verbatim: int() on every vertex token and a loop over every list's
    digits.  cli._parse_lines must accept the same texts with the same
    results and reject the rest with the same error."""
    n = None
    m_declared = None
    edge_count = 0
    rows = None
    masks = None
    listed = set()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise InstanceSyntaxError(lineno, "edge before problem line")
            if len(parts) != 3:
                raise InstanceSyntaxError(lineno, "expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InstanceSyntaxError(lineno, "non-integer endpoints") from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise OutOfRangeError(lineno, f"vertex outside 1..{n}")
            if u == v:
                raise InstanceSyntaxError(lineno, "self-loop")
            rows[u - 1].append(v - 1)
            rows[v - 1].append(u - 1)
            edge_count += 1
        elif kind.startswith("c"):
            continue
        elif kind == "p":
            if n is not None:
                raise InstanceSyntaxError(lineno, "repeated problem line")
            if len(parts) != 4 or parts[1] != "lcol":
                raise InstanceSyntaxError(lineno, "expected 'p lcol <n> <m>'")
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise InstanceSyntaxError(lineno, "non-integer problem sizes") from None
            if n < 0 or m_declared < 0:
                raise InstanceSyntaxError(lineno, "negative problem sizes")
            rows = [[] for _ in range(n)]
            masks = [FULL_MASK] * n
        elif kind == "l":
            if n is None:
                raise InstanceSyntaxError(lineno, "list before problem line")
            if len(parts) != 3:
                raise InstanceSyntaxError(lineno, "expected 'l <v> <digits>'")
            try:
                v = int(parts[1])
            except ValueError:
                raise InstanceSyntaxError(lineno, "non-integer vertex") from None
            if not 1 <= v <= n:
                raise OutOfRangeError(lineno, f"vertex outside 1..{n}")
            if v in listed:
                raise DuplicateListLineError(lineno, f"second list for vertex {v}")
            listed.add(v)
            digits = parts[2]
            if not digits:
                raise EmptyListError(lineno, "empty colour list")
            mask = 0
            prev = 0
            for ch in digits:
                if ch not in "123":
                    raise InstanceSyntaxError(lineno, f"colour '{ch}' outside {{1,2,3}}")
                if int(ch) <= prev:
                    raise InstanceSyntaxError(lineno, "digits must be ascending")
                prev = int(ch)
                mask |= 1 << (int(ch) - 1)
            if mask == 0:
                raise EmptyListError(lineno, "empty colour list")
            masks[v - 1] = mask
        else:
            raise InstanceSyntaxError(lineno, f"unknown line type '{kind}'")
    if n is None:
        raise InstanceSyntaxError(0, "missing problem line")
    if edge_count != m_declared:
        raise InstanceSyntaxError(0, f"problem line declares {m_declared} edges, "
                                     f"found {edge_count}")
    # each edge once, from its smaller end's row; a repeat stays repeated
    return build_graph(n, [(u, v) for u, row in enumerate(rows)
                           for v in row if u < v]), masks


def reference_parse_instance(text):
    """reference_parse_lines on the lines of `text`, with the rule that
    cli._parse_lines applies as it reads: the first error in line order
    wins, a repeated edge included, although reference_parse_lines leaves
    repeats to the graph constructor, after the last line.  So on any error
    (line 0: after the last line) the edge lines before it are searched for
    the first one that repeats an earlier edge, reading every vertex with
    int()."""
    lines = text.splitlines()
    try:
        return reference_parse_lines(lines)
    except (ParseError, GraphDuplicateEdgeError) as exc:
        stop = getattr(exc, "line", 0) or len(lines) + 1
        seen = set()
        for lineno, raw in enumerate(lines[:stop - 1], start=1):
            parts = raw.split()
            if parts[:1] == ["e"]:
                u, v = int(parts[1]), int(parts[2])
                if frozenset((u, v)) in seen:
                    raise DuplicateEdgeError(lineno, f"duplicate edge {u} {v}") from None
                seen.add(frozenset((u, v)))
        raise



def check_witness(graph, violation):
    """Independent verification of an emitted promise-violation witness."""
    vs = violation.vertices
    if violation.kind == "triangle":
        a, b, c = vs
        return (graph.has_edge(a, b) and graph.has_edge(b, c)
                and graph.has_edge(a, c))
    if violation.kind == "induced_p7":
        if len(vs) != 7 or len(set(vs)) != 7:
            return False
        for i in range(7):
            for j in range(i + 1, 7):
                if graph.has_edge(vs[i], vs[j]) != (j == i + 1):
                    return False
        return True
    return False


def breach_witness(graph, build, *args):
    """Check that build(graph, *args) raises PreconditionBreach and that
    check_promise names a witness on the graph that check_witness accepts;
    returns that witness."""
    with pytest.raises(PreconditionBreach):
        build(graph, *args)
    violation = check_promise(graph)
    assert violation is not None and check_witness(graph, violation)
    return violation


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, chosen)
