"""Structure recognition: triangles, induced 7-vertex paths, shortest odd
cycles, false-twin classes, and the blown-up-C7 decomposition.

check_promise is the only producer of promise-violation witnesses, and every
witness it returns is verified against the graph first.
recognize_blownup_c7 raises PreconditionBreach when the graph is not a
blown-up C7; it builds no witness of its own.
"""

from collections import deque, namedtuple

from .errors import InternalError, PreconditionBreach
from .graph import induced_subgraph, iter_bits

TRIANGLE = "triangle"
INDUCED_P7 = "induced_p7"


class PromiseViolation(namedtuple("PromiseViolation", "kind vertices")):
    """Witness that the input graph is outside the promise class.

    kind is "triangle" (3 mutually adjacent vertices) or "induced_p7"
    (7 vertices inducing a path, in path order).
    """

    __slots__ = ()

    def relabel(self, mapping):
        return PromiseViolation(self.kind, tuple(mapping[v] for v in self.vertices))


class TwinDecomposition(namedtuple("TwinDecomposition",
                                    "classes representatives")):
    """Partition of a C5-free graph into the seven stable classes of a
    blown-up C7, as int bitmasks in cyclic order; representatives lie on the
    base cycle."""

    __slots__ = ()


def is_triangle(graph, vertices):
    a, b, c = vertices
    if len({a, b, c}) != 3:
        return False
    return graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c)


def is_induced_path(graph, vertices):
    """True iff the vertices, in the given order, induce a path."""
    k = len(vertices)
    if len(set(vertices)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = graph.has_edge(vertices[i], vertices[j])
            if adjacent != (j == i + 1):
                return False
    return True


def triangle_witness(graph, a, b, c):
    if not is_triangle(graph, (a, b, c)):
        raise InternalError(f"triangle witness {(a, b, c)} did not verify")
    return PromiseViolation(TRIANGLE, tuple(sorted((a, b, c))))


def p7_witness(graph, vertices):
    vertices = tuple(vertices)
    if len(vertices) != 7 or not is_induced_path(graph, vertices):
        raise InternalError(f"induced-P7 witness {vertices} did not verify")
    return PromiseViolation(INDUCED_P7, vertices)


def find_triangle(graph):
    """First triangle in edge order, or None if the graph is triangle-free."""
    bits = graph.bits
    for u in range(graph.n):
        row_u = bits[u]
        for v in graph.adj[u]:
            if v <= u:
                continue
            common = row_u & bits[v]
            if common:
                w = (common & -common).bit_length() - 1
                return tuple(sorted((u, v, w)))
    return None


def find_induced_p7(graph):
    """An induced 7-vertex path in path order, or None.  Correct on any
    graph, triangles included.

    Middle-out search around the centre c = path[3].  A path
    a3 a2 a1 c b1 b2 b3 is induced iff a1, b1 are non-adjacent neighbours
    of c; a2 is a neighbour of a1 outside N(c) | N(b1); b2 is a neighbour
    of b1 outside N(c) | N(a1) | N(a2); and, with
    common = N(c) | N(a1) | N(b1) (which holds the five middle vertices),
    a3 lies in A3 = N(a2) - common - N(b2), b3 in
    B3 = N(b2) - common - N(a2), and a3, b3 are non-adjacent.  B3 misses
    N(a2), so a3 != b3.  The last step is therefore one mask test: some a3
    in A3 has B3 & ~N(a3) non-empty.

    Every induced P7 is found: its centre, read with the smaller of the
    centre's two path neighbours as a1, gives the path or its reverse, and
    each of its vertices passes the filter of its step.  Taking a1 < b1
    picks one of the two orientations, so each induced P5 a2 a1 c b1 b2 is
    visited at most once, at a cost of O(1 + |A3|) n-bit mask operations.

    Cost before any P5 is built.  One table per graph, dom[c], holds the
    vertices v with N(v) a subset of N(c), c itself included: for each
    non-isolated v the AND of its neighbours' bit rows is exactly the set
    of such c, so the table costs O(m + sum of |dom[c]|) mask operations.
    For each centre c one mask, ext = N(N(c)) - N(c) - dom[c], then holds
    the vertices outside N(c) that have a neighbour in N(c) and one outside
    it.  Every a2 and b2 lies in ext, since it sees a1 or b1 and its third
    vertex avoids N(c); ext is a superset of the second vertices that can
    start a side, on any graph.  Each neighbour x of c keeps
    D(x) = N(x) & ext, and one with D(x) empty is dropped; a centre with
    fewer than two neighbours has no pair and is skipped.  A pair a1 < b1
    then costs O(1) mask operations: the candidate a2s are D(a1) - N(b1)
    and the candidate b2s D(b1) - N(a1), and the pair goes on to the join
    only when both are non-empty.  Each centre costs O(deg(c)) mask
    operations to set up.  The visiting order (c ascending, a1 < b1 in
    adjacency order, a2 and b2 ascending) does not depend on the masks,
    which only drop candidates that could not lead to a path.  The search
    is iterative, so its depth does not grow with n.
    """
    n = graph.n
    if n < 7:
        return None
    adj = graph.adj
    bits = graph.bits
    # dom[c]: the non-isolated v with N(v) inside N(c); c is one of them
    # whenever it has a neighbour, and isolated vertices never reach ext
    dom = [0] * n
    for v in range(n):
        nbrs = adj[v]
        if nbrs:
            above = bits[nbrs[0]]
            for x in nbrs[1:]:
                above &= bits[x]
            bit_v = 1 << v
            for c in iter_bits(above):
                dom[c] |= bit_v
    for c in range(n):
        nbrs = adj[c]
        if len(nbrs) < 2:
            continue
        row_c = bits[c]
        reach = 0
        for x in nbrs:
            reach |= bits[x]
        ext = reach & ~row_c & ~dom[c]
        if not ext:
            continue
        around = [(x, row_x, d_x) for x in nbrs
                  if (d_x := (row_x := bits[x]) & ext)]
        for i, (a1, row_a1, d_a1) in enumerate(around):
            for b1, row_b1, d_b1 in around[i + 1:]:
                if row_a1 >> b1 & 1:
                    continue
                a2s = d_a1 & ~row_b1
                if not a2s:
                    continue
                b2s = d_b1 & ~row_a1
                if not b2s:
                    continue
                common = row_c | row_a1 | row_b1
                for a2 in iter_bits(a2s):
                    row_a2 = bits[a2]
                    if not row_a2 & ~common:
                        continue
                    for b2 in iter_bits(b2s & ~row_a2):
                        row_b2 = bits[b2]
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


def shortest_odd_cycle(graph):
    """A minimum-length odd cycle (vertex list), or None if bipartite.

    A triangle, if there is one, is find_triangle's, as [s, a, b]
    ascending.  Otherwise BFS from every vertex with parity-labelled levels:
    an edge inside one BFS level at depth d closes an odd walk of length
    2d+1 through the root, and the minimum over all roots is attained by a
    simple chordless cycle.  Deterministic: roots ascending, strict
    improvements only, and within the winning root the lexicographically
    first same-level edge.  With no triangle nothing beats a C5, so the
    search stops at the first one.

    The triangle is the one this BFS would report: s, the first root with
    a same-level edge at depth 1, is the smallest vertex on any triangle;
    a is the smallest neighbour of s on a triangle with s, and b the
    smallest common neighbour of s and a.  find_triangle reaches s first
    too, as every vertex before it is on no triangle, and there it picks
    the same a and b, since every neighbour of s on such a triangle is
    larger than s.
    """
    tri = find_triangle(graph)
    if tri is not None:
        return list(tri)
    n = graph.n
    bits = graph.bits
    full = (1 << n) - 1

    best_len = None
    best = None  # (root, edge endpoint a, endpoint b, depth)
    for s in range(n):
        if best_len is not None:
            # Only strictly shorter walks, of length five or more, matter.
            dmax = (best_len - 3) // 2
            if dmax < 2:
                break
        else:
            dmax = n
        seen = 1 << s
        level = 1 << s
        d = 0
        while level and d < dmax:
            d += 1
            nxt = 0
            for u in iter_bits(level):
                nxt |= bits[u]
            nxt &= full & ~seen
            level = nxt
            seen |= nxt
            if not level:
                break
            hit = None
            for a in iter_bits(level):
                higher = bits[a] & level & ~((1 << (a + 1)) - 1)
                if higher:
                    b = (higher & -higher).bit_length() - 1
                    hit = (a, b)
                    break
            if hit is not None:
                best_len = 2 * d + 1
                best = (s, hit[0], hit[1], d)
                break
    if best is None:
        return None
    return _extract_odd_cycle(graph, *best)


def _extract_odd_cycle(graph, s, a, b, depth):
    parent = [-1] * graph.n
    dist = [-1] * graph.n
    dist[s] = 0
    queue = deque([s])
    while queue:
        x = queue.popleft()
        if dist[x] >= depth:
            continue
        for y in graph.adj[x]:
            if dist[y] == -1:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)

    def chain(v):
        out = [v]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        return out

    up_a = chain(a)  # a .. s
    up_b = chain(b)  # b .. s
    cycle = up_a[::-1] + up_b[:-1]  # s .. a, b .. (below s)
    # At the global minimum the two parent chains share only the root.
    if len(cycle) != 2 * depth + 1 or len(set(cycle)) != len(cycle):
        raise InternalError(f"odd-cycle extraction gave {cycle} at depth {depth}")
    return cycle


def false_twin_classes(graph):
    """Partition of the vertices into classes of equal neighbourhood, as int
    bitmasks in order of smallest member."""
    groups = {}
    for v, row in enumerate(graph.bits):
        groups[row] = groups.get(row, 0) | 1 << v
    return list(groups.values())


def check_promise(graph):
    """None if the graph is triangle-free and P7-free, else a verified witness.

    Both searches run on the false-twin quotient, one vertex per class of
    equal neighbourhood, which answers the same as the graph: two false
    twins are non-adjacent with the same neighbours, so a triangle holds at
    most one vertex of each class, and no two vertices of an induced path
    on four or more vertices have the same neighbours on the path; either
    structure maps onto class representatives, and conversely the quotient
    is an induced subgraph.  Each class is represented by its smallest
    vertex, the first one met with its bit row, and the quotient keeps the
    graph's vertex order.

    The triangle is the one find_triangle would return on the graph: the
    first in edge order, (u, v, w) with u the smallest vertex on any
    triangle, v the smallest neighbour of u on a triangle with u, and w the
    smallest common neighbour of u and v.  A twin u' < u would lie on the
    triangle u' v w, so u is its class's minimum; by the same argument so
    are v and w.  All three are therefore in the quotient, whose monotone
    relabelling makes them its first triangle too.  The representatives
    are vertices of the graph, so either witness is checked against the
    graph in its own labels.
    """
    first = {}
    deque(map(first.setdefault, graph.bits, range(graph.n)), maxlen=0)
    quotient, ids = induced_subgraph(graph, sum(1 << v for v in first.values()))
    tri = find_triangle(quotient)
    if tri is not None:
        return triangle_witness(graph, *(ids[v] for v in tri))
    p7 = find_induced_p7(quotient)
    if p7 is not None:
        return p7_witness(graph, [ids[v] for v in p7])
    return None


def recognize_blownup_c7(graph, c7):
    """Classify every vertex against an induced 7-cycle of a connected,
    C5-free graph and return the twin classes.

    Every off-cycle vertex must see exactly two cycle vertices, at distance
    two, and joins the class of the cycle vertex between them; every vertex
    must then see exactly the two classes beside its own, which makes the
    classes stable, consecutive ones complete to each other and the rest
    anticomplete.  Raises PreconditionBreach when any of this fails.
    """
    c7 = tuple(c7)
    pos = {v: i for i, v in enumerate(c7)}
    classes = [1 << v for v in c7]
    for v in range(graph.n):
        if v in pos:
            continue
        hits = sorted(pos[u] for u in graph.adj[v] if u in pos)
        if len(hits) != 2 or hits[1] - hits[0] not in (2, 5):
            raise PreconditionBreach(f"vertex {v} sees 7-cycle positions {hits}")
        i, j = hits
        classes[(i + 1) % 7 if j - i == 2 else (j + 1) % 7] |= 1 << v

    bits = graph.bits
    for i in range(7):
        beside = classes[(i - 1) % 7] | classes[(i + 1) % 7]
        for v in iter_bits(classes[i]):
            if bits[v] != beside:
                raise PreconditionBreach(
                    f"vertex {v} of class {i} does not see exactly the two "
                    "classes beside it")
    return TwinDecomposition(tuple(classes), c7)
