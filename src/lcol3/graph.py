"""Immutable simple-graph core: dense integer vertices, each with an int bit
row of its neighbours.  A vertex set is an int bitmask, bit v standing for
vertex v; components and bipartiteness are computed on such masks, and a
walk over a vertex's neighbours reads its bit row by lowest set bit, so it
visits them in ascending order."""


class GraphError(ValueError):
    """Malformed graph input: a vertex out of range, a loop or a repeated
    edge, named in the message."""


def iter_bits(mask):
    """Yield set-bit positions of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1 with m edges,
    made by `build_graph`, `induced_subgraph` or the instance parser.

    `bits[u]` is the int bitmask of u's neighbours, the one adjacency
    structure: edge queries test a bit of it, neighbour walks read its set
    bits lowest first, and vertex sets are int bitmasks over 0..n-1.
    """

    __slots__ = ("n", "m", "bits")

    def __init__(self, n, bits, m):
        self.n = n
        self.bits = bits
        self.m = m

    def has_edge(self, u, v):
        return (self.bits[u] >> v) & 1 == 1

    def edges(self):
        """All edges as (u, v) with u < v, lexicographically ascending."""
        for u, row in enumerate(self.bits):
            for v in iter_bits(row & -(2 << u)):  # the neighbours above u
                yield (u, v)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n, edges):
    """Build a Graph from an edge list, rejecting loops and duplicates.

    Each edge is ORed into the bit rows of both its endpoints, through a
    table of powers of two local to the call.  A repeated edge sets no new
    bit, so the row popcounts then sum to less than twice the edge count;
    only then are the edges scanned again, and the GraphError names the
    first repeat as (min, max)."""
    if n < 0:
        raise GraphError("negative vertex count")
    edges = list(edges)  # scanned twice when an edge repeats
    power = [1 << v for v in range(n)]
    bits = [0] * n
    for u, v in edges:
        if not (0 <= u < n):
            raise GraphError(f"vertex {u} out of range [0, {n})")
        if not (0 <= v < n):
            raise GraphError(f"vertex {v} out of range [0, {n})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        bits[u] |= power[v]
        bits[v] |= power[u]
    if sum(map(int.bit_count, bits)) != 2 * len(edges):
        seen = set()
        for u, v in edges:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError("duplicate edge ({}, {})".format(*key))
            seen.add(key)
    return Graph(n, bits, len(edges))


def components_within(graph, mask):
    """Components of the subgraph induced by the vertex bitmask `mask`, as
    int masks ordered by smallest member.

    Each BFS layer is the union of its predecessor's bit rows, cut to the
    vertices not yet reached."""
    bits = graph.bits
    out = []
    while mask:
        comp = frontier = mask & -mask
        mask ^= frontier
        while frontier:
            reach = 0
            for x in iter_bits(frontier):
                reach |= bits[x]
            frontier = reach & mask
            mask ^= frontier
            comp |= frontier
        out.append(comp)
    return out


def bipartite_check(graph, mask):
    """The two sides (a, b) of the subgraph induced by the vertex bitmask
    `mask`, as int masks with each component's smallest vertex in a, or None
    if that subgraph holds an odd cycle.

    BFS layers from each component's smallest vertex, each the union of its
    predecessor's bit rows cut to unreached vertices, alternate between the
    sides; an edge joins two vertices of one layer or of consecutive layers,
    so the subgraph is bipartite iff no layer holds an edge."""
    bits = graph.bits
    sides = [0, 0]
    while mask:
        frontier = mask & -mask
        parity = 0
        while frontier:
            mask ^= frontier
            sides[parity] |= frontier
            reach = 0
            for x in iter_bits(frontier):
                row = bits[x]
                if row & frontier:
                    return None
                reach |= row
            frontier = reach & mask
            parity ^= 1
    return sides[0], sides[1]


def induced_subgraph(graph, mask):
    """Subgraph induced by the vertex bitmask `mask`, plus the ascending
    original ids of its vertices.

    Each kept vertex's bit row, cut to the mask, is mapped bit by bit
    through a table from each kept vertex's power of two to its new one.
    A mask covering the whole graph gives back the graph object itself
    (graphs are immutable, so it is shared rather than copied).
    """
    old_ids = list(iter_bits(mask))
    if len(old_ids) == graph.n:
        return graph, old_ids
    place = [0] * graph.n
    for new, old in enumerate(old_ids):
        place[old] = 1 << new
    bits = graph.bits
    rows = [sum(map(place.__getitem__, iter_bits(bits[u] & mask))) for u in old_ids]
    return Graph(len(old_ids), rows, sum(map(int.bit_count, rows)) // 2), old_ids
