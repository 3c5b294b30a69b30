"""Immutable simple-graph core: dense integer vertices, each with a sorted
neighbour tuple and an int bit row of its neighbours.  A vertex set is an
int bitmask, bit v standing for vertex v; components and bipartiteness are
computed on such masks."""


class GraphError(ValueError):
    """Malformed graph input."""


class LoopEdgeError(GraphError):
    def __init__(self, vertex):
        super().__init__(f"self-loop at vertex {vertex}")
        self.vertex = vertex


class DuplicateEdgeError(GraphError):
    def __init__(self, u, v):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.edge = (u, v)


class VertexRangeError(GraphError):
    def __init__(self, vertex, n):
        super().__init__(f"vertex {vertex} out of range [0, {n})")
        self.vertex = vertex


def iter_bits(mask):
    """Yield set-bit positions of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1, made by
    `_graph_from_rows` (through `build_graph`, `induced_subgraph` or the
    instance parser).

    `adj[u]` is the sorted tuple of u's neighbours and `bits[u]` the int
    bitmask of the same set; edge queries read the bit row, and vertex sets
    are int bitmasks over 0..n-1.
    """

    __slots__ = ("n", "m", "adj", "bits")

    def __init__(self, n, adj, bits, m):
        self.n = n
        self.adj = adj
        self.bits = bits
        self.m = m

    def has_edge(self, u, v):
        return (self.bits[u] >> v) & 1 == 1

    def edges(self):
        """All edges as (u, v) with u < v, lexicographically ascending."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n, edges):
    """Build a Graph from an edge list, rejecting loops and duplicates."""
    if n < 0:
        raise GraphError("negative vertex count")
    rows = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n):
            raise VertexRangeError(u, n)
        if not (0 <= v < n):
            raise VertexRangeError(v, n)
        if u == v:
            raise LoopEdgeError(u)
        rows[u].append(v)
        rows[v].append(u)
    return _graph_from_rows(n, rows)


def _graph_from_rows(n, rows):
    """The one constructor of Graph: per-vertex neighbour lists to a Graph.

    `rows[u]` lists the neighbours of u in any order, each edge appearing in
    the rows of both its endpoints; the lists are sorted in place.  Callers
    have checked ranges and loops.  A neighbour listed twice in a row is a
    duplicate edge, seen as a bit row whose popcount falls short of the
    row's length, and raises DuplicateEdgeError naming the pair with u < v.
    Each distinct neighbour tuple is summed into a bit row once, through a
    table local to the call, so false twins (equal tuples) share one int.
    """
    for row in rows:
        row.sort()
    # tuple() of a generator resizes as it grows and leaves tuples in
    # oversized allocator blocks; a process that builds graphs one after
    # another then keeps growing.  Sized from a list, it stays flat.
    adj = list(map(tuple, rows))
    lengths = list(map(len, rows))
    power = [1 << v for v in range(n)].__getitem__
    row_bits = {}
    bits = []
    for row in adj:
        b = row_bits.get(row)
        if b is None:
            b = row_bits[row] = sum(map(power, row))
        bits.append(b)
    sizes = list(map(int.bit_count, bits))
    if sizes != lengths:
        u = next(u for u in range(n) if sizes[u] != lengths[u])
        row = rows[u]
        v = next(row[i] for i in range(1, len(row)) if row[i] == row[i - 1])
        raise DuplicateEdgeError(min(u, v), max(u, v))
    return Graph(n, adj, bits, sum(lengths) // 2)


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

    A mask covering the whole graph gives back the graph object itself
    (graphs are immutable, so it is shared rather than copied).
    """
    old_ids = list(iter_bits(mask))
    if len(old_ids) == graph.n:
        return graph, old_ids
    index = {old: new for new, old in enumerate(old_ids)}
    rows = [[index[w] for w in graph.adj[u] if w in index] for u in old_ids]
    return _graph_from_rows(len(old_ids), rows), old_ids
