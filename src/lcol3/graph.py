"""Immutable simple-graph core: dense integer vertices, each with a sorted
neighbour tuple and an int bit row of its neighbours; bitset vertex sets,
components and bipartiteness."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InternalError


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


class VertexSet:
    """Immutable vertex subset backed by an int bitmask.

    Cardinality is the popcount of the mask; iteration is ascending.
    """

    __slots__ = ("mask",)

    def __init__(self, mask=0):
        self.mask = mask

    @classmethod
    def from_iterable(cls, vertices):
        m = 0
        for v in vertices:
            m |= 1 << v
        return cls(m)

    def __contains__(self, v):
        return (self.mask >> v) & 1 == 1

    def __iter__(self):
        return iter_bits(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __bool__(self):
        return self.mask != 0

    def __eq__(self, other):
        return isinstance(other, VertexSet) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __and__(self, other):
        return VertexSet(self.mask & other.mask)

    def __or__(self, other):
        return VertexSet(self.mask | other.mask)

    def __sub__(self, other):
        return VertexSet(self.mask & ~other.mask)

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __lt__(self, other):
        return self.mask != other.mask and self.mask & ~other.mask == 0

    def min(self):
        if not self.mask:
            raise ValueError("empty vertex set")
        return (self.mask & -self.mask).bit_length() - 1

    def to_list(self):
        return list(self)

    def __repr__(self):
        return f"VertexSet({self.to_list()})"


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1, made by
    `_graph_from_rows` (through `build_graph`, `induced_subgraph` or the
    instance parser).

    `adj[u]` is the sorted tuple of u's neighbours and `bits[u]` the int
    bitmask of the same set; edge queries read the bit row.
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


def connected_components(graph):
    """Partition of the vertices into components, ordered by smallest member."""
    return [VertexSet(c) for c in components_within(graph, (1 << graph.n) - 1)]


@dataclass(frozen=True)
class Bipartition:
    """Two stable sides covering all vertices; every edge crosses them."""

    a: VertexSet
    b: VertexSet


def bipartite_check(graph):
    """Return a Bipartition, or an odd cycle (vertex list) if none exists.

    The cycle has odd length with consecutive vertices adjacent; it is not
    necessarily shortest or induced.
    """
    side = [-1] * graph.n
    parent = [-1] * graph.n
    for root in range(graph.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in graph.adj[x]:
                if side[y] == -1:
                    side[y] = side[x] ^ 1
                    parent[y] = x
                    queue.append(y)
                elif side[y] == side[x]:
                    return _odd_cycle_from_conflict(parent, x, y)
    a = 0
    b = 0
    for v in range(graph.n):
        if side[v] == 0:
            a |= 1 << v
        else:
            b |= 1 << v
    return Bipartition(VertexSet(a), VertexSet(b))


def _odd_cycle_from_conflict(parent, u, v):
    # u and v are adjacent and sit at equal BFS parity; walking both parent
    # chains to their first common ancestor closes an odd cycle.
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    pos_u = {x: i for i, x in enumerate(path_u)}
    path_v = [v]
    while path_v[-1] not in pos_u:
        path_v.append(parent[path_v[-1]])
    lca = path_v[-1]
    cycle = path_u[: pos_u[lca] + 1] + path_v[-2::-1]
    if len(cycle) % 2 != 1:
        raise InternalError(f"bipartite conflict closed an even cycle {cycle}")
    return cycle


def induced_subgraph(graph, vertices):
    """Induced subgraph plus the sorted original ids of its vertices.

    Vertices covering the whole graph give back the graph object itself
    (graphs are immutable, so it is shared rather than copied).
    """
    if isinstance(vertices, VertexSet):
        old_ids = vertices.to_list()
    else:
        old_ids = sorted(vertices)
    if len(old_ids) == graph.n:
        return graph, old_ids
    index = {old: new for new, old in enumerate(old_ids)}
    rows = [[index[w] for w in graph.adj[u] if w in index] for u in old_ids]
    return _graph_from_rows(len(old_ids), rows), old_ids
