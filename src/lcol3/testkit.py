"""Test tooling: a brute-force list-colouring oracle, exhaustive colouring
enumeration, seeded instance generators for the promise class, and a few
named graphs."""

import random
from collections import namedtuple
from heapq import heapify, heappop, heappush

from .engine import (FULL_MASK, colours_of, mask_of, normalize_lists,
                     verify_colouring)
from .errors import InternalError
from .graph import build_graph
from .recognition import check_promise, find_induced_p7

_SIZE = [0, 1, 1, 2, 1, 2, 2, 3]


class SizeGuardError(ValueError):
    pass


class RejectionBudgetExceeded(RuntimeError):
    pass


class GenerationError(RuntimeError):
    """A constructive generator produced a non-promise graph (recipe bug)."""


class GenSpec(namedtuple("GenSpec", "kind seed class_sizes n target_edges "
                                    "scale lists rejection_budget",
                         defaults=(0, None, None, None, 20, "full", 10_000))):
    """Reproducible instance request; identical specs generate identical
    graphs and lists bit for bit.

    kind is blownup_c5, blownup_c7, skeleton_built, random_rejection or
    spider; class_sizes sizes a blow-up's classes; n and target_edges size
    random_rejection; scale is skeleton_built's size hint and the spider's
    leg count k; lists is "full" or "random"; rejection_budget bounds
    random_rejection's tries."""

    __slots__ = ()


def oracle_solve(graph, lists=None):
    """Backtracking list-colouring oracle: most-constrained vertex first with
    forward pruning.  Returns a verified colouring or None.  The next vertex
    is the least (list size, vertex) among the uncoloured ones, read from a
    heap that gets a fresh entry whenever a list shrinks or grows back or a
    vertex is uncoloured; an entry whose vertex is coloured or whose size is
    out of date is dropped when it reaches the top.  The search keeps its
    own stack, so its depth is not bounded by the recursion limit."""
    masks = normalize_lists(graph.n, lists)
    adj = graph.adj
    work = list(masks)
    colouring = [0] * graph.n
    heap = [(_SIZE[m], v) for v, m in enumerate(work)]
    heapify(heap)

    def pick():
        while heap:
            s, v = heap[0]
            if colouring[v] == 0 and _SIZE[work[v]] == s:
                return v
            heappop(heap)
        return None

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
                heappush(heap, (_SIZE[work[u]], u))
            touched.clear()
            c = colouring[v] = next(colours, 0)
            if not c:
                stack.pop()
                heappush(heap, (_SIZE[work[v]], v))
                continue
            cbit = 1 << (c - 1)
            for u in adj[v]:
                if colouring[u] == 0 and work[u] & cbit:
                    work[u] &= ~cbit
                    touched.append(u)
                    if work[u] == 0:
                        break
                    heappush(heap, (_SIZE[work[u]], u))
            else:
                break
        v = pick()
    if not verify_colouring(graph, masks, colouring):
        raise InternalError("oracle colouring failed its re-check")
    return colouring


def enumerate_colourings(graph, lists=None):
    """Yield every proper list-colouring as a colour tuple, vertices in id
    order, colours ascending; guarded to 16 vertices."""
    if graph.n > 16:
        raise SizeGuardError(f"enumeration limited to 16 vertices, got {graph.n}")
    masks = normalize_lists(graph.n, lists)
    n = graph.n
    adj = graph.adj
    colouring = [0] * n

    def rec(v):
        if v == n:
            yield tuple(colouring)
            return
        for c in colours_of(masks[v]):
            if any(colouring[u] == c for u in adj[v] if u < v):
                continue
            colouring[v] = c
            yield from rec(v + 1)
        colouring[v] = 0

    # rec refers to itself through a closure cell; clearing the name breaks
    # that cycle, which would otherwise keep rec alive until a full garbage
    # collection.  Closing the generator early runs this too.
    try:
        yield from rec(0)
    finally:
        rec = None


# ---------------------------------------------------------------------------
# named graphs


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def mycielski(graph):
    """Mycielski construction: raises the chromatic number while keeping the
    graph triangle-free."""
    n = graph.n
    edges = list(graph.edges())
    for u, v in graph.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    for i in range(n):
        edges.append((n + i, 2 * n))
    return build_graph(2 * n + 1, edges)


def groetzsch_graph():
    return mycielski(cycle_graph(5))


# ---------------------------------------------------------------------------
# generators


def generate(spec):
    """Build the requested instance; returns (graph, colour masks).

    Constructive kinds always land in the promise class (validated);
    random_rejection resamples until the induced-P7 test passes or the
    attempt budget runs out.  The spider's lists are part of its
    construction, so it rejects any lists mode but the default.
    """
    if spec.kind == "spider":
        if spec.lists != "full":
            raise ValueError("the spider carries its own lists")
        return _spider(spec.scale)
    rng = random.Random(spec.seed)
    if spec.kind == "blownup_c5":
        sizes = spec.class_sizes
        if sizes is None:
            sizes = tuple(rng.randint(1, 4) for _ in range(5))
        if len(sizes) != 5 or any(s < 1 for s in sizes):
            raise ValueError("blownup_c5 needs five positive class sizes")
        graph = _blowup(5, sizes)
    elif spec.kind == "blownup_c7":
        sizes = spec.class_sizes
        if sizes is None:
            sizes = tuple(rng.randint(1, 3) for _ in range(7))
        if len(sizes) != 7 or any(s < 1 for s in sizes):
            raise ValueError("blownup_c7 needs seven positive class sizes")
        graph = _blowup(7, sizes)
    elif spec.kind == "skeleton_built":
        if spec.scale < 1:
            raise ValueError("skeleton_built needs a scale >= 1")
        graph = None
        for _ in range(300):
            candidate = _skeleton_built(rng, spec.scale)
            if check_promise(candidate) is None:
                graph = candidate
                break
        if graph is None:
            raise GenerationError(
                f"skeleton_built seed {spec.seed}: no promise instance "
                f"within the retry budget")
    elif spec.kind == "random_rejection":
        if spec.target_edges is not None and spec.target_edges < 0:
            raise ValueError("random_rejection needs an edge target >= 0")
        graph = _random_rejection(rng, 10 if spec.n is None else spec.n,
                                  spec.target_edges, spec.rejection_budget)
    else:
        raise ValueError(f"unknown generator kind {spec.kind!r}")

    if spec.lists == "full":
        masks = [FULL_MASK] * graph.n
    elif spec.lists == "random":
        masks = [_random_mask(rng) for _ in range(graph.n)]
    else:
        raise ValueError(f"unknown lists mode {spec.lists!r}")
    return graph, masks


def _random_mask(rng):
    roll = rng.random()
    if roll < 0.4:
        return FULL_MASK
    if roll < 0.8:
        return FULL_MASK & ~(1 << rng.randrange(3))
    return 1 << rng.randrange(3)


def _blowup(base_len, sizes):
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for i in range(base_len):
        j = (i + 1) % base_len
        for u in range(offsets[i], offsets[i + 1]):
            for v in range(offsets[j], offsets[j + 1]):
                edges.append((u, v))
    return build_graph(offsets[-1], edges)


def _spider(k):
    """The spider S_k: legs x_i - p_i - q for i < k, with L(x_i) = {1,2,3}
    and L(p_i) = {1,3}, and two 4-cycles q-a-b-c-q and q-d-e-f-q on the hub
    q, with L(q) = {1,2}.  The lists of the 4-cycles, a {1,3}, b {2,3},
    c {1,2}, d {2,3}, e {1,3}, f {1,2}, leave b no colour when q = 1 and e
    none when q = 2, so S_k is UNSAT.  It is bipartite and in the promise
    class (its longest induced path has five vertices), and no two false
    twins have comparable lists.  Vertices: x_i = i, p_i = k + i, q = 2k,
    then a..f."""
    if k < 0:
        raise ValueError("the spider needs a leg count k >= 0")
    q = 2 * k
    a, b, c, d, e, f = range(q + 1, q + 7)
    edges = [(i, k + i) for i in range(k)] + [(k + i, q) for i in range(k)]
    edges += [(q, a), (a, b), (b, c), (c, q), (q, d), (d, e), (e, f), (f, q)]
    core = [(1, 2), (1, 3), (2, 3), (1, 2), (2, 3), (1, 3), (1, 2)]  # q, a..f
    masks = ([FULL_MASK] * k + [mask_of((1, 3))] * k
             + [mask_of(colours) for colours in core])
    return build_graph(q + 7, edges), masks


_COMPONENT_SHAPES = {
    # shape edges, attachment side, other side (local vertex ids)
    "edge": ([(0, 1)], [0], [1]),
    "path3": ([(0, 1), (1, 2)], [1], [0, 2]),
    "star": ([(0, 1), (0, 2), (0, 3)], [0], [1, 2, 3]),
    "c4": ([(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2], [1, 3]),
}


class _Builder:
    def __init__(self):
        self.edges = [(i, (i + 1) % 5) for i in range(5)]
        self.next_id = 5

    def fresh(self):
        v = self.next_id
        self.next_id += 1
        return v

    def t_member(self, i):
        v = self.fresh()
        self.edges.append((v, (i - 1) % 5))
        self.edges.append((v, (i + 1) % 5))
        return v

    def d_member(self, i):
        v = self.fresh()
        self.edges.append((v, i))
        return v

    def graph(self):
        return build_graph(self.next_id, self.edges)


def _skeleton_built(rng, scale):
    """One instance from a mix of templates the promise class admits.

    Two deep appendages in the wrong relative position stretch into an
    induced P7, so each template populates only sets that coexist: "bare"
    is any T/D population alone; "chained" hangs nested components and W
    vertices off prefixes of a single T set with bare T sets two steps away
    and bare D sets around it; "wpattern" realizes one W attachment pattern
    (single-set prefix, two full non-consecutive D sets, a full D plus a T
    prefix, or a full T plus a T prefix) over a minimal background.
    A caller-side retry guards the construction.
    """
    b = _Builder()
    t_max = max(2, scale // 8)
    d_max = max(1, scale // 12)
    roll = rng.random()

    if roll < 0.25:
        # bare: arbitrary T/D population, nothing hanging
        for i in range(5):
            for _ in range(rng.randint(0, t_max)):
                b.t_member(i)
        for i in range(5):
            for _ in range(rng.randint(0, d_max)):
                b.d_member(i)
        return b.graph()

    if roll < 0.70:
        # chained: nested components and W below one T set
        a = rng.randrange(5)
        t_a = [b.t_member(a) for _ in range(rng.randint(2, t_max + 1))]
        for _ in range(rng.randint(1, 3)):
            shape_edges, side1, _ = _COMPONENT_SHAPES[
                rng.choice(sorted(_COMPONENT_SHAPES))]
            size = 1 + max(max(u, v) for u, v in shape_edges)
            base = b.next_id
            b.next_id += size
            b.edges.extend((base + u, base + v) for u, v in shape_edges)
            prefix = t_a[: rng.randint(1, len(t_a))]
            for local in side1:
                b.edges.extend((base + local, t) for t in prefix)
        for _ in range(rng.randint(0, 2)):
            w = b.fresh()
            b.edges.extend((w, t) for t in t_a[: rng.randint(1, len(t_a))])
        for off in (2, -2):
            for _ in range(rng.randint(0, 2)):
                b.t_member((a + off) % 5)
        for off in (-1, 0, 1):
            for _ in range(rng.randint(0, d_max)):
                b.d_member((a + off) % 5)
        return b.graph()

    # wpattern: one W attachment pattern over its minimal background
    pattern = rng.choice(("t_prefix", "d_prefix", "dd_full", "dt", "tt"))
    if pattern == "t_prefix":
        a = rng.randrange(5)
        t_a = [b.t_member(a) for _ in range(rng.randint(1, t_max + 1))]
        for _ in range(rng.randint(1, 2)):
            w = b.fresh()
            b.edges.extend((w, t) for t in t_a[: rng.randint(1, len(t_a))])
        for off in (2, -2):
            for _ in range(rng.randint(0, 2)):
                b.t_member((a + off) % 5)
        for off in (-1, 0, 1):
            for _ in range(rng.randint(0, d_max)):
                b.d_member((a + off) % 5)
    elif pattern == "d_prefix":
        a = rng.randrange(5)
        d_a = [b.d_member(a) for _ in range(rng.randint(1, d_max + 1))]
        w = b.fresh()
        b.edges.extend((w, d) for d in d_a[: rng.randint(1, len(d_a))])
    elif pattern == "dd_full":
        a = rng.randrange(5)
        c = (a + rng.choice((2, 3))) % 5
        d_a = [b.d_member(a) for _ in range(rng.randint(1, d_max + 1))]
        d_c = [b.d_member(c) for _ in range(rng.randint(1, d_max + 1))]
        w = b.fresh()
        b.edges.extend((w, d) for d in d_a + d_c)
        between = (a + 1) % 5 if c == (a + 2) % 5 else (a + 4) % 5
        for _ in range(rng.randint(0, d_max)):
            b.d_member(between)
    elif pattern == "dt":
        a = rng.randrange(5)
        c = rng.choice([x for x in range(5) if x != a])
        d_a = [b.d_member(a) for _ in range(rng.randint(1, d_max + 1))]
        t_c = [b.t_member(c) for _ in range(rng.randint(1, t_max))]
        w = b.fresh()
        b.edges.extend((w, x) for x in d_a + t_c[: rng.randint(1, len(t_c))])
    else:  # tt
        a = rng.randrange(5)
        c = rng.choice([x for x in range(5) if x != a])
        t_a = [b.t_member(a) for _ in range(rng.randint(1, t_max))]
        t_c = [b.t_member(c) for _ in range(rng.randint(1, t_max))]
        w = b.fresh()
        b.edges.extend((w, x) for x in t_a + t_c[: rng.randint(1, len(t_c))])
    return b.graph()


def _random_rejection(rng, n, target_edges, budget):
    """Triangle-free by incremental insertion, P7-free by rejection."""
    if target_edges is None:
        target_edges = n + 2
    for _ in range(budget):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        bits = [0] * n
        edges = []
        for u, v in pairs:
            if len(edges) >= target_edges:
                break
            if bits[u] & bits[v]:
                continue
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            edges.append((u, v))
        graph = build_graph(n, edges)
        if find_induced_p7(graph) is None:
            return graph
    raise RejectionBudgetExceeded(
        f"no P7-free sample within {budget} attempts (n={n}, m={target_edges})")
