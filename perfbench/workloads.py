"""Seeded inputs for the four workloads.

The generators are the benchmark's own and never call the solver: every
input is built as an edge list, relabelled by a seeded permutation and
written out as instance text.  Inputs meant to be in the class (no triangle,
no induced P7) are in it by construction: blow-ups of C5 and C7, chain
graphs, and skeleton graphs.  The tests check samples of the last kind with
the benchmark's own induced-P7 search, and verify mode checks every
skeleton graph of `verify_promise` again: one outside the class would show
as an INVALID answer on an in-class input, which fails the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checker

FULL = checker.FULL
DIGITS = {m: "".join(str(c) for c in (1, 2, 3) if m >> (c - 1) & 1)
          for m in range(1, 8)}


@dataclass
class Instance:
    name: str
    n: int
    edges: list
    masks: list
    mode: str          # "trust" or "verify", passed to the solver
    in_class: bool     # triangle-free and P7-free by construction or check
    expected: str = "" # SAT / UNSAT from the reference search, or INVALID
    known_fault: str = ""  # exception a decision on it may raise today
    text: str = ""
    bits: list = None

    def finish(self, expected=None):
        """Emit the instance text and settle the expected answer (searched
        for unless given)."""
        self.bits = checker.adjacency_bits(self.n, self.edges)
        lines = [f"p lcol {self.n} {len(self.edges)}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in self.edges)
        lines.extend(f"l {v + 1} {DIGITS[m]}"
                     for v, m in enumerate(self.masks) if m != FULL)
        self.text = "\n".join(lines) + "\n"
        if not self.in_class:
            self.expected = "INVALID"
        else:
            self.expected = expected or _answer(
                self.n, checker.neighbour_lists(self.bits), self.masks)
        return self


def _answer(n, nbrs, masks):
    found = checker.reference_colouring(n, nbrs, masks)
    return "UNSAT" if found is None else "SAT"


def relabel(rng, n, edges):
    """Edges under a seeded random vertex permutation, sorted."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    out = [(u, v) if u < v else (v, u) for u, v in out]
    out.sort()
    return out, perm


def blowup(sizes):
    """Each vertex of the cycle C_len(sizes) replaced by a stable class,
    consecutive classes completely joined; its false-twin quotient is the
    cycle itself, so C5 and C7 blow-ups are in the class."""
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    k = len(sizes)
    edges = []
    for i in range(k):
        j = (i + 1) % k
        for u in range(offsets[i], offsets[i + 1]):
            for v in range(offsets[j], offsets[j + 1]):
                edges.append((u, v))
    return offsets[-1], edges


def chain_graph(rng, a, b):
    """Bipartite graph with sides A = 0..a-1 and B = a..a+b-1 whose
    B-neighbourhoods are nested prefixes of A.  Nested neighbourhoods
    exclude an induced 2K2, and an induced P7 contains one, so chain graphs
    are in the class.  Prefix lengths are spread evenly with seeded jitter;
    the last B vertex sees all of A (connected)."""
    edges = []
    for j in range(b):
        k = a if j == b - 1 else max(1, round(a * (j + rng.random()) / b))
        edges.extend((u, a + j) for u in range(k))
    return a + b, edges


class _Skeleton:
    """An anchored 5-cycle c0..c4 grown by attaching T_i members (seeing
    c_{i-1}, c_{i+1}), D_i members (seeing c_i) and vertices hung off
    prefixes of one T set."""

    def __init__(self):
        self.edges = [(i, (i + 1) % 5) for i in range(5)]
        self.n = 5

    def fresh(self):
        self.n += 1
        return self.n - 1

    def t(self, i):
        v = self.fresh()
        self.edges += [(v, (i - 1) % 5), (v, (i + 1) % 5)]
        return v

    def d(self, i):
        v = self.fresh()
        self.edges.append((v, i))
        return v

    def hang(self, targets):
        v = self.fresh()
        self.edges.extend((v, x) for x in targets)
        return v


def skeleton_candidate(rng, size):
    """One graph of exactly `size` (>= 12) vertices around an anchored C5.

    A chained set T_a carries hanging structures on nested prefixes of
    distinct lengths (so few of its members are twins): single W vertices,
    pendant edges and induced P4s.  T_{a+2}, T_{a-2} and the D sets next to
    c_a hold the rest of the vertices.  Nested prefixes keep two hanging
    structures from forming an induced 2K2 through T_a, and the sets that
    would let a path leave T_a through the cycle on both sides stay empty.
    """
    sk = _Skeleton()
    a = rng.randrange(5)
    k = max(2, size // 3)
    t_a = [sk.t(a) for _ in range(k)]
    budget = size - sk.n - 4
    prefixes = sorted(rng.sample(range(1, k + 1), min(k, max(1, size // 8))))
    for p in prefixes:
        shape = rng.random()
        if shape < 0.35 or budget < 4:
            sk.hang(t_a[:p])
            budget -= 1
        elif shape < 0.7:
            sk.hang([sk.hang(t_a[:p])])
            budget -= 2
        else:
            x1 = sk.hang([sk.hang(t_a[:p])])
            sk.hang([sk.hang(t_a[:p] + [x1])])
            budget -= 4
        if budget <= 0:
            break
    sets = [(sk.t, (a + 2) % 5), (sk.t, (a - 2) % 5),
            (sk.d, (a - 1) % 5), (sk.d, a), (sk.d, (a + 1) % 5)]
    while sk.n < size:
        add, i = rng.choice(sets)
        add(i)
    return sk.n, sk.edges


LIST_DRAWS = 400


def _with_lists(rng, masks_of, n, edges, name, mode, want=None):
    """Relabel the graph, then draw lists until the reference answer is
    `want` (any answer when None)."""
    edges, _ = relabel(rng, n, edges)
    nbrs = checker.neighbour_lists(checker.adjacency_bits(n, edges))
    for _ in range(LIST_DRAWS):
        masks = masks_of(n)
        answer = _answer(n, nbrs, masks)
        if want is None or answer == want:
            return Instance(name, n, edges, masks, mode, True).finish(answer)
    raise RuntimeError(f"{name}: no {want} lists in {LIST_DRAWS} draws")


def _precolouring(rng):
    """Lists that look like a partial precolouring: mostly full, some
    2-lists, and about three singletons whatever the size."""
    def draw(n):
        p1 = min(0.06, 3.0 / n)
        out = []
        for _ in range(n):
            r = rng.random()
            if r < p1:
                out.append(1 << rng.randrange(3))
            elif r < p1 + 0.14:
                out.append(FULL & ~(1 << rng.randrange(3)))
            else:
                out.append(FULL)
        return out
    return draw


def twins_dense(rng):
    """Blown-up C5s and C7s of about 90 to 215 vertices with full lists:
    13 to 41 false twins per class, 1.2*10^3 to 8.4*10^3 edge lines each.
    Each decision takes a few milliseconds, so a run holds many passes."""
    for k, base in ((5, 40), (5, 37), (5, 34), (5, 31), (5, 28), (5, 25),
                    (5, 22), (5, 20), (7, 30), (7, 27), (7, 24), (7, 22),
                    (7, 20), (7, 18), (7, 16), (7, 14)):
        sizes = [base + rng.randint(-1, 1) for _ in range(k)]
        n, edges = blowup(sizes)
        edges, _ = relabel(rng, n, edges)
        yield Instance(f"c{k}x{base}", n, edges, [FULL] * n, "trust", True).finish()


SKELETON_GRAPHS = 48
LISTS_PER_GRAPH = 4


def skeleton_lists(rng):
    """48 skeleton graphs of 17..198 vertices (a fixed size schedule), each
    with four seeded precolouring-like lists; the answers alternate SAT /
    UNSAT by slot, so every seed has the same mix of sizes and answers."""
    draw = _precolouring(rng)
    for g in range(SKELETON_GRAPHS):
        size = round(15 + 185 * (g + 0.5) / SKELETON_GRAPHS)
        n, edges = skeleton_candidate(rng, size)
        for j in range(LISTS_PER_GRAPH):
            want = ("SAT", "UNSAT")[(g + j) % 2]
            yield _with_lists(rng, draw, n, edges, f"skel{g}.{j}", "trust", want)


def _pendant_path(n, edges, at, length):
    """The graph with a new path of `length` vertices hung off `at`."""
    path = [at] + list(range(n, n + length))
    return n + length, edges + list(zip(path, path[1:]))


def verify_promise(rng):
    """Skeleton graphs (few twins) and C5/C7 blow-ups (many twins) checked
    in verify mode, plus two planted triangles and two planted induced P7s.
    Full lists: the promise check, not the search, is the load.  The
    exhaustive P7 search on an accepted input grows as n^4, varies by about
    a quarter between random skeleton graphs of one size, and does not
    depend on the labelling; so the in-class graphs are fixed and the seed
    relabels them (and places the planted violations)."""
    for g in range(24):
        size = round(30 + 50 * (g + 0.5) / 24)
        n, edges = skeleton_candidate(random.Random(f"verify_promise/{g}"), size)
        yield _with_lists(rng, lambda n: [FULL] * n, n, edges,
                          f"skel{g}.n{size}", "verify")
    for j, (k, base) in enumerate(((5, 5), (5, 6), (5, 7), (5, 8), (7, 4)) * 3):
        n, edges = blowup([base] * k)
        yield _with_lists(rng, lambda n: [FULL] * n, n, edges,
                          f"c{k}x{base}.{j}", "verify")
    for j in range(2):
        n, edges = skeleton_candidate(rng, 60)
        u, v = rng.choice(edges)
        edges = edges + [(u, n), (v, n)]
        yield _planted(rng, n + 1, edges, f"triangle{j}")
    n, edges = blowup([10] * 5)
    yield _planted(rng, *_pendant_path(n, edges, rng.randrange(n), 6),
                   "p7_blowup")
    n, edges = skeleton_candidate(rng, 60)
    yield _planted(rng, *_pendant_path(n, edges, rng.randrange(n), 6),
                   "p7_skeleton")


def _planted(rng, n, edges, name):
    edges, _ = relabel(rng, n, edges)
    return Instance(name, n, edges, [FULL] * n, "verify", False).finish()


FALLBACK_FAILURE = (1500, 2)


def bipartite_fallback(rng):
    """Chain graphs and complete bipartite graphs, A the large side.

    A-side vertex 0 (seen by every B vertex) is precoloured 1; a quarter of
    the other A vertices get a 2-list holding colour 1, two fifths of the B
    vertices get the list {2, 3}.  Propagation then leaves every other A
    vertex with its full list, so the fallback branches once per such
    vertex (about 90 to 370 levels) before one 2-SAT leaf over the 2-lists.
    Every input is SAT.

    The last input, K_{1500,2} with one A vertex precoloured, is the same
    for every seed: its fallback recursion is deeper than the interpreter's
    default recursion limit, and each decision on it fails with
    RecursionError.  No other decision of any workload may raise.
    """
    shapes = [(120 + 25 * j, 10 + 7 * j % 50, True) for j in range(16)]
    shapes += [(150, 6, False), (220, 10, False), (290, 4, False), (360, 8, False)]
    for a, b, chained in shapes:
        if chained:
            n, edges = chain_graph(rng, a, b)
        else:
            n, edges = a + b, [(u, a + j) for u in range(a) for j in range(b)]
        masks = [FULL] * n
        masks[0] = 0b001
        for v in rng.sample(range(1, a), a // 4):
            masks[v] = (0b011, 0b101)[rng.randrange(2)]
        for v in rng.sample(range(a, n), 2 * b // 5):
            masks[v] = 0b110
        edges, perm = relabel(rng, n, edges)
        relabelled = [0] * n
        for v in range(n):
            relabelled[perm[v]] = masks[v]
        kind = "chain" if chained else "k"
        yield Instance(f"{kind}{a}x{b}", n, edges, relabelled, "trust",
                       True).finish()
    a, b = FALLBACK_FAILURE
    edges = [(u, a + j) for u in range(a) for j in range(b)]
    masks = [0b001] + [FULL] * (a + b - 1)
    yield Instance(f"k{a}x{b}", a + b, edges, masks, "trust", True,
                   known_fault="RecursionError").finish()


WORKLOADS = {
    "twins_dense": twins_dense,
    "skeleton_lists": skeleton_lists,
    "verify_promise": verify_promise,
    "bipartite_fallback": bipartite_fallback,
}


def generate(workload, seed):
    """The workload's inputs for one seed, one at a time as each is built;
    the same seed, the same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
