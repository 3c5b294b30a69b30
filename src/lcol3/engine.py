"""Solver engine: anchor-cycle colouring enumeration, the (a)-(h) partial
colouring branches, list propagation, safe-vertex elimination, 2-SAT
residuals, the blown-up-C7 path, and top-level orchestration.
"""

import time
from collections import deque, namedtuple

from .errors import InternalError, PreconditionBreach
from .graph import (bipartite_check, components_within, induced_subgraph,
                    iter_bits)
from .recognition import (check_promise, recognize_blownup_c7,
                          shortest_odd_cycle)
from .sat2 import TwoSatInstance, add_clause, neg, pos, solve_2sat
from .skeleton import build_chain, build_skeleton

FULL_MASK = 0b111
_COLOUR_OF = [0, 1, 2, 0, 3, 0, 0, 0]  # singleton mask -> colour
_SIZE = [0, 1, 1, 2, 1, 2, 2, 3]
_MASKS = frozenset(range(1, FULL_MASK + 1))


def mask_of(colours):
    m = 0
    for c in colours:
        if c not in (1, 2, 3):
            raise ValueError(f"colour {c} outside {{1,2,3}}")
        m |= 1 << (c - 1)
    return m


def colours_of(mask):
    return tuple(c for c in (1, 2, 3) if mask & (1 << (c - 1)))


def normalize_lists(n, lists):
    """Per-vertex admissible-colour bitmasks from None / masks / iterables."""
    if lists is None:
        return [FULL_MASK] * n
    if len(lists) != n:
        raise ValueError("list count does not match vertex count")
    # All int masks in 1..7, checked in C.  The types go first: 1.0 equals
    # the mask 1 in the set test, but the loop below rejects it.
    if {int}.issuperset(map(type, lists)) and _MASKS.issuperset(lists):
        return list(lists)
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


class SolveStats:
    """The counters of one solve, all starting at 0, and its wall-clock
    time in millis.  _fields lists them in declaration order; two stats
    are equal when every field is."""

    __slots__ = _fields = ("branches", "branches_survived", "propagations",
                           "sat_instances", "fallback_used", "fallback_nodes",
                           "peeled", "dominated", "settled", "millis")

    def __init__(self):
        for name in self._fields:
            setattr(self, name, 0)
        self.millis = 0.0

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not SolveStats:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "SolveStats(%s)" % ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values()))


class Outcome(namedtuple("Outcome", "kind colouring violation stats")):
    """A solve's answer.  kind is "sat", "unsat" or "invalid"; colouring
    (SAT) and violation (INVALID, a PromiseViolation) are None otherwise;
    stats is the SolveStats of the run."""

    __slots__ = ()

    @property
    def is_sat(self):
        return self.kind == "sat"

    @property
    def is_unsat(self):
        return self.kind == "unsat"

    @property
    def is_invalid(self):
        return self.kind == "invalid"


class ListState:
    """Mutable per-branch colouring state: colour masks and a pending queue
    of freshly forced vertices awaiting propagation.  A vertex is assigned
    when its mask is a singleton; it is queued when its mask becomes one."""

    __slots__ = ("graph", "masks", "pending", "removals")

    def __init__(self, graph, masks):
        self.graph = graph
        self.masks = list(masks)
        self.pending = deque()
        self.removals = 0
        for v, m in enumerate(self.masks):
            if not 0 < m <= FULL_MASK:
                raise ValueError(f"bad colour mask {m} at vertex {v}")
            if _SIZE[m] == 1:
                self.pending.append(v)

    def copy(self):
        """A copy for a child of a search node, which is at a fixpoint."""
        if self.pending:
            raise InternalError("ListState copied outside a propagation fixpoint")
        return self.fork()

    def fork(self):
        """An independent copy, the pending queue included, with no removals
        counted yet."""
        new = object.__new__(ListState)
        new.graph = self.graph
        new.masks = self.masks.copy()
        new.pending = self.pending.copy()
        new.removals = 0
        return new

    def assign(self, v, colour):
        """Force a colour; False if it is not admissible any more."""
        cbit = 1 << (colour - 1)
        m = self.masks[v]
        if not m & cbit:
            return False
        if m != cbit:
            self.removals += _SIZE[m] - 1
            self.masks[v] = cbit
            self.pending.append(v)
        return True

    def assign_all(self, seeds):
        """Force every (vertex, colour) seed in order; False at the first
        one that is not admissible any more."""
        for v, colour in seeds:
            if not self.assign(v, colour):
                return False
        return True

    def full_mask_vertices(self):
        return [v for v, m in enumerate(self.masks) if m == FULL_MASK]


def propagate(st):
    """Run singleton propagation to a fixpoint; None on an emptied mask or
    two adjacent vertices forced to the same colour."""
    masks = st.masks
    pending = st.pending
    adj = st.graph.adj
    while pending:
        v = pending.popleft()
        cbit = masks[v]
        for u in adj[v]:
            mu = masks[u]
            if mu & cbit:
                if mu == cbit:
                    return None
                mu &= ~cbit
                masks[u] = mu
                st.removals += 1
                if _SIZE[mu] == 1:
                    pending.append(u)
    return st


def eliminate_safe(st, graph):
    """Assign every full-mask vertex whose neighbours all miss a common
    colour (the smallest such); isolated full-mask vertices get colour 1.

    Runs in one pass: a safe assignment cannot shrink any neighbour's mask,
    since the neighbours already miss the assigned colour.
    """
    masks = st.masks
    out = []
    for v in range(graph.n):
        if masks[v] != FULL_MASK:
            continue
        nbrs = graph.adj[v]
        if not nbrs:
            st.assign(v, 1)
            out.append((v, 1))
            continue
        acc = FULL_MASK
        for u in nbrs:
            acc &= FULL_MASK & ~masks[u]
            if not acc:
                break
        if acc:
            j = _COLOUR_OF[acc & -acc]
            st.assign(v, j)
            out.append((v, j))
    return out


def residual_to_2sat(st, graph):
    """2-SAT encoding of the remaining two-colour choices.

    One variable per unassigned vertex, true iff it takes the smaller colour
    of its mask; each edge contributes one clause per colour admissible at
    both ends.  Raises PreconditionBreach if a three-colour vertex remains.
    """
    masks = st.masks
    var_of = {}
    var_info = []
    for v in range(graph.n):
        m = masks[v]
        if _SIZE[m] == 1:
            continue
        if _SIZE[m] == 3:
            raise PreconditionBreach(f"vertex {v} still has all three colours")
        lo, hi = colours_of(m)
        var_of[v] = len(var_info)
        var_info.append((v, lo, hi))

    inst = TwoSatInstance(len(var_info))
    for u in range(graph.n):
        for v in graph.adj[u]:
            if v < u:
                continue
            iu = var_of.get(u)
            iv = var_of.get(v)
            if iu is None and iv is None:
                continue
            if iu is None or iv is None:
                # propagation already removed the assigned endpoint's colour
                a, b = (u, v) if iu is None else (v, u)
                if masks[b] & masks[a]:
                    raise InternalError(
                        f"vertex {b} still admits the colour of its assigned "
                        f"neighbour {a}")
                continue
            common = masks[u] & masks[v]
            for cbit in (1, 2, 4):
                if common & cbit:
                    c = _COLOUR_OF[cbit]
                    lit_u = pos(iu) if c == var_info[iu][1] else neg(iu)
                    lit_v = pos(iv) if c == var_info[iv][1] else neg(iv)
                    add_clause(inst, lit_u ^ 1, lit_v ^ 1)
    return inst, var_info


def verify_colouring(graph, lists, colouring):
    """True iff the colouring is total, list-respecting and proper."""
    return _colouring_fits(graph, normalize_lists(graph.n, lists), colouring)


def _colouring_fits(graph, masks, colouring):
    """verify_colouring on lists already normalised to masks.  Each colour
    class is gathered into one bit mask; the colouring is proper iff no
    vertex's bit row meets its own class."""
    if len(colouring) != graph.n:
        return False
    classes = [0, 0, 0, 0]  # indexed by colour; entry 0 stays unused
    for v, c in enumerate(colouring):
        if c not in (1, 2, 3) or not masks[v] & (1 << (c - 1)):
            return False
        classes[c] |= 1 << v
    bits = graph.bits
    for v, c in enumerate(colouring):
        if bits[v] & classes[c]:
            return False
    return True


# ---------------------------------------------------------------------------
# anchor-cycle colourings and the (a)-(h) case machinery


def enumerate_c5_colourings(anchor_masks):
    """All proper colourings of the 5-cycle consistent with the anchors'
    lists, in lexicographic order."""
    if len(anchor_masks) != 5:
        raise ValueError("expected five anchor masks")
    options = [colours_of(m) for m in anchor_masks]
    out = []
    for c1 in options[0]:
        for c2 in options[1]:
            if c2 == c1:
                continue
            for c3 in options[2]:
                if c3 == c2:
                    continue
                for c4 in options[3]:
                    if c4 == c3:
                        continue
                    for c5 in options[4]:
                        if c5 == c4 or c5 == c1:
                            continue
                        out.append((c1, c2, c3, c4, c5))
    return out


class Palette(namedtuple("Palette", "c5_colouring forced options undetermined "
                                    "q d_options free_d")):
    """Colour consequences of one anchor-cycle colouring c5_colouring.

    Three T sets are forced (forced: T index -> colour); the two consecutive
    ones flanking the once-used colour q, the undetermined indices, keep
    two options (options: T index -> (q, other)); every D set keeps the two
    colours its anchor does not use (d_options: D index -> pair); the three
    free D indices free_d around q's position get the (e)-(h) case
    treatment.
    """

    __slots__ = ()


def palette_analysis(c5col):
    c5col = tuple(c5col)
    counts = {c: c5col.count(c) for c in (1, 2, 3)}
    once = [c for c, k in counts.items() if k == 1]
    if len(once) != 1:
        raise InternalError(f"{c5col} is not a proper 3-colouring of a C5")
    q = once[0]
    p = c5col.index(q)

    forced = {}
    options = {}
    for i in range(5):
        a, b = c5col[(i - 1) % 5], c5col[(i + 1) % 5]
        if a != b:
            forced[i] = 6 - a - b
        else:
            options[i] = (q, 6 - q - a)
    undetermined = tuple(sorted(((p + 2) % 5, (p + 3) % 5)))
    if tuple(sorted(options)) != undetermined:
        raise InternalError(f"{c5col}: two-option T sets {sorted(options)}, "
                            f"expected {undetermined}")
    d_options = {i: tuple(sorted({1, 2, 3} - {c5col[i]})) for i in range(5)}
    free_d = tuple(sorted(((p - 1) % 5, p, (p + 1) % 5)))
    return Palette(c5col, forced, options, undetermined, q, d_options, free_d)


# palette_analysis of each of the 30 proper colourings of a C5
_PALETTES = {col: palette_analysis(col)
             for col in enumerate_c5_colourings([FULL_MASK] * 5)}


def _anchor_palettes(anchor_masks):
    """The palettes of the anchor colourings, in enumerate_c5_colourings
    order."""
    return [_PALETTES[col] for col in enumerate_c5_colourings(anchor_masks)]


class TCase(namedtuple("TCase", "index tag k w", defaults=(None, None))):
    """One of the cases (a)-(d), tag "a".."d", on the undetermined T index.

    (a): the level-k prefix takes the non-shared colour and witness w takes
    q; (b): the same swapped; (c)/(d): all of T_i takes the non-shared
    colour / q.  Tags c and d carry no (k, w), which stay None."""

    __slots__ = ()


class DCase(namedtuple("DCase", "index tag a b v vprime", defaults=(None,))):
    """One of the cases (e)-(h), tag "e".."h", on the free D index with
    options {a, b} and lowest vertex v of D_i: (e) v -> a with witness
    vprime -> b, (f) swapped, (g)/(h) the whole set takes a / b.  Tags g
    and h carry no vprime, which stays None."""

    __slots__ = ()


def t_case_choices(palette, chains, i):
    chain = chains.get(i)
    if chain is None:
        return [None]
    choices = [TCase(i, "c"), TCase(i, "d")]
    levels = chain.levels
    for k in range(chain.r + 1):
        fresh = levels[k + 1] & ~levels[k]
        for w in iter_bits(fresh):
            choices.append(TCase(i, "a", k, w))
    for k in range(chain.r + 1):
        fresh = levels[k + 1] & ~levels[k]
        for w in iter_bits(fresh):
            choices.append(TCase(i, "b", k, w))
    return choices


def d_case_choices(sk, palette, i):
    d_set = sk.d[i]
    if not d_set:
        return [None]
    a, b = palette.d_options[i]
    low = d_set & -d_set
    v = low.bit_length() - 1
    choices = [DCase(i, "g", a, b, v), DCase(i, "h", a, b, v)]
    rest = list(iter_bits(d_set ^ low))
    for u in rest:
        choices.append(DCase(i, "e", a, b, v, u))
    for u in rest:
        choices.append(DCase(i, "f", a, b, v, u))
    return choices


def choice_lists(sk, chains, palette):
    """The five choice lists of an anchor colouring, in search order: cases
    (c, d, a, b) with k then w ascending on each undetermined T index, then
    cases (g, h, e, f) with v' ascending on each free D index; [None] for an
    empty set.  A branch is one pick from each, and the branches are their
    Cartesian product."""
    return ([t_case_choices(palette, chains, i) for i in palette.undetermined]
            + [d_case_choices(sk, palette, i) for i in palette.free_d])


def anchor_seeds(sk, palette):
    """Seeds every branch of an anchor colouring shares: the anchors and
    the forced T sets."""
    col = palette.c5_colouring
    seeds = [(sk.c[i], col[i]) for i in range(5)]
    t_lists = sk.t_lists
    for i, colour in palette.forced.items():
        seeds.extend([(v, colour) for v in t_lists[i]])
    return seeds


def case_seeds(sk, chains, palette, case):
    """Seeds of one TCase or DCase."""
    i = case.index
    if isinstance(case, DCase):
        if case.tag == "g":
            return [(v, case.a) for v in iter_bits(sk.d[i])]
        if case.tag == "h":
            return [(v, case.b) for v in iter_bits(sk.d[i])]
        if case.tag == "e":
            return [(case.v, case.a), (case.vprime, case.b)]
        return [(case.v, case.b), (case.vprime, case.a)]
    q = palette.q
    other = palette.options[i][1]
    if case.tag == "c":
        return [(v, other) for v in sk.t_lists[i]]
    if case.tag == "d":
        return [(v, q) for v in sk.t_lists[i]]
    first = other if case.tag == "a" else q
    second = q if case.tag == "a" else other
    seeds = [(v, first) for v in iter_bits(chains[i].levels[case.k])]
    seeds.append((case.w, second))
    return seeds


# ---------------------------------------------------------------------------
# blown-up C7


def colour_blownup_c7(dec, masks):
    """List-colour a blown-up C7 by dynamic programming over per-class
    colour subsets; consecutive classes must use disjoint subsets and every
    member's list must meet its class subset.  `masks` are colour masks, or
    None for full lists.  None iff infeasible."""
    classes = [list(iter_bits(cl)) for cl in dec.classes]
    n = sum(map(len, classes))
    if masks is None:
        masks = [FULL_MASK] * n
    feasible = []
    for cl in classes:
        ok = [m for m in range(1, 8)
              if all(masks[v] & m for v in cl)]
        if not ok:
            return None
        feasible.append(ok)

    chosen = [0] * 7

    def rec(idx):
        for m in feasible[idx]:
            if idx > 0 and m & chosen[idx - 1]:
                continue
            if idx == 6 and m & chosen[0]:
                continue
            chosen[idx] = m
            if idx == 6 or rec(idx + 1):
                return True
        chosen[idx] = 0
        return False

    # rec refers to itself through its closure cell; clearing the name
    # breaks that cycle, which would otherwise keep rec and what it refers
    # to alive until a full garbage collection.
    try:
        found = rec(0)
    finally:
        rec = None
    if not found:
        return None
    colouring = [0] * n
    for idx, cl in enumerate(classes):
        for v in cl:
            pick = masks[v] & chosen[idx]
            colouring[v] = _COLOUR_OF[pick & -pick]
    return colouring


# ---------------------------------------------------------------------------
# top-level solve


def solve(graph, lists=None, mode="trust"):
    """Decide list 3-colourability and produce a colouring, an
    uncolourability verdict, or a promise-violation witness.

    In "verify" mode the promise (no triangles, no induced P7) is checked
    up front; in "trust" mode only violations met on the solving path are
    reported.  Each structural check on that path raises PreconditionBreach
    when it fails, which shows the component is outside the class or the
    solver has a gap.  solve then runs check_promise on that component: it
    returns the verified witness, relabelled to the input, or raises
    InternalError when there is none.  So every INVALID answer carries a
    triangle or an induced P7, and the check costs time only on that
    failure path.  Identical inputs give identical outputs.

    Layer 0 first propagates every singleton list over the whole input
    (an input without one skips this).  A list that empties refutes the
    input on any graph, so solve answers UNSAT at once; in trust mode a
    violation inside such an input is not reported.  Otherwise the
    propagated lists replace the input's for the rest of the solve, which
    keeps the answer: a removed colour is that of a neighbour forced to it.
    A vertex left with one colour is settled: no neighbour still admits
    that colour, so it leaves the kept set and is coloured last with it.

    Layer 0 then keeps one vertex of each class of exact twins, vertices
    with the same neighbourhood (so they are not adjacent) and the same
    list; a dropped twin takes its kept twin's colour at the end.  The
    kept vertices are swept to one fixpoint of two rules, with
    neighbourhoods taken among the vertices not yet removed: v is peeled
    when L(v) has more colours than v has neighbours, and v is dominated
    when another vertex u, not yet removed or settled, has N(v) ⊆ N(u)
    and L(u) ⊆ L(v).  So u and v are not adjacent: u is not in N(u), and
    a settled u's colour lies in L(v) while no neighbour of u admits it.
    A twin with a smaller list is such a u.  Only the rest is solved, one
    component at a time in order of smallest vertex, each copied once
    from the input (a connected input with nothing dropped or removed is
    solved on the graph object itself).  The removed vertices are then
    coloured in reverse order of removal, settled ones last, each with the
    smallest colour of its list that no coloured neighbour uses.  Such a
    colour exists.  The neighbours coloured before v are those still there
    when v was removed; dropped twins are not coloured yet.  A peeled v
    has fewer of them than |L(v)|.  For a dominated v, each of them is a
    neighbour of v's dominator u, so none has u's colour, which is in
    L(v): an unremoved u was coloured before v and the colouring so far
    is proper, and no neighbour of a settled u admits u's colour at all,
    whatever the order of colouring.  So a colouring of the rest extends
    to the input, and the rest, an induced subgraph, stays in the promise
    class and is colourable whenever the input is; a witness found on it
    is one of the input.  A failure of the extension is a solver fault and
    raises InternalError.  In trust mode a violation that is settled,
    peeled or dominated away (a triangle of full-list vertices, say) is
    off the solving path and is not reported.  Every SAT answer is
    re-checked on the input graph and its own lists.
    """
    if mode not in ("trust", "verify"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    stats = SolveStats()
    masks = normalize_lists(graph.n, lists)

    if mode == "verify":
        violation = check_promise(graph)
        if violation is not None:
            stats.millis = (time.perf_counter() - t0) * 1000.0
            return Outcome("invalid", None, violation, stats)

    fixed = masks  # the lists after layer-0 propagation
    if 1 in masks or 2 in masks or 4 in masks:
        st = ListState(graph, masks)
        refuted = propagate(st) is None
        stats.propagations = st.removals
        if refuted:
            stats.millis = (time.perf_counter() - t0) * 1000.0
            return Outcome("unsat", None, None, stats)
        fixed = st.masks

    first = {}  # (bit row, list) -> smallest vertex: the exact twin classes
    rep = list(map(first.setdefault, zip(graph.bits, fixed), range(graph.n)))
    settled = [v for v in first.values() if _SIZE[fixed[v]] == 1]
    settled_mask = sum(1 << v for v in settled)
    kept = sum(1 << v for v in first.values()) ^ settled_mask
    stats.settled = len(settled)
    rest, removed, stats.dominated = _peel(graph, fixed, kept, settled_mask)
    stats.peeled = len(removed) - stats.dominated
    colouring = [0] * graph.n
    for comp in components_within(graph, rest):
        sub, ids = induced_subgraph(graph, comp)
        try:
            result = _solve_component(sub, [fixed[v] for v in ids], stats)
        except PreconditionBreach as exc:
            violation = check_promise(sub)
            if violation is None:
                raise InternalError(
                    f"structural check failed on an in-class component: {exc}") from exc
            stats.millis = (time.perf_counter() - t0) * 1000.0
            return Outcome("invalid", None, violation.relabel(ids), stats)
        if result is None:
            stats.millis = (time.perf_counter() - t0) * 1000.0
            return Outcome("unsat", None, None, stats)
        for local, v in enumerate(ids):
            colouring[v] = result[local]

    _colour_peeled(graph, fixed, rest, settled + removed, colouring)
    colouring = [colouring[u] for u in rep]
    if not _colouring_fits(graph, masks, colouring):
        raise InternalError("SAT colouring failed the final re-check")
    stats.millis = (time.perf_counter() - t0) * 1000.0
    return Outcome("sat", colouring, None, stats)


def _peel(graph, masks, kept, settled):
    """Layer 0's joint sweep of the vertex bitmask `kept`: (rest, removed,
    dominated), where removed lists the removed vertices in order of
    removal, rest is the bitmask left and dominated counts the removals by
    domination.  Within the unremoved set, a vertex v is removed when it
    has fewer neighbours than colours (it is peeled), or when another u,
    unremoved or in the bitmask `settled`, has N(v) ⊆ N(u) and
    L(u) ⊆ L(v) (it is dominated); neighbourhoods are taken among the
    unremoved vertices.

    `due` holds the vertices to test, lowest first: all of kept at the
    start, then the unremoved neighbours of each removed vertex.  A tested
    vertex that stays can only become removable when its neighbourhood
    shrinks, since the other neighbourhoods and the set of possible
    dominators never grow.  So rest is a fixpoint of both rules."""
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


def _colour_peeled(graph, masks, rest, removed, colouring):
    """Colour the vertices layer 0 removed, in reverse order of removal,
    each with the smallest colour of its list that its coloured neighbours
    leave free; the vertices of the bitmask rest are coloured already.
    Each colour class is kept as one bit mask, so a vertex's used colours
    cost three ANDs of its bit row."""
    bits = graph.bits
    classes = [0, 0, 0, 0]  # classes[c]: the coloured vertices of colour c
    for v in iter_bits(rest):
        classes[colouring[v]] |= 1 << v
    for v in reversed(removed):
        row = bits[v]
        used = 0
        for c in (1, 2, 3):
            if row & classes[c]:
                used |= 1 << (c - 1)
        free = masks[v] & ~used
        if not free:
            raise InternalError(f"removed vertex {v} has no free colour")
        c = _COLOUR_OF[free & -free]
        colouring[v] = c
        classes[c] |= 1 << v


def _solve_component(g, masks, stats):
    sides = bipartite_check(g, (1 << g.n) - 1)
    if sides is not None:
        return _solve_bipartite(g, masks, sides[0], stats)

    cycle = shortest_odd_cycle(g)
    if len(cycle) == 7:
        return colour_blownup_c7(recognize_blownup_c7(g, cycle), masks)
    if len(cycle) != 5:
        # a triangle, or a chordless odd cycle whose first seven vertices
        # induce a P7
        raise PreconditionBreach(f"odd girth {len(cycle)}")
    return _solve_skeleton(g, masks, build_skeleton(g, cycle), stats)


def _solve_bipartite(g, masks, side_a, stats):
    """Colour a bipartite component, one side of which is the bitmask
    side_a: with full lists that side takes colour 1 and the other side 2,
    otherwise propagation and the fallback search decide."""
    if all(m == FULL_MASK for m in masks):
        colouring = [2] * g.n
        for v in iter_bits(side_a):
            colouring[v] = 1
        return colouring

    st = ListState(g, masks)
    if propagate(st) is None:
        stats.propagations += st.removals
        return None
    stats.propagations += st.removals
    st.removals = 0
    return _bipartite_fallback(g, st, stats)


def _bipartite_fallback(g, st, stats):
    """Depth-first branching over colours 1, 2, 3 of the first full-list
    vertex, propagating at each node and handing each node without a
    full-list vertex to 2-SAT; counts in stats.fallback_used when it
    branches at all, and each node it branches on in stats.fallback_nodes.

    Exponential worst case; only reachable for bipartite components with
    constrained lists, outside the polynomial solving path.  The depth can
    reach the vertex count, so the search keeps its own stack.  Masks only
    shrink below a node, so a vertex that is not full at a node is not full
    below it: the full vertices of the root, in order, are scanned once per
    path, each node resuming at its parent's cursor.
    """
    order = st.full_mask_vertices()
    if order:
        stats.fallback_used += 1
    stack = []  # [state, cursor, next colour] per branching node
    node, cursor = st, 0
    while True:
        if node is not None:
            masks = node.masks
            while cursor < len(order) and masks[order[cursor]] != FULL_MASK:
                cursor += 1
            if cursor == len(order):
                result = _two_sat_leaf(g, node, stats)
                if result is not None:
                    return result
            else:
                stack.append([node, cursor, 1])
                stats.fallback_nodes += 1
        if not stack:
            return None
        frame = stack[-1]
        parent, cursor, colour = frame
        if colour > 3:
            stack.pop()
            node = None
            continue
        frame[2] = colour + 1
        node = parent.copy()
        node.assign(order[cursor], colour)
        ok = propagate(node) is not None
        stats.propagations += node.removals
        node.removals = 0
        if not ok:
            node = None


def _two_sat_leaf(g, st, stats):
    """Finish a state with no full-mask vertex left by 2-SAT: a colouring,
    or None."""
    inst, var_info = residual_to_2sat(st, g)
    stats.sat_instances += 1
    solution = solve_2sat(inst)
    if solution is None:
        return None
    colouring = [_COLOUR_OF[m] for m in st.masks]
    for idx, (v, lo, hi) in enumerate(var_info):
        colouring[v] = lo if solution[idx] else hi
    return colouring


def _finish_branch(g, st, stats):
    """Finish one branch: safe elimination, propagation and the 2-SAT tail,
    which raises PreconditionBreach on a vertex that kept all three
    colours.  A colouring, or None."""
    eliminate_safe(st, g)
    ok = propagate(st) is not None
    stats.propagations += st.removals
    if not ok:
        return None
    stats.branches_survived += 1
    return _two_sat_leaf(g, st, stats)


def _solve_skeleton(g, masks, sk, stats):
    """Search every anchor colouring of the skeleton in order.  The
    component's list state is built once; each anchor colouring seeds and
    propagates a fork of it, so the order of both is that of a fresh state.
    A dead anchor colouring counts its branches, which depend only on which
    T and D indices it leaves open."""
    chains = {}
    counts = {}
    root = ListState(g, masks)
    for palette in _anchor_palettes([masks[c] for c in sk.c]):
        for i in palette.undetermined:
            if sk.t[i] and i not in chains:
                chains[i] = build_chain(g, sk, i)

        base = root.fork()
        ok = (base.assign_all(anchor_seeds(sk, palette))
              and propagate(base) is not None)
        stats.propagations += base.removals
        base.removals = 0
        if not ok:
            key = (palette.undetermined, palette.free_d)
            if key not in counts:
                counts[key] = _branch_count(sk, chains, palette)
            stats.branches += counts[key]
            continue

        for leaf in _leaf_stream(sk, chains, palette, base, stats):
            stats.branches += 1
            result = _finish_branch(g, leaf, stats)
            if result is not None:
                return result
    return None


def _branch_count(sk, chains, palette):
    """Number of branches of one anchor colouring, without building them:
    the product of the lengths of the lists choice_lists would return."""
    count = 1
    for i in palette.undetermined:
        chain = chains.get(i)
        if chain is not None:
            levels = chain.levels
            count *= 2 + 2 * sum((levels[k + 1] & ~levels[k]).bit_count()
                                 for k in range(chain.r + 1))
    for i in palette.free_d:
        if sk.d[i]:
            count *= 2 + 2 * (sk.d[i].bit_count() - 1)
    return count


def _leaf_stream(sk, chains, palette, base, stats):
    """Yield, in search order, the state of every branch of an anchor
    colouring whose seeds survive propagation.  Each choice is seeded and
    propagated once on a copy of its prefix's state; a failed choice prunes
    every branch below it.  Pruned branches and colour removals are added
    to stats as they happen."""
    lists = [c for c in choice_lists(sk, chains, palette) if c[0] is not None]
    below = [1] * (len(lists) + 1)  # branches under one choice at each depth
    for idx in range(len(lists) - 1, -1, -1):
        below[idx] = below[idx + 1] * len(lists[idx])

    def rec(state, idx):
        if idx == len(lists):
            yield state
            return
        for choice in lists[idx]:
            st2 = state.copy()
            ok = (st2.assign_all(case_seeds(sk, chains, palette, choice))
                  and propagate(st2) is not None)
            stats.propagations += st2.removals
            st2.removals = 0
            if ok:
                yield from rec(st2, idx + 1)
            else:
                stats.branches += below[idx + 1]

    # As in colour_blownup_c7, clearing rec breaks its closure cycle, which
    # would keep the choice lists and states alive; closing the stream early
    # runs this too.
    try:
        yield from rec(base, 0)
    finally:
        rec = None
