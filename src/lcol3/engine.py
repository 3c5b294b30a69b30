"""Solver engine: anchor-cycle colouring enumeration, the (a)-(h) partial
colouring branches, list propagation, 2-SAT residuals with the
three-colour rule, and top-level orchestration.  Both branch searches, the
(a)-(h) choices below each live anchor colouring and the full-vertex search
that decides bipartite and blown-up-C7 components, run through one
depth-first loop, _leaf_stream, which builds and counts every search node
and hands each leaf to 2-SAT, returning the first colouring found.
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
    when its mask is a singleton; it is queued when its mask becomes one.
    Every colour that assign or propagate removes is added to
    stats.propagations, the SolveStats of the solve, which copies share."""

    __slots__ = ("graph", "masks", "pending", "stats")

    def __init__(self, graph, masks, stats):
        self.graph = graph
        self.masks = list(masks)
        self.pending = deque()
        self.stats = stats
        for v, m in enumerate(self.masks):
            if not 0 < m <= FULL_MASK:
                raise ValueError(f"bad colour mask {m} at vertex {v}")
            if _SIZE[m] == 1:
                self.pending.append(v)

    def copy(self):
        """An independent copy for a child of a search node, which is at a
        fixpoint, so its pending queue is empty; it counts into the same
        stats."""
        if self.pending:
            raise InternalError("ListState copied outside a propagation fixpoint")
        new = object.__new__(ListState)
        new.graph = self.graph
        new.masks = self.masks.copy()
        new.pending = deque()
        new.stats = self.stats
        return new

    def assign(self, v, colour):
        """Force a colour; False if it is not admissible any more."""
        cbit = 1 << (colour - 1)
        m = self.masks[v]
        if not m & cbit:
            return False
        if m != cbit:
            self.stats.propagations += _SIZE[m] - 1
            self.masks[v] = cbit
            self.pending.append(v)
        return True

    def assign_all(self, seeds):
        """Force every seed, a (vertex bitmask, colour) pair, in order, each
        mask's vertices lowest first; False at the first vertex that no
        longer admits the colour."""
        for vset, colour in seeds:
            for v in iter_bits(vset):
                if not self.assign(v, colour):
                    return False
        return True


def propagate(st):
    """Run singleton propagation to a fixpoint; None on an emptied mask or
    two adjacent vertices forced to the same colour.  The colours removed
    on the way, up to a failure too, are added to st.stats.propagations."""
    masks = st.masks
    pending = st.pending
    bits = st.graph.bits
    removed = 0
    while pending:
        v = pending.popleft()
        cbit = masks[v]
        for u in iter_bits(bits[v]):
            mu = masks[u]
            if mu & cbit:
                if mu == cbit:
                    st.stats.propagations += removed
                    return None
                mu &= ~cbit
                masks[u] = mu
                removed += 1
                if _SIZE[mu] == 1:
                    pending.append(u)
    st.stats.propagations += removed
    return st


def residual_to_2sat(st):
    """2-SAT encoding of the state's remaining two-colour choices.

    One scan of the vertices applies the three-colour rule: a vertex that
    still has all three colours gets, through st.assign, its smallest safe
    colour, one that no neighbour admits (so an isolated vertex gets colour
    1), and PreconditionBreach is raised when it has none.  The assignment
    shrinks no other mask, and the scan sees each earlier safe vertex as
    assigned.  The same scan gives one variable to each two-colour vertex,
    true iff it takes the smaller colour of its mask; each edge then
    contributes one clause per colour admissible at both ends.
    """
    masks = st.masks
    bits = st.graph.bits
    var_of = {}
    var_info = []
    for v, m in enumerate(masks):
        if m == FULL_MASK:
            free = FULL_MASK  # the colours no neighbour admits
            for u in iter_bits(bits[v]):
                free &= ~masks[u]
                if not free:
                    raise PreconditionBreach(
                        f"vertex {v} still has all three colours")
            st.assign(v, _COLOUR_OF[free & -free])
        elif _SIZE[m] == 2:
            lo, hi = colours_of(m)
            var_of[v] = len(var_info)
            var_info.append((v, lo, hi))

    inst = TwoSatInstance(len(var_info))
    for u, row in enumerate(bits):
        for v in iter_bits(row & -(2 << u)):  # the neighbours above u
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


def t_case_choices(sk, palette, chains, i):
    """The seed lists of cases (a)-(d) on the undetermined T index i, with
    q the once-used colour and `other` T_i's non-shared one: (c) all of
    T_i takes other, (d) all of it q, then (a) the chain's level-k prefix
    takes other and a witness w of the next level q, and (b) the same
    swapped, each with k then w ascending; [None] for an empty T_i."""
    t_set = sk.t[i]
    if not t_set:
        return [None]
    q = palette.q
    other = palette.options[i][1]
    choices = [((t_set, other),), ((t_set, q),)]
    levels = chains[i].levels
    for first, second in ((other, q), (q, other)):
        for k in range(len(levels) - 1):
            for w in iter_bits(levels[k + 1] & ~levels[k]):
                choices.append(((levels[k], first), (1 << w, second)))
    return choices


def d_case_choices(sk, palette, i):
    """The seed lists of cases (e)-(h) on the free D index i, with options
    {a, b} and v the lowest vertex of D_i: (g) all of D_i takes a, (h) all
    of it b, then (e) v takes a and a witness v' takes b, and (f) the same
    swapped, each with v' ascending; [None] for an empty D_i."""
    d_set = sk.d[i]
    if not d_set:
        return [None]
    a, b = palette.d_options[i]
    low = d_set & -d_set
    choices = [((d_set, a),), ((d_set, b),)]
    for first, second in ((a, b), (b, a)):
        for u in iter_bits(d_set ^ low):
            choices.append(((low, first), (1 << u, second)))
    return choices


def choice_lists(sk, chains, palette):
    """The five choice lists of an anchor colouring, in search order: the
    T cases on each undetermined T index, then the D cases on each free D
    index.  A branch is one pick from each, and the branches are their
    Cartesian product."""
    return ([t_case_choices(sk, palette, chains, i) for i in palette.undetermined]
            + [d_case_choices(sk, palette, i) for i in palette.free_d])


def anchor_seeds(sk, palette):
    """Seeds every branch of an anchor colouring shares: the anchors and
    the forced T sets."""
    col = palette.c5_colouring
    return ([(1 << c, colour) for c, colour in zip(sk.c, col)]
            + [(sk.t[i], colour) for i, colour in palette.forced.items()])


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

    So each component handed on has only two- and three-colour lists and
    sits at a propagation fixpoint: it holds no singleton list, since
    every vertex left with one colour is settled.  A component with no
    full list is one 2-SAT instance on any graph and is decided by 2-SAT
    alone, so in trust mode a violation inside it is not reported either;
    the answer stays exact.
    """
    if mode not in ("trust", "verify"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    stats = SolveStats()
    try:
        masks = normalize_lists(graph.n, lists)

        if mode == "verify":
            violation = check_promise(graph)
            if violation is not None:
                return Outcome("invalid", None, violation, stats)

        fixed = masks  # the lists after layer-0 propagation
        if 1 in masks or 2 in masks or 4 in masks:
            st = ListState(graph, masks, stats)
            if propagate(st) is None:
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
                return Outcome("invalid", None, violation.relabel(ids), stats)
            if result is None:
                return Outcome("unsat", None, None, stats)
            for local, v in enumerate(ids):
                colouring[v] = result[local]

        _colour_peeled(graph, fixed, rest, settled + removed, colouring)
        colouring = [colouring[u] for u in rep]
        if not _colouring_fits(graph, masks, colouring):
            raise InternalError("SAT colouring failed the final re-check")
        return Outcome("sat", colouring, None, stats)
    finally:
        stats.millis = (time.perf_counter() - t0) * 1000.0


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
    dominators never grow.  So rest is a fixpoint of both rules.  The
    candidates for v's dominator (unremoved or settled, list inside L(v))
    are cut to N(x) while the highest misses a neighbour x of v, which a
    dominator sees; each cut takes a new x, so at most deg(v) + 1 tests."""
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
            cand = (inside[m] & (rest | settled)) ^ low
            while cand:
                miss = row & ~bits[cand.bit_length() - 1]
                if not miss:
                    break
                cand &= bits[miss.bit_length() - 1]
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
    """Colour one component that layer 0 left: a colouring, or None.  Its
    lists have two or three colours and sit at a propagation fixpoint (see
    solve), so a component with no full list is one 2-SAT instance and
    goes to 2-SAT before any structural check.  Its list state is built
    once, here, and whichever search takes it builds every node as a copy
    of it or of a node below it.  A component of odd girth 7 must be a
    blown-up C7, which recognize_blownup_c7 checks, raising
    PreconditionBreach otherwise; _full_vertex_search then decides it."""
    st = ListState(g, masks, stats)
    if FULL_MASK not in masks:
        return _two_sat_leaf(st)
    sides = bipartite_check(g, (1 << g.n) - 1)
    if sides is not None:
        if all(m == FULL_MASK for m in masks):
            colouring = [2] * g.n
            for v in iter_bits(sides[0]):
                colouring[v] = 1
            return colouring
        return _full_vertex_search(st)

    cycle = shortest_odd_cycle(g)
    if len(cycle) == 7:
        recognize_blownup_c7(g, cycle)
        return _full_vertex_search(st)
    if len(cycle) != 5:
        # a triangle, or a chordless odd cycle whose first seven vertices
        # induce a P7
        raise PreconditionBreach(f"odd girth {len(cycle)}")
    return _solve_skeleton(st, build_skeleton(g, cycle))


def _full_vertex_search(st):
    """Depth-first branching over colours 1, 2, 3 of the lowest full-list
    vertex, found by one scan of each node's masks, through _leaf_stream,
    which hands each node without a full-list vertex to 2-SAT; counts each
    call in st.stats.fallback_used and each node it branches on in
    st.stats.fallback_nodes.  The root st is at a propagation fixpoint and
    has a full-list vertex, so the search always branches.

    On a bipartite component the worst case is exponential, and the depth
    can reach the vertex count.  On a blown-up C7 it branches at most 13
    times.  At layer 0's fixpoint a class holding a full-list vertex v
    holds nothing else: a classmate u has N(v) ⊆ N(u) and L(u) ⊆ L(v), so
    it would dominate v.  The vertices branched on along one path are
    pairwise non-adjacent, since a neighbour of a branched vertex loses a
    colour; so they lie in pairwise non-adjacent classes, at most 3 of the
    cycle's 7, and the nodes number at most 1 + 3 + 9.
    """
    stats = st.stats
    stats.fallback_used += 1

    def children(node, depth):
        try:
            i = node.masks.index(FULL_MASK)
        except ValueError:
            return None
        stats.fallback_nodes += 1
        bit = 1 << i
        return ((bit, 1),), ((bit, 2),), ((bit, 3),)

    return _leaf_stream(st, children)


def _two_sat_leaf(st):
    """Finish a state at a propagation fixpoint by the three-colour rule
    and 2-SAT (see residual_to_2sat): a colouring, or None."""
    inst, var_info = residual_to_2sat(st)
    st.stats.sat_instances += 1
    solution = solve_2sat(inst)
    if solution is None:
        return None
    colouring = [_COLOUR_OF[m] for m in st.masks]
    for idx, (v, lo, hi) in enumerate(var_info):
        colouring[v] = lo if solution[idx] else hi
    return colouring


def _solve_skeleton(st, sk):
    """Search every anchor colouring of the skeleton in order, from the
    component's list state st.  Each anchor colouring is one node, a copy
    of st seeded and propagated here and counted in stats.branches; the
    chains its choices read are built first.  A live one runs the (a)-(h)
    choices through _leaf_stream, the seed lists of one non-empty set per
    depth, and _leaf_stream hands each leaf to 2-SAT.  The base is
    propagated here, not in _leaf_stream, since perfbench/layers.py tells
    live anchor colourings from tried choices by the name of propagate's
    caller."""
    stats = st.stats
    chains = {}
    for palette in _anchor_palettes([st.masks[c] for c in sk.c]):
        for i in palette.undetermined:
            if sk.t[i] and i not in chains:
                chains[i] = build_chain(st.graph, sk, i)

        stats.branches += 1
        base = st.copy()
        if not (base.assign_all(anchor_seeds(sk, palette))
                and propagate(base) is not None):
            continue

        lists = [choices for choices in choice_lists(sk, chains, palette)
                 if choices[0] is not None]

        def children(node, depth):
            return lists[depth] if depth < len(lists) else None

        result = _leaf_stream(base, children)
        if result is not None:
            return result
    return None


def _leaf_stream(root, children):
    """Search below the state root, which is at a propagation fixpoint, in
    depth-first order, and return the first colouring that a leaf's 2-SAT
    finds, or None.  children(node, depth) gives a node's children as an
    iterable of seed lists (see ListState.assign_all), or None at a leaf;
    the root is at depth 0.  Each child is a copy of its parent, seeded
    with one list and propagated once, in this function's own frame; a
    child whose seeds or propagation fail is pruned with all below it.
    Each child built is added to stats.branches and each leaf to
    stats.branches_survived before _two_sat_leaf decides it.  The search
    keeps its own stack, so its depth is not bounded by the recursion
    limit: per node on the current path, its state and the children not
    yet built."""
    stats = root.stats
    stack = []
    node = root
    while True:
        kids = children(node, len(stack))
        if kids is None:
            stats.branches_survived += 1
            colouring = _two_sat_leaf(node)
            if colouring is not None:
                return colouring
        else:
            stack.append((node, iter(kids)))
        node = None
        while node is None:
            if not stack:
                return None
            parent, kids = stack[-1]
            seeds = next(kids, None)
            if seeds is None:
                stack.pop()
                continue
            stats.branches += 1
            child = parent.copy()
            node = propagate(child) if child.assign_all(seeds) else None
