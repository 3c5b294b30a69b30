"""C5-anchored decomposition of a connected, promise-class graph.

Anchored on an induced 5-cycle, the vertex set splits into the cycle, the
sets T_i (seeing exactly the two anchors around position i), the sets D_i
(seeing only anchor i), the isolated remainder W, and the non-trivial
components of the remainder.  The builders validate the structural facts the
solver relies on (stability, bipartiteness, uniform neighbourhoods, nested
T_i-neighbourhoods) and turn any failure into an explicit promise-violation
witness where one is directly constructible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .graph import (VertexSet, bipartite_check, components_within,
                    induced_subgraph, iter_bits)
from .recognition import (STRUCTURE_BREACH, PromiseViolation, p7_witness,
                          triangle_witness)


@dataclass(frozen=True)
class ComponentInfo:
    """A non-trivial component of the graph minus the anchored sets.

    The two stable sides each share one neighbourhood in S (disjoint between
    sides, at least one non-empty, never touching any D set); t_nbhd[i] is
    the component's neighbourhood inside T_i.
    """

    vertices: VertexSet
    sides: tuple
    side_nbhd: tuple
    t_nbhd: tuple


@dataclass(frozen=True)
class WDComponent:
    """A non-trivial component of G[W ∪ D_i]; both sides have uniform
    neighbourhoods inside T_i and those neighbourhoods are disjoint."""

    index: int
    vertices: VertexSet
    w_side: VertexSet
    d_side: VertexSet
    w_t_nbhd: VertexSet
    d_t_nbhd: VertexSet

    @property
    def t_nbhd(self):
        return self.w_t_nbhd | self.d_t_nbhd


@dataclass(frozen=True)
class Skeleton:
    c: tuple
    t: tuple
    d: tuple
    s: VertexSet
    w: VertexSet
    components: tuple

    @cached_property
    def t_lists(self):
        """The vertices of each T set as an ascending list."""
        return tuple(t.to_list() for t in self.t)


@dataclass(frozen=True)
class Chain:
    """Nested T_i-neighbourhood levels with a one-vertex base and T_i sentinel.

    levels[0] = {v0} ⊆ levels[1] ⊊ ... ⊊ levels[r+1] = T_i; levels 1..r are
    the distinct proper component neighbourhoods in T_i.
    """

    index: int
    v0: int
    levels: tuple
    r: int


def _induces_c5(graph, c5):
    if len(c5) != 5 or len(set(c5)) != 5:
        return False
    for i in range(5):
        for j in range(i + 1, 5):
            gap = min((j - i) % 5, (i - j) % 5)
            if graph.has_edge(c5[i], c5[j]) != (gap == 1):
                return False
    return True


def build_skeleton(graph, c5):
    """Classify every neighbour of the anchor cycle and validate the
    decomposition; returns a Skeleton or a PromiseViolation."""
    c5 = tuple(c5)
    if not _induces_c5(graph, c5):
        return PromiseViolation(STRUCTURE_BREACH, c5, "anchor vertices do not induce a C5")
    bits = graph.bits
    pos = {v: i for i, v in enumerate(c5)}
    c_mask = sum(1 << v for v in c5)
    near = 0
    for a in c5:
        near |= bits[a]

    t_sets = [0] * 5
    d_sets = [0] * 5
    for v in iter_bits(near & ~c_mask):
        hits = sorted(pos[u] for u in iter_bits(bits[v] & c_mask))
        for idx in range(len(hits)):
            i, j = hits[idx], hits[(idx + 1) % len(hits)]
            if i != j and ((j - i) % 5 == 1 or (i - j) % 5 == 1):
                lo = i if (j - i) % 5 == 1 else j
                return triangle_witness(graph, v, c5[lo], c5[(lo + 1) % 5])
        if len(hits) == 1:
            d_sets[hits[0]] |= 1 << v
        else:
            p, q = hits
            mid = (p + 1) % 5 if (q - p) % 5 == 2 else (q + 1) % 5
            t_sets[mid] |= 1 << v

    for i in range(5):
        for v in iter_bits(t_sets[i]):
            inside = bits[v] & t_sets[i]
            if inside:
                u = (inside & -inside).bit_length() - 1
                return triangle_witness(graph, v, u, c5[(i + 1) % 5])
        for v in iter_bits(d_sets[i]):
            inside = bits[v] & d_sets[i]
            if inside:
                u = (inside & -inside).bit_length() - 1
                return triangle_witness(graph, v, u, c5[i])

    s_mask = c_mask
    for m in t_sets:
        s_mask |= m
    for m in d_sets:
        s_mask |= m
    d_all = 0
    for m in d_sets:
        d_all |= m

    rest = ((1 << graph.n) - 1) & ~s_mask
    comps = components_within(graph, rest)
    w_mask = 0
    infos = []
    for comp in comps:
        if comp.bit_count() == 1:
            w_mask |= comp
            continue
        result = _validate_gs_component(graph, bits, c5, t_sets, d_sets, d_all,
                                        s_mask, comp)
        if isinstance(result, PromiseViolation):
            return result
        infos.append(result)

    return Skeleton(
        c=c5,
        t=tuple(VertexSet(m) for m in t_sets),
        d=tuple(VertexSet(m) for m in d_sets),
        s=VertexSet(s_mask),
        w=VertexSet(w_mask),
        components=tuple(infos),
    )


def _index_of(sets, u):
    """The position i with u in sets[i] (five disjoint int masks), or None."""
    for i in range(5):
        if (sets[i] >> u) & 1:
            return i
    return None


def _validate_gs_component(graph, bits, c5, t_sets, d_sets, d_all, s_mask, comp):
    # No vertex of a non-trivial component may see any D set: an edge plus a
    # D-neighbour stretches into an induced P7 through four anchors.
    for x in iter_bits(comp):
        hit = bits[x] & d_all
        if hit:
            u = (hit & -hit).bit_length() - 1
            i = _index_of(d_sets, u)
            y = ((bits[x] & comp) & -(bits[x] & comp)).bit_length() - 1
            if graph.has_edge(y, u):
                return triangle_witness(graph, x, y, u)
            return p7_witness(
                graph,
                (y, x, u, c5[i], c5[(i + 1) % 5], c5[(i + 2) % 5], c5[(i + 3) % 5]),
                "component vertex with a D-neighbour")

    sides = _bfs_sides(bits, comp)
    if sides is None:
        sub, ids = induced_subgraph(graph, VertexSet(comp))
        cycle = [ids[v] for v in bipartite_check(sub)]
        return _odd_cycle_escape_witness(graph, bits, c5, t_sets, d_sets,
                                         s_mask, comp, cycle)
    side_a, side_b = sides

    mismatch = _side_mismatch(graph, bits, comp, s_mask)
    if mismatch is not None:
        x, y, z, u = mismatch
        if graph.has_edge(y, u):
            return triangle_witness(graph, x, y, u)
        ti = _index_of(t_sets, u)
        if ti is None:
            return PromiseViolation(STRUCTURE_BREACH, (x, y, z, u),
                                    "non-uniform S-neighbourhood outside the T sets")
        return p7_witness(
            graph,
            (z, y, x, u, c5[(ti + 1) % 5], c5[(ti + 2) % 5], c5[(ti + 3) % 5]),
            "component side with non-uniform T-neighbourhood")

    n1 = bits[(side_a & -side_a).bit_length() - 1] & s_mask
    n2 = bits[(side_b & -side_b).bit_length() - 1] & s_mask

    common = n1 & n2
    if common:
        u = (common & -common).bit_length() - 1
        for x in iter_bits(side_a):
            cross = bits[x] & side_b
            if cross:
                y = (cross & -cross).bit_length() - 1
                return triangle_witness(graph, x, y, u)
    if not n1 and not n2:
        return PromiseViolation(STRUCTURE_BREACH, tuple(iter_bits(comp)),
                                "component with no neighbours in S")

    nbhd = n1 | n2
    return ComponentInfo(
        vertices=VertexSet(comp),
        sides=(VertexSet(side_a), VertexSet(side_b)),
        side_nbhd=(VertexSet(n1), VertexSet(n2)),
        t_nbhd=tuple(VertexSet(nbhd & t_sets[i]) for i in range(5)),
    )


def _bfs_sides(bits, comp):
    """The two sides of the connected vertex set `comp` (at least two
    vertices) as int masks, the side of its smallest vertex first, or None
    if it induces an odd cycle.

    BFS layers from the smallest vertex, each the union of its
    predecessor's bit rows cut to unreached vertices, alternate between
    the sides; an edge joins two vertices of one layer or of consecutive
    layers, so the set is bipartite iff no layer holds an edge.  These are
    the sides bipartite_check gives on the induced subgraph."""
    frontier = comp & -comp
    rest = comp ^ frontier
    sides = [0, 0]
    parity = 0
    while frontier:
        sides[parity] |= frontier
        reach = 0
        for x in iter_bits(frontier):
            row = bits[x]
            if row & frontier:
                return None
            reach |= row
        frontier = reach & rest
        rest ^= frontier
        parity ^= 1
    return sides[0], sides[1]


def _side_mismatch(graph, bits, comp, ref_mask):
    """Find (x, y, z, u): x,z are neighbours of y inside comp whose
    neighbourhoods in ref_mask differ, u witnessing the difference on x."""
    for y in iter_bits(comp):
        nbrs = bits[y] & comp
        if not nbrs:
            continue
        first = (nbrs & -nbrs).bit_length() - 1
        ref = bits[first] & ref_mask
        for z in iter_bits(nbrs ^ (1 << first)):
            other = bits[z] & ref_mask
            if other != ref:
                diff = ref ^ other
                u = (diff & -diff).bit_length() - 1
                if (ref >> u) & 1:
                    return (first, y, z, u)
                return (z, y, first, u)
    return None


def _odd_cycle_escape_witness(graph, bits, c5, t_sets, d_sets, s_mask, comp, cycle):
    """An odd cycle off S stretches into a long induced path ending in S and
    three anchors; returns its first seven vertices (or a triangle met on
    the way)."""
    n = graph.n
    dist = [-1] * n
    parent = [-1] * n
    queue = deque()
    for v in cycle:
        if dist[v] == -1:
            dist[v] = 0
            queue.append(v)
    target = None
    while queue:
        x = queue.popleft()
        if (s_mask >> x) & 1:
            target = x
            break
        for y in graph.adj[x]:
            if dist[y] == -1:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
    if target is None:
        return PromiseViolation(STRUCTURE_BREACH, tuple(cycle),
                                "odd component cycle with no path to S")

    path = [target]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()  # cycle vertex .. target in S

    q = path[1] if len(path) > 1 else path[0]
    length = len(cycle)
    cyc_pos = {v: i for i, v in enumerate(cycle)}
    hits = sorted(cyc_pos[u] for u in graph.adj[q] if u in cyc_pos)
    if not hits:
        return PromiseViolation(STRUCTURE_BREACH, tuple(cycle) + (q,),
                                "path vertex lost contact with the odd cycle")
    hitset = set(hits)
    for j in hits:
        if (j + 1) % length in hitset:
            return triangle_witness(graph, q, cycle[j], cycle[(j + 1) % length])
    entry = None
    for j in hits:
        if (j - 2) % length not in hitset:
            entry = j
            break
    if entry is None:
        return PromiseViolation(STRUCTURE_BREACH, (q,) + tuple(cycle),
                                "cycle neighbourhood closed under two-steps")
    c3, c2, c1 = cycle[entry], cycle[(entry - 1) % length], cycle[(entry - 2) % length]
    if graph.has_edge(c1, c3):
        return triangle_witness(graph, c1, c2, c3)

    s_vertex = path[-1]
    ti = _index_of(t_sets, s_vertex)
    if ti is not None:
        ext = (c5[(ti + 1) % 5], c5[(ti + 2) % 5], c5[(ti + 3) % 5])
    else:
        di = _index_of(d_sets, s_vertex)
        if di is None:
            return PromiseViolation(STRUCTURE_BREACH, (s_vertex,),
                                    "escape path ended on the anchor cycle")
        ext = (c5[di], c5[(di + 1) % 5], c5[(di + 2) % 5])
    long_path = (c1, c2, c3) + tuple(path[1:]) + ext
    return p7_witness(graph, long_path[:7], "odd cycle off the anchored sets")


def wd_components(graph, sk, i):
    """Non-trivial components of G[W ∪ D_i] with per-side uniform
    T_i-neighbourhoods; returns a list of WDComponent or a PromiseViolation."""
    bits = graph.bits
    c5 = sk.c
    ti_mask = sk.t[i].mask
    d_masks = [s.mask for s in sk.d]
    verts = sk.w.mask | d_masks[i]
    out = []
    for comp in components_within(graph, verts):
        if comp.bit_count() == 1:
            continue
        w_side = comp & sk.w.mask
        d_side = comp & d_masks[i]

        for w in iter_bits(w_side):
            for j in range(5):
                a = bits[w] & d_masks[j]
                b = bits[w] & d_masks[(j + 1) % 5]
                if a and b:
                    d1 = (a & -a).bit_length() - 1
                    d2 = (b & -b).bit_length() - 1
                    if graph.has_edge(d1, d2):
                        return triangle_witness(graph, w, d1, d2)
                    return p7_witness(
                        graph,
                        (d1, w, d2, c5[(j + 1) % 5], c5[(j + 2) % 5],
                         c5[(j + 3) % 5], c5[(j + 4) % 5]),
                        "W vertex seeing two consecutive D sets")

        mismatch = _side_mismatch(graph, bits, comp, ti_mask)
        if mismatch is not None:
            x, y, z, u = mismatch
            if graph.has_edge(y, u):
                return triangle_witness(graph, x, y, u)
            return p7_witness(
                graph,
                (z, y, x, u, c5[(i + 1) % 5], c5[(i + 2) % 5], c5[(i + 3) % 5]),
                "non-uniform T-neighbourhood inside a W/D component")

        w_nt = bits[VertexSet(w_side).min()] & ti_mask if w_side else 0
        d_nt = bits[VertexSet(d_side).min()] & ti_mask if d_side else 0
        common = w_nt & d_nt
        if common:
            t = (common & -common).bit_length() - 1
            for w in iter_bits(w_side):
                cross = bits[w] & d_side
                if cross:
                    d = (cross & -cross).bit_length() - 1
                    return triangle_witness(graph, w, d, t)
        out.append(WDComponent(
            index=i,
            vertices=VertexSet(comp),
            w_side=VertexSet(w_side),
            d_side=VertexSet(d_side),
            w_t_nbhd=VertexSet(w_nt),
            d_t_nbhd=VertexSet(d_nt),
        ))
    return out


def build_chain(graph, sk, i):
    """Nested chain of component neighbourhoods inside T_i, or a violation.

    Collects the T_i-neighbourhoods of the non-trivial components of both
    the S-remainder and G[W ∪ D_i], deduplicates, and verifies they are
    totally ordered by inclusion; an incomparable pair yields the 2K2-based
    induced-P7 witness.
    """
    ti_mask = sk.t[i].mask
    if not ti_mask:
        raise ValueError(f"chain requested for empty T_{i}")
    owners = []
    for info in sk.components:
        m = info.t_nbhd[i].mask
        if m:
            owners.append((m, info.vertices.mask))
    wds = wd_components(graph, sk, i)
    if isinstance(wds, PromiseViolation):
        return wds
    for comp in wds:
        m = comp.t_nbhd.mask
        if m:
            owners.append((m, comp.vertices.mask))

    by_mask = {}
    for m, vertices in owners:
        by_mask.setdefault(m, vertices)
    ordered = sorted(by_mask, key=lambda m: (m.bit_count(), m))
    for a, b in zip(ordered, ordered[1:]):
        if a & ~b:
            return _chain_order_witness(graph, sk, i, a, by_mask[a], b, by_mask[b])
    levels = [m for m in ordered if m != ti_mask]

    v0 = VertexSet(levels[0]).min() if levels else VertexSet(ti_mask).min()
    chain_levels = (VertexSet(1 << v0),) + tuple(VertexSet(m) for m in levels) \
        + (VertexSet(ti_mask),)
    return Chain(index=i, v0=v0, levels=chain_levels, r=len(levels))


def _chain_order_witness(graph, sk, i, mask_a, comp_a, mask_b, comp_b):
    bits = graph.bits
    u = ((mask_a & ~mask_b) & -(mask_a & ~mask_b)).bit_length() - 1
    z = ((mask_b & ~mask_a) & -(mask_b & ~mask_a)).bit_length() - 1
    va = bits[u] & comp_a
    vb = bits[z] & comp_b
    if not va or not vb:
        return PromiseViolation(STRUCTURE_BREACH, (u, z),
                                "chain neighbourhood without an attached vertex")
    v = (va & -va).bit_length() - 1
    w = ((bits[v] & comp_a) & -(bits[v] & comp_a)).bit_length() - 1
    if graph.has_edge(w, u):
        return triangle_witness(graph, v, w, u)
    y = (vb & -vb).bit_length() - 1
    x = ((bits[y] & comp_b) & -(bits[y] & comp_b)).bit_length() - 1
    if graph.has_edge(x, z):
        return triangle_witness(graph, y, x, z)
    return p7_witness(graph, (x, y, z, sk.c[(i + 1) % 5], u, v, w),
                      "incomparable component neighbourhoods in T")


def skeleton_report(graph, sk, relabel=None):
    """Structured diagnostic view of the decomposition; relabel maps internal
    vertex ids to display ids (identity by default)."""
    if relabel is None:
        def relabel(v):
            return v

    def vs(x):
        return [relabel(v) for v in x]

    report = {
        "anchors": vs(sk.c),
        "t": {str(i + 1): vs(sk.t[i]) for i in range(5)},
        "d": {str(i + 1): vs(sk.d[i]) for i in range(5)},
        "s": vs(sk.s),
        "w": vs(sk.w),
        "components": [
            {
                "vertices": vs(info.vertices),
                "sides": [vs(info.sides[0]), vs(info.sides[1])],
                "side_nbhd": [vs(info.side_nbhd[0]), vs(info.side_nbhd[1])],
                "t_nbhd": {str(i + 1): vs(info.t_nbhd[i]) for i in range(5)
                           if info.t_nbhd[i]},
            }
            for info in sk.components
        ],
        "wd_components": {},
        "chains": {},
    }
    for i in range(5):
        wds = wd_components(graph, sk, i)
        if isinstance(wds, PromiseViolation):
            continue
        entries = [
            {
                "vertices": vs(c.vertices),
                "w_side": vs(c.w_side),
                "d_side": vs(c.d_side),
                "t_nbhd": vs(c.t_nbhd),
            }
            for c in wds
        ]
        if entries:
            report["wd_components"][str(i + 1)] = entries
        if sk.t[i]:
            chain = build_chain(graph, sk, i)
            if not isinstance(chain, PromiseViolation):
                report["chains"][str(i + 1)] = {
                    "v0": relabel(chain.v0),
                    "r": chain.r,
                    "levels": [vs(level) for level in chain.levels],
                }
    return report
