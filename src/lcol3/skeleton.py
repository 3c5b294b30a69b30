"""C5-anchored decomposition of a connected, promise-class graph.

Anchored on an induced 5-cycle, the vertex set splits into the cycle, the
sets T_i (seeing exactly the two anchors around position i), the sets D_i
(seeing only anchor i), the isolated remainder W, and the non-trivial
components of the remainder.  The builders validate the structural facts the
solver relies on (stability, bipartiteness, uniform neighbourhoods, nested
T_i-neighbourhoods) and raise PreconditionBreach at the first that fails.
Each fact holds on every triangle-free, P7-free graph anchored on an induced
C5, so a failure shows the graph is outside the class, and check_promise
names the witness.
"""

from collections import namedtuple

from .errors import PreconditionBreach
from .graph import bipartite_check, components_within, iter_bits


class Skeleton(namedtuple("Skeleton", "c t d w components")):
    """The anchored decomposition.  c is the anchor cycle, five vertices in
    cycle order; t[i] and d[i] are the sets T_i and D_i of anchor position
    i and w the isolated remainder W, all int bitmasks; components holds,
    for each non-trivial component of the remainder, its neighbourhood in
    S (the cycle with every T and D set) as an int bitmask."""

    __slots__ = ()


class Chain(namedtuple("Chain", "index v0 levels r")):
    """Nested T_i-neighbourhood levels (i = index), as int bitmasks, with a
    one-vertex base and T_i sentinel.

    levels[0] = {v0} ⊆ levels[1] ⊊ ... ⊊ levels[r+1] = T_i; levels 1..r are
    the distinct proper component neighbourhoods in T_i.
    """

    __slots__ = ()


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
    decomposition; returns a Skeleton or raises PreconditionBreach."""
    c5 = tuple(c5)
    if not _induces_c5(graph, c5):
        raise PreconditionBreach(f"anchor vertices {c5} do not induce a C5")
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
        if len(hits) > 2 or (len(hits) == 2 and hits[1] - hits[0] in (1, 4)):
            raise PreconditionBreach(f"vertex {v} sees two consecutive anchors")
        if len(hits) == 1:
            d_sets[hits[0]] |= 1 << v
        else:
            p, q = hits
            mid = (p + 1) % 5 if (q - p) % 5 == 2 else (q + 1) % 5
            t_sets[mid] |= 1 << v

    for stable in t_sets + d_sets:
        for v in iter_bits(stable):
            if bits[v] & stable:
                raise PreconditionBreach(f"edge inside a T or D set at vertex {v}")

    s_mask = c_mask
    d_all = 0
    for i in range(5):
        s_mask |= t_sets[i] | d_sets[i]
        d_all |= d_sets[i]

    rest = ((1 << graph.n) - 1) & ~s_mask
    w_mask = 0
    nbhds = []
    for comp in components_within(graph, rest):
        if comp.bit_count() == 1:
            w_mask |= comp
        else:
            nbhds.append(_validate_gs_component(graph, d_all, s_mask, comp))

    return Skeleton(c=c5, t=tuple(t_sets), d=tuple(d_sets), w=w_mask,
                    components=tuple(nbhds))


def _validate_gs_component(graph, d_all, s_mask, comp):
    """The S-neighbourhood of a non-trivial remainder component, after
    checking that its two stable sides each have one neighbourhood in S,
    disjoint and not both empty."""
    # No vertex of a non-trivial component may see any D set: an edge plus a
    # D-neighbour stretches into an induced P7 through four anchors.
    bits = graph.bits
    for x in iter_bits(comp):
        if bits[x] & d_all:
            raise PreconditionBreach(f"component vertex {x} sees a D set")
    sides = bipartite_check(graph, comp)
    if sides is None:
        raise PreconditionBreach("odd cycle off the anchored sets")
    side_a, side_b = sides
    n1 = _uniform_nbhd(bits, side_a, s_mask)
    n2 = _uniform_nbhd(bits, side_b, s_mask)
    if n1 is None or n2 is None:
        raise PreconditionBreach("component side with non-uniform S-neighbourhood")
    if n1 & n2:
        raise PreconditionBreach("component sides share an S-neighbour")
    if not n1 and not n2:
        raise PreconditionBreach("component with no neighbours in S")
    return n1 | n2


def _uniform_nbhd(bits, side, ref_mask):
    """The neighbourhood in ref_mask that every vertex of the non-empty
    vertex set `side` has, or None if two of them differ there."""
    nbhd = bits[(side & -side).bit_length() - 1] & ref_mask
    for x in iter_bits(side):
        if bits[x] & ref_mask != nbhd:
            return None
    return nbhd


def wd_components(graph, sk, i):
    """The T_i-neighbourhood of each non-trivial component of G[W ∪ D_i],
    as a list of int bitmasks; raises PreconditionBreach if a component
    breaks a fact of the class.  Each such component has one side in W and
    one in D_i, since W has no edges inside W and D_i is stable; each side
    has one neighbourhood in T_i, and the two are disjoint."""
    bits = graph.bits
    ti_mask = sk.t[i]
    d_masks = sk.d
    out = []
    for comp in components_within(graph, sk.w | d_masks[i]):
        if comp.bit_count() == 1:
            continue
        w_side = comp & sk.w
        d_side = comp & d_masks[i]
        for w in iter_bits(w_side):
            for j in range(5):
                if bits[w] & d_masks[j] and bits[w] & d_masks[(j + 1) % 5]:
                    raise PreconditionBreach(
                        f"W vertex {w} sees two consecutive D sets")
        w_nt = _uniform_nbhd(bits, w_side, ti_mask)
        d_nt = _uniform_nbhd(bits, d_side, ti_mask)
        if w_nt is None or d_nt is None:
            raise PreconditionBreach("non-uniform T-neighbourhood inside a W/D component")
        if w_nt & d_nt:
            raise PreconditionBreach("W/D component sides share a T-neighbour")
        out.append(w_nt | d_nt)
    return out


def build_chain(graph, sk, i):
    """Nested chain of component neighbourhoods inside T_i.

    Collects the T_i-neighbourhoods of the non-trivial components of the
    remainder (each one's S-neighbourhood in sk.components, cut to T_i) and
    of G[W ∪ D_i] (from wd_components), deduplicates, and checks that they
    are totally ordered by inclusion; an incomparable pair, which with T_i
    holds an induced P7, raises PreconditionBreach.
    """
    ti_mask = sk.t[i]
    if not ti_mask:
        raise ValueError(f"chain requested for empty T_{i}")
    nbhds = {nbhd & ti_mask for nbhd in sk.components}
    nbhds.update(wd_components(graph, sk, i))
    nbhds.discard(0)
    ordered = sorted(nbhds, key=lambda m: (m.bit_count(), m))
    for a, b in zip(ordered, ordered[1:]):
        if a & ~b:
            raise PreconditionBreach(f"incomparable component neighbourhoods in T_{i}")
    levels = [m for m in ordered if m != ti_mask]

    base = levels[0] if levels else ti_mask
    v0 = (base & -base).bit_length() - 1
    return Chain(index=i, v0=v0, levels=(1 << v0, *levels, ti_mask),
                 r=len(levels))
