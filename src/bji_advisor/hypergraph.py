"""Hypergraphs, minimal transversals and transversality numbers.

Vertices are small nonnegative integers.  A vertex set is an int mask: bit
``v`` is vertex ``v``; bit ``i`` of an edge mask is ``edges[i]``.  Results
leave as sorted vertex tuples, smallest sets first.  Berge's edge-by-edge
construction with a private-edge minimality test enumerates every minimal
transversal.  The smallest ones are found by iterative deepening (Korf, AIJ
1985): each level is a depth-first hitting-set search, branching on
uncovered edges, for the transversals of exactly its size cap.  The cap
rises by one from a packing of pairwise-disjoint edges, a lower bound on
the transversality number, until a level finds a set.  Below that number
no set is reached, and at it every set reached is minimal, so the search
keeps no minimality bookkeeping.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable


def bits(mask: int) -> tuple[int, ...]:
    """Set bit positions of ``mask``, lowest first."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


def mask(ids: Iterable[int]) -> int:
    """The int mask with bit ``i`` set for every ``i`` in ``ids``."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class Hypergraph(namedtuple("Hypergraph",
                            "vertices edges vertex_mask incidence")):
    """The inclusion-minimal edges of a family of nonempty vertex sets, over
    the vertices of all: a set hits an edge iff it hits a minimal edge inside
    it, so both have the same transversals (Murakami & Uno, DAM 2014).

    ``edges`` are the minimal vertex masks, smallest first; ``vertex_mask``
    is the mask of ``vertices``; ``incidence[v]`` is vertex ``v``'s
    edge-index mask.
    """

    __slots__ = ()

    @classmethod
    def from_edges(cls, edges: Iterable[int]) -> "Hypergraph":
        """The edges containing no other given edge (so no repeat either),
        by size, ties in first-seen order, over the vertices of all."""
        kept: list[int] = []
        covered = 0
        for e in sorted(dict.fromkeys(edges), key=int.bit_count):
            if not e:
                raise ValueError("hyperedge must be nonempty")
            covered |= e
            for k in kept:
                if k & e == k:
                    break
            else:
                kept.append(e)
        if not kept:
            raise ValueError("hypergraph needs at least one edge")
        incidence = [0] * covered.bit_length()
        for i, e in enumerate(kept):
            for v in bits(e):
                incidence[v] |= 1 << i
        return cls(bits(covered), tuple(kept), covered, tuple(incidence))


def berge_enumerate(h: Hypergraph) -> list[tuple[int, ...]]:
    """All minimal transversals, built edge by edge (Berge).

    The minimal edges are processed smallest first.  The running family
    holds the minimal transversals of the edges processed so far, and each
    set carries, per member, its private edges: the processed edges that no
    other member hits.  Processing edge ``e``, a set that hits ``e`` stays
    (a lone hitter gains ``e`` as a private edge); a set ``t`` that misses
    ``e`` grows into ``t | v`` for each ``v`` in ``e``, unless ``v`` hits
    every private edge of some member of ``t``, which is exactly when
    ``t | v`` is not minimal.  ``v`` is the only member of ``t | v`` in
    ``e``, so no set arises twice and the family needs no pairwise pruning.
    The time is bound by the size of the output.
    """
    # The sets are built over the vertices relabelled ``top - v``.  Within
    # one size, increasing id tuples are then decreasing masks, so the
    # family sorts as ints, and a mask's bits read highest first are its ids
    # in increasing order.
    top = h.vertex_mask.bit_length() - 1
    edges = [mask([top - v for v in bits(e)]) for e in h.edges]
    # A set's private edges are packed into one int, a field of m + 1 bits
    # per member in (relabelled) vertex order: bit j of a field is edge j,
    # the top bit is a zero guard.  Adding 2^m - 1 to each of the k fields
    # of a k-set carries into the guard iff the field is nonzero, so one
    # addition checks every member at once.  (A tuple of per-member masks
    # took over twice the time and memory on a family of 450,000 sets.)
    # Each member has a private edge of its own, so no set has more than m
    # members.
    m = len(edges)
    width, full = m + 1, (1 << m) - 1
    ones = [mask(range(0, width * k, width)) for k in range(m + 1)]
    fills = [full * o for o in ones]
    guards = [o << m for o in ones]
    # per (relabelled) vertex, in every field: the edges that do not hold it
    misses = [(full & ~inc) * ones[-1] for inc in reversed(h.incidence)]
    sets, privs = [0], [0]
    for j, e in enumerate(edges[:-1]):
        grow = [(1 << v, misses[v]) for v in bits(e)]
        pairs, sets, privs = zip(sets, privs), [], []
        for t, p in pairs:
            hit = t & e
            if hit:
                if not hit & (hit - 1):
                    p |= 1 << (t & (hit - 1)).bit_count() * width + j
                sets.append(t)
                privs.append(p)
                continue
            k = t.bit_count()
            fill, guard = fills[k], guards[k]
            for vb, miss in grow:
                kept = p & miss
                if (kept + fill) & guard == guard:
                    # v's field, holding e alone, goes in at v's place
                    at = (t & (vb - 1)).bit_count() * width
                    sets.append(t | vb)
                    privs.append(kept & ((1 << at) - 1)
                                 | (kept >> at << width | 1 << j) << at)
    # the last edge: no later edge reads a private field, so none is built
    e = edges[-1]
    grow = [(1 << v, misses[v]) for v in bits(e)]
    pairs, sets = zip(sets, privs), []
    for t, p in pairs:
        if t & e:
            sets.append(t)
            continue
        k = t.bit_count()
        fill, guard = fills[k], guards[k]
        sets += [t | vb for vb, miss in grow
                 if ((p & miss) + fill) & guard == guard]
    del pairs, privs    # free the packed fields before the output is built
    sets.sort(reverse=True)
    sets.sort(key=int.bit_count)
    out = []
    for t in sets:
        ids = []
        while t:
            b = t.bit_length() - 1
            ids.append(top - b)
            t ^= 1 << b
        out.append(tuple(ids))
    return out


def mmcs(h: Hypergraph, size_cap: int) -> list[tuple[int, ...]]:
    """One level of the iterative deepening: every transversal of
    ``size_cap`` vertices, at a cap no larger than the transversality
    number, where all of them are minimal.

    A depth-first bounded hitting-set search (Abu-Khzam, JCSS 2010): a node
    branches on the vertices of its uncovered edge with the fewest remaining
    candidates, and each child excludes its earlier siblings' vertices, so
    every set is reached once.  A node carries its uncovered edges cut to
    its candidates, in edge order.  It is cut when its chosen vertices plus
    a greedy packing of those edges, pairwise disjoint, exceed the cap (each
    needs a vertex of its own).  A node one vertex short of the cap enters
    no child: each vertex in every uncovered edge completes it.  Nor does a
    node two short: it completes each child it would enter in place.  Below
    the transversality number no set is reached.  Above it the smallest
    transversals are completed short of the cap, and the search raises
    ``ValueError`` at the first such set.
    """
    if size_cap < 1:
        raise ValueError("size_cap must be >= 1")
    out: list[tuple[int, ...]] = []

    def recurse(chosen: tuple[int, ...], cand: int, live: list[int]) -> None:
        if not live:
            raise ValueError(f"size_cap {size_cap} is above the transversality"
                             f" number: {len(chosen)} vertices hit every edge")
        room = size_cap - len(chosen)
        if room == 1:
            for e in live:
                cand &= e
            out.extend([chosen + (v,) for v in bits(cand)])
            return
        # fewest candidates first, ties by lowest edge index; the first is
        # the fail-first branching edge
        order = sorted(live, key=int.bit_count)
        spare, used = room, 0
        for e in order:
            if not e & used:
                used |= e
                spare -= 1
                if spare < 0:
                    return
        if room > 2:
            for v in bits(order[0]):
                vb = 1 << v
                cand &= ~vb
                recurse(chosen + (v,), cand,
                        [e & cand for e in live if not e & vb])
            return
        # two short of the cap: each child is one short, so its completions
        # are its candidates in every edge its vertex misses
        for v in bits(order[0]):
            vb = 1 << v
            cand &= ~vb
            last, missed = cand, False
            for e in live:
                if not e & vb:
                    last &= e
                    missed = True
            if not missed:
                raise ValueError(
                    f"size_cap {size_cap} is above the transversality"
                    f" number: {len(chosen) + 1} vertices hit every edge")
            out.extend([chosen + (v, w) for w in bits(last)])

    recurse((), h.vertex_mask, list(h.edges))
    return sorted([tuple(sorted(t)) for t in out])


def get_min_transversality(h: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """Greedy upper bound on the transversality number: repeatedly add the
    vertex hitting most uncovered edges, ties by lowest id.  Returns the
    cover's size and its vertices."""
    vertices, vert_edges = h.vertices, h.incidence
    remaining, picked = (1 << len(h.edges)) - 1, 0
    while remaining:
        counts = [(vert_edges[x] & remaining).bit_count() for x in vertices]
        # index finds the first, lowest-id vertex among ties
        v = vertices[counts.index(max(counts))]
        picked |= 1 << v
        remaining &= ~vert_edges[v]
    cover = bits(picked)
    return len(cover), cover


def smallest_transversals(h: Hypergraph) -> list[tuple[int, ...]]:
    """All minimal transversals of minimum cardinality (exact).

    Pairwise-disjoint edges each need a vertex of their own, so a greedy
    packing of them, smallest edges first, is a lower bound on the minimum
    size; the greedy cover contains a minimal transversal, so its size is
    an upper bound.  The search runs capped at each size from the lower
    bound up; every smaller size has found nothing, so the first level that
    finds a set holds exactly the smallest ones.
    """
    level = used = 0
    for e in h.edges:
        if not e & used:
            used |= e
            level += 1
    top, _ = get_min_transversality(h)
    for cap in range(level, top):
        found = mmcs(h, cap)
        if found:
            return found
    return mmcs(h, top)
