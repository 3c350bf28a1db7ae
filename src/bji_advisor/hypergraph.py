"""Hypergraphs, minimal transversals and transversality numbers.

Vertices are small nonnegative integers.  A vertex set is an int mask: bit
``v`` is vertex ``v``; bit ``i`` of an edge mask is ``edges[i]``.  Results
leave as sorted vertex tuples, smallest sets first.  Berge's edge-by-edge
construction with a private-edge minimality test enumerates every minimal
transversal.  The smallest ones are found by iterative deepening (Korf, AIJ
1985): a depth-first search with critical-edge pruning (MMCS) lists every
minimal transversal up to a size cap, and the cap rises by one from a
packing of pairwise-disjoint edges, a lower bound on the transversality
number, until the search finds a set.
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


def _canon(masks: Iterable[int]) -> list[tuple[int, ...]]:
    """Vertex sets as sorted tuples, by size then ids: sorted by ids, then
    by size in a stable sort, with no key tuple per set."""
    out = sorted(map(bits, masks))
    out.sort(key=len)
    return out


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
        for e in sorted(edges, key=int.bit_count):
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


def are_minimal_transversals(h: Hypergraph,
                             family: list[tuple[int, ...]]) -> bool:
    """Whether every set of ``family`` is a minimal transversal: it hits
    every edge, and each member is the lone hitter of some edge (a critical
    edge).  One pass over the edges checks the whole family: bit ``i`` of
    ``holders[v]`` says set ``i`` holds ``v``, and per edge ``once`` and
    ``twice`` mark the sets hitting it at least once and at least twice."""
    if not family:
        return True
    holders = [0] * h.vertex_mask.bit_length()
    try:
        for i, t in enumerate(family):
            bit = 1 << i
            for v in t:
                holders[v] |= bit
    except IndexError:      # a vertex past every edge hits none
        return False
    everyone = (1 << len(family)) - 1
    lone = [0] * len(holders)
    for e in h.edges:
        members = bits(e)
        once = twice = 0
        for v in members:
            twice |= once & holders[v]
            once |= holders[v]
        if once != everyone:
            return False
        for v in members:
            lone[v] |= holders[v] & ~twice
    return lone == holders


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
    # A set's private edges are packed into one int, a field of m + 1 bits
    # per member in vertex order: bit j of a field is edge j, the top bit is
    # a zero guard.  Adding 2^m - 1 to each of the k fields of a k-set
    # carries into the guard iff the field is nonzero, so one addition
    # checks every member at once.  (A tuple of per-member masks took over
    # twice the time and memory on a family of 450,000 sets.)  Each member
    # has a private edge of its own, so no set has more than m members.
    m = len(h.edges)
    width, full = m + 1, (1 << m) - 1
    ones = [mask(range(0, width * k, width)) for k in range(m + 1)]
    fills = [full * o for o in ones]
    guards = [o << m for o in ones]
    # per vertex, in every field: the edges that do not contain it
    misses = [(full & ~edges) * ones[-1] for edges in h.incidence]
    sets, privs = [0], [0]
    for j, e in enumerate(h.edges):
        grow = [(1 << v, misses[v]) for v in bits(e)]
        next_sets, next_privs = [], []
        for t, p in zip(sets, privs):
            hit = t & e
            if hit:
                if not hit & (hit - 1):
                    p |= 1 << (t & (hit - 1)).bit_count() * width + j
                next_sets.append(t)
                next_privs.append(p)
                continue
            k = t.bit_count()
            fill, guard = fills[k], guards[k]
            for vb, miss in grow:
                kept = p & miss
                if (kept + fill) & guard == guard:
                    # v's field, holding e alone, goes in at v's place
                    at = (t & (vb - 1)).bit_count() * width
                    next_sets.append(t | vb)
                    next_privs.append(kept & ((1 << at) - 1)
                                      | (kept >> at << width | 1 << j) << at)
        sets, privs = next_sets, next_privs
    del privs, next_privs   # free the packed fields before the output is built
    return _canon(sets)


def mmcs(h: Hypergraph, size_cap: int) -> list[tuple[int, ...]]:
    """Every minimal transversal of at most ``size_cap`` vertices.

    A depth-first search with uncov/crit bookkeeping (Murakami & Uno, DAM
    2014), which reaches each minimal transversal once.  ``uncov`` is the
    mask of uncovered edges and ``crit[k]`` the mask of edges whose only
    chosen vertex is the k-th chosen one; a branch dies when some chosen
    vertex loses its last critical edge.  A node is cut when its chosen
    vertices plus a greedy packing of uncovered edges pairwise disjoint on
    the remaining candidates (each needs a vertex of its own) exceed the cap.
    A node one vertex short of the cap enters no child: only a vertex hitting
    every uncovered edge can complete it, and each such vertex that keeps
    every chosen one critical does.  The results are checked in one pass
    before they are returned.
    """
    if size_cap < 1:
        raise ValueError("size_cap must be >= 1")
    edges, vert_edges = h.edges, h.incidence
    out: list[int] = []

    def recurse(chosen: int, cand: int, uncov: int, crit: list[int]) -> None:
        if not uncov:
            out.append(chosen)
            return
        room = size_cap - len(crit)
        if room == 1:
            common = cand
            for i in bits(uncov):
                common &= edges[i]
            for v in bits(common):
                hit = vert_edges[v]
                if all(c & ~hit for c in crit):
                    out.append(chosen | 1 << v)
            return
        # uncovered edges on the remaining candidates, fewest first, ties by
        # lowest edge index; the first is the fail-first branching edge
        live = sorted([edges[i] & cand for i in bits(uncov)], key=int.bit_count)
        used = 0
        for e in live:
            if not e & used:
                used |= e
                room -= 1
                if room < 0:
                    return
        for v in bits(live[0]):
            cand &= ~(1 << v)
            hit = vert_edges[v]
            kept = [c & ~hit for c in crit]
            if all(kept):
                recurse(chosen | 1 << v, cand, uncov & ~hit,
                        kept + [uncov & hit])

    recurse(0, h.vertex_mask, (1 << len(edges)) - 1, [])
    found = _canon(out)
    # the branch-death test prunes non-minimal supersets already, but keep the
    # guarantee explicit
    assert are_minimal_transversals(h, found)
    return found


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
