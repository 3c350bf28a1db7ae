"""Hypergraphs, minimal transversals and transversality numbers.

Vertices are small nonnegative integers; a hyperedge is a nonempty frozenset of
vertices.  Two independent enumerators are provided (incremental cross-product
and a depth-first search with critical-edge pruning) plus a greedy upper bound
on the transversality number.  The search and the bound work on int bitmasks:
bit ``v`` of a vertex mask is vertex ``v``, bit ``i`` of an edge mask is
``edges[i]``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional

log = logging.getLogger(__name__)

VertexSet = FrozenSet[int]


def _canon(sets: Iterable[Iterable[int]]) -> list[VertexSet]:
    """Deduplicate and sort a family of vertex sets (sorted-vector order)."""
    uniq = {frozenset(s) for s in sets}
    return sorted(uniq, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class Hypergraph:
    """A vertex set with a family of nonempty hyperedges covering it."""

    vertices: tuple[int, ...]
    edges: tuple[VertexSet, ...]

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[int]],
                   vertices: Optional[Iterable[int]] = None) -> "Hypergraph":
        canon: list[VertexSet] = []
        seen: set[VertexSet] = set()
        for e in edges:
            fs = frozenset(e)
            if not fs:
                raise ValueError("hyperedge must be nonempty")
            if fs not in seen:
                seen.add(fs)
                canon.append(fs)
        covered: set[int] = set()
        for e in canon:
            covered |= e
        if vertices is None:
            verts = sorted(covered)
        else:
            verts = sorted(set(vertices))
            if covered - set(verts):
                raise ValueError(
                    f"edge vertices {sorted(covered - set(verts))} not in vertex set")
            if set(verts) - covered:
                raise ValueError(
                    f"vertices {sorted(set(verts) - covered)} belong to no edge")
        return cls(tuple(verts), tuple(canon))

    def _check_subset(self, t: Iterable[int]) -> VertexSet:
        ts = frozenset(t)
        extra = ts - set(self.vertices)
        if extra:
            raise ValueError(f"vertices {sorted(extra)} not in hypergraph")
        return ts


def is_transversal(h: Hypergraph, t: Iterable[int]) -> bool:
    """True iff ``t`` intersects every edge of ``h``."""
    ts = h._check_subset(t)
    return all(ts & e for e in h.edges)


def is_minimal_transversal(h: Hypergraph, t: Iterable[int]) -> bool:
    """A transversal is minimal iff every member has a critical edge."""
    ts = h._check_subset(t)
    if not all(ts & e for e in h.edges):
        return False
    for v in ts:
        if not any(e & ts == {v} for e in h.edges):
            return False
    return True


def berge_enumerate(h: Hypergraph) -> list[VertexSet]:
    """All minimal transversals, built edge by edge.

    The running family is crossed with each new edge, then pruned back to
    inclusion-minimal sets.  Fine at desk scale; quadratic pruning.
    """
    family: list[VertexSet] = [frozenset()]
    for e in h.edges:
        crossed = {t | {v} for t in family for v in e if not (t & e)}
        crossed |= {t for t in family if t & e}
        family = _prune_minimal(crossed)
    return _canon(t for t in family if t)


def _prune_minimal(sets: Iterable[VertexSet]) -> list[VertexSet]:
    by_size = sorted(set(sets), key=len)
    kept: list[VertexSet] = []
    for s in by_size:
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def _bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks(h: Hypergraph) -> tuple[list[int], dict[int, int]]:
    """Per edge index its vertex mask; per vertex the mask of edge indexes
    containing it."""
    edge_verts = [sum(1 << v for v in e) for e in h.edges]
    vert_edges = dict.fromkeys(h.vertices, 0)
    for i, e in enumerate(h.edges):
        for v in e:
            vert_edges[v] |= 1 << i
    return edge_verts, vert_edges


def mmcs(h: Hypergraph, size_cap: Optional[int] = None) -> list[VertexSet]:
    """Depth-first minimal-transversal enumeration with uncov/crit bookkeeping.

    ``uncov`` is the mask of uncovered edges and ``crit[k]`` the mask of edges
    whose only chosen vertex is ``chosen[k]``; a branch dies when some chosen
    vertex loses its last critical edge.  With ``size_cap`` only transversals
    of that size or smaller are produced.
    """
    if size_cap is not None and size_cap < 1:
        raise ValueError("size_cap must be >= 1")
    edge_verts, vert_edges = _masks(h)
    out: list[VertexSet] = []

    def recurse(chosen: tuple[int, ...], cand: int, uncov: int,
                crit: list[int]) -> None:
        if not uncov:
            out.append(frozenset(chosen))
            return
        if size_cap is not None and len(chosen) >= size_cap:
            return
        # fail-first: uncovered edge with fewest remaining candidates,
        # ties by lowest edge index
        ei = min(_bits(uncov), key=lambda i: (edge_verts[i] & cand).bit_count())
        for v in _bits(edge_verts[ei] & cand):
            cand &= ~(1 << v)
            hit = vert_edges[v]
            kept = [c & ~hit for c in crit]
            if all(kept):
                recurse(chosen + (v,), cand, uncov & ~hit, kept + [uncov & hit])

    recurse((), sum(1 << v for v in h.vertices), (1 << len(h.edges)) - 1, [])
    res = _canon(out)
    # the branch-death test prunes non-minimal supersets already, but keep the
    # guarantee explicit
    assert all(is_minimal_transversal(h, t) for t in res)
    return res


def get_min_transversality(h: Hypergraph) -> tuple[int, VertexSet]:
    """Greedy upper bound on the transversality number.

    For every start vertex: repeatedly drop covered edges and add the vertex
    hitting most remaining edges (ties by lowest id).  Returns the smallest
    cover found; the count is an upper bound on the true tau(H).
    """
    _, vert_edges = _masks(h)
    best: Optional[VertexSet] = None
    for start in h.vertices:
        picked = [start]
        remaining = ((1 << len(h.edges)) - 1) & ~vert_edges[start]
        while remaining:
            v = min(h.vertices,
                    key=lambda x: (-(vert_edges[x] & remaining).bit_count(), x))
            picked.append(v)
            remaining &= ~vert_edges[v]
        t = frozenset(picked)
        if best is None or len(t) < len(best) or (len(t) == len(best)
                                                  and sorted(t) < sorted(best)):
            best = t
    assert best is not None
    return len(best), best


def smallest_transversals(h: Hypergraph) -> list[VertexSet]:
    """All minimal transversals of minimum cardinality (exact)."""
    k0, _ = get_min_transversality(h)
    # the greedy cover contains a minimal transversal of at most k0 vertices,
    # so the capped search finds one; _canon order puts the smallest first
    found = mmcs(h, size_cap=k0)
    k_star = len(found[0])
    if k_star < k0:
        log.warning("greedy transversality bound %d overshoots exact %d", k0, k_star)
    return [t for t in found if len(t) == k_star]


def transversality(h: Hypergraph) -> int:
    """Exact transversality number: minimum size over the enumerated set."""
    return len(smallest_transversals(h)[0])
