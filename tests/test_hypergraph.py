"""Combinatorial core: oracle equivalence and pinned small instances."""

import contextlib
import itertools
import logging
import random

import pytest
from hypothesis import example, given, strategies as st

from bji_advisor import data_path, hypergraph
from bji_advisor.hypergraph import (Hypergraph, berge_enumerate, bits,
                                    get_min_transversality, mask, mmcs,
                                    smallest_transversals)
from bji_advisor.schema import load_catalog_file
from bji_advisor.workload import build_context_matrix, parse_workload

# The oracles below take the edge list a test drew, with its repeats and
# supersets, not ``Hypergraph.edges``, so they also check the reduction to
# minimal edges that ``from_edges`` makes.

# small instance with a known minimum-size transversal pair
H8_EDGES = [mask(e) for e in (
    {1, 2}, {2, 3, 7}, {3, 4, 5}, {4, 6}, {6, 7, 8}, {7})]
H8 = Hypergraph.from_edges(H8_EDGES)


def union(edges) -> int:
    covered = 0
    for e in edges:
        covered |= e
    return covered


def subsets(edges):
    verts = bits(union(edges))
    for r in range(len(verts) + 1):
        yield from map(frozenset, itertools.combinations(verts, r))


def brute_minimal_transversals(edges):
    """Exhaustive 2^|S| scan: a set is a minimal transversal when it hits
    every edge and each member has a private edge, one that no other member
    hits."""
    out = set()
    for t in subsets(edges):
        hits = [{v for v in t if e >> v & 1} for e in edges]
        if all(hits) and all({v} in hits for v in t):
            out.add(t)
    return out


def is_minimal_transversal(h: Hypergraph, t: int) -> bool:
    """A transversal is minimal iff every member has a critical edge, one
    that it alone of ``t`` hits."""
    extra = t & ~h.vertex_mask
    if extra:
        raise ValueError(f"vertices {list(bits(extra))} not in hypergraph")
    crit = 0
    for e in h.edges:
        hit = t & e
        if not hit:
            return False
        if not hit & (hit - 1):
            crit |= hit
    return crit == t


def oracle_berge(edges):
    """Berge's algorithm as cross-product and prune: the running family is
    crossed with each edge, then pruned back to inclusion-minimal sets by a
    pairwise subset test."""
    family = [0]
    for e in edges:
        crossed = {t | 1 << v for t in family if not t & e for v in bits(e)}
        crossed |= {t for t in family if t & e}
        family = prune_minimal(crossed)
    return sorted((bits(t) for t in family if t), key=lambda t: (len(t), t))


def prune_minimal(sets):
    kept = []
    for s in sorted(sets, key=int.bit_count):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


# no edge contains another; the greedy cover has 4 vertices, and the exact
# minimum is 3
OVERSHOOT_EDGES = [mask(e) for e in (
    {8, 11}, {0, 1, 6}, {0, 2, 8}, {1, 7}, {3, 10}, {0, 4, 10})]
OVERSHOOT = Hypergraph.from_edges(OVERSHOOT_EDGES)

# three of these edges contain {7}; over the minimal edges the greedy cover
# has 4 vertices, and the exact minimum is 3
NESTED_OVERSHOOT_EDGES = [mask(e) for e in (
    {7}, {1, 6, 7}, {2, 3, 5}, {1, 4}, {0, 1, 5, 6, 7}, {0, 1, 2, 6}, {0, 4},
    {2, 4, 6, 7})]


def greedy_once(edges):
    """The greedy bound over the minimal edges: repeatedly add the vertex
    hitting most uncovered edges (ties by lowest id)."""
    remaining = prune_minimal(edges)
    verts = bits(union(remaining))
    picked = set()
    while remaining:
        v = min(verts,
                key=lambda x: (-sum(e >> x & 1 for e in remaining), x))
        picked.add(v)
        remaining = [e for e in remaining if not e >> v & 1]
    return len(picked), tuple(sorted(picked))


def packing_bound(edges) -> int:
    """How many minimal edges, smallest first (ties in first-seen order),
    can be taken pairwise disjoint: each needs a vertex of its own."""
    used = count = 0
    for e in prune_minimal(edges):
        if not e & used:
            used |= e
            count += 1
    return count


@st.composite
def small_hypergraphs(draw) -> list[int]:
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.sets(st.integers(1, n), min_size=1),
                          min_size=1, max_size=9))
    return [mask(e) for e in edges]


@st.composite
def nested_hypergraphs(draw) -> list[int]:
    """Edges plus supersets and repeats of some of them, in any order."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(1, n)
    base = draw(st.lists(st.sets(vertex, min_size=1), min_size=1, max_size=7))
    grown = [e | draw(st.sets(vertex)) for e in draw(st.lists(
        st.sampled_from(base), max_size=5))]
    edges = draw(st.permutations(base + grown))
    return [mask(e) for e in edges]


def random_hypergraph(rng: random.Random) -> list[int]:
    n = rng.randint(1, 12)
    verts = list(range(1, n + 1))
    m = rng.randint(1, 8)
    edges = []
    for _ in range(m):
        k = rng.randint(1, n)
        edges.append(mask(rng.sample(verts, k)))
    return edges


def test_is_transversal_unknown_vertex():
    with pytest.raises(ValueError):
        is_minimal_transversal(H8, mask({42}))


def test_is_minimal_transversal_basics():
    assert is_minimal_transversal(H8, mask({2, 4, 7}))
    assert not is_minimal_transversal(H8, mask({1, 2, 4, 7}))
    single = Hypergraph.from_edges([mask({5})])
    assert is_minimal_transversal(single, mask({5}))


def test_berge_single_edge():
    h = Hypergraph.from_edges([mask({1, 2, 3})])
    assert set(map(frozenset, berge_enumerate(h))) == {
        frozenset({1}), frozenset({2}), frozenset({3})}


def test_berge_two_disjoint_edge_kinds():
    h = Hypergraph.from_edges([mask(e) for e in (
        {4, 5, 6}, {4, 5, 6}, {4, 5, 6}, {1, 2, 3}, {1, 2, 3})])
    got = set(map(frozenset, berge_enumerate(h)))
    want = {frozenset({a, b}) for a in (1, 2, 3) for b in (4, 5, 6)}
    assert got == want
    assert set(map(frozenset, mmcs(h, size_cap=2))) == want
    assert set(map(frozenset, smallest_transversals(h))) == want


def test_h8_size3_members():
    assert set(mmcs(H8, size_cap=3)) == {(1, 4, 7), (2, 4, 7)}
    assert set(smallest_transversals(H8)) == {(1, 4, 7), (2, 4, 7)}
    k, t = get_min_transversality(H8)
    assert k == 3 and all(mask(t) & e for e in H8_EDGES)


def test_h8_brute_equivalence():
    brute = brute_minimal_transversals(H8_EDGES)
    assert set(map(frozenset, berge_enumerate(H8))) == brute
    assert berge_enumerate(H8) == oracle_berge(H8_EDGES)


def test_oracle_equivalence_random():
    rng = random.Random(20240817)
    for _ in range(120):
        edges = random_hypergraph(rng)
        h = Hypergraph.from_edges(edges)
        brute = brute_minimal_transversals(edges)
        berge = berge_enumerate(h)
        assert set(map(frozenset, berge)) == brute
        assert oracle_berge(edges) == berge
        for t in subsets(edges):
            assert is_minimal_transversal(h, mask(t)) == (t in brute)
        if brute:
            k_exact = min(len(t) for t in brute)
            k_greedy, tg = get_min_transversality(h)
            assert k_greedy >= k_exact
            assert all(mask(tg) & e for e in edges)
            assert smallest_transversals(h) == sorted(
                tuple(sorted(t)) for t in brute if len(t) == k_exact)


def test_berge_matches_cross_and_prune_oracle():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 14)
        base = [mask(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 12))]
        # supersets of some edges, and some edges repeated
        nested = [e | mask(rng.sample(range(n), rng.randint(0, n)))
                  for e in rng.choices(base, k=rng.randint(0, 6))]
        edges = base + nested + rng.choices(base, k=rng.randint(0, 3))
        rng.shuffle(edges)
        h = Hypergraph.from_edges(edges)
        assert berge_enumerate(h) == oracle_berge(edges)


@given(nested_hypergraphs())
def test_berge_matches_oracle_property(edges):
    assert berge_enumerate(Hypergraph.from_edges(edges)) == oracle_berge(edges)


@given(nested_hypergraphs())
def test_from_edges_keeps_minimal_edges(edges):
    h = Hypergraph.from_edges(edges)
    assert list(h.edges) == prune_minimal(edges)
    assert h.vertices == bits(union(edges)) and h.vertex_mask == union(edges)
    assert list(h.incidence) == [
        mask(i for i, e in enumerate(h.edges) if e >> v & 1)
        for v in range(max(h.vertices) + 1)]


def test_from_edges_drops_supersets():
    h = Hypergraph.from_edges(NESTED_OVERSHOOT_EDGES)
    assert h.edges == tuple(mask(e) for e in (
        {7}, {1, 4}, {0, 4}, {2, 3, 5}, {0, 1, 2, 6}))
    assert h.vertices == tuple(range(8))
    assert get_min_transversality(h) \
        == greedy_once(NESTED_OVERSHOOT_EDGES) == (4, (0, 1, 2, 7))
    assert smallest_transversals(h) == [
        t for t in oracle_berge(NESTED_OVERSHOOT_EDGES) if len(t) == 3]


def test_search_stops_at_the_exact_size_below_the_greedy_bound(caplog):
    # the search stops at the exact size, below the greedy bound, and an
    # overshooting bound is no event worth a log record
    berge = oracle_berge(OVERSHOOT_EDGES)
    assert sorted(OVERSHOOT.edges) == sorted(OVERSHOOT_EDGES)
    assert get_min_transversality(OVERSHOOT) \
        == greedy_once(OVERSHOOT_EDGES) == (4, (0, 1, 3, 8))
    assert min(len(t) for t in berge) == 3
    with caplog.at_level(logging.DEBUG):
        assert smallest_transversals(OVERSHOOT) == [
            t for t in berge if len(t) == 3] == [(1, 8, 10)]
    assert not caplog.records


@given(st.one_of(small_hypergraphs(), nested_hypergraphs()))
def test_branch_and_bound_matches_berge(edges):
    h = Hypergraph.from_edges(edges)
    berge = oracle_berge(edges)
    k_exact = min(len(t) for t in berge)
    assert smallest_transversals(h) == [t for t in berge if len(t) == k_exact]
    assert get_min_transversality(h) == greedy_once(edges)


@given(st.one_of(small_hypergraphs(), nested_hypergraphs()))
def test_mmcs_lists_every_minimal_transversal_within_cap(edges):
    # one deepening level: below the transversality number the packing
    # bound cuts every branch, at it the level lists the smallest sets, and
    # above it (the caps run past the 10 vertices drawn at most) it raises
    h = Hypergraph.from_edges(edges)
    berge = oracle_berge(edges)
    k_exact = len(berge[0])
    for cap in range(1, 12):
        if cap > k_exact:
            with pytest.raises(ValueError, match="above the transversality"):
                mmcs(h, cap)
        else:
            assert mmcs(h, cap) == [t for t in berge if len(t) == cap]
    with pytest.raises(ValueError):
        mmcs(h, 0)


@contextlib.contextmanager
def calls_to(name):
    """Record each call of ``hypergraph.<name>(h, arg)`` made through the
    module global (``smallest_transversals`` calls ``mmcs`` so), as (arg,
    result)."""
    calls = []
    real = getattr(hypergraph, name)

    def spy(h, arg):
        result = real(h, arg)
        calls.append((arg, result))
        return result

    setattr(hypergraph, name, spy)
    try:
        yield calls
    finally:
        setattr(hypergraph, name, real)


def bundled_edges(name: str) -> list[int]:
    schema = load_catalog_file(str(data_path(name + ".json")))
    queries = parse_workload(data_path(name + ".sql").read_text(), schema)
    return list(build_context_matrix(schema, queries).hypergraph().edges)


# two disjoint 5-cycles: 4 edges pairwise disjoint, 6 vertices needed
PENTAGONS = [mask({i, (i + 1) % 5}) << shift
             for shift in (0, 8) for i in range(5)]


@pytest.mark.parametrize("edges, caps", [
    pytest.param(bundled_edges("tpch"), [5], id="tpch"),
    pytest.param(bundled_edges("ssb"), [3], id="ssb"),
    # greedy picks 4 in each copy of OVERSHOOT, the exact minimum is 3
    pytest.param(OVERSHOOT_EDGES + [e << 12 for e in OVERSHOOT_EDGES], [6],
                 id="overshoot-twice"),
    pytest.param(PENTAGONS, [4, 5, 6], id="pentagons")])
def test_deepening_caps_rise_from_the_packing_bound(edges, caps):
    h = Hypergraph.from_edges(edges)
    want = [t for t in berge_enumerate(h) if len(t) == caps[-1]]
    with calls_to("mmcs") as calls:
        assert smallest_transversals(h) == want
    assert [cap for cap, _ in calls] == caps \
        == list(range(packing_bound(edges), len(want[0]) + 1))
    assert [found for _, found in calls] == [[]] * (len(caps) - 1) + [want]
    assert caps[-1] <= get_min_transversality(h)[0] == greedy_once(edges)[0]


@given(st.one_of(small_hypergraphs(), nested_hypergraphs()))
def test_deepening_starts_at_a_packing_bound_below_the_minimum(edges):
    k_exact = min(len(t) for t in oracle_berge(edges))
    with calls_to("mmcs") as calls:
        smallest_transversals(Hypergraph.from_edges(edges))
    assert packing_bound(edges) <= k_exact
    assert [cap for cap, _ in calls] == list(
        range(packing_bound(edges), k_exact + 1))


def levels_reach_each_minimal_set_once(edges):
    """Under ``smallest_transversals`` every level reaches each set once
    and only minimal ones: below the transversality number it reaches
    none, and a set at exactly that size has no smaller transversal in
    it."""
    h = Hypergraph.from_edges(edges)
    with calls_to("mmcs") as calls:
        smallest = smallest_transversals(h)
    assert smallest and calls[-1] == (len(smallest[0]), smallest)
    assert [found for _, found in calls[:-1]] == [[]] * (len(calls) - 1)
    for _, found in calls:
        assert len(set(found)) == len(found)
        assert all(is_minimal_transversal(h, mask(t)) for t in found)


@pytest.mark.parametrize("edges", [
    pytest.param(bundled_edges("tpch"), id="tpch"),
    pytest.param(bundled_edges("ssb"), id="ssb"),
    pytest.param(OVERSHOOT_EDGES, id="overshoot"),
    pytest.param(PENTAGONS, id="pentagons")])
def test_deepening_levels_reach_only_minimal_sets(edges):
    levels_reach_each_minimal_set_once(edges)


@given(st.one_of(small_hypergraphs(), nested_hypergraphs()))
def test_deepening_levels_reach_only_minimal_sets_property(edges):
    levels_reach_each_minimal_set_once(edges)


def test_above_the_transversality_number_mmcs_raises():
    # TPC-H's smallest transversals have 5 vertices: at cap 6 the search
    # completes one of them a vertex short of the cap and raises
    h = Hypergraph.from_edges(bundled_edges("tpch"))
    assert mmcs(h, 5) == [t for t in berge_enumerate(h) if len(t) == 5]
    with pytest.raises(ValueError, match="size_cap 6 is above the "
                       "transversality number: 5 vertices hit every edge"):
        mmcs(h, 6)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edges([mask(set())])


def test_from_edges_rejects_edgeless():
    # with no edge, the empty set is the one transversal, which the
    # enumerators and the greedy bound would report differently
    with pytest.raises(ValueError, match="at least one edge"):
        Hypergraph.from_edges([])


def test_greedy_ties_go_to_the_lowest_id():
    # the first pick ties all four vertices, the second ties 2 and 3; taking
    # the highest id would give (1, 3)
    edges = [mask({0, 1}), mask({2, 3})]
    assert get_min_transversality(Hypergraph.from_edges(edges)) \
        == greedy_once(edges) == (2, (0, 2))


def test_single_edge_trivia():
    h = Hypergraph.from_edges([mask({7})])
    assert get_min_transversality(h) == (1, (7,))
    h2 = Hypergraph.from_edges([mask({1, 2})])
    assert set(smallest_transversals(h2)) == {(1,), (2,)}


@given(st.sets(st.integers(0, 200)))
def test_bits_inverts_mask(s):
    assert bits(mask(s)) == tuple(sorted(s))


@given(st.integers(0, 2**130))
def test_bits_lists_set_bits_lowest_first(m):
    assert bits(m) == tuple(i for i in range(m.bit_length()) if m >> i & 1)


@st.composite
def sparse_hypergraphs(draw) -> list[int]:
    """Edges over up to 10 vertex ids drawn from 0..200, so that sets of one
    size often agree on their low ids and differ only past bit 100."""
    ids = draw(st.lists(st.integers(0, 200), min_size=1, max_size=10,
                        unique=True))
    edges = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1),
                          min_size=1, max_size=7))
    return [mask(e) for e in edges]


# Berge relabels the vertices to sort its family as ints; the oracle sorts
# the id tuples by size, then by ids
@given(sparse_hypergraphs())
@example([mask({3, 77, 190})])                  # one minimal edge
@example([mask({5, 190}), mask({5, 17, 190})])  # one minimal edge, nested
@example([mask({0}), mask({101}), mask({200})])  # the last edge is one vertex
# three-sets that share their low ids and differ past bit 100
@example([mask({1, 2}), mask({150, 199}), mask({2, 150}), mask({40})])
def test_berge_orders_sparse_ids_by_size_then_ids(edges):
    assert berge_enumerate(Hypergraph.from_edges(edges)) == oracle_berge(edges)
