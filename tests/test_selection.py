"""Selection engines: miner oracle, fitness scores, pipelines."""

import itertools
import json
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from bji_advisor import costmodel, data_path, selection
from bji_advisor.hypergraph import bits, mask, smallest_transversals
from bji_advisor.schema import load_catalog, load_catalog_file
from bji_advisor.workload import (ContextMatrix, ParsedQuery,
                                  build_context_matrix, parse_workload)


def load(cat, wl):
    schema = load_catalog_file(data_path(cat))
    qs = parse_workload(data_path(wl).read_text(), schema)
    return schema, build_context_matrix(schema, qs)


def example():
    return load("example_star.json", "example_star.sql")


def motifs(m):
    """The closed itemsets at minsup 0.1, which the two itemset engines
    take."""
    return selection.mine_closed_frequent_itemsets(m, 0.1)


# ---------------------------------------------------------------------------
# closed-itemset miner vs brute-force closure oracle
# ---------------------------------------------------------------------------

def brute_closed_sets(rows):
    """All nonempty itemsets equal to the intersection of their covering rows.

    An itemset that lies in no row has no covering row and is never closed,
    so the candidates are the nonempty subsets of each row.
    """
    candidates = set()
    for row in rows:
        members = sorted(row)
        for r in range(1, len(members) + 1):
            candidates.update(map(frozenset,
                                  itertools.combinations(members, r)))
    out = set()
    for s in candidates:
        covering = [row for row in rows if s <= row]
        closure = set.intersection(*map(set, covering))
        if closure == s:
            out.add(s)
    return out


def matrix_from_rows(rows, n_cols):
    queries = tuple(
        ParsedQuery(id=i + 1, predicates=(), referenced=mask(row))
        for i, row in enumerate(rows))
    return ContextMatrix(queries=queries,
                         columns=tuple(f"D.a{i}" for i in range(1, n_cols + 1)),
                         rows=tuple(mask(r) for r in rows))


def test_miner_oracle_random_matrices():
    rng = random.Random(12021)
    checked = 0
    while checked < 220:
        n_cols = rng.randint(1, 16)
        n_rows = rng.randint(1, 10)
        rows = []
        for _ in range(n_rows):
            row = {c for c in range(1, n_cols + 1) if rng.random() < 0.4}
            if row:
                rows.append(row)
        if not rows:
            continue
        checked += 1
        m = matrix_from_rows(rows, n_cols)
        got = {frozenset(ids) for ids, _ in
               selection.mine_closed_frequent_itemsets(m, 1e-9)}
        assert got == brute_closed_sets(rows)


def frequent_closed_oracle(rows, minsup):
    """``brute_closed_sets`` kept where the covering rows' share is at least
    ``minsup``, as (sorted ids, share), most frequent first, then by size
    and ids."""
    out = []
    for s in brute_closed_sets(rows):
        share = sum([s <= row for row in rows]) / len(rows)
        if share >= minsup:
            out.append((tuple(sorted(s)), share))
    return sorted(out, key=lambda cs: (-cs[1], len(cs[0]), cs[0]))


def test_miner_oracle_at_real_thresholds():
    """Random matrices with repeated rows, at thresholds where the miner
    prunes: the whole ordered list, supports included, equals the oracle's."""
    rng = random.Random(2602)
    for _ in range(150):
        n_cols = rng.randint(1, 16)
        rows = []
        for _ in range(rng.randint(1, 30)):
            if rows and rng.random() < 0.3:
                rows.append(rng.choice(rows))
                continue
            row = {c for c in range(1, n_cols + 1) if rng.random() < 0.4}
            rows.append(row or {rng.randint(1, n_cols)})
        n = len(rows)
        m = matrix_from_rows(rows, n_cols)
        ks = {k for k in (1, 2, 3, n // 4, n // 2) if 0 < k <= n}
        for minsup in sorted({k / n for k in ks} | {0.1, 0.5, 1.0}):
            assert selection.mine_closed_frequent_itemsets(m, minsup) == \
                frequent_closed_oracle(rows, minsup), (rows, minsup)


def test_miner_keeps_a_set_exactly_at_the_threshold():
    """7 of 100 rows at minsup 0.07: 7 / 100 >= 0.07 holds, while
    7 >= 0.07 * 100 (= 7.000000000000001) does not."""
    m = matrix_from_rows([{1}] * 7 + [{2}] * 93, 2)
    assert selection.mine_closed_frequent_itemsets(m, 0.07) == [
        ((2,), 0.93), ((1,), 0.07)]


def test_miner_minsup_filters():
    m = matrix_from_rows([{1, 2}, {1, 2}, {3}], 3)
    got = dict(selection.mine_closed_frequent_itemsets(m, 0.5))
    assert got == {(1, 2): pytest.approx(2 / 3)}
    with pytest.raises(ValueError):
        selection.mine_closed_frequent_itemsets(m, 0.0)


def test_miner_worked_example():
    _, m = example()
    got = dict(selection.mine_closed_frequent_itemsets(m, 0.1))
    assert got == {(1, 2, 3): pytest.approx(0.4),
                   (4, 5, 6): pytest.approx(0.6)}


# ---------------------------------------------------------------------------
# fitness and scoring
# ---------------------------------------------------------------------------

def test_alpha_ratios():
    schema, _ = example()
    assert selection._page_ratio(schema, "CUSTOMERS") == \
        pytest.approx(19 / 894)
    assert selection._page_ratio(schema, "CHANNELS") == \
        pytest.approx(1 / 894)
    assert selection._page_ratio(schema, "SALES") == 1.0


def test_fitness_tm_values():
    schema, m = example()
    terms = selection.column_terms(schema, m)
    assert selection.fitness_tm(terms, (3, 4)) == \
        pytest.approx(0.0085, abs=5e-4)
    # keys add nothing
    assert selection.fitness_tm(terms, (3,)) == \
        selection.fitness_tm(terms, (2, 3, 4))
    # no indexable member -> 0
    assert selection.fitness_tm(terms, (1, 2, 4, 5)) == 0.0


def test_afc_sums():
    schema, _ = example()
    cards = schema.cards
    assert cards[1:] == tuple(a.cardinality for a in schema.attributes)
    assert selection.afc_sum(cards, (3, 4)) == 50_005
    assert selection.afc_sum(cards, (3, 5)) == 16_310_336
    assert selection.afc_sum(cards, ()) == 0


def test_fitness_dynaclose_single_indexable():
    schema, m = example()
    terms = selection.column_terms(schema, m)
    one = selection.fitness_dynaclose(terms, (3,))
    assert one == pytest.approx(m.support([3]) *
                                selection._page_ratio(schema, "CUSTOMERS"))
    # averaging over indexable members only
    assert selection.fitness_dynaclose(terms, (2, 3)) == pytest.approx(one)
    assert selection.fitness_dynaclose(terms, (1, 2)) == 0.0


# ---------------------------------------------------------------------------
# engine pipelines on the worked example
# ---------------------------------------------------------------------------

def test_tm_ijb_worked_example():
    schema, m = example()
    cfg = selection.tm_ijb(schema, m)
    assert cfg.attrs == ("CHANNELS.channel_desc", "CUSTOMERS.cust_gender")
    assert len(cfg.trace) == 9
    winner = [t for t in cfg.trace if t.selected]
    assert len(winner) == 1 and winner[0].ids == (3, 6)
    by_ids = {t.ids: t for t in cfg.trace}
    assert by_ids[(3, 4)].afc == 50_005
    assert by_ids[(3, 5)].afc == 16_310_336
    assert by_ids[(3, 4)].fitness == pytest.approx(0.0085, abs=5e-4)
    # the winner strictly maximizes fitness
    assert all(t.fitness <= winner[0].fitness for t in cfg.trace)


def test_tm_ijb_deterministic():
    schema, m = example()
    a = selection.tm_ijb(schema, m)
    b = selection.tm_ijb(schema, m)
    assert a == b


def tm_ijb_oracle(schema, m) -> tuple[tuple[int, ...], tuple]:
    """The winner and trace of ``tm_ijb`` as the engine once made them:
    the winner by the key (fitness, -afc, [-i for i in ids]), each support
    by a scan of the rows."""
    terms = selection.column_terms(schema, m)
    rows = [set(bits(r)) for r in m.rows]
    scored = [(selection.fitness_tm(terms, ids),
               sum(schema.attributes[i - 1].cardinality for i in ids), ids)
              for ids in smallest_transversals(m.hypergraph())]
    winner = max(scored, key=lambda s: (s[0], -s[1], [-i for i in s[2]]))[2]
    trace = tuple(selection.ScoredMotif(
        ids, fit, afc, sum(1 for r in rows if set(ids) <= r) / len(rows),
        ids == winner)
        for fit, afc, ids in scored)
    return winner, trace


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tm_ijb_matches_the_old_key_and_a_row_scan(random_stars, data):
    star = data.draw(random_stars)
    with tempfile.TemporaryDirectory() as tmp:
        cat, wl = star.write(tmp)
        schema = load_catalog_file(cat)
        with open(wl, encoding="utf-8") as fh:
            m = build_context_matrix(schema, parse_workload(fh.read(), schema))
    cfg = selection.tm_ijb(schema, m)
    winner, trace = tm_ijb_oracle(schema, m)
    assert cfg.trace == trace
    assert [t.ids for t in cfg.trace if t.selected] == [winner]


# two empty dimensions (no pages, so every fitness term is 0.0) with two
# attributes each, all of one cardinality
TIED_CATALOG = {
    "page_size": 8192,
    "tables": [
        {"name": "F", "role": "fact", "rows": 100, "tuple_width": 16},
        {"name": "D1", "role": "dimension", "rows": 0, "tuple_width": 8},
        {"name": "D2", "role": "dimension", "rows": 0, "tuple_width": 8}],
    "attributes": [
        {"table": "F", "name": "k1", "cardinality": 7},
        {"table": "D1", "name": "k", "is_key": True},
        {"table": "D1", "name": "a", "cardinality": 7},
        {"table": "D1", "name": "b", "cardinality": 7},
        {"table": "F", "name": "k2", "cardinality": 7},
        {"table": "D2", "name": "k", "is_key": True},
        {"table": "D2", "name": "c", "cardinality": 7},
        {"table": "D2", "name": "d", "cardinality": 7}],
    "joins": [{"fact_attr": "F.k1", "dim_attr": "D1.k"},
              {"fact_attr": "F.k2", "dim_attr": "D2.k"}],
}


def tied_matrix(rows):
    """A matrix over ``TIED_CATALOG``, where every fitness term is 0.0."""
    schema = load_catalog(json.dumps(TIED_CATALOG))
    queries = tuple(ParsedQuery(id=k, predicates=(), referenced=mask(r))
                    for k, r in enumerate(rows, start=1))
    return schema, ContextMatrix(queries=queries, columns=schema.names[1:],
                                 rows=tuple(mask(r) for r in rows))


def test_tm_ijb_all_tied_picks_the_smallest_ids():
    schema, m = tied_matrix([{3, 4}, {7, 8}, {3, 4}])
    cfg = selection.tm_ijb(schema, m)
    assert [t.ids for t in cfg.trace] == [(3, 7), (3, 8), (4, 7), (4, 8)]
    assert {(t.fitness, t.afc) for t in cfg.trace} == {(0.0, 14)}
    assert [t.selected for t in cfg.trace] == [True, False, False, False]
    assert [t.support for t in cfg.trace] == [0.0] * 4
    assert cfg.attrs == ("D1.a", "D2.c")
    assert cfg.trace == tm_ijb_oracle(schema, m)[1]


def test_dynaclose_worked_example():
    schema, m = example()
    cfg = selection.dynaclose_select(schema, m, motifs(m))
    # the customer motif wins: 0.4 * 19/894 > 0.6 * 1/894
    assert cfg.attrs == ("CUSTOMERS.cust_gender",)
    sel = [t for t in cfg.trace if t.selected]
    assert sel[0].ids == (1, 2, 3)


@pytest.mark.parametrize("rows, winner, attrs", [
    # (3, 7) beats (7,) and (4, 7): the smaller id where they first differ
    ([{3, 7}, {4, 7}], (3, 7), ("D1.a", "D2.c")),
    # (3, 4) is a prefix of (3, 4, 5), and the longer set wins; F.k2 (5)
    # cannot be indexed, so both give the same attributes
    ([{3, 4}, {3, 4}, {3, 4, 5}], (3, 4, 5), ("D1.a", "D1.b")),
])
def test_dynaclose_tie_rule(rows, winner, attrs):
    schema, m = tied_matrix(rows)
    cfg = selection.dynaclose_select(schema, m, motifs(m))
    assert len(cfg.trace) > 1
    assert {t.fitness for t in cfg.trace} == {0.0}
    assert [t.ids for t in cfg.trace if t.selected] == [winner]
    assert cfg.attrs == attrs


def test_close_greedy_improves_cost():
    schema, m = example()
    base = costmodel.workload_cost(schema, m.queries, ())
    cfg = selection.close_select(
        schema, m, costmodel.WorkloadPlan(schema, m.queries), motifs(m))
    cost = costmodel.workload_cost(schema, m.queries, cfg.attrs)
    assert cost < base
    # every chosen attribute is indexable
    for a in cfg.attrs:
        assert schema.is_indexable(schema.attribute(a))


def test_close_storage_budget_skips():
    schema, m = example()
    plans = costmodel.WorkloadPlan(schema, m.queries)
    free = selection.close_select(schema, m, plans, motifs(m))
    capped = selection.close_select(schema, m, plans, motifs(m),
                                    storage_budget=1)
    assert capped.attrs == ()
    assert len(capped.notes) >= len(free.attrs)


class ScriptedPlans:
    """Stands in for ``costmodel.WorkloadPlan``: every trial re-costs to the
    same per-query list."""

    def __init__(self, no_index, trial):
        self.no_index = tuple(no_index)
        self.baseline = sum(self.no_index)
        self.trial = trial

    def recost(self, costs, config, attr):
        return list(self.trial)


def test_close_select_sums_every_trial_in_full():
    # 1 + 2^-53 rounds to 1.0, so dropping the second query's cost to 0
    # leaves the summed cost at 1.0: no improvement.  A running total moved
    # by the per-query deltas would read 1 - 2^-53 and keep the index.
    schema, m = example()
    tiny = 2.0 ** -53
    plans = ScriptedPlans([1.0, tiny, 0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0, 0.0])
    assert plans.baseline == sum(plans.trial) == 1.0
    cfg = selection.close_select(schema, m, plans, motifs(m))
    assert cfg.attrs == ()
    assert cfg.notes and all(n.endswith("skipped: no cost improvement")
                             for n in cfg.notes)


def test_ssb_pipeline_goldens():
    schema, m = load("ssb.json", "ssb.sql")
    cfg = selection.tm_ijb(schema, m)
    assert cfg.attrs == ("dates.d_year", "part.p_brand")
    assert all(len(t.ids) == 3 for t in cfg.trace)
    winner = [t for t in cfg.trace if t.selected][0]
    assert winner.ids == (5, 22, 54)
    assert (4, 5, 22) in {t.ids for t in cfg.trace}
    dyn = selection.dynaclose_select(schema, m, motifs(m))
    assert dyn.attrs == ("part.p_brand",)


def test_tm_ijb_output_is_subset_of_one_smallest_tm():
    schema, m = load("tpch.json", "tpch.sql")
    cfg = selection.tm_ijb(schema, m)
    winner = [t for t in cfg.trace if t.selected][0]
    ids = {m.columns.index(a) + 1 for a in cfg.attrs}
    assert ids <= set(winner.ids)
    for a in cfg.attrs:
        assert schema.is_indexable(schema.attribute(a))
