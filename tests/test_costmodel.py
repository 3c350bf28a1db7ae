"""I/O cost model: storage/load formulas, CL properties, query costing."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bji_advisor import cli, costmodel, data_path, selection
from bji_advisor.hypergraph import bits, mask
from bji_advisor.schema import (MAX_CATALOG_INT, load_catalog,
                                load_catalog_file)
from bji_advisor.workload import (build_context_matrix, parse_query,
                                  parse_workload)


def load(cat, wl, gen=None):
    if cat == "synth-templates":
        # a generated instance: fact columns declared first and d1_a10
        # after d1_a2, so id order is not name order
        inst = gen.synth_templates(1)[wl]
        schema = load_catalog(json.dumps(inst.catalog))
        qs = parse_workload(inst.sql, schema)
    else:
        schema = load_catalog_file(data_path(cat))
        qs = parse_workload(data_path(wl).read_text(), schema)
    return schema, build_context_matrix(schema, qs)


def ids_of(schema, names):
    return mask(schema.column_id(a) for a in names)


# ---------------------------------------------------------------------------
# unit formulas
# ---------------------------------------------------------------------------

def test_storage_size_examples():
    assert costmodel.index_storage_size(8, 1000, 64) == 9000
    assert costmodel.index_storage_size(7, 6_000_000, 80) == 65_250_000
    assert costmodel.index_storage_size(5, 0, 80) == 0
    # past the 2**53 a float holds exactly: rounded up on ints
    assert costmodel.index_storage_size(1, 2**60 + 1, 80) == \
        11673330234144325643


def test_storage_size_rounds_up():
    # (80 + 3) * 3 = 249 bits -> 32 bytes
    assert costmodel.index_storage_size(3, 3, 80) == math.ceil(249 / 8)


def test_storage_size_validation():
    with pytest.raises(ValueError):
        costmodel.index_storage_size(0, 10, 80)
    with pytest.raises(ValueError):
        costmodel.index_storage_size(5, -1, 80)


def test_index_load_cost():
    assert costmodel.index_load_cost(0, 4096) == 0
    assert costmodel.index_load_cost(1, 4096) == 1
    assert costmodel.index_load_cost(4097, 4096) == 2
    assert costmodel.index_load_cost(2**60 + 1, 4096) == 2**48 + 1
    with pytest.raises(ValueError):
        costmodel.index_load_cost(10, 0)


@given(card=st.integers(1, MAX_CATALOG_INT),
       rows=st.integers(0, MAX_CATALOG_INT),
       page_size=st.integers(1, MAX_CATALOG_INT))
def test_index_size_and_load_are_least_whole_units(card, rows, page_size):
    """Over the catalog's signed 64-bit range, an index's bytes and load
    pages are the fewest whole units that hold it."""
    size = costmodel.index_storage_size(card, rows, 80)
    assert (size - 1) * 8 < (80 + card) * rows <= size * 8
    pages = costmodel.index_load_cost(size, page_size)
    assert (pages - 1) * page_size < size <= pages * page_size


def test_hash_join_cost_pinned():
    assert costmodel.hash_join_cost(105866, 23766) == 388_896
    assert costmodel.hash_join_cost(0, 0) == 0


def test_tuple_access_cost_properties():
    assert costmodel.tuple_access_cost(0, 1000) == 0.0
    assert costmodel.tuple_access_cost(5, 0) == 0.0
    rng = random.Random(42)
    for _ in range(1000):
        pages = rng.randint(1, 10**6)
        nt = rng.uniform(0, 10**7)
        cl = costmodel.tuple_access_cost(nt, pages)
        assert 0.0 <= cl <= pages
        # monotone in the tuple count
        assert costmodel.tuple_access_cost(nt * 0.5, pages) <= cl + 1e-9


def test_reduction_rate():
    assert costmodel.reduction_rate(100, 80) == pytest.approx(0.2)
    assert costmodel.reduction_rate(0, 5) == 0.0


# ---------------------------------------------------------------------------
# query costing
# ---------------------------------------------------------------------------

def test_no_join_query_scans_referenced_tables():
    schema, m = load("tpch.json", "tpch.sql")
    by_id = {q.id: q for q in m.queries}
    q1 = by_id[1]  # single-table date filter
    assert costmodel.joined_dimensions(schema, q1) == []
    assert costmodel.query_cost(schema, q1, ()) == schema.table_pages("LINEITEM")
    # an index never applies without a fact-dimension join
    assert costmodel.query_cost(schema, q1, {"ORDERS.O_ORDERDATE"}) == \
        costmodel.query_cost(schema, q1, ())


def test_no_fact_link_means_no_join():
    schema, m = load("tpch.json", "tpch.sql")
    by_id = {q.id: q for q in m.queries}
    # supplier/nation are referenced but never chained back to the fact
    assert costmodel.joined_dimensions(schema, by_id[11]) == []
    assert costmodel.joined_dimensions(schema, by_id[22]) == []


def test_snowflake_chain_requires_full_path():
    schema, m = load("tpch.json", "tpch.sql")
    by_id = {q.id: q for q in m.queries}
    dims5 = costmodel.joined_dimensions(schema, by_id[5])
    assert "NATION" in dims5 and "REGION" in dims5
    assert "ORDERS" in dims5 and "SUPPLIER" in dims5


def test_uncovered_join_cost_is_hash_joins():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    q4 = by_id[4]  # lineorder-dates join only
    fact_pages = schema.table_pages("lineorder")
    want = 3 * (fact_pages + schema.table_pages("dates"))
    assert costmodel.query_cost(schema, q4, ()) == want


def test_covered_join_cost_structure():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    q4 = by_id[4]  # d_year = 1993 via the dates join
    cfg = {"dates.d_year"}
    size = costmodel.index_storage_size(7, schema.fact.rows, schema.rowid_bits)
    cc = costmodel.index_load_cost(size, schema.page_size)
    nt = schema.fact.rows / 7
    cl = costmodel.tuple_access_cost(nt, schema.table_pages("lineorder"))
    assert costmodel.query_cost(schema, q4, cfg) == pytest.approx(cc + cl)


def test_partially_covered_join_uses_shrunken_fact_side():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    q5 = by_id[5]  # dates + part + supplier joins
    cfg = {"part.p_brand"}
    cost = costmodel.query_cost(schema, q5, cfg)
    size = costmodel.index_storage_size(1000, schema.fact.rows,
                                        schema.rowid_bits)
    cc = costmodel.index_load_cost(size, schema.page_size)
    nt = schema.fact.rows / 1000
    cl = costmodel.tuple_access_cost(nt, schema.table_pages("lineorder"))
    residual = sum(3 * (math.ceil(cl) + schema.table_pages(d))
                   for d in ("dates", "supplier"))
    assert cost == pytest.approx(cc + cl + residual)


def test_estimate_fact_tuples_selectivities():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    (plan,) = costmodel.WorkloadPlan(schema, [by_id[1]]).plans
    # only predicates on the given attributes filter
    assert plan.fact_tuples(0) == schema.fact.rows
    nt = plan.fact_tuples(ids_of(schema, ["dates.d_year"]))
    assert nt == pytest.approx(schema.fact.rows / 7)


def _maxed(catalog):
    """``catalog`` with every row count, tuple width and cardinality at
    ``MAX_CATALOG_INT``."""
    doc = json.loads(json.dumps(catalog))
    for t in doc["tables"]:
        t["rows"] = t["tuple_width"] = MAX_CATALOG_INT
        t.pop("pages", None)
    for a in doc["attributes"]:
        a["cardinality"] = MAX_CATALOG_INT
    return doc


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fact_tuples_lie_between_zero_and_the_fact_rows(random_stars, data):
    """Selectivities are in (0, 1], so no filter set leaves more fact rows
    than the table holds (as a float: ``MAX_CATALOG_INT`` rounds up to
    2**63) or fewer than none, at the largest catalog numbers too."""
    star = data.draw(random_stars)
    for catalog in (star.catalog, _maxed(star.catalog)):
        schema = load_catalog(json.dumps(catalog))
        plans = costmodel.WorkloadPlan(
            schema, parse_workload(star.sql, schema)).plans
        top = (2 << len(schema.attributes)) - 1
        for m in data.draw(st.lists(st.integers(0, top), min_size=1,
                                    max_size=8)) + [0, top]:
            for plan in plans:
                assert 0.0 <= plan.fact_tuples(m) <= float(plan.fact_rows)


SSB = load_catalog_file(data_path("ssb.json"))


def test_repeated_predicates_cost_their_most_selective():
    """Of two predicates on one column, the more selective filters, wherever
    each stands: the range's 1/3 and the subquery's 1 lose to 1/7."""
    head = ("select sum(lo_revenue) from lineorder, dates "
            "where lo_orderdate = d_datekey and ")
    for where in ("d_year > 1990 and d_year = 1993",
                  "d_year = 1993 and d_year > 1990",
                  "d_year in (select d_year from dates) and d_year = 1993"):
        q = parse_query(head + where, SSB)
        assert costmodel.query_cost(SSB, q, ["dates.d_year"]) == \
            130990.91271591333, where


def _ssb_filter(column):
    """One SQL filter on ``column``, in each operator form the parser
    classes differently."""
    return st.one_of(
        st.integers(1990, 1999).map(lambda v: f"{column} = {v}"),
        st.integers(1990, 1999).map(lambda v: f"{column} < {v}"),
        st.integers(1990, 1999).map(
            lambda v: f"{column} between {v} and {v + 2}"),
        st.lists(st.integers(1990, 1999), min_size=1, max_size=4).map(
            lambda vs: f"{column} in ({', '.join(map(str, vs))})"),
        st.just(f"{column} like '19%'"),
        st.just(f"{column} in (select {column} from dates)"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conjunct_order_leaves_query_cost_unchanged(data):
    """Permuting a query's conjuncts leaves its plan unchanged, and so its
    cost under every configuration of the dimension columns it references.
    The draw puts 2-4 filters on one dates column and 1-2 on each of up to
    three more; a fact-column filter never meets an index."""
    columns = [a.name for a in SSB.attributes
               if a.table == "dates" and not a.is_key]
    n = data.draw(st.integers(1, 4))
    first, *more = data.draw(st.lists(st.sampled_from(columns), min_size=n,
                                      max_size=n, unique=True))
    conjuncts = ["lo_orderdate = d_datekey"]
    conjuncts += data.draw(st.lists(_ssb_filter(first), min_size=2,
                                    max_size=4))
    for column in more:
        conjuncts += data.draw(st.lists(_ssb_filter(column), min_size=1,
                                        max_size=2))
    conjuncts += data.draw(st.lists(st.just("lo_quantity < 25"), max_size=1))
    shuffled = data.draw(st.permutations(conjuncts))

    def parse(parts):
        return parse_query("select count(*) from lineorder, dates where "
                           + " and ".join(parts), SSB)

    q, p = parse(conjuncts), parse(shuffled)
    assert p.referenced == q.referenced
    # the plans are equal, the selectivities in the same order included
    assert costmodel.WorkloadPlan(SSB, [p]).plans == \
        costmodel.WorkloadPlan(SSB, [q]).plans
    dims = [SSB.names[i] for i in bits(q.referenced & SSB.on_table["dates"])]
    for r in range(len(dims) + 1):
        for config in itertools.combinations(dims, r):
            assert costmodel.query_cost(SSB, p, config) == \
                costmodel.query_cost(SSB, q, config), (shuffled, config)


def test_three_selectivities_multiply_in_one_order():
    """Three filtered columns under their indexes: swapping two filters
    leaves the product of the selectivities, and so the cost, unchanged."""
    head = ("select count(*) from lineorder, dates where "
            "lo_orderdate = d_datekey and d_dayofweek = 1 and ")
    config = ["dates.d_dayofweek", "dates.d_lastdayinmonthfl",
              "dates.d_sellingseason"]
    costs = [costmodel.query_cost(SSB, parse_query(head + where, SSB), config)
             for where in ("d_lastdayinmonthfl < 5 and "
                           "d_sellingseason in (1, 2)",
                           "d_sellingseason in (1, 2) and "
                           "d_lastdayinmonthfl < 5")]
    assert costs[0] == costs[1]


def test_workload_cost_monotone_under_more_indexes_ssb():
    schema, m = load("ssb.json", "ssb.sql")
    base = costmodel.workload_cost(schema, m.queries, ())
    one = costmodel.workload_cost(schema, m.queries, {"dates.d_year"})
    two = costmodel.workload_cost(schema, m.queries,
                                  {"dates.d_year", "part.p_brand"})
    assert two < one < base


def test_cost_report_document():
    schema, m = load("ssb.json", "ssb.sql")
    doc = costmodel.cost_report(costmodel.WorkloadPlan(schema, m.queries),
                                ["dates.d_year"])
    assert doc["config"] == ["dates.d_year"]
    assert len(doc["costs"]) == 30
    assert doc["total"] == pytest.approx(sum(doc["costs"]))
    assert 0 < doc["reduction"] < 1


def test_join_endpoints_match_case_insensitively():
    """A catalog may spell join endpoints in any case: the links resolve to
    the declared attributes, so costs and DDL equal the canonical catalog's."""
    doc = json.loads(data_path("ssb.json").read_text())
    for j in doc["joins"]:
        j["fact_attr"], j["dim_attr"] = j["fact_attr"].upper(), j["dim_attr"].upper()
    upper = load_catalog(json.dumps(doc))
    canonical = load_catalog_file(data_path("ssb.json"))
    sql = data_path("ssb.sql").read_text()
    qs_upper, qs = parse_workload(sql, upper), parse_workload(sql, canonical)
    for config, pinned in (((), 24_895_497), (("dates.d_year",), 20_840_276.052)):
        cost = costmodel.workload_cost(upper, qs_upper, config)
        assert cost == costmodel.workload_cost(canonical, qs, config)
        assert cost == pytest.approx(pinned, abs=1e-3)
    assert cli.ddl_statements(upper, ["dates.d_year"])[0].endswith(
        "WHERE lineorder.lo_orderdate = dates.d_datekey;")


# ---------------------------------------------------------------------------
# cost plans vs the cost model written out per call
# ---------------------------------------------------------------------------

def oracle_query_cost(schema, query, config):
    """The page-cost model evaluated from scratch: the joined-dimension
    fixpoint, then the scan, hash-only or (partly) covered branch, with the
    unit formulas inlined.  Attributes are read by name, through
    ``schema.attributes[i - 1]``.  Of several predicates on one attribute,
    the one with the smallest selectivity filters."""
    referenced = {schema.attributes[i - 1].qualified
                  for i in bits(query.referenced)}
    predicates = [(schema.attributes[i - 1].qualified, opclass, in_count)
                  for i, opclass, in_count in query.predicates]
    joined, dims = {schema.fact.name}, []
    changed = True
    while changed:
        changed = False
        for src, dst, j, _ in schema.links:
            if src in joined and dst not in joined \
                    and j.fact_attr in referenced \
                    and j.dim_attr in referenced:
                joined.add(dst)
                dims.append(dst)
                changed = True
    if not dims:
        tables = {schema.attribute(a).table for a in referenced}
        return float(sum(schema.table_pages(t) for t in tables))
    fact_pages = schema.table_pages(schema.fact.name)
    used = {}
    for a in sorted(set(config)):
        table = schema.attribute(a).table
        if table in dims and a in referenced:
            used.setdefault(table, []).append(a)
    if not used:
        return float(sum(3 * (fact_pages + schema.table_pages(d))
                         for d in dims))
    index_attrs = [a for attrs in used.values() for a in attrs]
    # of the predicates on one attribute the most selective counts; the
    # attributes' selectivities multiply in name order
    smallest = {}
    for attr, opclass, in_count in predicates:
        card = schema.attribute(attr).cardinality
        if opclass == "equality":
            s = 1.0 / card
        elif opclass in ("range", "like"):
            s = 1.0 / 3.0
        elif opclass == "in-list":
            s = min(1.0, max(in_count, 1) / card)
        else:
            s = 1.0
        smallest[attr] = min(smallest.get(attr, s), s)
    rows, sel = schema.fact.rows, 1.0
    for attr in sorted(smallest):
        if attr in index_attrs:
            sel *= smallest[attr]
    nt = min(float(rows), max(0.0, rows * sel))
    cl = fact_pages * (1.0 - math.exp(-nt / fact_pages)) \
        if fact_pages > 0 and nt > 0 else 0.0
    # every other term is whole pages, summed as an int and added to CL once
    pages = 0
    for a in index_attrs:
        card = schema.attribute(a).cardinality
        size = math.ceil((schema.rowid_bits + card) * rows / 8) if rows else 0
        pages += math.ceil(size / schema.page_size)
    for d in dims:
        if d not in used:
            pages += 3 * (math.ceil(cl) + schema.table_pages(d))
    return cl + pages


def oracle_workload_cost(schema, queries, config):
    return sum(oracle_query_cost(schema, q, config) for q in queries)


BUNDLED = (("example_star.json", "example_star.sql"), ("ssb.json", "ssb.sql"),
           ("tpch.json", "tpch.sql"))


@pytest.mark.parametrize("cat, wl", BUNDLED + (("synth-templates", 0),))
def test_plans_equal_oracle_under_random_configs(cat, wl, gen):
    schema, m = load(cat, wl, gen)
    plans = costmodel.WorkloadPlan(schema, m.queries)
    names = [a.qualified for a in schema.attributes]
    rng = random.Random(7)
    configs = [()] + [rng.sample(names, rng.randint(1, min(8, len(names))))
                      for _ in range(60)]
    for config in configs:
        want = [oracle_query_cost(schema, q, config) for q in m.queries]
        ids = ids_of(schema, config)
        assert plans.costs(ids) == want
        assert plans.costs(ids) == [p.cost(ids) for p in plans.plans]
        assert [costmodel.query_cost(schema, q, config)
                for q in m.queries] == [oracle_query_cost(schema, q, config)
                                        for q in m.queries]
        assert costmodel.workload_cost(schema, m.queries, config) == sum(want)
        report = costmodel.cost_report(plans, config)
        assert report["costs"] == want
        assert report["total"] == sum(want)
    assert plans.baseline == oracle_workload_cost(schema, m.queries, ())


# two TPC-H queries with one join shape, LINEITEM-SUPPLIER-NATION-REGION,
# that filter on different NATION and REGION columns
TPCH_ONE_SHAPE = "".join(
    f"Q{k} - SELECT 1 FROM LINEITEM, SUPPLIER, NATION, REGION "
    "WHERE L_SUPPKEY = S_SUPPKEY AND S_NATIONKEY = N_NATIONKEY "
    f"AND N_REGIONKEY = R_REGIONKEY AND {where}\n"
    for k, where in enumerate(["N_NAME = 'FRANCE'", "R_NAME = 'ASIA'"], 1))


def _planned_workloads(gen):
    """(name, schema, queries) for the workloads the plan-reuse test
    covers."""
    for cat, wl in BUNDLED:
        schema = load_catalog_file(data_path(cat))
        yield cat, schema, parse_workload(data_path(wl).read_text(), schema)
    for inst in (gen.synth_search(1)[0], gen.synth_templates(1)[0]):
        schema = load_catalog(json.dumps(inst.catalog))
        yield inst.name, schema, parse_workload(inst.sql, schema)
    schema = load_catalog_file(data_path("tpch.json"))
    yield "tpch-one-shape", schema, parse_workload(TPCH_ONE_SHAPE, schema)


def test_join_shape_reuse_gives_the_plans_made_alone(gen):
    """A workload's plans are its queries planned one by one, although a
    join shape is worked out once and reused, and ``users`` is the
    queries whose plan can use each column's index."""
    for name, schema, queries in _planned_workloads(gen):
        plans = costmodel.WorkloadPlan(schema, queries)
        alone = [costmodel.WorkloadPlan(schema, [q]).plans[0] for q in queries]
        assert list(plans.plans) == alone, name
        users = {}
        for k, plan in enumerate(plans.plans):
            for i in bits(plan.usable):
                users.setdefault(i, []).append(k)
        assert plans.users == users, name
    # the crafted pair: one shape, different usable columns
    first, second = plans.plans
    assert first.dims == second.dims
    assert [schema.names[i] for i in bits(first.usable ^ second.usable)] == \
        ["NATION.N_NAME", "REGION.R_NAME"]


def oracle_close(schema, m, minsup, budget):
    """close_select's greedy loop, costing the whole workload per trial."""
    motifs = selection.mine_closed_frequent_itemsets(m, minsup)
    members = sorted({i for ids, _ in motifs for i in ids
                      if schema.is_indexable(schema.attributes[i - 1])},
                     key=lambda i: (-m.marginal_support[i], m.columns[i - 1]))
    chosen, notes = [], []
    current = oracle_workload_cost(schema, m.queries, ())
    for i in members:
        attr = m.columns[i - 1]
        trial = chosen + [attr]
        if budget is not None and sum(
                math.ceil((schema.rowid_bits + schema.attribute(a).cardinality)
                          * schema.fact.rows / 8) for a in trial) > budget:
            notes.append(f"{attr} skipped: storage budget exceeded")
            continue
        cost = oracle_workload_cost(schema, m.queries, trial)
        if cost < current:
            chosen.append(attr)
            current = cost
        else:
            notes.append(f"{attr} skipped: no cost improvement")
    return tuple(sorted(chosen)), tuple(notes)


@pytest.mark.parametrize("cat, wl", BUNDLED)
def test_close_select_equals_full_recost_loop(cat, wl):
    schema, m = load(cat, wl)
    plans = costmodel.WorkloadPlan(schema, m.queries)
    for minsup in (0.05, 0.1, 0.3):
        for budget in (None, 10**4, 10**8, 5 * 10**8):
            motifs = selection.mine_closed_frequent_itemsets(m, minsup)
            cfg = selection.close_select(schema, m, plans, motifs, budget)
            assert (cfg.attrs, cfg.notes) == oracle_close(schema, m, minsup,
                                                          budget)


@pytest.mark.parametrize("minsup", [0.1, 0.02])
@pytest.mark.parametrize("cat, wl", [("ssb.json", "ssb.sql"),
                                     ("tpch.json", "tpch.sql"),
                                     ("synth-templates", 0)])
def test_remembered_costs_are_fresh_costs(cat, wl, minsup, gen):
    """Every per-query cost that ``costs`` and ``recost`` return in a run,
    through ``close_select``'s trials and the three engines' cost reports,
    some of them remembered from an earlier configuration with the same
    usable indexes, is the cost a fresh plan works out and the oracle's."""
    schema, m = load(cat, wl, gen)
    plans = costmodel.WorkloadPlan(schema, m.queries)
    returned = []     # (config mask, per-query costs)

    def recorded(method, at):
        def call(*args):
            out = method(*args)
            returned.append((args[at], out))
            return out
        return call

    plans.costs = recorded(plans.costs, 0)
    plans.recost = recorded(plans.recost, 1)
    motifs = selection.mine_closed_frequent_itemsets(m, minsup)
    configs = [selection.tm_ijb(schema, m),
               selection.close_select(schema, m, plans, motifs),
               selection.dynaclose_select(schema, m, motifs)]
    for cfg in configs:
        costmodel.cost_report(plans, cfg.attrs)
    assert len(returned) > len(configs)     # close_select made trials
    fresh = costmodel.WorkloadPlan(schema, m.queries).plans
    for config, out in returned:
        names = [schema.names[i] for i in bits(config)]
        assert out == [p.cost(config) for p in fresh]
        assert out == [oracle_query_cost(schema, q, names)
                       for q in m.queries]


# a dotted table name: ``d.b.c`` falls between ``d.a`` and ``d.z`` in name
# order, so a table's qualified names need not be contiguous
DOTTED = ({"page_size": 4096, "tables": [
    {"name": "F", "role": "fact", "rows": 61445735, "tuple_width": 100,
     "pages": 562302},
    {"name": "d.b", "role": "dimension", "rows": 1000, "tuple_width": 50},
    {"name": "d", "role": "dimension", "rows": 1000, "tuple_width": 50}],
    "attributes": [
        {"table": "F", "name": "fk1", "is_key": True},
        {"table": "F", "name": "fk2", "is_key": True},
        {"table": "d.b", "name": "c", "cardinality": 239},
        {"table": "d.b", "name": "k2", "is_key": True},
        {"table": "d", "name": "z", "cardinality": 879},
        {"table": "d", "name": "k1", "is_key": True},
        {"table": "d", "name": "a", "cardinality": 136}],
    "joins": [{"fact_attr": "F.fk1", "dim_attr": "d.k1"},
              {"fact_attr": "F.fk2", "dim_attr": "d.b.k2"}]},
    "Q1 - select 1 from F where fk1 = k1 and fk2 = k2 and a = 1 and c = 2 "
    "and z = 3\n")


def _declared(cat):
    if cat == "dotted":
        return DOTTED
    return (json.loads(data_path(f"{cat}.json").read_text()),
            data_path(f"{cat}.sql").read_text())


@pytest.mark.parametrize("cat", ["dotted", "ssb", "tpch"])
def test_costs_do_not_depend_on_declaration_order(cat):
    """Shuffling the catalog's tables, attributes and joins lists changes
    every column id and the order the joins are found in, but no cost:
    under each configuration of the indexes a query can use, its cost is
    the unshuffled one and the oracle's."""
    doc, sql = _declared(cat)
    schema = load_catalog(json.dumps(doc))
    queries = parse_workload(sql, schema)
    cases = []      # (query position, configuration)
    for k, plan in enumerate(costmodel.WorkloadPlan(schema, queries).plans):
        names = [schema.names[i] for i in bits(plan.usable & schema.indexable)]
        cases += [(k, config) for r in range(len(names) + 1)
                  for config in itertools.combinations(names, r)]
    want = [costmodel.query_cost(schema, queries[k], c) for k, c in cases]
    rng = random.Random(11)
    for _ in range(3):
        shuffled = {**doc, **{key: rng.sample(doc[key], len(doc[key]))
                              for key in ("tables", "attributes", "joins")}}
        schema = load_catalog(json.dumps(shuffled))
        queries = parse_workload(sql, schema)
        assert [costmodel.query_cost(schema, queries[k], c)
                for k, c in cases] == want
        assert [oracle_query_cost(schema, queries[k], c)
                for k, c in cases] == want
