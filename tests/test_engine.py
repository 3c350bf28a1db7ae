"""Bitmap join index semantics vs the naive join oracle."""

import random

import pytest

from bji_advisor.engine import (BitmapJoinIndex, EngineError, MiniTable,
                                build_bji, demo_tables, evaluate,
                                naive_join_oracle)
from bji_advisor.hypergraph import bits


def as_tuple(bm: int, n: int) -> tuple[int, ...]:
    """Bit ``i`` of the bitmap as element ``i``."""
    return tuple(bm >> i & 1 for i in range(n))


def test_minitable_values_and_col():
    t = MiniTable("T", ("a", "b"), (("1", "x"), ("2", "y")))
    assert t.values("B") == ["x", "y"]
    assert t.col("A") == 0
    with pytest.raises(EngineError):
        t.col("missing")


def test_minitable_validation():
    with pytest.raises(EngineError):
        MiniTable("T", ("a", "A"), ())
    with pytest.raises(EngineError):
        MiniTable("T", ("a", "b"), (("1",),))


def test_duplicate_dimension_keys_rejected():
    fact = MiniTable("F", ("RID", "K"), (("1", "k1"),))
    dim = MiniTable("D", ("K", "V"), (("k1", "x"), ("k1", "y")))
    with pytest.raises(EngineError):
        build_bji(fact, dim, "K", "K", "V")


def test_dangling_fk_gets_zero_bits():
    fact = MiniTable("F", ("RID", "K"), (("1", "k1"), ("2", "zz")))
    dim = MiniTable("D", ("K", "V"), (("k1", "x"),))
    idx = build_bji(fact, dim, "K", "K", "V")
    assert as_tuple(idx.bitmaps["x"], 2) == (1, 0)
    # row 2 has zero bits under every value
    assert all(as_tuple(bm, 2)[1] == 0 for bm in idx.bitmaps.values())


def test_row_bit_sums_at_most_one():
    fact, client, produit, temps = demo_tables()
    for dim, fk, key, attr in ((client, "CID", "CID", "Ville"),
                               (produit, "PID", "PID", "Type"),
                               (temps, "TID", "TID", "Mois")):
        idx = build_bji(fact, dim, fk, key, attr)
        for pos in range(len(fact.rows)):
            assert sum(as_tuple(bm, len(fact.rows))[pos]
                       for bm in idx.bitmaps.values()) <= 1


def test_missing_index_is_error():
    fact, client, _, _ = demo_tables()
    idx = build_bji(fact, client, "CID", "CID", "Ville")
    with pytest.raises(EngineError):
        evaluate({"Ville": idx}, {"Mois": ["Mars"]})
    with pytest.raises(EngineError):
        evaluate({"Ville": idx}, {})


def test_empty_value_list_gives_empty_result():
    fact, client, _, _ = demo_tables()
    idx = build_bji(fact, client, "CID", "CID", "Ville")
    assert as_tuple(evaluate({"Ville": idx}, {"Ville": []}), 12) == (0,) * 12


def test_demo_city_bitmap_frozen():
    """Pinned bit pattern: customers 1 and 4 live in Poitiers, so fact rows
    with CID in {1, 4} light up (rows 1, 4, 5, 8, 9, 11 one-based)."""
    fact, client, _, _ = demo_tables()
    idx = build_bji(fact, client, "CID", "CID", "Ville")
    bm = {v: as_tuple(b, 12) for v, b in idx.bitmaps.items()}
    assert bm["Poitiers"] == (1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0)
    assert bm["Paris"] == (0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0)
    assert bm["Nantes"] == (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    assert bm["Poitiers"][0] == 1  # first fact row is a Poitiers sale


def test_demo_conjunction_matches_oracle():
    fact, client, produit, temps = demo_tables()
    indexes = {
        "Ville": build_bji(fact, client, "CID", "CID", "Ville"),
        "Type": build_bji(fact, produit, "PID", "PID", "Type"),
        "Mois": build_bji(fact, temps, "TID", "TID", "Mois"),
    }
    dims = {"Ville": (client, "CID", "CID"),
            "Type": (produit, "PID", "PID"),
            "Mois": (temps, "TID", "TID")}
    conds = {"Ville": ["Poitiers", "Nantes"], "Mois": ["Mars"],
             "Type": ["Jouet", "Beaute"]}
    vbf = evaluate(indexes, conds)
    assert vbf == naive_join_oracle(fact, dims, conds)
    assert list(bits(vbf)) == [0, 4, 6]


def random_instance(rng: random.Random):
    n_dims = rng.randint(1, 3)
    dims = {}
    fk_cols = []
    for d in range(n_dims):
        attr = f"attr{d}"
        n_keys = rng.randint(1, 6)
        values = [f"v{rng.randint(0, 3)}" for _ in range(n_keys)]
        rows = tuple((f"k{i}", values[i]) for i in range(n_keys))
        dim = MiniTable(f"D{d}", (f"K{d}", attr), rows)
        dims[attr] = (dim, f"FK{d}", f"K{d}")
        fk_cols.append((f"FK{d}", n_keys))
    n_rows = rng.randint(0, 64)
    fact_rows = []
    for r in range(n_rows):
        row = [str(r)]
        for _, n_keys in fk_cols:
            # occasionally dangling
            row.append(f"k{rng.randint(0, n_keys)}")
        fact_rows.append(tuple(row))
    fact = MiniTable("F", ("RID",) + tuple(c for c, _ in fk_cols),
                     tuple(fact_rows))
    conds = {}
    for attr in dims:
        if rng.random() < 0.8:
            pool = ["v0", "v1", "v2", "v3", "nope"]
            conds[attr] = rng.sample(pool, rng.randint(0, len(pool)))
    if not conds:
        conds[next(iter(dims))] = ["v0"]
    return fact, dims, conds


def test_oracle_equivalence_random_instances():
    rng = random.Random(991)
    for _ in range(1200):
        fact, dims, conds = random_instance(rng)
        indexes = {attr: build_bji(fact, dim, fk, key, attr)
                   for attr, (dim, fk, key) in dims.items()}
        assert evaluate(indexes, conds) == naive_join_oracle(fact, dims, conds)


def test_impossible_value_empty_both_ways():
    fact, client, _, _ = demo_tables()
    idx = build_bji(fact, client, "CID", "CID", "Ville")
    conds = {"Ville": ["Atlantis"]}
    dims = {"Ville": (client, "CID", "CID")}
    assert set(bits(evaluate({"Ville": idx}, conds))) == set()
    assert set(bits(naive_join_oracle(fact, dims, conds))) == set()


def test_all_values_selects_all_joined_rows():
    fact, client, _, _ = demo_tables()
    idx = build_bji(fact, client, "CID", "CID", "Ville")
    conds = {"Ville": ["Poitiers", "Paris", "Nantes"]}
    assert as_tuple(evaluate({"Ville": idx}, conds), 12) == (1,) * 12
