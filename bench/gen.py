"""Seeded input generators for the synthetic workloads.

Each generator returns instances: a catalog document, a workload SQL text and
the generator's own record of the attributes every query references.  The
record is what the output checks compare the advisor's matrix against, so it
is built from the generator's choices, never from the advisor's output.

Everything here is a pure function of the seed: the same seed gives
byte-identical catalog JSON and SQL.

* ``synth_search``: a fixed ladder of random-like hypergraphs.  The edge
  structure of each instance is drawn from a constant structure seed, so run
  to run differences measure the program rather than the draw: the exact
  search is exponential, and two random draws of one shape differ in search
  time by more than any bound a regression gate could use.  The run seed
  draws everything else: query order, predicate order, operators, constants,
  qualified or bare column names, table aliases and catalog statistics.
* ``synth_templates``: a star with many queries instantiated from a few
  templates.  The template set is fixed by a constant seed for the same
  reason; the run seed draws which template each query instantiates, and
  the surface as above.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

FACT = "fact"


@dataclass(frozen=True)
class Instance:
    name: str
    catalog: dict
    sql: str
    referenced: dict[int, frozenset[str]]   # query id -> qualified attributes

    def write(self, directory: str) -> tuple[str, str]:
        """Write ``<name>.json`` and ``<name>.sql``; return their paths."""
        cat = os.path.join(directory, self.name + ".json")
        sql = os.path.join(directory, self.name + ".sql")
        with open(cat, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(self.catalog, indent=1, sort_keys=True) + "\n")
        with open(sql, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.sql)
        return cat, sql


# ---------------------------------------------------------------------------
# star catalog
# ---------------------------------------------------------------------------

def _dim(d: int) -> str:
    return f"dim{d}"


def _fk(d: int) -> str:
    return f"f_d{d}key"


def _key(d: int) -> str:
    return f"d{d}_key"


def _dattr(d: int, a: int) -> str:
    return f"d{d}_a{a}"


def _fcol(c: int) -> str:
    return f"f_c{c:02d}"


def star_catalog(rng: random.Random, dims: int, attrs: int,
                 fact_cols: int) -> dict:
    """Catalog of a star: fact columns first, then foreign keys, then each
    dimension's key and attributes.  Declaration order fixes column ids."""
    fact_rows = rng.randrange(1_000_000, 8_000_000)
    tables = [{"name": FACT, "role": "fact", "rows": fact_rows,
               "tuple_width": rng.randrange(80, 200)}]
    attributes = [{"table": FACT, "name": _fcol(c),
                   "cardinality": rng.randrange(2, 2000)}
                  for c in range(1, fact_cols + 1)]
    dim_rows = {}
    for d in range(1, dims + 1):
        dim_rows[d] = rng.randrange(500, 200_000)
        tables.append({"name": _dim(d), "role": "dimension",
                       "rows": dim_rows[d],
                       "tuple_width": rng.randrange(60, 300)})
        attributes.append({"table": FACT, "name": _fk(d), "is_key": True,
                           "cardinality": dim_rows[d]})
    for d in range(1, dims + 1):
        attributes.append({"table": _dim(d), "name": _key(d), "is_key": True,
                           "cardinality": dim_rows[d]})
        for a in range(1, attrs + 1):
            attributes.append({"table": _dim(d), "name": _dattr(d, a),
                               "cardinality": rng.randrange(2, min(500, dim_rows[d]))})
    joins = [{"fact_attr": f"{FACT}.{_fk(d)}", "dim_attr": f"{_dim(d)}.{_key(d)}"}
             for d in range(1, dims + 1)]
    return {"page_size": 8192, "rowid_bits": 80, "tables": tables,
            "attributes": attributes, "joins": joins}


# ---------------------------------------------------------------------------
# SQL surface
# ---------------------------------------------------------------------------

OPERATORS = ("equality", "range", "between", "in-list", "like")


def _filter(rng: random.Random, col: str, op: str) -> str:
    if op == "equality":
        return f"{col} = {rng.randrange(1, 100)}"
    if op == "range":
        return f"{col} {rng.choice(('<', '<=', '>', '>='))} {rng.randrange(1, 100)}"
    if op == "between":
        lo = rng.randrange(1, 50)
        return f"{col} between {lo} and {lo + rng.randrange(1, 50)}"
    if op == "in-list":
        values = sorted(rng.sample(range(1, 100), rng.randrange(2, 6)))
        return f"{col} in ({', '.join(map(str, values))})"
    return f"{col} like 'v{rng.randrange(10)}%'"


@dataclass(frozen=True)
class QueryShape:
    """The attributes one query filters on and joins through."""
    joins: tuple[int, ...]                        # joined dimensions
    dim_filters: tuple[tuple[int, int, str], ...]  # (dim, attr, operator)
    fact_filters: tuple[tuple[int, str], ...]      # (fact column, operator)

    def referenced(self) -> frozenset[str]:
        out = {f"{FACT}.{_fcol(c)}" for c, _ in self.fact_filters}
        for d in self.joins:
            out |= {f"{FACT}.{_fk(d)}", f"{_dim(d)}.{_key(d)}"}
        out |= {f"{_dim(d)}.{_dattr(d, a)}" for d, a, _ in self.dim_filters}
        return frozenset(out)


def render_query(rng: random.Random, qid: int, shape: QueryShape) -> str:
    """One ``Qn -`` block; the seed picks aliases, qualification, predicate
    order and constants, none of which change the referenced attributes."""
    aliased = rng.random() < 0.5
    alias = {FACT: "f" if aliased else FACT}
    for d in shape.joins:
        alias[_dim(d)] = f"t{d}" if aliased else _dim(d)

    def col(table: str, name: str) -> str:
        return f"{alias[table]}.{name}" if rng.random() < 0.5 else name

    preds = [f"{col(FACT, _fk(d))} = {col(_dim(d), _key(d))}" for d in shape.joins]
    preds += [_filter(rng, col(_dim(d), _dattr(d, a)), op)
              for d, a, op in shape.dim_filters]
    preds += [_filter(rng, col(FACT, _fcol(c)), op)
              for c, op in shape.fact_filters]
    rng.shuffle(preds)
    tables = [FACT] + [_dim(d) for d in shape.joins]
    from_items = ", ".join(f"{t} {alias[t]}" if aliased else t for t in tables)
    select = rng.choice(("count(*)", f"sum({col(FACT, _fcol(1))})"))
    return (f"Q{qid} - select {select}\nfrom {from_items}\n"
            f"where {' and '.join(preds)}\n")


def _instance(name: str, catalog: dict, shapes: list[QueryShape],
              rng: random.Random) -> Instance:
    blocks, referenced = [], {}
    for qid, shape in enumerate(shapes, start=1):
        blocks.append(render_query(rng, qid, shape))
        referenced[qid] = shape.referenced()
    return Instance(name, catalog, "\n".join(blocks), referenced)


# ---------------------------------------------------------------------------
# synth-search: random-like hypergraphs, search dominated
# ---------------------------------------------------------------------------

SEARCH_DIMS, SEARCH_ATTRS, SEARCH_FACT_COLS = 4, 5, 24
SEARCH_QUERIES = 60
SEARCH_P_JOIN = 0.2          # chance a query joins a given dimension
SEARCH_FACT_PER_QUERY = 2    # degenerate fact-column filters per query
# constant structure seeds of the ladder, picked from seeds 0-39 so that
# search times lie within a factor of two of each other (a median over a mix
# of very fast and very slow instances falls in the gap between them and
# jumps from run to run).  When they were picked, the greedy bound
# overshot the exact transversality by one on the first six and was exact on
# the other six; each run's shape report shows the current split.
SEARCH_STRUCTURES = (1, 7, 14, 18, 19, 36, 11, 13, 17, 25, 28, 32)


def _search_structure(k: int) -> list[QueryShape]:
    r = random.Random(k)
    shapes = []
    for _ in range(SEARCH_QUERIES):
        joins, dim_filters = [], []
        for d in range(1, SEARCH_DIMS + 1):
            if r.random() < SEARCH_P_JOIN:
                joins.append(d)
                dim_filters += [(d, a, "") for a in
                                r.sample(range(1, SEARCH_ATTRS + 1), r.randint(1, 2))]
        cols = r.sample(range(1, SEARCH_FACT_COLS + 1), SEARCH_FACT_PER_QUERY)
        shapes.append(QueryShape(tuple(joins), tuple(dim_filters),
                                 tuple((c, "") for c in cols)))
    return shapes


def _with_operators(rng: random.Random, s: QueryShape) -> QueryShape:
    return QueryShape(s.joins,
                      tuple((d, a, rng.choice(OPERATORS)) for d, a, _ in s.dim_filters),
                      tuple((c, rng.choice(OPERATORS)) for c, _ in s.fact_filters))


def synth_search(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for k in SEARCH_STRUCTURES:
        catalog = star_catalog(rng, SEARCH_DIMS, SEARCH_ATTRS, SEARCH_FACT_COLS)
        shapes = [_with_operators(rng, s) for s in _search_structure(k)]
        rng.shuffle(shapes)
        out.append(_instance(f"search{k:02d}", catalog, shapes, rng))
    return out


# ---------------------------------------------------------------------------
# synth-templates: many queries, few distinct edges, cost-model dominated
# ---------------------------------------------------------------------------

TEMPLATE_DIMS, TEMPLATE_ATTRS, TEMPLATE_FACT_COLS = 10, 10, 20
TEMPLATES = 30
TEMPLATE_INSTANCES, TEMPLATE_QUERIES = 4, 250
# constant seed of the template set, picked from seeds 0-24 as one whose
# hypergraph search is a small share of an invocation (64 smallest
# transversals of size 5), so this workload measures the other layers
TEMPLATE_STRUCTURE = 1
# skewed dimension popularity, as in real star workloads: a few dimensions
# (dates, say) are joined by most queries
DIM_WEIGHTS = tuple(1.0 / d for d in range(1, TEMPLATE_DIMS + 1))


def _template_structure() -> list[QueryShape]:
    r = random.Random(TEMPLATE_STRUCTURE)
    shapes = []
    for _ in range(TEMPLATES):
        joins = sorted(set(r.choices(range(1, TEMPLATE_DIMS + 1),
                                     weights=DIM_WEIGHTS, k=r.randint(1, 3))))
        dim_filters = [(d, a, "") for d in joins for a in
                       r.sample(range(1, TEMPLATE_ATTRS + 1), r.randint(1, 2))]
        cols = r.sample(range(1, TEMPLATE_FACT_COLS + 1), r.randint(0, 2))
        shapes.append(QueryShape(tuple(joins), tuple(dim_filters),
                                 tuple((c, "") for c in cols)))
    return shapes


def synth_templates(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    templates = _template_structure()
    out = []
    for k in range(TEMPLATE_INSTANCES):
        catalog = star_catalog(rng, TEMPLATE_DIMS, TEMPLATE_ATTRS, TEMPLATE_FACT_COLS)
        shapes = [_with_operators(rng, rng.choice(templates))
                  for _ in range(TEMPLATE_QUERIES)]
        out.append(_instance(f"templates{k}", catalog, shapes, rng))
    return out


GENERATORS = {"synth-search": synth_search, "synth-templates": synth_templates}


# ---------------------------------------------------------------------------
# instance shape
# ---------------------------------------------------------------------------

def greedy_bound(edges: list[frozenset[str]], order: list[str]) -> int:
    """Greedy upper bound on the transversality number: from every start
    vertex, add the vertex hitting most remaining edges (ties by catalog
    order) until every edge is hit; keep the smallest cover."""
    pos = {v: i for i, v in enumerate(order)}
    vertices = sorted({v for e in edges for v in e}, key=pos.__getitem__)
    best = len(vertices)
    for start in vertices:
        size, remaining = 1, [e for e in edges if start not in e]
        while remaining and size < best:
            degree: dict[str, int] = {}
            for e in remaining:
                for v in e:
                    degree[v] = degree.get(v, 0) + 1
            v = min(degree, key=lambda x: (-degree[x], pos[x]))
            remaining = [e for e in remaining if v not in e]
            size += 1
        if not remaining:
            best = min(best, size)
    return best


def shape_of(inst: Instance) -> dict:
    """V, E, rows, distinct edges per row and the greedy bound."""
    rows = list(inst.referenced.values())
    edges = list(dict.fromkeys(rows))
    order = [f"{a['table']}.{a['name']}" for a in inst.catalog["attributes"]]
    return {"V": len({v for e in edges for v in e}), "E": len(edges),
            "rows": len(rows), "edge_share": len(edges) / len(rows),
            "greedy_bound": greedy_bound(edges, order)}
