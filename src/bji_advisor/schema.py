"""Star-schema catalog: tables, attributes, joins, page arithmetic.

Catalogs load from a JSON document with top-level keys ``page_size``,
``rowid_bits``, ``tables``, ``attributes`` and ``joins``.  Explicit page counts
in the catalog win over the ceil(rows*width/page_size) estimate so benchmark
statistics can be reproduced exactly.

Every attribute has a column id: its 1-based position in the catalog's
declaration order, so ``attributes[i - 1]`` is column ``i``.  The parser,
the query-attribute matrix, the cost model and the reports all name
attributes by these ids, and sets of them as int masks (bit ``i``).
"""

from __future__ import annotations

import json
from collections import namedtuple

DEFAULT_ROWID_BITS = 80  # 10-byte row identifier
# Catalog numbers fit a signed 64-bit integer, as a database's statistics
# do; far larger ones overflow the cost model's float arithmetic.
MAX_CATALOG_INT = 2**63 - 1


class CatalogError(ValueError):
    """Raised when a catalog document violates a validation rule."""


class TableStats(namedtuple("TableStats", "name role rows tuple_width pages",
                            defaults=(None,))):
    """A table: ``role`` is "fact" or "dimension"; ``pages`` None means the
    estimate from rows and width."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.role not in ("fact", "dimension"):
            raise CatalogError(f"table {self.name}: unknown role {self.role!r}")
        if self.rows < 0:
            raise CatalogError(f"table {self.name}: negative row count")
        if self.tuple_width <= 0:
            raise CatalogError(f"table {self.name}: tuple width must be positive")
        # an empty table may have no pages; no table has fewer
        least = min(self.rows, 1)
        if self.pages is not None and self.pages < least:
            raise CatalogError(f"table {self.name}: pages must be >= {least}")
        return self


class AttributeStats(namedtuple("AttributeStats",
                                "table name cardinality is_key",
                                defaults=(False,))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.cardinality < 1:
            raise CatalogError(f"attribute {self.table}.{self.name}: cardinality < 1")
        return self

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}"


# a join link between two qualified "table.attr" names
Join = namedtuple("Join", "fact_attr dim_attr")


def pages_of(t: TableStats, page_size: int) -> int:
    """Explicit page count when supplied, else ceil(rows * width / page_size)."""
    if t.pages is not None:
        return t.pages
    return -(-t.rows * t.tuple_width // page_size)


class StarSchema:
    """A validated catalog: ``tables`` by name, ``attributes`` in declaration
    order, ``joins``, ``page_size`` and ``rowid_bits``.

    Resolved once from those: the ``fact`` table; ``links``, per join (from
    table, to table, join with the declared qualified names); ``link_masks``,
    per link (from table, to table, mask of the join's two endpoint ids);
    ``ids_by_name``, lowercase name -> column id for the names only one
    table has; ``ids_by_column``, (declared table, lowercase name) -> id.

    The per-column tables every later stage reads by column id: ``names``,
    the qualified names, and ``cards``, the cardinalities (index 0 unused);
    ``on_table``, table -> mask of its column ids; ``indexable``, the mask
    of the ids ``is_indexable`` holds for.
    """

    def __init__(self, tables: dict[str, TableStats],
                 attributes: tuple[AttributeStats, ...],
                 joins: tuple[Join, ...], page_size: int,
                 rowid_bits: int = DEFAULT_ROWID_BITS) -> None:
        self.tables, self.attributes, self.joins = tables, attributes, joins
        self.page_size, self.rowid_bits = page_size, rowid_bits
        if page_size <= 0:
            raise CatalogError("missing or invalid page_size")
        if rowid_bits <= 0:
            raise CatalogError("rowid_bits must be positive")
        facts = [t for t in tables.values() if t.role == "fact"]
        if len(facts) != 1:
            raise CatalogError(
                f"exactly one fact table required, found {[t.name for t in facts]}")
        table_names: dict[str, str] = {}
        for t in tables:
            if table_names.setdefault(t.lower(), t) != t:
                raise CatalogError(f"duplicate table {t}")
        index: dict[str, int] = {}      # lowercase qualified name -> id
        by_name: dict[str, list[int]] = {}  # lowercase name -> ids
        by_column: dict[tuple[str, str], int] = {}
        on_table = dict.fromkeys(tables, 0)
        indexable = 0
        names = [""]
        for i, a in enumerate(attributes, 1):
            qualified = a.qualified
            low, name = qualified.lower(), a.name.lower()
            if low in index:
                raise CatalogError(f"duplicate attribute {qualified}")
            index[low] = i
            names.append(qualified)
            by_name.setdefault(name, []).append(i)
            by_column[a.table, name] = i
            on_table[a.table] |= 1 << i
            if self.is_indexable(a):
                indexable |= 1 << i
            owner = tables[a.table]
            if owner.rows > 0 and a.cardinality > owner.rows:
                # the worked-example catalog legitimately exceeds this bound
                import logging
                logging.getLogger(__name__).warning(
                    "attribute %s: cardinality %d exceeds table rows %d",
                    qualified, a.cardinality, owner.rows)
        links, link_masks = [], []
        for j in joins:
            fi = index.get(j.fact_attr.lower())
            di = index.get(j.dim_attr.lower())
            if fi is None or di is None:
                raise CatalogError(f"join {j.fact_attr} = {j.dim_attr}: unknown endpoint")
            fa, da = attributes[fi - 1], attributes[di - 1]
            if fa.table == da.table:
                raise CatalogError(f"join {j.fact_attr} = {j.dim_attr} is self-referential")
            if tables[da.table].role != "dimension":
                raise CatalogError(f"join dim side {j.dim_attr} is not on a dimension")
            if not da.is_key:
                raise CatalogError(f"join dim side {j.dim_attr} must be a key")
            links.append((fa.table, da.table, Join(fa.qualified, da.qualified)))
            link_masks.append((fa.table, da.table, 1 << fi | 1 << di))
        # the shortest join chain from the fact table to each table (BFS)
        paths: dict[str, list[Join]] = {facts[0].name: []}
        queue = [facts[0].name]
        for table in queue:
            for src, dst, j in links:
                if src == table and dst not in paths:
                    paths[dst] = paths[table] + [j]
                    queue.append(dst)
        for t in tables:
            if t not in paths:
                raise CatalogError(
                    f"no join path from fact table {facts[0].name} to {t}")
        self.fact, self.links, self.link_masks = \
            facts[0], tuple(links), tuple(link_masks)
        self.ids_by_name = {name: i for name, (i, *more) in by_name.items()
                            if not more}
        self.ids_by_column, self._paths = by_column, paths
        self.names = tuple(names)
        self.cards = (0, *(a.cardinality for a in attributes))
        self.on_table, self.indexable = on_table, indexable
        self._by_qualified, self._table_names = index, table_names
        self._pages = {key: pages_of(t, page_size) for key, t in tables.items()}

    # -- lookups -----------------------------------------------------------
    def column_id(self, qualified: str) -> int:
        i = self._by_qualified.get(qualified.lower())
        if i is None:
            raise CatalogError(f"unknown attribute {qualified}")
        return i

    def attribute(self, qualified: str) -> AttributeStats:
        return self.attributes[self.column_id(qualified) - 1]

    def find_table(self, name: str) -> str | None:
        """The declared name of a table, matched case-insensitively."""
        return self._table_names.get(name.lower())

    def table_pages(self, name: str) -> int:
        return self._pages[name]

    def is_indexable(self, a: AttributeStats) -> bool:
        """Non-key attribute of a dimension table."""
        return (not a.is_key) and self.tables[a.table].role == "dimension"

    def join_path(self, dim: str) -> list[Join] | None:
        """The shortest chain of join links from the fact table to the
        table ``dim``; None if there is no such table."""
        return self._paths.get(dim)


def load_catalog(text: str) -> StarSchema:
    """Parse and fully validate a JSON catalog document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # a syntax error, or a number longer than int() reads
        raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CatalogError("catalog is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise CatalogError("catalog must be a JSON object")
    if "page_size" not in doc:
        raise CatalogError("missing page_size")
    for key in ("tables", "attributes", "joins"):
        entries = doc.get(key, [])
        if not (isinstance(entries, list)
                and all(isinstance(e, dict) for e in entries)):
            raise CatalogError(f"catalog {key} must be a list of objects")
    try:
        return _catalog_from(doc)
    except CatalogError:
        raise
    except KeyError as exc:
        raise CatalogError(f"catalog entry missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise CatalogError(f"malformed catalog entry: {exc}") from exc


def _catalog_from(doc: dict) -> StarSchema:
    tables: dict[str, TableStats] = {}
    for t in doc.get("tables", []):
        ts = TableStats(name=t["name"], role=t["role"],
                        rows=_int(t["rows"], "rows"),
                        tuple_width=_int(t["tuple_width"], "tuple_width"),
                        pages=_int(t["pages"], "pages") if "pages" in t else None)
        if ts.name in tables:
            raise CatalogError(f"duplicate table {ts.name}")
        tables[ts.name] = ts
    declared = {name.lower(): name for name in tables}
    attrs: list[AttributeStats] = []
    for a in doc.get("attributes", []):
        table = declared.get(a["table"].lower(), a["table"])
        if table not in tables:
            raise CatalogError(f"attribute {table}.{a['name']}: unknown table {table}")
        is_key = a.get("is_key", False)
        if not isinstance(is_key, bool):
            raise CatalogError(f"attribute {table}.{a['name']}: is_key must be "
                               f"true or false, not {is_key!r}")
        card = a.get("cardinality")
        if card is None:
            if is_key:
                card = max(1, tables[table].rows)  # keys default to row count
            else:
                raise CatalogError(
                    f"attribute {table}.{a['name']}: cardinality required")
        attrs.append(AttributeStats(table=table, name=a["name"],
                                    cardinality=_int(card, "cardinality"),
                                    is_key=is_key))
    joins = tuple(Join(j["fact_attr"], j["dim_attr"]) for j in doc.get("joins", []))
    return StarSchema(tables=tables, attributes=tuple(attrs), joins=joins,
                      page_size=_int(doc["page_size"], "page_size"),
                      rowid_bits=_int(doc.get("rowid_bits", DEFAULT_ROWID_BITS),
                                      "rowid_bits"))


def _int(value, key: str) -> int:
    """A count as written: a JSON integer (not a boolean, a fraction or a
    string) within the signed 64-bit range."""
    if type(value) is not int:
        raise CatalogError(f"{key} must be an integer, not {value!r}")
    if abs(value) > MAX_CATALOG_INT:
        raise CatalogError(f"{key} out of the signed 64-bit range")
    return value


def load_catalog_file(path) -> StarSchema:
    with open(path, "r", encoding="utf-8") as fh:
        return load_catalog(fh.read())
