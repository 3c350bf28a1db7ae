"""Star-schema catalog: tables, attributes, joins, page arithmetic.

Catalogs load from a JSON document with top-level keys ``page_size``,
``rowid_bits``, ``tables``, ``attributes`` and ``joins``.  Explicit page counts
in the catalog win over the ceil(rows*width/page_size) estimate so benchmark
statistics can be reproduced exactly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

log = logging.getLogger(__name__)

DEFAULT_ROWID_BITS = 80  # 10-byte row identifier


class CatalogError(ValueError):
    """Raised when a catalog document violates a validation rule."""


@dataclass(frozen=True)
class TableStats:
    name: str
    role: str  # "fact" | "dimension"
    rows: int
    tuple_width: int
    pages: Optional[int] = None

    def __post_init__(self) -> None:
        if self.role not in ("fact", "dimension"):
            raise CatalogError(f"table {self.name}: unknown role {self.role!r}")
        if self.rows < 0:
            raise CatalogError(f"table {self.name}: negative row count")
        if self.tuple_width <= 0:
            raise CatalogError(f"table {self.name}: tuple width must be positive")
        if self.pages is not None and self.rows > 0 and self.pages < 1:
            raise CatalogError(f"table {self.name}: pages must be >= 1")


@dataclass(frozen=True)
class AttributeStats:
    table: str
    name: str
    cardinality: int
    is_key: bool = False

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise CatalogError(f"attribute {self.table}.{self.name}: cardinality < 1")

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}"


@dataclass(frozen=True)
class Join:
    fact_attr: str  # qualified "table.attr"
    dim_attr: str


def pages_of(t: TableStats, page_size: int) -> int:
    """Explicit page count when supplied, else ceil(rows * width / page_size)."""
    if page_size <= 0:
        raise CatalogError("page size must be positive")
    if t.pages is not None:
        return t.pages
    if t.rows == 0:
        return 0
    return math.ceil(t.rows * t.tuple_width / page_size)


@dataclass(frozen=True)
class StarSchema:
    tables: dict[str, TableStats]
    attributes: tuple[AttributeStats, ...]  # catalog declaration order
    joins: tuple[Join, ...]
    page_size: int
    rowid_bits: int = DEFAULT_ROWID_BITS

    # resolved once by __post_init__ from the fields above
    fact: TableStats = field(init=False, repr=False, compare=False)
    # (from table, to table, join with the declared qualified names)
    links: tuple[tuple[str, str, Join], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise CatalogError("missing or invalid page_size")
        if self.rowid_bits <= 0:
            raise CatalogError("rowid_bits must be positive")
        facts = [t for t in self.tables.values() if t.role == "fact"]
        if len(facts) != 1:
            raise CatalogError(
                f"exactly one fact table required, found {[t.name for t in facts]}")
        table_names: dict[str, str] = {}
        for t in self.tables:
            if table_names.setdefault(t.lower(), t) != t:
                raise CatalogError(f"duplicate table {t}")
        index: dict[str, AttributeStats] = {}
        by_name: dict[str, list[AttributeStats]] = {}
        for a in self.attributes:
            if a.table not in self.tables:
                raise CatalogError(f"attribute {a.qualified}: unknown table {a.table}")
            if a.qualified.lower() in index:
                raise CatalogError(f"duplicate attribute {a.qualified}")
            index[a.qualified.lower()] = a
            by_name.setdefault(a.name.lower(), []).append(a)
            owner = self.tables[a.table]
            if owner.rows > 0 and a.cardinality > owner.rows:
                # the worked-example catalog legitimately exceeds this bound
                log.warning("attribute %s: cardinality %d exceeds table rows %d",
                            a.qualified, a.cardinality, owner.rows)
        links = []
        for j in self.joins:
            fa = index.get(j.fact_attr.lower())
            da = index.get(j.dim_attr.lower())
            if fa is None or da is None:
                raise CatalogError(f"join {j.fact_attr} = {j.dim_attr}: unknown endpoint")
            if fa.table == da.table:
                raise CatalogError(f"join {j.fact_attr} = {j.dim_attr} is self-referential")
            if self.tables[da.table].role != "dimension":
                raise CatalogError(f"join dim side {j.dim_attr} is not on a dimension")
            if not da.is_key:
                raise CatalogError(f"join dim side {j.dim_attr} must be a key")
            links.append((fa.table, da.table, Join(fa.qualified, da.qualified)))
        for name, value in (
                ("fact", facts[0]), ("links", tuple(links)),
                ("_by_qualified", index), ("_by_name", by_name),
                ("_table_names", table_names),
                ("_pages", {key: pages_of(t, self.page_size)
                            for key, t in self.tables.items()})):
            object.__setattr__(self, name, value)

    # -- lookups -----------------------------------------------------------
    def attribute(self, qualified: str) -> AttributeStats:
        a = self._by_qualified.get(qualified.lower())
        if a is None:
            raise CatalogError(f"unknown attribute {qualified}")
        return a

    def find_attribute(self, name: str, table: Optional[str] = None) -> AttributeStats:
        """Resolve a (possibly unqualified) column name, case-insensitively."""
        if table is not None:
            return self.attribute(f"{table}.{name}")
        hits = self._by_name.get(name.lower())
        if not hits:
            raise CatalogError(f"unknown attribute {name}")
        if len(hits) > 1:
            raise CatalogError(
                f"ambiguous attribute {name}: " + ", ".join(a.qualified for a in hits))
        return hits[0]

    def find_table(self, name: str) -> Optional[str]:
        """The declared name of a table, matched case-insensitively."""
        return self._table_names.get(name.lower())

    def table_pages(self, name: str) -> int:
        return self._pages[name]

    def is_indexable(self, a: AttributeStats) -> bool:
        """Non-key attribute of a dimension table."""
        return (not a.is_key) and self.tables[a.table].role == "dimension"

    def join_path(self, dim: str) -> Optional[list[Join]]:
        """Chain of join links from the fact table to ``dim`` (BFS), if any."""
        frontier = [(self.fact.name, [])]
        seen = {self.fact.name}
        while frontier:
            table, path = frontier.pop(0)
            if table == dim:
                return path
            for src, dst, j in self.links:
                if src == table and dst not in seen:
                    seen.add(dst)
                    frontier.append((dst, path + [j]))
        return None

    def to_document(self) -> dict:
        return {
            "page_size": self.page_size,
            "rowid_bits": self.rowid_bits,
            "tables": [
                {"name": t.name, "role": t.role, "rows": t.rows,
                 "tuple_width": t.tuple_width,
                 **({"pages": t.pages} if t.pages is not None else {})}
                for t in self.tables.values()
            ],
            "attributes": [
                {"table": a.table, "name": a.name, "cardinality": a.cardinality,
                 "is_key": a.is_key}
                for a in self.attributes
            ],
            "joins": [{"fact_attr": j.fact_attr, "dim_attr": j.dim_attr}
                      for j in self.joins],
        }


def load_catalog(text: str) -> StarSchema:
    """Parse and fully validate a JSON catalog document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
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
    except KeyError as exc:
        raise CatalogError(f"catalog entry missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise CatalogError(f"malformed catalog entry: {exc}") from exc


def _catalog_from(doc: dict) -> StarSchema:
    tables: dict[str, TableStats] = {}
    for t in doc.get("tables", []):
        ts = TableStats(name=t["name"], role=t["role"], rows=int(t["rows"]),
                        tuple_width=int(t["tuple_width"]),
                        pages=int(t["pages"]) if "pages" in t else None)
        if ts.name in tables:
            raise CatalogError(f"duplicate table {ts.name}")
        tables[ts.name] = ts
    declared = {name.lower(): name for name in tables}
    attrs: list[AttributeStats] = []
    for a in doc.get("attributes", []):
        table = declared.get(a["table"].lower(), a["table"])
        if table not in tables:
            raise CatalogError(f"attribute {table}.{a['name']}: unknown table {table}")
        card = a.get("cardinality")
        if card is None:
            if a.get("is_key"):
                card = max(1, tables[table].rows)  # keys default to row count
            else:
                raise CatalogError(
                    f"attribute {table}.{a['name']}: cardinality required")
        attrs.append(AttributeStats(table=table, name=a["name"],
                                    cardinality=int(card),
                                    is_key=bool(a.get("is_key", False))))
    joins = tuple(Join(j["fact_attr"], j["dim_attr"]) for j in doc.get("joins", []))
    return StarSchema(tables=tables, attributes=tuple(attrs), joins=joins,
                      page_size=int(doc["page_size"]),
                      rowid_bits=int(doc.get("rowid_bits", DEFAULT_ROWID_BITS)))


def load_catalog_file(path) -> StarSchema:
    with open(path, "r", encoding="utf-8") as fh:
        return load_catalog(fh.read())
