"""Star-schema catalog: tables, attributes, joins, page arithmetic.

Catalogs load from a JSON document with top-level keys ``page_size``,
``rowid_bits``, ``tables``, ``attributes`` and ``joins``, and no other; an
entry's keys are its record's fields, and its names are strings.  Explicit
page counts in the catalog win over the ceil(rows*width/page_size) estimate
so benchmark statistics can be reproduced exactly.

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


# a table: ``role`` is "fact" or "dimension"; ``pages`` None means the
# estimate from rows and width
TableStats = namedtuple("TableStats", "name role rows tuple_width pages",
                        defaults=(None,))


class AttributeStats(namedtuple("AttributeStats",
                                "table name cardinality is_key",
                                defaults=(False,))):
    __slots__ = ()

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}"


# a join link between two qualified "table.attr" names
Join = namedtuple("Join", "fact_attr dim_attr")

# the keys the document and each of its entries may have
_CATALOG_KEYS = frozenset(("page_size", "rowid_bits", "tables", "attributes",
                           "joins"))
_TABLE_KEYS = frozenset(TableStats._fields)
_ATTRIBUTE_KEYS = frozenset(AttributeStats._fields)
_JOIN_KEYS = frozenset(Join._fields)


def pages_of(t: TableStats, page_size: int) -> int:
    """Explicit page count when supplied, else ceil(rows * width / page_size)."""
    if t.pages is not None:
        return t.pages
    return -(-t.rows * t.tuple_width // page_size)


class StarSchema:
    """A validated catalog: ``tables`` by name, ``attributes`` in declaration
    order, ``page_size`` and ``rowid_bits``.

    Resolved once from those: the ``fact`` table; ``links``, per join (from
    table, to table, join with the declared qualified names, mask of its two
    endpoint ids); ``ids_by_name``, lowercase name -> column id for the
    names only one table has; ``ids_by_column``, (declared table, lowercase
    name) -> id.

    The per-column tables every later stage reads by column id: ``names``,
    the qualified names, and ``cards``, the cardinalities (index 0 unused);
    ``on_table``, table -> mask of its column ids; ``indexable``, the mask
    of the ids ``is_indexable`` holds for.
    """

    def __init__(self, doc: dict) -> None:
        """Check every catalog rule and build the lookups in one pass over
        the document, whose shape ``load_catalog`` has checked: page_size,
        rowid_bits, each table, each attribute, the fact table, each join,
        then the join paths.  The first fault raises ``CatalogError``."""
        self.page_size = page_size = _int(doc["page_size"], "page_size")
        if page_size <= 0:
            raise CatalogError("missing or invalid page_size")
        self.rowid_bits = _int(doc.get("rowid_bits", DEFAULT_ROWID_BITS),
                               "rowid_bits")
        if self.rowid_bits <= 0:
            raise CatalogError("rowid_bits must be positive")
        self.tables = tables = {}
        table_names: dict[str, str] = {}  # lowercase name -> declared name
        for n, t in enumerate(doc.get("tables", []), 1):
            try:
                name, role, rows, width = (t["name"], t["role"], t["rows"],
                                           t["tuple_width"])
            except KeyError as exc:
                raise CatalogError(f"table #{n}: missing key {exc}") from None
            if type(name) is not str:
                raise _not_text(t, ("name",), "table", n)
            if not t.keys() <= _TABLE_KEYS:
                raise _unknown(t, _TABLE_KEYS, f"table {name}")
            rows, width = _int(rows, "rows"), _int(width, "tuple_width")
            pages = _int(t["pages"], "pages") if "pages" in t else None
            if role not in ("fact", "dimension"):
                raise CatalogError(f"table {name}: unknown role {role!r}")
            if rows < 0:
                raise CatalogError(f"table {name}: negative row count")
            if width <= 0:
                raise CatalogError(f"table {name}: tuple width must be positive")
            # an empty table may have no pages; no table has fewer
            least = min(rows, 1)
            if pages is not None and pages < least:
                raise CatalogError(f"table {name}: pages must be >= {least}")
            if name.lower() in table_names:
                raise CatalogError(f"duplicate table {name}")
            table_names[name.lower()] = name
            tables[name] = TableStats(name, role, rows, width, pages)
        index: dict[str, int] = {}      # lowercase qualified name -> id
        by_name: dict[str, list[int]] = {}  # lowercase name -> ids
        by_column: dict[tuple[str, str], int] = {}
        on_table, indexable = dict.fromkeys(tables, 0), 0
        names, attributes = [""], []
        for i, a in enumerate(doc.get("attributes", []), 1):
            try:
                declared, name = a["table"], a["name"]
            except KeyError as exc:
                raise CatalogError(
                    f"attribute #{i}: missing key {exc}") from None
            if type(declared) is not str or type(name) is not str:
                raise _not_text(a, ("table", "name"), "attribute", i)
            if not a.keys() <= _ATTRIBUTE_KEYS:
                raise _unknown(a, _ATTRIBUTE_KEYS,
                               f"attribute {declared}.{name}")
            table = table_names.get(declared.lower())
            if table is None:
                raise CatalogError(f"attribute {declared}.{name}: "
                                   f"unknown table {declared}")
            rows = tables[table].rows
            is_key = a.get("is_key", False)
            if not isinstance(is_key, bool):
                raise CatalogError(f"attribute {table}.{name}: is_key must be "
                                   f"true or false, not {is_key!r}")
            card = a.get("cardinality")
            if card is None:
                if not is_key:
                    raise CatalogError(
                        f"attribute {table}.{name}: cardinality required")
                card = max(1, rows)  # keys default to row count
            attr = AttributeStats(table, name, _int(card, "cardinality"),
                                  is_key)
            qualified = attr.qualified
            if attr.cardinality < 1:
                raise CatalogError(f"attribute {qualified}: cardinality < 1")
            low, name = qualified.lower(), attr.name.lower()
            if low in index:
                raise CatalogError(f"duplicate attribute {qualified}")
            index[low] = i
            attributes.append(attr)
            names.append(qualified)
            by_name.setdefault(name, []).append(i)
            by_column[table, name] = i
            on_table[table] |= 1 << i
            if self.is_indexable(attr):
                indexable |= 1 << i
            if rows > 0 and attr.cardinality > rows:
                # the worked-example catalog legitimately exceeds this bound
                import logging
                logging.getLogger(__name__).warning(
                    "attribute %s: cardinality %d exceeds table rows %d",
                    qualified, attr.cardinality, rows)
        facts = [t.name for t in tables.values() if t.role == "fact"]
        if len(facts) != 1:
            raise CatalogError(f"exactly one fact table required, found {facts}")
        fact = facts[0]
        links = []
        for n, entry in enumerate(doc.get("joins", []), 1):
            try:
                j = Join(entry["fact_attr"], entry["dim_attr"])
            except KeyError as exc:
                raise CatalogError(f"join #{n}: missing key {exc}") from None
            if type(j.fact_attr) is not str or type(j.dim_attr) is not str:
                raise _not_text(entry, Join._fields, "join", n)
            if not entry.keys() <= _JOIN_KEYS:
                raise _unknown(entry, _JOIN_KEYS,
                               f"join {j.fact_attr} = {j.dim_attr}")
            fi, di = index.get(j.fact_attr.lower()), index.get(j.dim_attr.lower())
            if fi is None or di is None:
                raise CatalogError(
                    f"join {j.fact_attr} = {j.dim_attr}: unknown endpoint")
            fa, da = attributes[fi - 1], attributes[di - 1]
            if fa.table == da.table:
                raise CatalogError(
                    f"join {j.fact_attr} = {j.dim_attr} is self-referential")
            if tables[da.table].role != "dimension":
                raise CatalogError(
                    f"join dim side {j.dim_attr} is not on a dimension")
            if not da.is_key:
                raise CatalogError(f"join dim side {j.dim_attr} must be a key")
            links.append((fa.table, da.table, Join(fa.qualified, da.qualified),
                          1 << fi | 1 << di))
        # the shortest join chain from the fact table to each table (BFS)
        paths, queue = {fact: []}, [fact]
        for table in queue:
            for src, dst, j, _ in links:
                if src == table and dst not in paths:
                    paths[dst] = paths[table] + [j]
                    queue.append(dst)
        for t in tables:
            if t not in paths:
                raise CatalogError(f"no join path from fact table {fact} to {t}")
        self.attributes = tuple(attributes)
        self.fact, self.links = tables[fact], tuple(links)
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
    if not doc.keys() <= _CATALOG_KEYS:
        raise _unknown(doc, _CATALOG_KEYS, "catalog")
    if "page_size" not in doc:
        raise CatalogError("missing page_size")
    for key in ("tables", "attributes", "joins"):
        entries = doc.get(key, [])
        if not (isinstance(entries, list)
                and all(isinstance(e, dict) for e in entries)):
            raise CatalogError(f"catalog {key} must be a list of objects")
    try:
        return StarSchema(doc)
    except CatalogError:
        raise
    except (TypeError, AttributeError) as exc:
        raise CatalogError(f"malformed catalog entry: {exc}") from exc


def _not_text(entry: dict, keys: tuple[str, ...], kind: str,
              n: int) -> CatalogError:
    """The error for the first of ``entry``'s ``keys`` whose value is no
    JSON string.  ``entry`` is the ``n``-th (from 1) of its ``kind``: the
    message names it so, as its names are unread."""
    key = next(k for k in keys if type(entry[k]) is not str)
    return CatalogError(
        f"{kind} #{n}: {key} must be a string, not {entry[key]!r}")


def _unknown(entry: dict, known: frozenset[str], what: str) -> CatalogError:
    """The error for the first key of ``entry``, named ``what``, not in
    ``known``."""
    key = next(k for k in entry if k not in known)
    return CatalogError(f"{what}: unknown key {key!r}")


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
