"""Workload parsing: star-join SQL analysis and the query-attribute matrix.

The extractor is a small tokenizer-driven scanner for the star-join dialect
used by the shipped workloads (AND/OR comparison predicates, BETWEEN, IN,
LIKE, join equalities, subqueries, derived tables, views, T-SQL date helpers).
It collects the attributes referenced by WHERE and ON clauses; SELECT, GROUP
BY, ORDER BY and HAVING are tolerated and ignored.  Vendor constructs outside
that dialect are rejected rather than guessed.

Matrix columns are the catalog's attributes in declaration order (dense ids
starting at 1); the hypergraph keeps only the referenced vertices.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .hypergraph import Hypergraph, bits, mask
from .schema import CatalogError, StarSchema

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Unsupported syntax or unresolvable column, with query context."""


@dataclass(frozen=True)
class Predicate:
    attr: str          # qualified table.attr
    opclass: str       # equality | range | in-list | like | join | subquery | ref
    in_count: int = 0  # list length for in-list


@dataclass(frozen=True)
class ParsedQuery:
    id: int
    raw_text: str
    referenced: frozenset[str]          # qualified attribute names
    predicates: tuple[Predicate, ...]
    weight: float = 1.0


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<str>'(?:[^']|'')*')
      | (?P<num>\d+(?:\.\d+)?|\.\d+)
      | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><>|<=|>=|!=|[=<>(),.;*+\-/])
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "group", "by", "order",
    "having", "as", "on", "in", "like", "between", "exists", "case", "when",
    "then", "else", "end", "top", "distinct", "all", "left", "right", "outer",
    "inner", "join", "create", "view", "drop", "asc", "desc", "is", "null",
    "union",
}

_COMPARE_OPS = {"<", ">", "<=", ">=", "<>", "!="}

# bare arguments of T-SQL scalar helpers (dateadd/datepart parts, cast types)
_SCALAR_ARGS = {
    "dd", "mm", "yy", "yyyy", "qq", "dy", "wk", "ww", "hh", "mi", "ss",
    "date", "datetime", "time", "int", "integer", "bigint", "float", "real",
    "char", "varchar", "decimal", "numeric",
}


def tokenize(sql: str) -> list[str]:
    out: list[str] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if not m:
            if sql[pos].isspace():
                pos += 1
                continue
            raise ParseError(f"unexpected character {sql[pos]!r} at offset {pos}")
        out.append(m.group(0).strip())
        pos = m.end()
    return out


class _Extractor:
    """Single-statement-block scanner; shared symbol tables across subqueries."""

    def __init__(self, schema: StarSchema):
        self.schema = schema
        self.aliases: dict[str, str] = {}     # alias/table (lower) -> table name
        self.derived: set[str] = set()        # derived/view column + alias names
        self.referenced: set[str] = set()
        self.predicates: list[Predicate] = []
        self._pred_seen: set[str] = set()

    # ------------------------------------------------------------------
    def run(self, tokens: list[str]) -> None:
        i = 0
        n = len(tokens)
        while i < n:
            low = tokens[i].lower()
            if low == "create":
                i = self._create_view(tokens, i)
            elif low == "drop":
                # DROP VIEW <name>
                i += 3 if i + 2 < n else n
            elif low == "select":
                i = self._select(tokens, i)
            elif low == ";":
                i += 1
            else:
                raise ParseError(f"unsupported statement starting at {tokens[i]!r}")

    def _create_view(self, tokens: list[str], i: int) -> int:
        if tokens[i + 1].lower() != "view":
            raise ParseError("only CREATE VIEW is supported")
        name = tokens[i + 2]
        self.derived.add(name.lower())
        i += 3
        if tokens[i] == "(":
            i += 1
            while tokens[i] != ")":
                if tokens[i] != ",":
                    self.derived.add(tokens[i].lower())
                i += 1
            i += 1
        if tokens[i].lower() != "as":
            raise ParseError("CREATE VIEW requires AS")
        i += 1
        if tokens[i].lower() != "select":
            raise ParseError("CREATE VIEW requires a SELECT body")
        return self._select(tokens, i)

    # ------------------------------------------------------------------
    def _select(self, tokens: list[str], i: int) -> int:
        """Scan one SELECT statement starting at tokens[i] == 'select'.

        Returns the index just after the statement (end of input, unbalanced
        ')' or ';').  Collects attributes from WHERE/ON clauses only.
        """
        n = len(tokens)
        clause = "select"
        depth = 0  # non-subquery parentheses inside this statement
        i += 1
        while i < n:
            tok = tokens[i]
            low = tok.lower()
            if tok == ")":
                if depth > 0:
                    depth -= 1
                    i += 1
                    continue
                return i  # caller consumes
            if tok == ";":
                return i
            if low == "select" and clause != "select":
                # a new top-level statement in the same block (annex Q15 style)
                return i
            if low in ("where",):
                clause = "where"
                i += 1
                continue
            if low == "from":
                clause = "from"
                i += 1
                continue
            if low in ("group", "order"):
                clause = low
                i += 2 if i + 1 < n and tokens[i + 1].lower() == "by" else 1
                continue
            if low == "having":
                clause = "having"
                i += 1
                continue
            if low == "on":
                clause = "on"
                i += 1
                continue
            if low in ("left", "right", "inner", "outer", "join") and clause in (
                    "from", "on"):
                if low == "join":
                    clause = "from"
                i += 1
                continue
            if tok == "(":
                nxt = tokens[i + 1].lower() if i + 1 < n else ""
                if nxt == "select":
                    j = self._select(tokens, i + 1)
                    if j < n and tokens[j] == ")":
                        j += 1
                    if clause == "from":
                        j = self._derived_alias(tokens, j)
                    i = j
                    continue
                depth += 1
                i += 1
                continue
            if low == "exists":
                i += 1
                continue
            if clause == "from":
                i = self._from_item(tokens, i)
                continue
            if clause in ("where", "on"):
                i = self._where_token(tokens, i)
                continue
            # select/group/order/having: skip, but still descend into the
            # token stream naturally (subqueries handled by the '(' branch)
            i += 1
        return i

    # ------------------------------------------------------------------
    def _from_item(self, tokens: list[str], i: int) -> int:
        tok = tokens[i]
        if tok in (",",):
            return i + 1
        if not _is_ident(tok):
            return i + 1
        table = self._lookup_table(tok)
        if table is None:
            raise ParseError(f"unknown table {tok!r} in FROM")
        self.aliases[tok.lower()] = table
        j = i + 1
        if j < len(tokens) and tokens[j].lower() == "as":
            j += 1
        if j < len(tokens) and _is_ident(tokens[j]) and \
                tokens[j].lower() not in _KEYWORDS:
            self.aliases[tokens[j].lower()] = table
            j += 1
        return j

    def _derived_alias(self, tokens: list[str], i: int) -> int:
        n = len(tokens)
        if i < n and tokens[i].lower() == "as":
            i += 1
        if i < n and _is_ident(tokens[i]) and tokens[i].lower() not in _KEYWORDS:
            self.derived.add(tokens[i].lower())
            i += 1
            if i < n and tokens[i] == "(":
                i += 1
                while i < n and tokens[i] != ")":
                    if tokens[i] != ",":
                        self.derived.add(tokens[i].lower())
                    i += 1
                i += 1
        return i

    def _lookup_table(self, name: str) -> Optional[str]:
        for t in self.schema.tables:
            if t.lower() == name.lower():
                return t
        if name.lower() in self.derived:
            return name  # derived relation/view: columns resolve to nothing
        return None

    # ------------------------------------------------------------------
    def _where_token(self, tokens: list[str], i: int) -> int:
        tok = tokens[i]
        low = tok.lower()
        n = len(tokens)
        if low in _KEYWORDS or low in _SCALAR_ARGS \
                or tok in (",", "*", "+", "-", "/", ".") \
                or tok in _COMPARE_OPS or tok == "=" \
                or tok.startswith("'") or _is_number(tok):
            return i + 1
        if not _is_ident(tok):
            return i + 1
        # function call: skip the name, descend into its parens via main loop
        if i + 1 < n and tokens[i + 1] == "(":
            return i + 1
        attr = self._resolve(tokens, i)
        if attr is None:
            # qualified name consumes 3 tokens, bare name 1
            return i + (3 if i + 2 < n and tokens[i + 1] == "." else 1)
        qualified, consumed = attr
        self.referenced.add(qualified)
        j = i + consumed
        self._classify(tokens, j, qualified)
        return j

    def _resolve(self, tokens: list[str], i: int) -> Optional[tuple[str, int]]:
        """Resolve an identifier at i; None if it is a derived/alias name."""
        tok = tokens[i]
        n = len(tokens)
        if i + 2 < n and tokens[i + 1] == ".":
            qual, col = tok, tokens[i + 2]
            table = self.aliases.get(qual.lower())
            if table is None:
                table = self._lookup_table(qual)
            if table is None or table.lower() in self.derived:
                return None
            try:
                a = self.schema.find_attribute(col, table)
            except CatalogError as exc:
                raise ParseError(str(exc)) from exc
            return a.qualified, 3
        low = tok.lower()
        if low in self.derived or low in self.aliases:
            return None
        try:
            a = self.schema.find_attribute(tok)
        except CatalogError as exc:
            raise ParseError(f"unresolvable column {tok!r}") from exc
        return a.qualified, 1

    def _classify(self, tokens: list[str], j: int, qualified: str) -> None:
        """Record the operator class of the predicate starting after the attr."""
        n = len(tokens)
        nxt = tokens[j].lower() if j < n else ""
        opclass, k = "ref", 0
        if nxt == "not" and j + 1 < n:
            nxt = tokens[j + 1].lower()
            j += 1
        if nxt == "=":
            # join when the right-hand side resolves to another attribute
            rhs = j + 1
            if rhs < n and tokens[rhs] == "(" and rhs + 1 < n \
                    and tokens[rhs + 1].lower() == "select":
                opclass = "subquery"
            elif rhs < n and _is_ident(tokens[rhs]) and \
                    tokens[rhs].lower() not in _KEYWORDS and \
                    (rhs + 1 >= n or tokens[rhs + 1] != "("):
                try:
                    resolved = self._resolve(tokens, rhs)
                except ParseError:
                    resolved = None
                if resolved:
                    opclass = "join"
                    rq = resolved[0]
                    if rq not in self._pred_seen:
                        self._pred_seen.add(rq)
                        self.predicates.append(Predicate(rq, "join", 0))
                else:
                    opclass = "equality"
            else:
                opclass = "equality"
        elif nxt in _COMPARE_OPS:
            opclass = "range"
        elif nxt == "between":
            opclass = "range"
        elif nxt == "like":
            opclass = "like"
        elif nxt == "in":
            rhs = j + 1
            if rhs < n and tokens[rhs] == "(":
                if rhs + 1 < n and tokens[rhs + 1].lower() == "select":
                    opclass = "subquery"
                else:
                    opclass, k = "in-list", 0
                    d, p = 1, rhs + 1
                    while p < n and d > 0:
                        if tokens[p] == "(":
                            d += 1
                        elif tokens[p] == ")":
                            d -= 1
                        elif d == 1 and (tokens[p].startswith("'")
                                         or _is_number(tokens[p])):
                            k += 1
                        p += 1
        if qualified in self._pred_seen:
            return
        self._pred_seen.add(qualified)
        self.predicates.append(Predicate(qualified, opclass, k))


def _is_ident(tok: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok))


def _is_number(tok: str) -> bool:
    return bool(re.fullmatch(r"\d+(\.\d+)?|\.\d+", tok))


def parse_query(sql: str, schema: StarSchema, qid: int = 0,
                weight: float = 1.0) -> ParsedQuery:
    """Collect WHERE/ON attribute references of one query block."""
    ex = _Extractor(schema)
    try:
        ex.run(tokenize(sql))
    except ParseError as exc:
        raise ParseError(f"query {qid}: {exc}") from exc
    except IndexError as exc:
        raise ParseError(f"query {qid}: truncated statement") from exc
    return ParsedQuery(id=qid, raw_text=sql, referenced=frozenset(ex.referenced),
                       predicates=tuple(ex.predicates), weight=weight)


_HEADER_RE = re.compile(r"^\s*Q(\d+)\s*[-:]\s*", re.MULTILINE)


def split_workload(text: str) -> list[tuple[int, str]]:
    """Split a workload file into (id, sql) blocks.

    Two styles are accepted: ``Qn -`` or ``Qn :`` headers, or queries
    separated by a line containing only ``;``.
    """
    headers = list(_HEADER_RE.finditer(text))
    if headers:
        out = []
        for k, m in enumerate(headers):
            end = headers[k + 1].start() if k + 1 < len(headers) else len(text)
            out.append((int(m.group(1)), text[m.end():end].strip()))
        return out
    blocks = re.split(r"^\s*;\s*$", text, flags=re.MULTILINE)
    return [(k + 1, b.strip()) for k, b in enumerate(blocks) if b.strip()]


def parse_workload(text: str, schema: StarSchema) -> list[ParsedQuery]:
    return [parse_query(sql, schema, qid) for qid, sql in split_workload(text)]


def indexable_attributes(schema: StarSchema, attrs: Iterable[str]) -> set[str]:
    """Keep only non-key attributes of dimension tables."""
    return {q for q in attrs if schema.is_indexable(schema.attribute(q))}


@dataclass(frozen=True)
class ContextMatrix:
    """Binary query x attribute usage matrix.

    Columns are ALL catalog attributes in declaration order (ids 1..N) so that
    column ids are stable across workloads over the same catalog; rows are the
    queries that reference at least one attribute.
    """

    schema: StarSchema
    queries: tuple[ParsedQuery, ...]
    columns: tuple[str, ...]              # qualified names, index = id - 1
    rows: tuple[int, ...]                 # per query, mask of referenced ids

    def id_of(self, qualified: str) -> int:
        return self.columns.index(qualified) + 1

    def name_of(self, col_id: int) -> str:
        return self.columns[col_id - 1]

    def indexable_ids(self) -> list[int]:
        return [i + 1 for i, q in enumerate(self.columns)
                if self.schema.is_indexable(self.schema.attribute(q))]

    def hypergraph(self) -> Hypergraph:
        return Hypergraph.from_edges(self.rows)

    def support(self, attrs: int) -> float:
        """Weighted share of the queries whose row holds every id in the
        mask ``attrs``."""
        unknown = attrs & ~((1 << len(self.columns) + 1) - 2)
        if unknown:
            raise ValueError(f"unknown columns {list(bits(unknown))}")
        total = sum(q.weight for q in self.queries)
        hit = sum(q.weight for q, row in zip(self.queries, self.rows)
                  if attrs & row == attrs)
        return hit / total if total else 0.0

    @cached_property
    def marginal_support(self) -> tuple[float, ...]:
        """Per column id, ``support(1 << id)`` (index 0 unused): the same
        weights summed in the same order, so the floats are identical."""
        weights: list[list[float]] = [[] for _ in range(len(self.columns) + 1)]
        for q, row in zip(self.queries, self.rows):
            for i in bits(row):
                weights[i].append(q.weight)
        total = sum(q.weight for q in self.queries)
        return tuple(sum(w) / total if total else 0.0 for w in weights)


def build_context_matrix(schema: StarSchema,
                         queries: Sequence[ParsedQuery]) -> ContextMatrix:
    columns = tuple(a.qualified for a in schema.attributes)
    ids = {q: i + 1 for i, q in enumerate(columns)}
    kept: list[ParsedQuery] = []
    rows: list[int] = []
    for q in queries:
        if not q.referenced:
            log.warning("query %d references no attributes; dropped", q.id)
            continue
        kept.append(q)
        rows.append(mask(ids[a] for a in q.referenced))
    if not rows:
        raise ParseError("workload is empty after dropping attribute-free queries")
    return ContextMatrix(schema=schema, queries=tuple(kept), columns=columns,
                         rows=tuple(rows))
