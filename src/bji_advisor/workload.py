"""Workload parsing: star-join SQL analysis and the query-attribute matrix.

The extractor is a small tokenizer-driven scanner for the star-join dialect
used by the shipped workloads (AND/OR comparison predicates, BETWEEN, IN,
LIKE, join equalities, subqueries, derived tables, views, T-SQL date helpers).
It collects the attributes referenced by WHERE and ON clauses; SELECT, GROUP
BY, ORDER BY and HAVING are tolerated and ignored.  Vendor constructs outside
that dialect, and a comparison with no right-hand operand, are rejected rather
than guessed.

Each referenced column resolves once, through the catalog's lookup tables,
to its column id: its 1-based position in the catalog's declaration order,
so column ``i`` is ``StarSchema.attributes[i - 1]``.  A parsed query holds
the int mask of its ids (bit ``i``) and one ``(id, opclass, in_count)``
tuple per predicate.  Matrix columns are all the catalog's attributes in id
order, and a query's mask is its matrix row; the hypergraph keeps only the
referenced vertices.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Collection, Sequence
from functools import cached_property

from .hypergraph import Hypergraph, bits, mask
from .schema import StarSchema


class ParseError(ValueError):
    """Unsupported syntax or unresolvable column, with query context."""


# one query: ``referenced`` is the mask of its column ids, and ``predicates``
# holds (column id, opclass, in-list length) for every predicate, in order;
# opclass is one of equality, range, in-list, like, join, subquery, ref
ParsedQuery = namedtuple("ParsedQuery", "id referenced predicates")


_TOKEN = r"""
      [A-Za-z_][A-Za-z_0-9]*
    | \d+(?:\.\d+)?|\.\d+
    | '(?:[^']|'')*'
    | <>|<=|>=|!=|[=<>(),.;*+\-/]
"""
_TOKEN_RE = re.compile(_TOKEN, re.VERBOSE)
# each token after the whitespace before it; from the first character that
# starts none, the rest of the text as one last token, so one findall both
# splits and finds the error.  The text's trailing whitespace is stripped
# first: the scan would try it again from each of its characters.
_SCAN_RE = re.compile(r"\s*(" + _TOKEN + r"| \S[\s\S]*)", re.VERBOSE)

_IDENT_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# the reserved words of SQL that start a statement other than SELECT; each
# ends a SELECT wherever it stands, as ';' does
_STATEMENT_STARTS = {
    "create", "drop", "update", "insert", "delete", "truncate", "alter",
    "merge", "grant", "set", "call", "commit", "rollback",
}

_KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "group", "by", "order",
    "having", "as", "on", "in", "like", "between", "exists", "case", "when",
    "then", "else", "end", "top", "distinct", "all", "left", "right", "outer",
    "inner", "join", "view", "asc", "desc", "is", "null", "union",
} | _STATEMENT_STARTS

_COMPARISONS = {"<", ">", "<=", ">=", "<>", "!=", "="}

# the class of each operator whose right-hand side the class ignores
_OPCLASS = {"<": "range", ">": "range", "<=": "range", ">=": "range",
            "<>": "range", "!=": "range", "between": "range", "like": "like"}

# bare arguments of T-SQL scalar helpers (dateadd/datepart parts, cast types);
# one that names a column is that column next to a comparison operator
_SCALAR_ARGS = {
    "dd", "mm", "yy", "yyyy", "qq", "dy", "wk", "ww", "hh", "mi", "ss",
    "date", "datetime", "time", "int", "integer", "bigint", "float", "real",
    "char", "varchar", "decimal", "numeric",
}

# identifiers a WHERE/ON clause never resolves as columns
_NOT_COLUMNS = _KEYWORDS | _SCALAR_ARGS

# tokens that end, open or switch a clause inside a SELECT statement
_SELECT_MARKERS = {
    ")", ";", "(", "select", "where", "from", "group", "order", "having", "on",
    "left", "right", "inner", "outer", "join", "exists",
} | _STATEMENT_STARTS

# tokens no right-hand operand starts: the end of a statement or clause, a
# connective or another operator
_NO_OPERAND = (_SELECT_MARKERS - {"(", "exists"}) | _COMPARISONS \
    | {"and", "or"}


def tokenize(sql: str) -> list[str]:
    """The tokens of ``sql`` as written."""
    sql = sql.rstrip()
    tokens = _SCAN_RE.findall(sql)
    if tokens and not _TOKEN_RE.fullmatch(tokens[-1]):
        pos = len(sql) - len(tokens[-1])
        raise ParseError(f"unexpected character {sql[pos]!r} at offset {pos}")
    return tokens


def _lowered_tokens(sql: str) -> list[str]:
    """``tokenize(sql)`` with each token lowercased.  ASCII text is scanned
    once, lowered: lowering it changes only letters, and no token's
    boundaries, kind or offset depend on a letter's case; nor does an error
    quote a letter, since a letter starts a name."""
    if sql.isascii():
        return tokenize(sql.lower())
    return [t.lower() for t in tokenize(sql)]


def _is_number(tok: str) -> bool:
    """Whether a token of ``tokenize``'s output is a number: its first
    character decides its kind."""
    return tok[0].isdecimal() or (tok[0] == "." and len(tok) > 1)


class _Extractor:
    """Single-statement-block scanner; shared symbol tables across subqueries.

    ``lows`` holds the tokens lowercased, and ``toks`` the same tokens as
    written; the text is scanned again for ``toks`` only when a message
    quotes one.
    """

    def __init__(self, schema: StarSchema, sql: str):
        self.schema = schema
        self.sql = sql
        self.lows = _lowered_tokens(sql)
        self.aliases: dict[str, str] = {}     # alias/table (lower) -> table name
        self.derived: set[str] = set()        # derived/view column + alias names
        self.predicates: list[tuple[int, str, int]] = []

    @cached_property
    def toks(self) -> list[str]:
        return tokenize(self.sql)

    def _name_at(self, i: int) -> bool:
        """Whether token i exists and is an identifier but not a keyword."""
        return i < len(self.lows) and self.lows[i][0] in _IDENT_START \
            and self.lows[i] not in _KEYWORDS

    # ------------------------------------------------------------------
    def run(self) -> None:
        lows = self.lows
        i = 0
        n = len(lows)
        while i < n:
            low = lows[i]
            if low == "create":
                i = self._create_view(i)
            elif low == "drop":
                if lows[i + 1] != "view":
                    raise ParseError("only DROP VIEW is supported")
                if not self._name_at(i + 2):
                    raise ParseError("truncated statement")
                i += 3
            elif low == "select":
                i = self._select(i)
            elif low == ";":
                i += 1
            else:
                raise ParseError(
                    f"unsupported statement starting at {self.toks[i]!r}")

    def _create_view(self, i: int) -> int:
        lows = self.lows
        if lows[i + 1] != "view":
            raise ParseError("only CREATE VIEW is supported")
        i = self._derived_names(i + 2)
        if lows[i] != "as":
            raise ParseError("CREATE VIEW requires AS")
        i += 1
        if lows[i] != "select":
            raise ParseError("CREATE VIEW requires a SELECT body")
        return self._select(i)

    # ------------------------------------------------------------------
    def _select(self, i: int) -> int:
        """Scan one SELECT statement starting at token i == 'select'.

        Returns the index just after the statement (end of input, unbalanced
        ')', ';' or the word that starts the next statement).  Collects
        attributes from WHERE/ON clauses only, in one loop.
        """
        lows = self.lows
        n = len(lows)
        clause = "select"
        depth = 0  # non-subquery parentheses inside this statement
        i += 1
        while i < n:
            low = lows[i]
            if low in _SELECT_MARKERS:
                if low == ")":
                    if not depth:
                        return i  # caller consumes
                    depth -= 1
                    i += 1
                elif low == ";" or low in _STATEMENT_STARTS \
                        or low == "select" and clause != "select":
                    # the end, or a new top-level statement in the same
                    # block (annex Q15 style, as its DROP VIEW)
                    return i
                elif low in ("where", "from", "having", "on"):
                    clause = low
                    i += 1
                elif low in ("group", "order"):
                    clause = low
                    i += 2 if i + 1 < n and lows[i + 1] == "by" else 1
                elif low == "(":
                    if i + 1 < n and lows[i + 1] == "select":
                        j = self._select(i + 1)
                        if j < n and lows[j] == ")":
                            j += 1
                        if clause == "from":
                            j = self._derived_alias(j)
                        i = j
                    else:
                        depth += 1
                        i += 1
                else:
                    # exists, a join keyword, a select in the select list
                    if low == "join" and clause == "on":
                        clause = "from"
                    i += 1
            elif clause == "from":
                # a table and its alias, or a ','
                i = self._from_item(i) if low[0] in _IDENT_START else i + 1
            elif clause != "where" and clause != "on":
                # select/group/order/having name no column: on to the next
                # marker (subqueries are handled by '(')
                i += 1
                while i < n and lows[i] not in _SELECT_MARKERS:
                    i += 1
            elif low[0] not in _IDENT_START:
                if low in _COMPARISONS:
                    self._operand(i)
                i += 1
            elif low in _NOT_COLUMNS and (
                    low not in _SCALAR_ARGS or not self._compared_column(i)):
                i += 1
            elif i + 1 < n and lows[i + 1] == "(":
                i += 1  # a call: its arguments are scanned next
            else:
                cid, j = self._resolve(i)
                if cid is None:  # a derived or alias name
                    i = j
                elif j < n and lows[j] in _OPCLASS:
                    if lows[j] in _COMPARISONS:
                        self._operand(j)
                    self.predicates.append((cid, _OPCLASS[lows[j]], 0))
                    i = j + 1
                else:
                    i = self._classify(j, cid)
        return i

    # ------------------------------------------------------------------
    def _from_item(self, i: int) -> int:
        """Scan the table named at i and its alias, if any."""
        lows = self.lows
        table = self._lookup_table(i)
        if table is None:
            raise ParseError(f"unknown table {self.toks[i]!r} in FROM")
        self.aliases[lows[i]] = table
        j = i + 1
        if j < len(lows) and lows[j] == "as":
            j += 1
        if self._name_at(j):
            self.aliases[lows[j]] = table
            j += 1
        return j

    def _derived_alias(self, i: int) -> int:
        if i < len(self.lows) and self.lows[i] == "as":
            i += 1
        return self._derived_names(i) if self._name_at(i) else i

    def _derived_names(self, i: int) -> int:
        """Add the view or derived-table name at i, and the column names
        listed in parentheses after it, to the derived names; return the
        index after them."""
        lows = self.lows
        n = len(lows)
        self.derived.add(lows[i])
        i += 1
        if i < n and lows[i] == "(":
            i += 1
            while i < n and lows[i] != ")":
                if lows[i] != ",":
                    self.derived.add(lows[i])
                i += 1
            i += 1
        return i

    def _lookup_table(self, i: int) -> str | None:
        low = self.lows[i]
        table = self.schema.find_table(low)
        if table is None and low in self.derived:
            # derived relation/view: columns resolve to nothing
            return low
        return table

    def _compared_column(self, i: int) -> bool:
        """Whether the helper-argument name at i is a column: only one table
        has a column of that name, and a comparison operator is next to it.
        Inside a call, as in ``dateadd(dd, ...)`` or ``cast(... as date)``,
        it is an argument."""
        lows = self.lows
        return lows[i] in self.schema.ids_by_name \
            and (lows[i - 1] in _COMPARISONS
                 or i + 1 < len(lows) and lows[i + 1] in _COMPARISONS)

    def _operand(self, i: int) -> None:
        """Raise unless a right-hand operand follows the comparison
        operator at i."""
        lows = self.lows
        if i + 1 == len(lows) or lows[i + 1] in _NO_OPERAND:
            raise ParseError(f"no right-hand operand after {lows[i]!r}")

    # ------------------------------------------------------------------
    def _resolve(self, i: int) -> tuple[int | None, int]:
        """The column id of the name at i, qualified by it when a '.' and
        a name follow, and the index just after the name.  The id is None
        for a derived or alias name; a name the catalog lacks, or a
        qualifier that is no alias, table or derived name, is an error.
        This is the only place a WHERE/ON name becomes a column id."""
        lows, derived = self.lows, self.derived
        low = lows[i]
        if i + 2 < len(lows) and lows[i + 1] == ".":
            table = self.aliases.get(low)
            if table is None:
                table = self._lookup_table(i)
                if table is None:
                    raise ParseError(f"unknown table {self.toks[i]!r}")
            if derived and table.lower() in derived:
                return None, i + 3
            cid = self.schema.ids_by_column.get((table, lows[i + 2]))
            if cid is None:
                raise ParseError(
                    f"unknown attribute {table}.{self.toks[i + 2]}")
            return cid, i + 3
        if low in derived or low in self.aliases:
            return None, i + 1
        cid = self.schema.ids_by_name.get(low)
        if cid is None:
            raise ParseError(f"unresolvable column {self.toks[i]!r}")
        return cid, i + 1

    def _classify(self, j: int, cid: int) -> int:
        """Record the operator class of the predicate starting at j, after
        the column ``cid``; return where the scan resumes: after a range,
        BETWEEN or LIKE operator, after a join's right-hand side, which is
        resolved here once, else at j."""
        lows = self.lows
        n = len(lows)
        resume = j
        nxt = lows[j] if j < n else ""
        opclass, k = "ref", 0
        if nxt == "not" and j + 1 < n:
            nxt = lows[j + 1]
            j += 1
        if nxt in _OPCLASS:
            if nxt in _COMPARISONS:
                self._operand(j)
            opclass = _OPCLASS[nxt]
            resume = j + 1
        elif nxt == "=":
            # join when the right-hand side resolves to another attribute
            rhs = j + 1
            if rhs + 1 < n and lows[rhs] == "(" and lows[rhs + 1] == "select":
                opclass = "subquery"
            elif self._name_at(rhs) and (rhs + 1 >= n or lows[rhs + 1] != "("):
                try:
                    rid, after = self._resolve(rhs)
                except ParseError:
                    rid = None
                if rid is None:
                    opclass = "equality"
                else:
                    opclass = "join"
                    self.predicates.append((rid, "join", 0))
                    resume = after  # the scan would resolve it again
            else:
                opclass = "equality"
        elif nxt == "in":
            rhs = j + 1
            if rhs < n and lows[rhs] == "(":
                if rhs + 1 < n and lows[rhs + 1] == "select":
                    opclass = "subquery"
                else:
                    opclass = "in-list"
                    d, p = 1, rhs + 1
                    while p < n and d > 0:
                        tok = lows[p]
                        if tok == "(":
                            d += 1
                        elif tok == ")":
                            d -= 1
                        elif d == 1 and (tok[0] == "'" or _is_number(tok)):
                            k += 1
                        p += 1
        self.predicates.append((cid, opclass, k))
        return resume


def parse_query(sql: str, schema: StarSchema, qid: int = 0) -> ParsedQuery:
    """Collect WHERE/ON attribute references of one query block."""
    try:
        ex = _Extractor(schema, sql)
        ex.run()
    except ParseError as exc:
        raise ParseError(f"query {qid}: {exc}") from exc
    except IndexError as exc:
        raise ParseError(f"query {qid}: truncated statement") from exc
    except RecursionError as exc:
        raise ParseError(f"query {qid}: subqueries nested too deeply") from exc
    return ParsedQuery(qid, mask([p[0] for p in ex.predicates]),
                       tuple(ex.predicates))


# a header starts a line: the text is searched with a newline before it, so
# that each search skips ahead to a newline rather than trying each character
_HEADER_RE = re.compile(r"\n\s*[Qq](\d+)\s*[-:]\s*")


def split_workload(text: str) -> list[tuple[int, str]]:
    """Split a workload file into (id, sql) blocks.

    Two styles are accepted: ``Qn -`` or ``Qn :`` headers, with ``q`` or
    ``Q``, or queries separated by a line containing only ``;``.  With
    headers, text before the first one and a repeated query id are errors.
    A header is ``_HEADER_RE`` found in ``"\\n" + text``: a match starts
    where the header starts in ``text`` and ends one character past its end.
    Each search restarts at the last character of the header before it, as
    a header whose trailing whitespace ends in a newline leaves that newline
    to start the next one.
    """
    lined = "\n" + text
    m = _HEADER_RE.search(lined)
    if m:
        before = text[:m.start()].strip()
        if before:
            raise ParseError(
                f"text before the first query header: {before[:40]!r}")
        out = []
        seen: set[int] = set()
        while m:
            qid = int(m.group(1))
            if qid in seen:
                raise ParseError(f"query id Q{qid} appears more than once")
            seen.add(qid)
            nxt = _HEADER_RE.search(lined, m.end() - 1)
            out.append((qid, text[m.end() - 1:nxt.start() if nxt else None]
                        .strip()))
            m = nxt
        return out
    blocks = re.split(r"^\s*;\s*$", text, flags=re.MULTILINE)
    return [(k + 1, b.strip()) for k, b in enumerate(blocks) if b.strip()]


def parse_workload(text: str, schema: StarSchema) -> list[ParsedQuery]:
    return [parse_query(sql, schema, qid) for qid, sql in split_workload(text)]


class ContextMatrix(namedtuple("ContextMatrix", "queries columns rows")):
    """Binary query x attribute usage matrix.

    ``columns`` are the qualified names of ALL catalog attributes in
    declaration order (index = id - 1), so that column ids are stable across
    workloads over the same catalog; ``queries`` are the queries that
    reference at least one attribute, and ``rows`` their ``referenced``.
    The cached properties live in the instance ``__dict__``, so no other
    attribute may be set.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: ContextMatrix is immutable")

    def hypergraph(self) -> Hypergraph:
        return Hypergraph.from_edges(self.rows)

    def support(self, ids: Collection[int]) -> float:
        """Share of the queries whose row holds every column id in ``ids``."""
        column_rows = self.column_rows
        hit = (1 << len(self.rows)) - 1
        try:
            for i in ids:
                hit &= column_rows[i]
        except KeyError:
            unknown = sorted({i for i in ids if i not in column_rows})
            raise ValueError(f"unknown columns {unknown}") from None
        return hit.bit_count() / len(self.rows)

    @cached_property
    def column_rows(self) -> dict[int, int]:
        """Per column id, from 1 to ``len(columns)``, the mask of the rows
        that hold it (bit ``k`` is ``rows[k]``), ORed in per distinct row."""
        at: dict[int, int] = {}
        for k, row in enumerate(self.rows):
            at[row] = at.get(row, 0) | 1 << k
        masks = dict.fromkeys(range(1, len(self.columns) + 1), 0)
        for row, where in at.items():
            for i in bits(row):
                masks[i] |= where
        return masks

    @cached_property
    def marginal_support(self) -> tuple[float, ...]:
        """Per column id, ``support((id,))`` (index 0 unused)."""
        n = len(self.rows)
        return (0.0, *[m.bit_count() / n for m in self.column_rows.values()])


def build_context_matrix(schema: StarSchema,
                         queries: Sequence[ParsedQuery]) -> ContextMatrix:
    kept: list[ParsedQuery] = []
    for q in queries:
        if not q.referenced:
            import logging
            logging.getLogger(__name__).warning(
                "query %d references no attributes; dropped", q.id)
            continue
        kept.append(q)
    if not kept:
        raise ParseError("workload is empty after dropping attribute-free queries")
    return ContextMatrix(queries=tuple(kept),
                         columns=schema.names[1:],
                         rows=tuple(q.referenced for q in kept))
