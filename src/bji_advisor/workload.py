"""Workload parsing: star-join SQL analysis and the query-attribute matrix.

The extractor is a small tokenizer-driven scanner for the star-join dialect
used by the shipped workloads (AND/OR comparison predicates, BETWEEN, IN,
LIKE, join equalities, subqueries, derived tables, views, T-SQL date helpers).
It collects the attributes referenced by WHERE and ON clauses; SELECT, GROUP
BY, ORDER BY and HAVING are tolerated and ignored.  Vendor constructs outside
that dialect, and a predicate operator without the operand it needs, are
rejected rather than guessed.

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

# Each word or symbol the walk tells apart has classes, as flags:
_END = 1         # starts another statement, so ends a SELECT wherever it
                 # stands, unless it may start an operand and '(' follows
_MARK = 2        # ends, opens or switches a clause inside a SELECT
_RESERVED = 4    # never a column, a table alias or a view name
_HELPER = 8      # dateadd part or cast type; a column next to a comparison
_COMPARE = 16    # a comparison operator
_NON_OPERAND = 32  # starts no operand: it ends a clause, connects or compares
# and what an operator needs after it: _ONE an operand, _PAIR then an AND,
# itself _ONE (BETWEEN), _LIST IN's '(' and _NULL IS's [NOT] NULL
_ONE, _PAIR, _LIST, _NULL = 64, 128, 256, 512
_NEGATED = 1024  # may stand where NOT's operand would: NOT IN, LIKE, BETWEEN
_CLAUSE = _MARK | _RESERVED | _NON_OPERAND

# each lowered word or symbol: its flags and, for a predicate operator, the
# class of its predicates
_TABLE = {
    **dict.fromkeys("create drop update insert delete truncate alter merge "
                    "grant set call commit rollback".split(),
                    (_END | _CLAUSE, None)),
    "replace": (_END | _MARK | _RESERVED, None),
    ";": (_END | _MARK | _NON_OPERAND, None), ")": (_MARK | _NON_OPERAND, None),
    "(": (_MARK, None), "exists": (_MARK | _RESERVED, None),
    **dict.fromkeys("select where from group order having on left right "
                    "inner outer join".split(), (_CLAUSE, None)),
    "and": (_RESERVED | _NON_OPERAND | _ONE, None),
    "or": (_RESERVED | _NON_OPERAND | _ONE, None),
    "not": (_RESERVED | _ONE, None),
    **dict.fromkeys("by as case when then else end top distinct all view "
                    "asc desc null union".split(), (_RESERVED, None)),
    # '+', '-' and '/' need an operand and may follow an operator, as the
    # sign in '= - 5' does; '*' is unchecked: count(*) and select * have none
    **dict.fromkeys("+ - /".split(), (_ONE, None)),
    **dict.fromkeys("dd mm yy yyyy qq dy wk ww hh mi ss date datetime time "
                    "int integer bigint float real char varchar decimal "
                    "numeric".split(), (_HELPER, None)),
    **dict.fromkeys("< > <= >= <> !=".split(),
                    (_COMPARE | _NON_OPERAND | _ONE, "range")),
    "=": (_COMPARE | _NON_OPERAND | _ONE, "equality"),
    "like": (_RESERVED | _NON_OPERAND | _ONE | _NEGATED, "like"),
    "between": (_RESERVED | _NON_OPERAND | _ONE | _PAIR | _NEGATED, "range"),
    "in": (_RESERVED | _NON_OPERAND | _LIST | _NEGATED, "in-list"),
    "is": (_RESERVED | _NON_OPERAND | _NULL, "ref"),
}
_FLAGS = {w: f for w, (f, _) in _TABLE.items()}
# the predicate operators, with their predicates' class
_OPERATORS = {w: opclass for w, (_, opclass) in _TABLE.items() if opclass}
# the hot membership tests of the walk and of ``_operand``
_MARKERS = frozenset(w for w, f in _FLAGS.items() if f & _MARK)
_NON_OPERANDS = frozenset(w for w, f in _FLAGS.items() if f & _NON_OPERAND)
_NEEDS = frozenset(w for w, f in _FLAGS.items() if f & (_ONE | _LIST | _NULL))


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
        """Whether token i exists and is an identifier, no reserved word."""
        return i < len(self.lows) and self.lows[i][0] in _IDENT_START \
            and not _FLAGS.get(self.lows[i], 0) & _RESERVED

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
        """Scan the SELECT statement at token i, collecting the attributes
        of its WHERE/ON clauses; return the index of its end: the end of
        input, an unbalanced ')', ';' or the next statement's first word."""
        lows = self.lows
        n = len(lows)
        clause = "select"
        depth = 0  # non-subquery parentheses inside this statement
        i += 1
        while i < n:
            low = lows[i]
            if low in _MARKERS:
                if low == ")":
                    if not depth:
                        return i  # caller consumes
                    depth -= 1
                    i += 1
                elif _FLAGS[low] & _END and (_FLAGS[low] & _NON_OPERAND
                                             or lows[i + 1:i + 2] != ["("]) \
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
                        j += lows[j:j + 1] == [")"]
                        if clause == "from":  # the derived table's alias
                            j += lows[j:j + 1] == ["as"]
                            if self._name_at(j):
                                j = self._derived_names(j)
                        i = j
                    else:
                        depth += 1
                        i += 1
                else:
                    # exists, a join keyword, a select in the select list,
                    # a call of a function named like a statement
                    if low == "join" and clause == "on":
                        clause = "from"
                    i += 1
            elif clause == "from":
                # a table and its alias, or a ','
                i = self._from_item(i) if low[0] in _IDENT_START else i + 1
            elif clause != "where" and clause != "on":
                # select/group/order/having name no column: on to the next
                # marker (subqueries are handled by '('); an operator or AND
                # just before it must still have its operand
                i += 1
                while i < n and lows[i] not in _MARKERS:
                    i += 1
                if lows[i - 1] in _NEEDS:
                    self._operand(i - 1)
            elif low[0] not in _IDENT_START or low in _FLAGS and (
                    not _FLAGS[low] & _HELPER or not self._compared_column(i)):
                # a literal, a symbol or a word that is no column; an
                # operator or connective here follows no column
                if low in _NEEDS:
                    self._operand(i)
                i += 1
            elif i + 1 < n and lows[i + 1] == "(":
                i += 1  # a call: its arguments are scanned next
            else:
                cid, j = self._resolve(i)
                # a derived or alias name, or a column and its predicate
                i = j if cid is None else self._classify(j, cid)
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
        """The catalog table named at i, else the derived relation or view
        of that name, whose columns resolve to nothing."""
        low = self.lows[i]
        table = self.schema.find_table(low)
        return low if table is None and low in self.derived else table

    def _compared_column(self, i: int) -> bool:
        """Whether the helper-argument name at i is a column: one table has a
        column of that name, and a comparison operator is next to it; in a
        call, as ``dateadd(dd, ...)`` or ``cast(... as date)``, it is not."""
        lows = self.lows
        return lows[i] in self.schema.ids_by_name and any(
            _FLAGS.get(t, 0) & _COMPARE for t in lows[i - 1:i + 2:2])

    def _operand(self, i: int) -> None:
        """Raise unless what the operator at i needs, as its flags say,
        follows it: an operand, a token no ``_NON_OPERAND`` word is (after
        NOT, also IN, LIKE or BETWEEN); for BETWEEN, that, AND and that; for
        IN, '('; for IS, [NOT] NULL."""
        lows = self.lows
        need = _FLAGS[lows[i]]
        nxt = lows[i + 1] if i + 1 < len(lows) else ";"
        if need & _ONE:
            if nxt in _NON_OPERANDS and not (
                    lows[i] == "not" and _FLAGS[nxt] & _NEGATED):
                raise ParseError(f"no right-hand operand after {lows[i]!r}")
            if need & _PAIR:
                try:
                    j = lows.index("and", i + 2)
                except ValueError:
                    raise ParseError(f"no AND after {lows[i]!r}") from None
                self._operand(j)
        elif need & _LIST:
            if nxt != "(":
                raise ParseError(f"no '(' after {lows[i]!r}")
        elif nxt != "null" and lows[i + 1:i + 3] != ["not", "null"]:
            raise ParseError(f"no NULL after {lows[i]!r}")

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
        """Record the predicate on the column ``cid`` whose operator is at j
        or after a NOT at j, both checked by ``_operand``; with none, a ref.
        The only place an operator's class is decided.  Return where the
        scan resumes: after the operator or a join's right-hand side, else
        at j."""
        lows = self.lows
        n = len(lows)
        op = lows[j] if j < n else ""
        rhs = j + 1
        if op == "not" and rhs < n:
            op = lows[rhs]
            rhs += 1
        opclass, k = _OPERATORS.get(op), 0
        if opclass is None:
            self.predicates.append((cid, "ref", 0))
            return j
        self._operand(rhs - 1)
        if rhs - 1 != j:
            self._operand(j)    # the NOT before the operator
        if op == "=":
            # join when the right-hand side resolves to another attribute
            if rhs + 1 < n and lows[rhs] == "(" and lows[rhs + 1] == "select":
                opclass = "subquery"
            elif self._name_at(rhs) and (rhs + 1 >= n or lows[rhs + 1] != "("):
                try:
                    rid, after = self._resolve(rhs)
                except ParseError:
                    rid = None
                if rid is not None:
                    opclass = "join"
                    self.predicates.append((rid, "join", 0))
                    rhs = after  # the scan would resolve it again
        elif op == "in":
            if rhs + 1 < n and lows[rhs + 1] == "select":
                opclass = "subquery"
            else:
                d = 1  # count the literals inside the list's own '(' ')'
                for tok in lows[rhs + 1:]:
                    d += (tok == "(") - (tok == ")")
                    if not d:
                        break
                    k += d == 1 and (tok[0] == "'" or tok[0].isdecimal()
                                     or tok[0] == "." and len(tok) > 1)
        self.predicates.append((cid, opclass, k))
        return rhs


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


# a header starts a line and ends on it: the text is searched with a newline
# before it, so that each search skips ahead to a newline rather than trying
# each character
_HEADER_RE = re.compile(r"\n\s*[Qq](\d+)\s*[-:][^\S\n]*")


def split_workload(text: str) -> list[tuple[int, str]]:
    """Split a workload file into (id, sql) blocks.

    Two styles are accepted: ``Qn -`` or ``Qn :`` headers, with ``q`` or
    ``Q``, or queries separated by a line containing only ``;``.  With
    headers, text before the first one and a repeated query id are errors.
    A header is ``_HEADER_RE`` found in ``"\\n" + text``: a match starts
    where the header starts in ``text`` and ends one character past its end.
    """
    headers = list(_HEADER_RE.finditer("\n" + text))
    if headers:
        before = text[:headers[0].start()].strip()
        if before:
            raise ParseError(
                f"text before the first query header: {before[:40]!r}")
        out = []
        seen: set[int] = set()
        for m, nxt in zip(headers, headers[1:] + [None]):
            qid = int(m.group(1))
            if qid in seen:
                raise ParseError(f"query id Q{qid} appears more than once")
            seen.add(qid)
            out.append((qid, text[m.end() - 1:nxt.start() if nxt else None]
                        .strip()))
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
