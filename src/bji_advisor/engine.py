"""Reference execution engine for bitmap join indexes on tiny tables.

This is a correctness oracle and demo, not a storage engine: tables are
in-memory lists of tuples, a bitmap is an int whose bit ``i`` is fact row ``i``.
A bitmap join index on a dimension attribute keeps, per attribute value, the
bitmap of fact rows whose foreign key joins a dimension row carrying that
value.  Evaluation ORs bitmaps within one attribute (any of these values) and
ANDs across attributes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence


class EngineError(ValueError):
    """Bad table data or an evaluation over a missing index."""


class MiniTable(namedtuple("MiniTable", "name columns rows")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(set(c.lower() for c in self.columns)) != len(self.columns):
            raise EngineError(f"table {self.name}: duplicate column names")
        for r in self.rows:
            if len(r) != len(self.columns):
                raise EngineError(f"table {self.name}: row arity mismatch: {r!r}")
        return self

    def col(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.lower() == name.lower():
                return i
        raise EngineError(f"table {self.name}: no column {name!r}")

    def values(self, name: str) -> list:
        i = self.col(name)
        return [r[i] for r in self.rows]


Bitmap = int


class BitmapJoinIndex(namedtuple("BitmapJoinIndex", "bitmaps n_rows")):
    """``bitmaps`` maps each attribute value to its fact-row bitmap."""

    __slots__ = ()

    def bitmap_for(self, values: Iterable[object]) -> Bitmap:
        """OR of the bitmaps of the given values (absent value = all zeros)."""
        acc = 0
        for v in values:
            acc |= self.bitmaps.get(v, 0)
        return acc


def build_bji(fact: MiniTable, dim: MiniTable, fact_fk: str, dim_key: str,
              dim_attr: str) -> BitmapJoinIndex:
    """Precompute the fact-dimension join as per-value bitmaps.

    Duplicate dimension keys are an error; a fact foreign key matching no
    dimension row yields zero bits in every bitmap.
    """
    keys = dim.values(dim_key)
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise EngineError(f"dimension {dim.name}: duplicate keys {dupes!r}")
    attr_of_key = dict(zip(keys, dim.values(dim_attr)))
    fk = fact.values(fact_fk)
    bitmaps = dict.fromkeys(attr_of_key.values(), 0)
    for pos, k in enumerate(fk):
        v = attr_of_key.get(k)
        if v is not None:
            bitmaps[v] |= 1 << pos
    return BitmapJoinIndex(bitmaps=bitmaps, n_rows=len(fact.rows))


def evaluate(indexes: Mapping[str, BitmapJoinIndex],
             conditions: Mapping[str, Sequence[object]]) -> Bitmap:
    """Fact rows matching all conditions; per attribute, any listed value.

    ``conditions`` maps an attribute name to its accepted values.  Every
    attribute must have an index; sizes must agree.
    """
    if not conditions:
        raise EngineError("no conditions to evaluate")
    acc, n_rows = -1, None
    for attr, values in sorted(conditions.items()):
        idx = indexes.get(attr)
        if idx is None:
            raise EngineError(f"no bitmap join index for attribute {attr!r}")
        if n_rows not in (None, idx.n_rows):
            raise EngineError("bitmap length mismatch across indexes")
        n_rows = idx.n_rows
        acc &= idx.bitmap_for(values)
    return acc


def bit_string(bitmap: Bitmap, n_rows: int) -> str:
    """The bitmap as 0/1 characters, fact row 0 first."""
    return "".join(str(bitmap >> i & 1) for i in range(n_rows))


def naive_join_oracle(fact: MiniTable, dims: Mapping[str, tuple[MiniTable, str, str]],
                      conditions: Mapping[str, Sequence[object]]) -> Bitmap:
    """Answer the same question by actually joining, for cross-checking.

    ``dims`` maps an attribute name to (dimension table, fact FK column,
    dimension key column).
    """
    acc = (1 << len(fact.rows)) - 1
    for attr, values in conditions.items():
        if attr not in dims:
            raise EngineError(f"no join route for attribute {attr!r}")
        dim, fact_fk, dim_key = dims[attr]
        keymap = dict(zip(dim.values(dim_key), dim.values(attr)))
        accepted = set(values)
        for pos, k in enumerate(fact.values(fact_fk)):
            if keymap.get(k) not in accepted:
                acc &= ~(1 << pos)
    return acc


# ---------------------------------------------------------------------------
# demo instance: a 12-row sales fact joined to customer, product and time
# dimensions; row 1 belongs to a Poitiers customer
# ---------------------------------------------------------------------------

def demo_tables() -> tuple[MiniTable, MiniTable, MiniTable, MiniTable]:
    """(fact, client, produit, temps) for the walkthrough and tests."""
    fact = MiniTable("VENTES", ("RID", "CID", "PID", "TID", "Montant"), (
        ("1", "1", "10", "100", "120"),
        ("2", "2", "11", "101", "75"),
        ("3", "3", "12", "100", "200"),
        ("4", "4", "10", "102", "40"),
        ("5", "1", "11", "100", "310"),
        ("6", "2", "12", "101", "95"),
        ("7", "3", "10", "100", "60"),
        ("8", "4", "11", "101", "150"),
        ("9", "1", "12", "102", "80"),
        ("10", "2", "10", "100", "220"),
        ("11", "1", "11", "101", "55"),
        ("12", "3", "12", "100", "130"),
    ))
    client = MiniTable("CLIENT", ("CID", "Nom", "Ville"), (
        ("1", "Dupont", "Poitiers"),
        ("2", "Martin", "Paris"),
        ("3", "Bernard", "Nantes"),
        ("4", "Petit", "Poitiers"),
    ))
    produit = MiniTable("PRODUIT", ("PID", "Type"), (
        ("10", "Jouet"),
        ("11", "Beaute"),
        ("12", "Cuisine"),
    ))
    temps = MiniTable("TEMPS", ("TID", "Mois"), (
        ("100", "Mars"),
        ("101", "Juin"),
        ("102", "Aout"),
    ))
    return fact, client, produit, temps
