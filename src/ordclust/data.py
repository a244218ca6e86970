"""Column-typed datasets: schema files, CSV ingestion, value encoding, synthesis.

Categorical cells are encoded as integer indices into per-column value
dictionaries ordered by first appearance. Columns whose observed value set is
a single literal are useless for clustering; they are dropped from the
encoded table but reported as degenerate metadata.

CSV files are read as bytes and split into one array of cells per column with
numpy, so only distinct literals and numerical cells become Python objects.
Files with quotes, carriage returns or NUL bytes are tokenized by
``csv.reader`` instead; both tokenizers feed the same column encoder.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

KINDS = ("nominal", "ordinal", "numerical", "label", "ignore")
MISSING_POLICIES = ("drop_row", "error")
_NEWLINE, _COMMA = ord("\n"), ord(",")


class SchemaError(ValueError):
    """Malformed schema, or schema/data disagreement."""


class DataError(ValueError):
    """Unusable cell values or rows."""


@dataclass(frozen=True)
class AttributeSchema:
    """Declared type of one CSV column.

    ``semantic_order`` is required for ordinal columns and must cover every
    value the column can take, in the intended rank order.
    """

    name: str
    kind: str
    semantic_order: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown kind {self.kind!r} for column {self.name!r}")
        if self.kind == "ordinal":
            if not self.semantic_order:
                raise SchemaError(f"ordinal column {self.name!r} needs a declared value order")
            if len(set(self.semantic_order)) != len(self.semantic_order):
                raise SchemaError(f"duplicate values in declared order of {self.name!r}")
        elif self.semantic_order:
            raise SchemaError(f"{self.name!r}: a declared value order requires kind=ordinal")


@dataclass(frozen=True)
class DegenerateColumn:
    """Categorical column observed with a single value (dropped from the table)."""

    name: str
    value: str


@dataclass(frozen=True)
class OneHot:
    """Categorical table as a one-hot matrix with one column per (attribute, value).

    Attribute r owns columns ``offsets[r]:offsets[r + 1]``. Row i of ``X`` holds
    exactly s ones, at columns ``offsets[r] + cat[i, r]`` in attribute order.
    Those column indices are stored once, in ``X.indices``: ``codes`` views
    them as an (n, s) table and ``counts`` tallies them per cluster.
    """

    X: sparse.csr_matrix  # (n, sum of cardinalities) float64
    offsets: np.ndarray  # (s_cat + 1,) int64

    @classmethod
    def encode(cls, cat: np.ndarray, cards) -> OneHot:
        n, s = cat.shape
        offsets = np.concatenate([[0], np.cumsum(cards, dtype=np.int64)])
        cols = cat + offsets[:-1].astype(np.int32)
        indptr = np.arange(n + 1) * s
        X = sparse.csr_matrix((np.ones(n * s), cols.ravel(), indptr), shape=(n, int(offsets[-1])))
        for arr in (X.data, X.indices, X.indptr, offsets):
            arr.flags.writeable = False
        return cls(X=X, offsets=offsets)

    @property
    def codes(self) -> np.ndarray:
        """(n, s_cat) int32 view of ``X.indices``: the one-hot column of every cell."""
        return self.X.indices.reshape(self.X.shape[0], len(self.offsets) - 1)

    def counts(self, assign: np.ndarray, k: int, rows=None) -> np.ndarray:
        """(k, sum of cardinalities) int64 count of each value per cluster of ``assign``, over ``rows`` if given."""
        codes, width = self.codes, int(self.offsets[-1])
        if rows is not None:
            assign, codes = assign[rows], codes[rows]
        cells = assign[:, None] * width + codes
        return np.bincount(cells.ravel(), minlength=k * width).reshape(k, width)


def split_columns(table: np.ndarray, offsets) -> tuple:
    """Per-attribute views ``table[..., offsets[r]:offsets[r + 1]]`` of a table stacked like ``OneHot``."""
    return tuple(table[..., a:b] for a, b in zip(offsets[:-1], offsets[1:]))


@dataclass(frozen=True)
class Dataset:
    """Immutable encoded table.

    ``cat`` holds the effective (non-degenerate) categorical columns as value
    indices, ``num`` the numerical columns as floats. Arrays are marked
    read-only; a Dataset can be shared freely across concurrent fits.

    ``_start`` and ``_start_orders`` are ``cluster.fit``'s memos, outside
    equality and repr: the start of the last (k, init, seed) fitted, replaced
    whole in one assignment, and each deterministic kind of start orders
    with its distance matrices. Their arrays are read-only too.
    """

    cat: np.ndarray  # (n, s_cat) int32, cell < cardinality of its column
    num: np.ndarray  # (n, s_num) float64
    dictionaries: tuple[tuple[str, ...], ...]
    cat_names: tuple[str, ...]
    cat_kinds: tuple[str, ...]
    semantic_ranks: tuple  # per categorical column: 1-based rank array or None
    num_names: tuple[str, ...]
    labels: np.ndarray | None = None
    label_values: tuple[str, ...] | None = None
    degenerate: tuple[DegenerateColumn, ...] = ()
    _start: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _start_orders: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.cat.ndim != 2 or self.num.ndim != 2:
            raise DataError("cat and num must be 2-d arrays")
        if self.cat.shape[0] != self.num.shape[0]:
            raise DataError("cat and num row counts disagree")
        if self.cat.shape[0] == 0:
            raise DataError("dataset has no rows")
        if self.cat.shape[1] != len(self.dictionaries):
            raise DataError("one value dictionary per categorical column required")
        for r, vocab in enumerate(self.dictionaries):
            if len(vocab) < 2:
                raise DataError(f"column {self.cat_names[r]!r} is degenerate; drop it before construction")
            if self.cat[:, r].min() < 0 or self.cat[:, r].max() >= len(vocab):
                raise DataError(f"column {self.cat_names[r]!r} holds an out-of-dictionary index")
        for arr in (self.cat, self.num) + ((self.labels,) if self.labels is not None else ()):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.cat.shape[0]

    @functools.cached_property
    def onehot(self) -> OneHot:
        """One-hot encoding of ``cat``, built on first use and kept as long as the Dataset."""
        return OneHot.encode(self.cat, self.cardinalities)

    @property
    def s_categorical(self) -> int:
        return self.cat.shape[1]

    @property
    def s_numerical(self) -> int:
        return self.num.shape[1]

    @property
    def s(self) -> int:
        return self.s_categorical + self.s_numerical

    @functools.cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.dictionaries)


def load_schema(path: str | Path) -> list[AttributeSchema]:
    """Read a schema file: one ``name,kind[,value,value,...]`` line per column.

    Blank lines and ``#`` comments are ignored. The trailing values give the
    declared order of an ordinal column.
    """
    out = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (row[0].strip().startswith("#")):
                    continue
                cells = [c.strip() for c in row]
                if len(cells) < 2 or not cells[0] or not cells[1]:
                    raise SchemaError(f"{path}:{lineno}: expected 'name,kind[,values...]'")
                order = tuple(cells[2:]) if len(cells) > 2 else None
                out.append(AttributeSchema(cells[0], cells[1], order))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not out:
        raise SchemaError(f"{path}: schema file declares no columns")
    return out


def _check_label_count(schema):
    labels = [c.name for c in schema if c.kind == "label"]
    if len(labels) > 1:
        raise SchemaError(f"more than one label column declared: {labels}")


def load_csv(
    path: str | Path,
    schema: list[AttributeSchema],
    missing_policy: str = "drop_row",
    missing_values: tuple[str, ...] = ("",),
) -> Dataset:
    """Load a header-ed, UTF-8 CSV under a column schema.

    Value dictionaries are built in first-appearance order. Rows with any
    missing cell are dropped under ``drop_row`` and rejected under ``error``.
    Single-valued categorical columns are reported via ``Dataset.degenerate``
    rather than encoded.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse(raw, schema, missing_policy, missing_values, str(path))


def _parse(raw: bytes, schema, missing_policy, missing_values, origin: str) -> Dataset:
    """Tokenize CSV bytes into columns of cells, then drop rows and encode.

    Files holding a quote, a carriage return or a NUL byte go through
    ``csv.reader``; all others are split on ``,`` and ``\\n`` with numpy. Both
    tokenizers feed the same row checks and column encoder.
    """
    if missing_policy not in MISSING_POLICIES:
        raise SchemaError(f"unknown missing policy {missing_policy!r}")
    _check_label_count(schema)
    if not raw.isascii():
        try:
            raw.decode()
        except UnicodeDecodeError as exc:
            lineno = raw.count(b"\n", 0, exc.start) + 1
            raise DataError(f"{origin}:{lineno}: not UTF-8 text: {exc}") from None
    quoted = b'"' in raw or b"\r" in raw or b"\0" in raw
    tokenize = _csv_cells if quoted else _byte_cells
    return _from_cells(tokenize(raw, len(schema), origin), schema, missing_policy, missing_values, origin)


def _check_header(cells: int, m: int, origin: str):
    if cells != m:
        raise SchemaError(f"{origin}: schema declares {m} columns, CSV header has {cells}")


def _csv_cells(raw: bytes, m: int, origin: str):
    """``csv.reader`` tokenizer; see ``_byte_cells`` for what it returns."""
    reader = csv.reader(io.StringIO(raw.decode(), newline=""))
    rows, linenos, ragged = [], [], None
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{origin}: empty file")
        _check_header(len(header), m, origin)
        for row in reader:
            if not row:
                continue
            if len(row) != m:
                ragged = (reader.line_num, len(row))
                break
            rows.append(row)
            linenos.append(reader.line_num)
    except csv.Error as exc:
        raise DataError(f"{origin}:{reader.line_num}: {exc}") from None
    # Fixed-width arrays drop trailing NULs, so a file holding NUL keeps bytes objects.
    fixed = b"\0" not in raw
    columns = []
    for j in range(m):
        cells = [row[j].encode() for row in rows]
        lens = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        columns.append(np.array(cells, dtype="S" if fixed and _fits_fixed(lens) else object))
    return columns, np.array(linenos, dtype=np.int64), ragged


def _byte_cells(raw: bytes, m: int, origin: str):
    """Split unquoted CSV bytes on ``\\n`` and ``,``.

    Returns the cells of the body rows up to the first row whose cell count
    differs from m, as one array per column; their physical line numbers; and
    (line number, cell count) of that ragged row, or None. Blank lines hold no
    cells and are skipped.
    """
    if not raw:
        raise DataError(f"{origin}: empty file")
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(buf == _COMMA)
    cells = np.where(ends > starts, np.diff(np.searchsorted(commas, ends), prepend=0) + 1, 0)
    _check_header(int(cells[0]), m, origin)
    ragged = None
    bad = np.flatnonzero((cells != m) & (cells != 0))
    stop = len(cells)
    if bad.size:
        stop = int(bad[0])
        ragged = (stop + 1, int(cells[stop]))
    rows = np.flatnonzero(cells[1:stop]) + 1
    # Every line before the ragged one holds m - 1 commas or none.
    inner = commas[m - 1 : (m - 1) * (rows.size + 1)]
    columns = []
    for j in range(m):
        lo = starts[rows] if j == 0 else inner[j - 1 :: m - 1] + 1
        hi = ends[rows] if j == m - 1 else inner[j :: m - 1]
        columns.append(_gather(raw, buf, lo, hi))
    return columns, rows + 1, ragged


def _fits_fixed(lens: np.ndarray) -> bool:
    """Whether cells of these lengths belong in one fixed-width bytes array.

    A few long cells would make every row that wide; when the fixed width
    would take more than twice the memory of separate bytes objects (about
    40 bytes plus the length each), the column holds those instead.
    """
    return lens.size * int(lens.max(initial=0)) <= 2 * (40 * lens.size + int(lens.sum()))


def _gather(raw: bytes, buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cells ``raw[lo[i]:hi[i]]`` as one fixed-width bytes array, or bytes
    objects when ``_fits_fixed`` says no."""
    lens = hi - lo
    if not _fits_fixed(lens):
        return np.array([raw[a:b] for a, b in zip(lo.tolist(), hi.tolist())], dtype=object)
    width = max(int(lens.max(initial=0)), 1)
    out = np.zeros((lens.size, width), dtype=np.uint8)
    last = len(buf) - 1
    for k in range(width):
        np.copyto(out[:, k], buf[np.minimum(lo + k, last)], where=lens > k)
    return out.view(f"S{width}")[:, 0]


def _from_cells(tokenized, schema, missing_policy, missing_values, origin: str) -> Dataset:
    """Row checks in line order, missing-row drop, then the column encoder."""
    columns, linenos, ragged = tokenized
    # Fixed-width arrays ignore trailing NULs; only NUL-free files produce them.
    # A lone surrogate never occurs in UTF-8 text, so such a token matches nothing.
    missing = np.zeros(len(linenos), dtype=bool)
    for token in missing_values:
        literal = token.encode("utf-8", "surrogatepass")
        for cells in columns:
            if cells.dtype.kind != "S" or b"\0" not in literal:
                missing |= cells == literal
    if missing_policy == "error" and missing.any():
        raise DataError(f"{origin}:{linenos[missing.argmax()]}: missing cell")
    if ragged is not None:
        raise DataError(f"{origin}:{ragged[0]}: expected {len(schema)} cells, got {ragged[1]}")
    if missing.all():
        raise DataError(f"{origin}: no usable rows")
    if missing.any():
        columns = [cells[~missing] for cells in columns]
    return _encode(columns, schema, origin)


def _first_appearance(cells: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes and literals of a column, values numbered by first appearance."""
    _, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    return rank[inverse], tuple(v.decode() for v in cells[first[order]].tolist())


_POWERS_OF_TEN = np.array([10**i for i in range(16)], dtype=np.float64)


def _decimals(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of the ``[-]digits[.digits]`` cells with 1 to 15 digits of an ASCII ``S`` array,
    and the mask of the other cells, whose values are left unset. Clinger's fast path: Horner's
    rule reads the digits exactly (every partial value is an integer below 10**15 < 2**53), the
    power of ten is exact too, and IEEE division rounds correctly, so the quotient is
    ``float(cell)`` bit for bit, -0 included. Each numpy call runs over an n-long byte row."""
    n, width = cells.size, cells.dtype.itemsize
    span = min(width, 17)  # a fast cell is at most a sign, 15 digits and a point
    rows = np.ascontiguousarray(cells.view(np.uint8).reshape(n, width)[:, :span].T)
    neg = rows[0] == ord("-")
    mant = np.zeros(n)
    digits, fraction, points, nuls = (np.zeros(n, dtype=np.uint8) for _ in range(4))
    for row in rows:
        digit = row - np.uint8(ord("0"))  # wraps above 9 for every other byte
        is_digit = digit < 10
        mant *= is_digit * np.uint8(9) + np.uint8(1)
        digit *= is_digit
        mant += digit
        digits += is_digit
        fraction += is_digit & (points > 0)
        points += row == ord(".")
        nuls += row == 0
    # Every byte is classified, and the NULs are the padding past the cell's end.
    fast = (digits + points + neg + nuls == span) & (nuls == span - np.char.str_len(cells))
    fast &= (points <= 1) & (digits >= 1) & (digits <= 15)
    divisor = _POWERS_OF_TEN[np.minimum(fraction, 15)] * (1 - 2 * neg.view(np.int8))
    return mant / divisor, ~fast


def _floats(cells: np.ndarray, name: str, origin: str) -> np.ndarray:
    """``float()`` of every cell, decoded from UTF-8.

    In ASCII ``S`` columns ``_decimals`` reads the plain decimal cells, and
    numpy's cast, which calls the same parser as ``float()``, reads the rest:
    exponents, ``inf``, ``nan``, ``+``, ``_``, whitespace, over 15 digits.
    On any failure, and in every other column, ``float()`` runs cell by cell
    and names the first bad cell.
    """
    if cells.dtype.kind == "S" and cells.view(np.uint8).max(initial=0) < 0x80:
        values, slow = _decimals(cells)
        try:
            values[slow] = cells[slow].astype(np.float64)
            return values
        except ValueError:
            pass
    try:
        return np.array([float(v.decode()) for v in cells.tolist()], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{origin}: column {name!r}: {exc}") from None


def _encode(columns, schema, origin: str) -> Dataset:
    n = len(columns[0])
    cat_cols, num_cols = [], []
    dictionaries, cat_names, cat_kinds, semantic_ranks = [], [], [], []
    num_names = []
    labels = None
    label_values = None
    degenerate = []

    for col, cells in zip(schema, columns):
        if col.kind == "ignore":
            continue
        if col.kind == "numerical":
            values = _floats(cells, col.name, origin)
            if not np.all(np.isfinite(values)):
                raise DataError(f"{origin}: column {col.name!r} holds a non-finite value")
            num_cols.append(values)
            num_names.append(col.name)
            continue

        # categorical / label: dictionary by first appearance
        codes, literals = _first_appearance(cells)

        if col.kind == "label":
            labels = codes
            label_values = literals
            continue
        if len(literals) == 1:
            degenerate.append(DegenerateColumn(col.name, literals[0]))
            continue
        ranks = None
        if col.kind == "ordinal":
            unknown = [v for v in literals if v not in col.semantic_order]
            if unknown:
                raise DataError(
                    f"{origin}: ordinal column {col.name!r} holds values outside "
                    f"its declared order: {unknown}"
                )
            vocab = {v: i for i, v in enumerate(literals)}
            declared = [v for v in col.semantic_order if v in vocab]
            ranks = np.empty(len(literals), dtype=np.int64)
            for pos, v in enumerate(declared, start=1):
                ranks[vocab[v]] = pos
        cat_cols.append(codes)
        dictionaries.append(literals)
        cat_names.append(col.name)
        cat_kinds.append(col.kind)
        semantic_ranks.append(ranks)

    cat = np.column_stack(cat_cols) if cat_cols else np.empty((n, 0), dtype=np.int32)
    num = np.column_stack(num_cols) if num_cols else np.empty((n, 0), dtype=np.float64)
    return Dataset(
        cat=cat,
        num=num,
        dictionaries=tuple(dictionaries),
        cat_names=tuple(cat_names),
        cat_kinds=tuple(cat_kinds),
        semantic_ranks=tuple(semantic_ranks),
        num_names=tuple(num_names),
        labels=labels,
        label_values=label_values,
        degenerate=tuple(degenerate),
    )


def load_dataset(
    data_path: str | Path,
    schema_path: str | Path,
    missing_policy: str = "drop_row",
    missing_values: tuple[str, ...] = ("",),
) -> Dataset:
    """Convenience wrapper: read the schema file, then the CSV."""
    return load_csv(data_path, load_schema(schema_path), missing_policy, missing_values)


def loads_csv(text: str, schema: list[AttributeSchema], **kwargs) -> Dataset:
    """load_csv for in-memory CSV text (fixture generation, tests)."""
    return _parse(text.encode(), schema, kwargs.get("missing_policy", "drop_row"),
                  kwargs.get("missing_values", ("",)), "<memory>")


def normalize_numerical(d: Dataset) -> np.ndarray:
    """Numerical columns min-max scaled onto [0, 1], constant ones to 0, as new C-contiguous (s_num, n) rows."""
    if d.s_numerical == 0:
        raise DataError("dataset has no numerical columns")
    rows = d.num.T.copy()
    lo = rows.min(axis=1)
    with np.errstate(over="ignore"):  # reported as a DataError just below
        span = rows.max(axis=1) - lo
    if not np.isfinite(span).all():
        raise DataError(f"numerical column {d.num_names[np.isinf(span).argmax()]!r}: max - min overflows")
    rows -= lo[:, None]
    rows /= np.where(span > 0, span, 1.0)[:, None]
    return rows


def synthesize(
    n: int,
    s: int,
    k: int,
    values_per_attribute: int = 5,
    seed: int = 0,
    planted_labels: bool = False,
) -> Dataset:
    """Uniform-random categorical table, reproducible per seed.

    Optional round-robin labels exist only so benchmark harnesses have a
    label column to feed; they carry no cluster structure.
    """
    if min(n, s, k, values_per_attribute) < 1:
        raise DataError("all synthesis counts must be >= 1")
    rng = np.random.default_rng(seed)
    used = s if values_per_attribute > 1 else 0  # one value per column: every column is degenerate
    vocab = tuple(f"v{g}" for g in range(values_per_attribute))
    return Dataset(
        cat=rng.integers(0, values_per_attribute, size=(n, used), dtype=np.int32),
        num=np.empty((n, 0), dtype=np.float64),
        dictionaries=(vocab,) * used,
        cat_names=tuple(f"a{r}" for r in range(used)),
        cat_kinds=("nominal",) * used,
        semantic_ranks=(None,) * used,
        num_names=(),
        labels=np.arange(n, dtype=np.int32) % k if planted_labels else None,
        label_values=tuple(f"c{m}" for m in range(k)) if planted_labels else None,
        degenerate=() if used else tuple(DegenerateColumn(f"a{r}", "v0") for r in range(s)),
    )
