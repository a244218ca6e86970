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
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

KINDS = ("nominal", "ordinal", "numerical", "label", "ignore")
MISSING_POLICIES = ("drop_row", "error")
_NEWLINE, _COMMA = ord("\n"), ord(",")
# Fewest cells per block of a pass that ``run_jobs`` splits: one-hot cells per row block, and the
# cells of a CSV file's columns or of k-means features per column job or sample block; below it a
# pass runs serially and starts no thread. With the second core of a 2-core host idle, two blocks of
# a distance pass and its argmin ran 1.04x as fast as one at 2e5 cells, 1.35x at 4e5, 1.57x at 1e6.
# On the 207k-row mixed AC file (3.1e6 CSV cells, 2.9e6 features) two threads cut the time of
# load_csv by 22-40%, lloyd_kmeans by 14-41% and fit_kprototypes by 26-30% (three rounds).
ROW_BLOCK_CELLS = 2**18
# Largest share of distinct rows at which ``OneHot.distinct`` compresses a table. A capped fit of
# 100k x 20 rows (k = 5) ran at 0.36x the per-sample time at 10% distinct, 0.74x at 50%, 0.83x at
# 60%, 0.97x at 75% and 1.23x at 100% (2-core host); half keeps a margin below the crossover.
DISTINCT_MAX_SHARE = 0.5
# Each process's pool for ``run_jobs``, keyed by process id: a child forked after its parent's pool
# started inherits that pool without its threads. Threads start as jobs wait for one.
_pool = functools.cache(lambda pid: ThreadPoolExecutor())


def block_count(cells: int) -> int:
    """Blocks, and threads, for a pass over ``cells`` cells: one per usable CPU at most, each of
    ``ROW_BLOCK_CELLS`` cells or more."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(min(cpus, cells // ROW_BLOCK_CELLS), 1)


def blocks(size: int, count: int) -> list[slice]:
    """``count`` contiguous slices of ``range(size)``, their lengths differing by one at most."""
    return [slice(size * i // count, size * (i + 1) // count) for i in range(count)]


def run_jobs(jobs, threads: int) -> list:
    """The results of calling each of ``jobs``, in order. The calling thread runs the first job;
    below ``threads`` threads in all, ``_pool`` workers and then the caller take the rest in order.
    Every job runs to its end before the error of the first failed job, if any, is raised. With
    one thread the jobs run in turn, as a loop would run them."""
    jobs = list(jobs)
    if threads < 2 or len(jobs) < 2:
        return [job() for job in jobs]
    outcomes, taken = [None] * len(jobs), itertools.count(1)  # next() on a count is one C call: atomic

    def run(i):
        try:
            outcomes[i] = True, jobs[i]()
        except Exception as exc:  # held until every job has run
            outcomes[i] = False, exc

    def take():
        while (i := next(taken)) < len(jobs):
            run(i)

    futures = [_pool(os.getpid()).submit(take) for _ in range(min(threads, len(jobs)) - 1)]
    run(0)
    take()
    for future in futures:
        future.result()
    for done, value in outcomes:
        if not done:
            raise value
    return [value for _, value in outcomes]


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
    them as an (n, s) table and ``counts`` tallies them per cluster. Where rows
    repeat, ``distinct`` holds the distinct rows as their own ``OneHot`` and each
    sample's index among them, so ``counts`` and the fit's kernels run once per row.
    ``attribute``, ``segments``, ``row_blocks`` and ``distinct`` are built on first use and kept with it.
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
        """(k, sum of cardinalities) int64 count of each value per cluster of ``assign``, over ``rows`` if given.

        A full tally of a table with a ``distinct`` view counts each (cluster, distinct row) pair
        with one bincount over the samples, then adds the cells of the pairs that occur weighted by
        those counts: every partial sum is an integer below 2**53, so the float tally is exact."""
        codes, width, weights = self.codes, int(self.offsets[-1]), None
        if rows is not None:  # a few moved samples: a pair table would cost k x (distinct rows) cells
            assign, codes = assign[rows], codes[rows]
        elif self.distinct is not None:
            enc, inverse = self.distinct
            size = enc.X.shape[0]
            pairs = np.bincount(assign.astype(np.int64) * size + inverse, minlength=k * size)
            occur = np.flatnonzero(pairs)
            weights = np.repeat(pairs[occur], codes.shape[1])
            assign, codes = occur // size, enc.codes[occur % size]
        cells = assign.astype(np.int64)[:, None] * width + codes  # k * width may pass 2**31
        return np.bincount(cells.ravel(), weights, minlength=k * width).astype(np.int64, copy=False).reshape(k, width)

    @functools.cached_property
    def attribute(self) -> np.ndarray:
        """(sum of cardinalities,) intp: the attribute owning each column."""
        lengths = np.diff(self.offsets)
        attribute = np.repeat(np.arange(lengths.size), lengths)
        attribute.flags.writeable = False
        return attribute

    @functools.cached_property
    def segments(self) -> tuple:
        """Read-only (sum of cardinalities,) int64 arrays: each column's 1-based place within its
        attribute, the attribute's first column, the column past its last, and l - 1."""
        start, end = self.offsets[:-1][self.attribute], self.offsets[1:][self.attribute]
        segments = (np.arange(start.size) - start + 1, start, end, end - start - 1)
        for arr in segments:
            arr.flags.writeable = False
        return segments

    @functools.cached_property
    def row_blocks(self) -> tuple:
        """(rows, CSR view of X[rows]) pairs, ``block_count`` of the table's cells."""
        X, out = self.X, []
        for rows in blocks(X.shape[0], block_count(X.nnz)):
            lo, hi = X.indptr[rows.start], X.indptr[rows.stop]
            block = sparse.csr_matrix((rows.stop - rows.start, X.shape[1]))  # its constructor copies small views
            block.data, block.indices = X.data[lo:hi], X.indices[lo:hi]
            block.indptr = X.indptr[rows.start:rows.stop + 1] - lo
            out.append((rows, block))
        return tuple(out)

    @functools.cached_property
    def distinct(self) -> tuple[OneHot, np.ndarray] | None:
        """The table's distinct rows as their own ``OneHot`` and the (n,) index of each sample's row
        among them, or None where the kernels run per sample: under ``ROW_BLOCK_CELLS`` cells, with
        a key space of 2**63 rows or more, or with more than ``DISTINCT_MAX_SHARE`` of the rows distinct.

        A row's key is the sum of its codes, each times the product of the later attributes'
        cardinalities. A code is the value's index plus its attribute's offset, so in wrapping int64
        arithmetic the key is the row's mixed-radix number plus the all-zero row's key: equal keys
        mean equal rows while the key space, the product of the cardinalities, is below 2**63.
        The rows are kept in key order. Where the key space is at most n, one bincount over the
        mixed-radix numbers counts and groups them, with no sort; there no key wraps (each is
        below (s / 2 + 1) n), so their order is the keys' order. Otherwise the keys are sorted.
        """
        lengths = np.diff(self.offsets).tolist()
        space, n = math.prod(lengths), self.X.shape[0]
        if self.X.nnz < ROW_BLOCK_CELLS or space >= 2**63:
            return None
        weights = np.cumprod([1, *lengths[::-1]])[-2::-1]
        key = np.einsum("ij,j->i", self.codes, weights)  # buffered: no (n, s) copy
        if space <= n:
            radix = key - self.offsets[:-1] @ weights
            tally = np.bincount(radix, minlength=space)
            present = np.flatnonzero(tally)
            if present.size > DISTINCT_MAX_SHARE * n:
                return None
            inverse = (np.cumsum(tally > 0) - 1)[radix]
            rows = present[:, None] // weights % lengths
        else:
            if np.count_nonzero(np.diff(np.sort(key))) + 1 > DISTINCT_MAX_SHARE * n:
                return None
            order = np.argsort(key)  # any one sample of each distinct row stands for it
            starts = np.concatenate(([True], np.diff(key[order]) != 0))
            inverse = np.empty(n, dtype=np.intp)
            inverse[order] = np.cumsum(starts) - 1
            rows = self.codes[order[starts]] - self.offsets[:-1]
        inverse.flags.writeable = False
        return OneHot.encode(rows, lengths), inverse

    def map_rows(self, fn) -> None:
        """``fn(rows, X[rows])`` per row block, through ``run_jobs``."""
        run_jobs([functools.partial(fn, *block) for block in self.row_blocks], len(self.row_blocks))

    def first_maxima(self, table: np.ndarray) -> np.ndarray:
        """(k, s) column of each row's largest entry within each attribute of a (k, sum l) table,
        the lowest column among ties, as ``argmax`` picks."""
        starts, width = self.offsets[:-1], table.shape[1]
        peak = np.maximum.reduceat(table, starts, axis=1)[:, self.attribute]
        tied = np.where(table == peak, np.arange(width), width)
        return np.minimum.reduceat(tied, starts, axis=1)


def split_columns(table: np.ndarray, offsets) -> tuple:
    """Per-attribute views ``table[..., offsets[r]:offsets[r + 1]]`` of a table stacked like ``OneHot``."""
    return tuple(table[..., a:b] for a, b in zip(offsets[:-1], offsets[1:]))


@dataclass(frozen=True)
class Dataset:
    """Immutable encoded table.

    ``cat`` holds the effective (non-degenerate) categorical columns as value
    indices, ``num`` the numerical columns as floats. Arrays are marked
    read-only; a Dataset can be shared freely across concurrent fits.
    """

    cat: np.ndarray  # (n, s_cat) int32, cell < cardinality of its column
    num: np.ndarray  # (n, s_num) float64
    dictionaries: tuple[tuple[str, ...], ...]
    cat_names: tuple[str, ...]
    semantic_ranks: tuple  # per categorical column: 1-based declared rank array (ordinal) or None
    num_names: tuple[str, ...]
    labels: np.ndarray | None = None
    label_values: tuple[str, ...] | None = None
    degenerate: tuple[DegenerateColumn, ...] = ()

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
    tokenized = tokenize(raw, [c.name for c in schema], origin)
    return _from_cells(tokenized, schema, missing_policy, missing_values, origin)


def _check_header(header: list[str], names: list[str], origin: str):
    """The header must name the schema's columns in order, up to surrounding spaces."""
    if len(header) != len(names):
        raise SchemaError(f"{origin}: schema declares {len(names)} columns, CSV header has {len(header)}")
    for j, (want, got) in enumerate(zip(names, (cell.strip() for cell in header)), start=1):
        if got != want:
            raise SchemaError(f"{origin}: column {j}: schema declares {want!r}, CSV header has {got!r}")


def _csv_cells(raw: bytes, names: list[str], origin: str):
    """``csv.reader`` tokenizer; see ``_byte_cells`` for what it returns."""
    m = len(names)
    reader = csv.reader(io.StringIO(raw.decode("utf-8-sig"), newline=""))  # drops a leading BOM
    rows, linenos, ragged = [], [], None
    try:
        _check_header(next(reader), names, origin)  # text holding a quote, CR or NUL makes at least one row
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


def _byte_cells(raw: bytes, names: list[str], origin: str):
    """Split unquoted CSV bytes on ``\\n`` and ``,``.

    Returns the cells of the body rows up to the first row whose cell count
    differs from m, as one array per column; their physical line numbers; and
    (line number, cell count) of that ragged row, or None. Blank lines hold no
    cells and are skipped.
    """
    if not raw:
        raise DataError(f"{origin}: empty file")
    buf = np.frombuffer(raw, dtype=np.uint8)
    scans = [lambda: np.flatnonzero(buf == _NEWLINE), lambda: np.flatnonzero(buf == _COMMA)]
    ends, commas = run_jobs(scans, block_count(buf.size))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    starts = np.concatenate(([0], ends[:-1] + 1))
    cells = np.where(ends > starts, np.diff(np.searchsorted(commas, ends), prepend=0) + 1, 0)
    _check_header(raw[:ends[0]].decode("utf-8-sig").split(",") if cells[0] else [], names, origin)
    m = len(names)
    ragged = None
    bad = np.flatnonzero((cells != m) & (cells != 0))
    stop = len(cells)
    if bad.size:
        stop = int(bad[0])
        ragged = (stop + 1, int(cells[stop]))
    rows = np.flatnonzero(cells[1:stop]) + 1
    # Every line before the ragged one holds m - 1 commas or none.
    inner = commas[m - 1 : (m - 1) * (rows.size + 1)]

    def column(j):
        lo = starts[rows] if j == 0 else inner[j - 1 :: m - 1] + 1
        hi = ends[rows] if j == m - 1 else inner[j :: m - 1]
        return _gather(raw, buf, lo, hi)

    columns = run_jobs([functools.partial(column, j) for j in range(m)], block_count(rows.size * m))
    return columns, rows + 1, ragged


def _fits_fixed(lens: np.ndarray) -> bool:
    """Whether cells of these lengths belong in one fixed-width bytes array.

    A few long cells would make every row that wide; when the fixed width
    would take more than twice the memory of separate bytes objects (about
    40 bytes plus the length each), the column holds those instead.
    """
    return lens.size * int(lens.max(initial=0)) <= 2 * (40 * lens.size + int(lens.sum()))


def _gather(raw: bytes, buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cells ``raw[lo[i]:hi[i]]``, ``lo`` ascending, as one fixed-width bytes array, or bytes
    objects when ``_fits_fixed`` says no.

    Each cell is read as the ``width`` bytes from its start, one fancy index into a read-only,
    overlapping view of the file, and the bytes past its end are zeroed by one multiply with
    rows of a lower-triangular table. A cell whose window would pass the end of the file
    (the last few, found by one ``searchsorted``) is copied byte by byte instead."""
    lens = hi - lo
    if not _fits_fixed(lens):
        return np.array([raw[a:b] for a, b in zip(lo.tolist(), hi.tolist())], dtype=object)
    width = max(int(lens.max(initial=0)), 1)
    window = np.ndarray((len(raw) - width + 1,), f"S{width}", buffer=raw, strides=(1,))
    inside = int(np.searchsorted(lo, len(raw) - width, side="right"))
    cells = window[lo[:inside]]
    if inside < lens.size:
        tail, last = np.zeros((lens.size - inside, width), dtype=np.uint8), len(buf) - 1
        for k in range(width):
            np.copyto(tail[:, k], buf[np.minimum(lo[inside:] + k, last)], where=lens[inside:] > k)
        cells = np.concatenate([cells, tail.view(f"S{width}")[:, 0]])
    if lens.min(initial=width) < width:
        octets = cells.view(np.uint8).reshape(lens.size, width)
        np.multiply(octets, np.take(np.tri(width + 1, width, -1, dtype=np.uint8), lens, axis=0), out=octets)
    return cells


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


def _narrow_keys(cells: np.ndarray) -> np.ndarray:
    """Keys equal exactly where the cells are: a fixed-width ``S`` column of up to 8 bytes as its
    narrowest unsigned integers (u1, u2, u4, or u8 zero-padded), others as they are. ``S`` columns
    come only from NUL-free files, so their NULs are padding and equal bytes mean equal cells."""
    width = cells.dtype.itemsize
    if cells.dtype.kind != "S" or width > 8:
        return cells
    size = next(b for b in (1, 2, 4, 8) if b >= width)
    raw = np.ascontiguousarray(cells).view(np.uint8).reshape(cells.size, width)
    if size > width:
        raw = np.concatenate([raw, np.zeros((cells.size, size - width), dtype=np.uint8)], axis=1)
    return raw.view(f"u{size}")[:, 0]


def _first_appearance(cells: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes and literals of a column, values numbered by first appearance.

    Short byte cells are grouped through ``_narrow_keys``: the same groups and
    first indices, and u1/u2 keys sort by radix.
    """
    _, first, inverse = np.unique(_narrow_keys(cells), return_index=True, return_inverse=True)
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

    In ASCII ``S`` columns ``_decimals`` reads the plain decimal cells;
    ``float()`` reads the rest (exponents, ``inf``, ``nan``, ``+``, ``_``,
    whitespace, over 15 digits) and every cell of other columns, in order, so
    the error names the first bad cell: a bad cell is never a plain decimal.
    """
    if cells.dtype.kind == "S" and cells.view(np.uint8).max(initial=0) < 0x80:
        values, slow = _decimals(cells)
    else:
        values, slow = np.empty(cells.size), np.ones(cells.size, dtype=bool)
    try:
        values[slow] = [float(v.decode()) for v in cells[slow].tolist()]
    except ValueError as exc:
        raise DataError(f"{origin}: column {name!r}: {exc}") from None
    return values


def _column(col: AttributeSchema, cells: np.ndarray, origin: str):
    """One column's encoding, with its checks: a numerical column's float values; a categorical
    or label column's codes, its literals, and an ordinal column's 1-based declared ranks."""
    if col.kind == "numerical":
        values = _floats(cells, col.name, origin)
        if not np.all(np.isfinite(values)):
            raise DataError(f"{origin}: column {col.name!r} holds a non-finite value")
        return values
    codes, literals = _first_appearance(cells)
    ranks = None
    if col.kind == "ordinal" and len(literals) > 1:  # a degenerate column is dropped unchecked
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
    return codes, literals, ranks


def _encode(columns, schema, origin: str) -> Dataset:
    """The columns encoded as ``run_jobs`` jobs, so the error raised is the first in schema order."""
    n = len(columns[0])
    used = [(col, cells) for col, cells in zip(schema, columns) if col.kind != "ignore"]
    jobs = [functools.partial(_column, col, cells, origin) for col, cells in used]
    cat, num, degenerate, labels, label_values = [], [], [], None, None
    for (col, _), encoded in zip(used, run_jobs(jobs, block_count(n * len(used)))):
        if col.kind == "numerical":
            num.append((col.name, encoded))
        elif col.kind == "label":
            labels, label_values, _ = encoded
        elif len(encoded[1]) == 1:
            degenerate.append(DegenerateColumn(col.name, encoded[1][0]))
        else:
            cat.append((col.name, *encoded))
    cat_names, cat_cols, dictionaries, semantic_ranks = zip(*cat) if cat else ((),) * 4
    num_names, num_cols = zip(*num) if num else ((),) * 2
    return Dataset(
        cat=np.column_stack(cat_cols) if cat else np.empty((n, 0), dtype=np.int32),
        num=np.column_stack(num_cols) if num else np.empty((n, 0), dtype=np.float64),
        dictionaries=dictionaries, cat_names=cat_names, semantic_ranks=semantic_ranks, num_names=num_names,
        labels=labels, label_values=label_values, degenerate=tuple(degenerate),
    )


def load_dataset(
    data_path: str | Path,
    schema_path: str | Path,
    missing_policy: str = "drop_row",
    missing_values: tuple[str, ...] = ("",),
) -> Dataset:
    """Convenience wrapper: read the schema file, then the CSV."""
    return load_csv(data_path, load_schema(schema_path), missing_policy, missing_values)


def loads_csv(text: str, schema: list[AttributeSchema], missing_policy: str = "drop_row",
              missing_values: tuple[str, ...] = ("",)) -> Dataset:
    """load_csv for in-memory CSV text."""
    return _parse(text.encode(), schema, missing_policy, missing_values, "<memory>")


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
        semantic_ranks=(None,) * used,
        num_names=(),
        labels=np.arange(n, dtype=np.int32) % k if planted_labels else None,
        label_values=tuple(f"c{m}" for m in range(k)) if planted_labels else None,
        degenerate=() if used else tuple(DegenerateColumn(f"a{r}", "v0") for r in range(s)),
    )
