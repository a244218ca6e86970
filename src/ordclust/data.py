"""Column-typed datasets: schema files, CSV ingestion, value encoding, synthesis.

Categorical cells are encoded as integer indices into per-column value
dictionaries ordered by first appearance. Columns whose observed value set is
a single literal are useless for clustering; they are dropped from the
encoded table but reported as degenerate metadata.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

KINDS = ("nominal", "ordinal", "numerical", "label", "ignore")
CATEGORICAL_KINDS = ("nominal", "ordinal")
MISSING_POLICIES = ("drop_row", "error")


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
    exactly s ones, at columns ``offsets[r] + cat[i, r]`` in attribute order;
    ``codes[r]`` holds those columns for attribute r as one contiguous row.
    """

    X: sparse.csr_matrix  # (n, sum of cardinalities) float64
    offsets: np.ndarray  # (s_cat + 1,) int64
    codes: np.ndarray  # (s_cat, n) int32

    @classmethod
    def encode(cls, cat: np.ndarray, cards) -> OneHot:
        n, s = cat.shape
        offsets = np.concatenate([[0], np.cumsum(cards, dtype=np.int64)])
        cols = (cat + offsets[:-1]).astype(np.int32)
        indptr = np.arange(n + 1) * s
        X = sparse.csr_matrix((np.ones(n * s), cols.ravel(), indptr), shape=(n, int(offsets[-1])))
        codes = np.ascontiguousarray(cols.T)
        for arr in (X.data, X.indices, X.indptr, offsets, codes):
            arr.flags.writeable = False
        return cls(X=X, offsets=offsets, codes=codes)


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
    cat_kinds: tuple[str, ...]
    semantic_ranks: tuple  # per categorical column: 1-based rank array or None
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

    @property
    def s(self) -> int:
        return self.s_categorical + self.s_numerical

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.dictionaries)

    # Value-count statistics over the effective categorical columns.
    @property
    def value_count_mean(self) -> float:
        return float(np.mean(self.cardinalities)) if self.dictionaries else 0.0

    @property
    def value_count_max(self) -> int:
        return max(self.cardinalities) if self.dictionaries else 0

    @property
    def value_count_min(self) -> int:
        return min(self.cardinalities) if self.dictionaries else 0

    def decode_row(self, i: int) -> tuple[str, ...]:
        """Original literals of row i's categorical cells."""
        return tuple(self.dictionaries[r][self.cat[i, r]] for r in range(self.s_categorical))


def load_schema(path: str | Path) -> list[AttributeSchema]:
    """Read a schema file: one ``name,kind[,value,value,...]`` line per column.

    Blank lines and ``#`` comments are ignored. The trailing values give the
    declared order of an ordinal column.
    """
    out = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].strip().startswith("#")):
                continue
            cells = [c.strip() for c in row]
            if len(cells) < 2 or not cells[0] or not cells[1]:
                raise SchemaError(f"{path}:{lineno}: expected 'name,kind[,values...]'")
            order = tuple(cells[2:]) if len(cells) > 2 else None
            out.append(AttributeSchema(cells[0], cells[1], order))
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
    """Load a header-ed CSV under a column schema.

    Value dictionaries are built in first-appearance order. Rows with any
    missing cell are dropped under ``drop_row`` and rejected under ``error``.
    Single-valued categorical columns are reported via ``Dataset.degenerate``
    rather than encoded.
    """
    if missing_policy not in MISSING_POLICIES:
        raise SchemaError(f"unknown missing policy {missing_policy!r}")
    _check_label_count(schema)
    missing = set(missing_values)

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) != len(schema):
            raise SchemaError(
                f"{path}: schema declares {len(schema)} columns, CSV header has {len(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(schema):
                raise DataError(f"{path}:{lineno}: expected {len(schema)} cells, got {len(row)}")
            if any(cell in missing for cell in row):
                if missing_policy == "error":
                    raise DataError(f"{path}:{lineno}: missing cell")
                continue
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no usable rows")
    return _encode(rows, schema, str(path))


def _encode(rows, schema, origin: str) -> Dataset:
    n = len(rows)
    cat_cols, num_cols = [], []
    dictionaries, cat_names, cat_kinds, semantic_ranks = [], [], [], []
    num_names = []
    labels = None
    label_values = None
    degenerate = []

    for j, col in enumerate(schema):
        cells = [row[j] for row in rows]
        if col.kind == "ignore":
            continue
        if col.kind == "numerical":
            try:
                values = np.array([float(c) for c in cells], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{origin}: column {col.name!r}: {exc}") from None
            if not np.all(np.isfinite(values)):
                raise DataError(f"{origin}: column {col.name!r} holds a non-finite value")
            num_cols.append(values)
            num_names.append(col.name)
            continue

        # categorical / label: dictionary by first appearance
        vocab: dict[str, int] = {}
        codes = np.empty(n, dtype=np.int32)
        for i, cell in enumerate(cells):
            codes[i] = vocab.setdefault(cell, len(vocab))
        literals = tuple(vocab)

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
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], [r for r in rows[1:] if r]
    if len(header) != len(schema):
        raise SchemaError(f"schema declares {len(schema)} columns, CSV header has {len(header)}")
    _check_label_count(schema)
    missing_policy = kwargs.get("missing_policy", "drop_row")
    missing = set(kwargs.get("missing_values", ("",)))
    kept = []
    for row in body:
        if any(cell in missing for cell in row):
            if missing_policy == "error":
                raise DataError("missing cell")
            continue
        kept.append(row)
    if not kept:
        raise DataError("no usable rows")
    return _encode(kept, schema, "<memory>")


def normalize_numerical(d: Dataset) -> Dataset:
    """Min-max scale every numerical column onto [0, 1]; constant columns go to 0."""
    if d.s_numerical == 0:
        raise DataError("dataset has no numerical columns")
    num = d.num.copy()
    lo = num.min(axis=0)
    span = num.max(axis=0) - lo
    keep = span > 0
    num[:, keep] = (num[:, keep] - lo[keep]) / span[keep]
    num[:, ~keep] = 0.0
    return Dataset(
        cat=d.cat.copy(),
        num=num,
        dictionaries=d.dictionaries,
        cat_names=d.cat_names,
        cat_kinds=d.cat_kinds,
        semantic_ranks=d.semantic_ranks,
        num_names=d.num_names,
        labels=None if d.labels is None else d.labels.copy(),
        label_values=d.label_values,
        degenerate=d.degenerate,
    )


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
    labels = np.arange(n, dtype=np.int32) % k if planted_labels else None
    label_values = tuple(f"c{m}" for m in range(k)) if planted_labels else None
    if values_per_attribute == 1:
        # every column collapses to a single value
        return Dataset(
            cat=np.empty((n, 0), dtype=np.int32),
            num=np.empty((n, 0), dtype=np.float64),
            dictionaries=(),
            cat_names=(),
            cat_kinds=(),
            semantic_ranks=(),
            num_names=(),
            labels=labels,
            label_values=label_values,
            degenerate=tuple(DegenerateColumn(f"a{r}", "v0") for r in range(s)),
        )
    cat = rng.integers(0, values_per_attribute, size=(n, s), dtype=np.int32)
    vocab = tuple(f"v{g}" for g in range(values_per_attribute))
    return Dataset(
        cat=cat,
        num=np.empty((n, 0), dtype=np.float64),
        dictionaries=tuple(vocab for _ in range(s)),
        cat_names=tuple(f"a{r}" for r in range(s)),
        cat_kinds=tuple("nominal" for _ in range(s)),
        semantic_ranks=tuple(None for _ in range(s)),
        num_names=(),
        labels=labels,
        label_values=label_values,
    )
