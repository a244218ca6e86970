import dataclasses
import os
from fractions import Fraction

import numpy as np
import pytest

from ordclust import cluster, data, oracle
from ordclust.data import Dataset, split_columns

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_dataset(columns, labels=None, semantic=None, num=None):
    """Build a Dataset from literal columns: each column is a list of strings."""
    n = len(columns[0]) if columns else len(num)
    cat_cols, dictionaries = [], []
    for col in columns:
        vocab = {}
        codes = np.empty(n, dtype=np.int32)
        for i, v in enumerate(col):
            codes[i] = vocab.setdefault(v, len(vocab))
        cat_cols.append(codes)
        dictionaries.append(tuple(vocab))
    s = len(columns)
    label_arr = None
    label_values = None
    if labels is not None:
        vocab = {}
        label_arr = np.array([vocab.setdefault(v, len(vocab)) for v in labels], dtype=np.int32)
        label_values = tuple(vocab)
    num_arr = np.asarray(num, dtype=np.float64) if num is not None else np.empty((n, 0))
    if num_arr.ndim == 1:
        num_arr = num_arr[:, None]
    return Dataset(
        cat=np.column_stack(cat_cols) if cat_cols else np.empty((n, 0), dtype=np.int32),
        num=num_arr,
        dictionaries=tuple(dictionaries),
        cat_names=tuple(f"a{j}" for j in range(s)),
        semantic_ranks=tuple(semantic) if semantic else tuple(None for _ in range(s)),
        num_names=tuple(f"x{j}" for j in range(num_arr.shape[1])),
        labels=label_arr,
        label_values=label_values,
    )


def split_rows(monkeypatch, d, blocks):
    """A fresh copy of ``d`` whose kernels run its one-hot rows in ``blocks`` row blocks (fewer only
    when it has fewer cells): one cell per block suffices, and ``blocks`` CPUs are usable."""
    monkeypatch.setattr(data, "ROW_BLOCK_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(blocks)))
    return dataclasses.replace(d)


def exact_profile_costs(d, prof, orders):
    """(sum l, k) profile-form costs from exact integers: ``float(Fraction(I, den * size))`` per cell.

    ``I[c, m] = sum_g dist[c, g] * counts[m, g]`` over the integer distances
    ``dist = den * oracle.build_distance_table(d, orders).matrices[r]``, den
    being l - 1, or 1 where the attribute has no order. An empty cluster's
    cells are 0.
    """
    rows = []
    mats = oracle.build_distance_table(d, orders).matrices
    for mat, ranks, count in zip(mats, orders.ranks, split_columns(prof.counts, d.onehot.offsets)):
        den = 1 if ranks is None else len(mat) - 1
        dist = np.rint(mat * den).astype(np.int64)
        assert (dist / den == mat).all()  # the oracle's entries, as integers over den
        rows += [[float(Fraction(int(i), den * max(int(size), 1))) for i, size in zip(row, prof.sizes)]
                 for row in dist @ count.T]
    return np.array(rows, dtype=np.float64).reshape(-1, prof.k)


def frequencies(prof):
    """(k, sum l) within-cluster value frequencies of a profile; an empty cluster's row is 0."""
    return prof.counts / np.maximum(prof.sizes, 1)[:, None]


def minmax_columns(num):
    """Per-column min-max scaling of an (n, s_num) table, constant columns to 0."""
    num = num.copy()
    lo, span = num.min(axis=0), num.max(axis=0) - num.min(axis=0)
    keep = span > 0
    num[:, keep] = (num[:, keep] - lo[keep]) / span[keep]
    num[:, ~keep] = 0.0
    return num


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def kmodes_calls(monkeypatch):
    """Seeds of every ``cluster.fit_kmodes`` call, counted at the module name the fit looks up."""
    calls, fit_kmodes = [], cluster.fit_kmodes

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return fit_kmodes(*args, **kwargs)

    monkeypatch.setattr(cluster, "fit_kmodes", counted)
    return calls
