import numpy as np
import pytest

from ordclust import cluster
from ordclust.data import Dataset

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_dataset(columns, labels=None, kinds=None, semantic=None, num=None):
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
        cat_kinds=tuple(kinds) if kinds else tuple("nominal" for _ in range(s)),
        semantic_ranks=tuple(semantic) if semantic else tuple(None for _ in range(s)),
        num_names=tuple(f"x{j}" for j in range(num_arr.shape[1])),
        labels=label_arr,
        label_values=label_values,
    )


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
