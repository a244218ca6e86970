"""Clustering validity: accuracy under optimal matching, ARI, NMI, compactness.

Accuracy and ARI are computed in exact integer arithmetic with a single,
correctly rounded division, so independent implementations of the same
quantity produce bit-identical floats. Entropy-based scores accumulate their
per-cell terms with ``math.fsum``, which is order-independent, for the same
reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import Dataset, split_columns


def _as_labels(x) -> np.ndarray:
    a = np.asarray(getattr(x, "assign", x))
    if a.ndim != 1:
        raise ValueError("labels must be a flat sequence")
    return a


def _check_pair(pred, truth):
    p, t = _as_labels(pred), _as_labels(truth)
    if p.shape[0] != t.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions vs {t.shape[0]} labels")
    if p.shape[0] == 0:
        raise ValueError("empty label sequences")
    return p, t


def contingency(pred, truth) -> np.ndarray:
    """Joint count table; rows are predicted clusters, columns true labels, each in ascending
    order of the labels that occur. Small non-negative integer labels take one ``bincount``."""
    p, t = _check_pair(pred, truth)
    if p.dtype.kind in "iu" and t.dtype.kind in "iu" and p.min() >= 0 and t.min() >= 0:
        kp, kt = int(p.max()) + 1, int(t.max()) + 1
        if kp * kt <= 8 * p.size:  # the dense table holds at most 8 cells per sample
            cells = p.astype(np.int64) * kt + t.astype(np.int64)
            table = np.bincount(cells, minlength=kp * kt).reshape(kp, kt)
            return table[table.any(axis=1)][:, table.any(axis=0)]  # the labels that occur
    _, pi = np.unique(p, return_inverse=True)
    _, ti = np.unique(t, return_inverse=True)
    kp, kt = pi.max() + 1, ti.max() + 1
    return np.bincount(pi * kt + ti, minlength=kp * kt).reshape(kp, kt)


def clustering_accuracy(pred, truth) -> float:
    """Best one-to-one cluster/label matching accuracy.

    The matching is solved exactly on the (padded square) joint count table,
    so relabeling the prediction never changes the score.
    """
    return _accuracy(contingency(pred, truth))


def _accuracy(table: np.ndarray) -> float:
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(padded, maximize=True)
    matched = int(padded[rows, cols].sum())
    return matched / int(table.sum())


def adjusted_rand_index(pred, truth) -> float:
    """Pair-counting agreement corrected for chance; 1 means identical structure."""
    return _ari(contingency(pred, truth))


def _ari(table: np.ndarray) -> float:
    # (cells - expected) / (maximum - expected) over pair counts, expected = rows * cols / pairs
    # and maximum = (rows + cols) / 2, scaled by 2 * pairs: one correctly rounded int / int
    n = int(table.sum())
    pairs = n * (n - 1) // 2
    cells, rows, cols = (int((x * (x - 1)).sum()) // 2 for x in (table, table.sum(1), table.sum(0)))
    den = pairs * (rows + cols) - 2 * rows * cols
    if den == 0:  # one sample, or both partitions trivially fine or trivially coarse
        return 1.0 if cells * pairs == rows * cols else 0.0
    return 2 * (pairs * cells - rows * cols) / den


def _entropy_terms(counts: list, n: int) -> list[float]:
    return [-(c / n) * math.log(c / n) for c in counts if c > 0]


def normalized_mutual_info(pred, truth) -> float:
    """Mutual information scaled by the arithmetic mean of the two entropies.

    One constant partition scores 0 against anything non-constant; two
    constant partitions score 1.
    """
    return _nmi(contingency(pred, truth))


def _nmi(table: np.ndarray) -> float:
    n = int(table.sum())
    rows, cols = table.sum(axis=1).tolist(), table.sum(axis=0).tolist()
    hp = math.fsum(_entropy_terms(rows, n))
    ht = math.fsum(_entropy_terms(cols, n))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    mi = math.fsum((c / n) * math.log((n * c) / (rows[i] * cols[j]))
                   for i, row in enumerate(table.tolist()) for j, c in enumerate(row) if c > 0)
    return mi / ((hp + ht) / 2.0)


def compactness(d: Dataset, pred) -> float:
    """Mean normalized within-cluster value entropy; 0 is perfectly pure.

    Empty clusters are left out of both the sum and the divisor.
    """
    p = _as_labels(pred)
    if p.shape[0] != d.n:
        raise ValueError("partition length does not match the dataset")
    k = int(p.max()) + 1 if p.size else 0
    sizes = np.bincount(p, minlength=k)
    live = np.where(sizes > 0)[0]
    if d.s_categorical == 0 or live.size == 0:
        return 0.0
    enc = d.onehot
    probs = enc.counts(p, k)[live] / sizes[live, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.where(probs > 0, -probs * np.log(probs), 0.0)
    total = 0.0
    for cell, l in zip(split_columns(cells, enc.offsets), d.cardinalities):
        total += float(cell.sum(axis=1).sum()) / math.log(l)
    return total / (d.s_categorical * live.size)


@dataclass(frozen=True)
class RunMetrics:
    ca: float
    ari: float
    nmi: float
    cmp: float


SCORES = tuple(f.name for f in fields(RunMetrics))  # the score names, in every output's order


@dataclass(frozen=True)
class MetricReport:
    """The mean and sample standard deviation of per-run scores."""

    mean: RunMetrics
    std: RunMetrics


def score(d: Dataset, pred, truth=None) -> RunMetrics:
    """All four scores for one partition; label-based ones need ground truth."""
    nan = float("nan")
    ca = ari = nmi = nan
    if truth is not None:
        table = contingency(pred, truth)
        ca, ari, nmi = _accuracy(table), _ari(table), _nmi(table)
    return RunMetrics(ca=ca, ari=ari, nmi=nmi, cmp=compactness(d, pred))


def aggregate(per_seed: list[RunMetrics]) -> MetricReport:
    """Mean and sample standard deviation over runs (std 0 for a single run)."""
    if not per_seed:
        raise ValueError("need at least one run")
    columns = {name: [getattr(m, name) for m in per_seed] for name in SCORES}
    mean = RunMetrics(**{name: float(np.mean(xs)) for name, xs in columns.items()})
    std = RunMetrics(**{name: float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0 for name, xs in columns.items()})
    return MetricReport(mean=mean, std=std)
