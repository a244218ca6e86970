"""Clustering validity: accuracy under optimal matching, ARI, NMI, compactness.

Accuracy and ARI are computed in exact integer/rational arithmetic with a
single final division, so independent implementations of the same quantity
produce bit-identical floats. Entropy-based scores accumulate their per-cell
terms with ``math.fsum``, which is order-independent, for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Joint count table; rows are predicted clusters, columns true labels."""
    p, t = _check_pair(pred, truth)
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


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def adjusted_rand_index(pred, truth) -> float:
    """Pair-counting agreement corrected for chance; 1 means identical structure."""
    return _ari(contingency(pred, truth))


def _ari(table: np.ndarray) -> float:
    n = int(table.sum())
    sum_cells = sum(_comb2(int(v)) for v in table.flat)
    sum_rows = sum(_comb2(int(v)) for v in table.sum(axis=1))
    sum_cols = sum(_comb2(int(v)) for v in table.sum(axis=0))
    pairs = _comb2(n)
    if pairs == 0:
        return 1.0
    expected = Fraction(sum_rows * sum_cols, pairs)
    maximum = Fraction(sum_rows + sum_cols, 2)
    if maximum == expected:
        # both trivially fine or trivially coarse partitions
        return 1.0 if Fraction(sum_cells) == expected else 0.0
    return float((Fraction(sum_cells) - expected) / (maximum - expected))


def _entropy_terms(counts: np.ndarray, n: int) -> list[float]:
    return [-(c / n) * math.log(c / n) for c in counts.tolist() if c > 0]


def normalized_mutual_info(pred, truth) -> float:
    """Mutual information scaled by the arithmetic mean of the two entropies.

    One constant partition scores 0 against anything non-constant; two
    constant partitions score 1.
    """
    return _nmi(contingency(pred, truth))


def _nmi(table: np.ndarray) -> float:
    n = int(table.sum())
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    hp = math.fsum(_entropy_terms(rows, n))
    ht = math.fsum(_entropy_terms(cols, n))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    terms = []
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            c = int(table[i, j])
            if c > 0:
                terms.append((c / n) * math.log((n * c) / (int(rows[i]) * int(cols[j]))))
    mi = math.fsum(terms)
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
    counts = enc.counts(p, k)[live]
    total = 0.0
    for cell, l in zip(split_columns(counts, enc.offsets), d.cardinalities):
        probs = cell / sizes[live, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(probs > 0, -probs * np.log(probs), 0.0).sum(axis=1)
        total += float(h.sum()) / math.log(l)
    return total / (d.s_categorical * live.size)


@dataclass(frozen=True)
class RunMetrics:
    ca: float
    ari: float
    nmi: float
    cmp: float

    def as_dict(self) -> dict:
        return {"ca": self.ca, "ari": self.ari, "nmi": self.nmi, "cmp": self.cmp}


@dataclass(frozen=True)
class MetricReport:
    """Per-run scores plus their mean and sample standard deviation."""

    runs: tuple
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

    def stat(fn):
        vals = {}
        for key in ("ca", "ari", "nmi", "cmp"):
            xs = [m.as_dict()[key] for m in per_seed]
            vals[key] = fn(xs)
        return RunMetrics(**vals)

    mean = stat(lambda xs: float(np.mean(xs)))
    std = stat(lambda xs: float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0)
    return MetricReport(runs=tuple(per_seed), mean=mean, std=std)
