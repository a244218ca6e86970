"""Order-aware distances between samples and clusters, and the fit objective.

A rank assignment over an attribute's values induces a normalized distance
between any two values: the absolute rank difference divided by the largest
possible difference. A sample's distance to a cluster on one attribute is the
probability-weighted mean of its value's distances to every value observed in
that cluster; the overall distance averages the per-attribute terms.

The kernels work on the Dataset's one-hot encoding (``Dataset.onehot``): a
CSR matrix X with one column per (attribute, value) and exactly s ones per
row, stored in attribute order. Per-(cluster, value) tables share its stacked
(k, sum(l)) layout, attribute r owning columns ``offsets[r]:offsets[r + 1]``.
A profile becomes one table W that stacks, per attribute, each value's cost
against each cluster: ``mat_r @ probs_r.T``, or ``mat_r[:, modes_r]`` for the
mode form. Then

- distances are ``X @ W / s``, with empty clusters set to +inf;
- the profile is one ``bincount`` over ``assign * sum(l) + column``, divided
  once; ``ClusterProfile.probs`` holds per-attribute views of that table;
- the objective gathers, per attribute, each sample's row of W at its own
  cluster and sums those rows attribute by attribute;
- the objective report's per-value costs are one weighted ``bincount`` over
  the same cells as the profile.

The results are bit-identical to evaluating each attribute separately and
summing in attribute order. Every stored value of X is 1.0, and the sparse
product accumulates each row's s terms from zero in storage order, which is
attribute order. A report cell belongs to one attribute and receives its
costs in sample order, as the per-attribute ``bincount`` did. The objective
total deliberately stays one contiguous cost row per attribute, summed by
numpy: gathering all s rows into one (s, n) array and summing it keeps the
result but allocates n*s floats per inner iteration; one capped fit of
100k x 20 rows (60 iterations, 2-core host) took 2.7 s that way against
1.8 s. k-prototypes (``cluster._centre_loop``)
likewise adds its categorical mismatches onto the squared numerical
distances one attribute at a time; adding their total in one step reorders
the float sum and changes some fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, OneHot, split_columns


@dataclass(frozen=True)
class ClusterProfile:
    """Within-cluster value frequencies, one (k, cardinality) table per attribute."""

    probs: tuple  # per attribute: (k, l_r) float64
    sizes: np.ndarray  # (k,) int64 cluster sample counts

    @property
    def k(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def empty(self) -> np.ndarray:
        """Boolean mask of clusters that currently hold no samples."""
        return self.sizes == 0


@dataclass(frozen=True)
class ObjectiveReport:
    """Objective total plus its per-cluster / per-value decompositions."""

    total: float
    per_cluster_attribute: np.ndarray  # (k, s_cat)
    per_value: tuple  # per attribute: (k, l_r)


def rank_difference_matrix(ranks: np.ndarray) -> np.ndarray:
    """Normalized pairwise rank differences for one attribute's values."""
    l = ranks.shape[0]
    if l < 2:
        raise ValueError("attributes with a single value have no distance structure")
    r = np.asarray(ranks, dtype=np.float64)
    return np.abs(r[:, None] - r[None, :]) / (l - 1)


def value_distance_matrices(d: Dataset, orders) -> tuple:
    """Distance matrices for every categorical attribute under ``orders``.

    An attribute whose rank array is None falls back to match/mismatch
    distances (no usable order): 0 on the diagonal, 1 elsewhere.
    """
    return tuple(
        1.0 - np.eye(card) if orders.ranks[r] is None else rank_difference_matrix(orders.ranks[r])
        for r, card in enumerate(d.cardinalities)
    )


def compute_profile(d: Dataset, q) -> ClusterProfile:
    """Within-cluster relative value frequencies for a partition.

    Empty clusters get an all-zero row; callers treat them via
    ``ClusterProfile.empty``.
    """
    return profile_from_assignment(d.onehot, q.assign, q.k)


def profile_from_assignment(enc: OneHot, assign: np.ndarray, k: int) -> ClusterProfile:
    sizes = np.bincount(assign, minlength=k).astype(np.int64)
    nonzero = np.where(sizes > 0, sizes, 1).astype(np.float64)
    width = int(enc.offsets[-1])
    counts = np.bincount((assign * width + enc.codes).ravel(), minlength=k * width)
    probs = counts.reshape(k, width) / nonzero[:, None]
    return ClusterProfile(probs=split_columns(probs, enc.offsets), sizes=sizes)


def _weights(matrices, prof: ClusterProfile, form: str) -> np.ndarray:
    """(sum of cardinalities, k) cost of each value against each cluster, attributes stacked."""
    if form == "profile":
        return np.vstack([mat @ probs.T for mat, probs in zip(matrices, prof.probs)])
    if form == "mode":
        return np.vstack([mat[:, probs.argmax(axis=1)] for mat, probs in zip(matrices, prof.probs)])
    raise ValueError(f"unknown form {form!r}")


def _distances(enc: OneHot, matrices, prof: ClusterProfile, form: str) -> np.ndarray:
    dist = enc.X @ _weights(matrices, prof, form)
    dist /= max(len(matrices), 1)
    dist[:, prof.empty] = np.inf
    return dist


def cluster_distances(enc: OneHot, matrices, prof: ClusterProfile) -> np.ndarray:
    """(n, k) profile-weighted distances; empty clusters are +inf columns."""
    return _distances(enc, matrices, prof, "profile")


def mode_distances(enc: OneHot, matrices, prof: ClusterProfile) -> np.ndarray:
    """(n, k) distances to each cluster's most frequent value; empty -> +inf."""
    return _distances(enc, matrices, prof, "mode")


def objective(d: Dataset, q, orders, form: str = "profile") -> ObjectiveReport:
    """Evaluate the clustering objective of a partition under given orders.

    ``form`` selects the per-attribute sample-cluster distance: the
    profile-weighted form (default) or the distance to the cluster's modal
    value, used by the no-probability-weight ablation.
    """
    matrices = value_distance_matrices(d, orders)
    return objective_report(d.onehot, matrices, compute_profile(d, q), q.assign, form)


def objective_report(enc: OneHot, matrices, prof: ClusterProfile, assign, form: str = "profile") -> ObjectiveReport:
    k, s, width = prof.k, len(matrices), int(enc.offsets[-1])
    cost = _weights(matrices, prof, form).ravel().take(enc.codes * k + assign)
    # Each (cluster, column) cell sums one attribute's costs in sample order.
    cells = np.bincount((assign * width + enc.codes).ravel(), weights=cost.ravel(), minlength=k * width)
    per_value = split_columns(cells.reshape(k, width), enc.offsets)
    per_ca = np.zeros((k, s))
    for r, cell in enumerate(per_value):
        per_ca[:, r] = cell.sum(axis=1)
    total = float(per_ca.sum()) / max(s, 1)
    return ObjectiveReport(total=total, per_cluster_attribute=per_ca, per_value=per_value)


def objective_total(enc: OneHot, matrices, prof: ClusterProfile, assign, form: str = "profile") -> float:
    """Objective value only; the fast path for iteration loops.

    Sums, attribute by attribute, one contiguous row of every sample's cost
    against its own cluster.
    """
    w = _weights(matrices, prof, form).ravel()
    total = 0.0
    for cells in enc.codes * prof.k + assign:
        total += float(w.take(cells).sum())
    return total / max(len(matrices), 1)


# Largest (n, n) matrix ``pairwise_distance_matrix`` builds: 2**27 float64 cells, 1 GiB.
MAX_PAIRWISE_CELLS = 2**27


def check_pairwise_size(n: int) -> None:
    """Refuse a sample count whose (n, n) distance matrix exceeds ``MAX_PAIRWISE_CELLS``."""
    if n * n > MAX_PAIRWISE_CELLS:
        raise ValueError(
            f"a {n}x{n} distance matrix needs {n * n * 8 / 2**30:.1f} GiB; "
            f"the limit is {MAX_PAIRWISE_CELLS} cells ({MAX_PAIRWISE_CELLS * 8 / 2**30:.0f} GiB)"
        )


def pairwise_distance_matrix(d: Dataset, orders) -> np.ndarray:
    """(n, n) sample-to-sample distances: mean normalized rank difference.

    Feeds external embedding tools; quadratic in n by nature, so sample
    counts past ``check_pairwise_size`` raise ValueError.
    """
    check_pairwise_size(d.n)
    matrices = value_distance_matrices(d, orders)
    n = d.n
    out = np.zeros((n, n))
    for r, mat in enumerate(matrices):
        col = d.cat[:, r]
        out += mat[np.ix_(col, col)]
    out /= max(len(matrices), 1)
    return out
