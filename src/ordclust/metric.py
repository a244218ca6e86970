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
A profile becomes one table W (``value_costs``) that stacks, per attribute,
each value's cost against each cluster: ``mat_r @ probs_r.T``, or
``mat_r[:, modes_r]`` for the mode form. Then

- distances are ``X @ W / s``, with empty clusters set to +inf;
- the profile keeps the integer (k, sum(l)) value counts, tallied by
  ``OneHot.counts`` over the column indices X stores, and divides them once;
  ``ClusterProfile.probs`` holds per-attribute views of that table. Inside
  the fit's inner loop the counts are updated from the samples that changed
  cluster, the same integers, so the same frequencies to the bit;
- the objective total is ``fsum(counts * W.T) / s``: a sample's cost depends
  only on its (value, cluster) cell, so the total needs O(k * sum(l)) work
  and no per-sample table. ``math.fsum`` rounds the sum exactly, so the
  total does not depend on the order of the rows;
- the order refresh (``order.learn_orders``) ranks each value by its cost
  in W.

The distances are bit-identical to evaluating each attribute separately and
summing in attribute order. Every stored value of X is 1.0, and the sparse
product accumulates each row's s terms from zero in storage order, which is
attribute order. k-prototypes (``cluster._centre_loop``) likewise adds its
categorical mismatches onto the squared numerical distances one attribute at
a time; adding their total in one step reorders the float sum and changes
some fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, OneHot, split_columns


@dataclass(frozen=True)
class ClusterProfile:
    """Within-cluster value frequencies, one (k, cardinality) table per attribute, and their counts."""

    probs: tuple  # per attribute: (k, l_r) float64
    sizes: np.ndarray  # (k,) int64 cluster sample counts
    counts: np.ndarray  # (k, sum of l_r) int64 value counts, attributes stacked
    _costs: dict = field(default_factory=dict, init=False, compare=False, repr=False)  # value_costs memo

    @property
    def k(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def empty(self) -> np.ndarray:
        """Boolean mask of clusters that currently hold no samples."""
        return self.sizes == 0


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


# A delta tallies every moved sample twice, after a gather; past this share of
# moved samples one full tally is cheaper (100k x 20 rows, 2-core host).
DELTA_MAX_MOVED = 1 / 3


def profile_from_assignment(enc: OneHot, assign: np.ndarray, k: int, prev=None) -> ClusterProfile:
    """Profile of ``assign``; ``prev`` = (assignment, profile) of an earlier partition of the same rows.

    With ``prev`` and few moved samples, only the samples whose cluster
    changed are tallied: their cells are added under the new cluster and
    removed under the old one. Counts are integers either way, so the result
    is the same to the bit.
    """
    moved = None if prev is None else np.flatnonzero(assign != prev[0])
    if moved is None or moved.size > DELTA_MAX_MOVED * assign.size:
        sizes = np.bincount(assign, minlength=k).astype(np.int64)
        counts = enc.counts(assign, k)
    else:
        prev_assign, prev_prof = prev
        sizes = (prev_prof.sizes + np.bincount(assign[moved], minlength=k)
                 - np.bincount(prev_assign[moved], minlength=k))
        counts = prev_prof.counts + enc.counts(assign, k, moved) - enc.counts(prev_assign, k, moved)
    nonzero = np.where(sizes > 0, sizes, 1).astype(np.float64)
    probs = counts / nonzero[:, None]
    return ClusterProfile(probs=split_columns(probs, enc.offsets), sizes=sizes, counts=counts)


def value_costs(matrices, prof: ClusterProfile, form: str) -> np.ndarray:
    """(sum of cardinalities, k) cost of each value against each cluster, attributes stacked.

    A sample holding value c costs ``W[c, m]`` on c's attribute in cluster m.
    An empty cluster's column is not a distance; callers mask it. Built once per
    (profile, matrices tuple, form): objective, distances and refresh share it read-only.
    """
    key = (id(matrices), form)  # the entry keeps ``matrices`` alive, so its id is not reused
    if key not in prof._costs:
        prof._costs[key] = (matrices, _cost_table(matrices, prof, form))
    return prof._costs[key][1]


def _cost_table(matrices, prof: ClusterProfile, form: str) -> np.ndarray:
    if form == "profile":
        table = np.vstack([mat @ probs.T for mat, probs in zip(matrices, prof.probs)])
    elif form == "mode":
        table = np.vstack([mat[:, probs.argmax(axis=1)] for mat, probs in zip(matrices, prof.probs)])
    else:
        raise ValueError(f"unknown form {form!r}")
    table.flags.writeable = False
    return table


def _distances(enc: OneHot, matrices, prof: ClusterProfile, form: str) -> np.ndarray:
    dist = enc.X @ value_costs(matrices, prof, form)
    dist /= max(len(matrices), 1)
    dist[:, prof.empty] = np.inf
    return dist


def cluster_distances(enc: OneHot, matrices, prof: ClusterProfile) -> np.ndarray:
    """(n, k) profile-weighted distances; empty clusters are +inf columns."""
    return _distances(enc, matrices, prof, "profile")


def mode_distances(enc: OneHot, matrices, prof: ClusterProfile) -> np.ndarray:
    """(n, k) distances to each cluster's most frequent value; empty -> +inf."""
    return _distances(enc, matrices, prof, "mode")


def objective(d: Dataset, q, orders, form: str = "profile") -> float:
    """Clustering objective of partition ``q`` under ``orders``.

    ``form`` selects the per-attribute sample-cluster distance: the
    profile-weighted form (default) or the distance to the cluster's modal
    value, used by the no-probability-weight ablation.
    """
    prof = profile_from_assignment(d.onehot, q.assign, q.k)
    return objective_total(value_distance_matrices(d, orders), prof, form)


def objective_total(matrices, prof: ClusterProfile, form: str = "profile") -> float:
    """Objective value only; the fast path for iteration loops.

    Every sample with value c in cluster m costs W[c, m], so the total is
    the exactly rounded sum of ``counts * W.T`` over the (k, sum l) table.
    """
    cells = prof.counts * value_costs(matrices, prof, form).T
    return math.fsum(cells.ravel().tolist()) / max(len(matrices), 1)


# Largest (n, n) matrix ``pairwise_distance_matrix`` builds: 2**27 float64 cells, 1 GiB.
MAX_PAIRWISE_CELLS = 2**27
PAIRWISE_BLOCK_CELLS = 2**16  # cells of one row block's term, the export's only temporary


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
    out = np.zeros((d.n, d.n))
    step = max(1, PAIRWISE_BLOCK_CELLS // d.n)
    for lo in range(0, d.n, step):  # every entry adds its attribute terms in attribute order
        for mat, col in zip(matrices, d.cat.T):
            out[lo:lo + step] += mat[np.ix_(col[lo:lo + step], col)]
    out /= max(len(matrices), 1)
    return out
