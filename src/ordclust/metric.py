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
One order set becomes one ``ValueDistances``: the stacked ranks R, a mask of
the values without an order, and the per-attribute (l, l) blocks, views of
one flat array built in one pass over ``OneHot.block_index``. A profile
becomes one table W (``value_costs``) of each value's cost against each
cluster: per attribute, ``block_r @ probs[:, a:b].T`` written into its rows;
for the mode form, ``|R[c] - R[mode]| / (l - 1)`` (``1 - delta`` without an
order) at each cluster's first most frequent value, as ``argmax`` picks.
These are the per-attribute matrices' own operations, so W is the same to
the bit; one block-diagonal sparse product would reorder each row's sum and
change some fits. Then

- distances are ``X @ W / s``, with empty clusters set to +inf;
- the profile keeps the integer (k, sum(l)) value counts, tallied by
  ``OneHot.counts`` over the column indices X stores, and divides them once
  into the stacked ``ClusterProfile.probs``. Inside the fit's inner loop the
  counts are updated from the samples that changed cluster, the same
  integers, so the same frequencies to the bit;
- the objective total is ``fsum(counts * W.T) / s``: a sample's cost depends
  only on its (value, cluster) cell, so the total needs O(k * sum(l)) work
  and no per-sample table. ``math.fsum`` rounds the sum exactly, so the
  total does not depend on the order of the rows;
- the order refresh (``order.learn_orders``) ranks each value by its cost
  in W;
- the (n, n) export (``pairwise_distance_matrix``) is every sample's
  distance to n singleton clusters, ``X @ W / s`` again. A singleton's
  frequencies are one-hot, so its cost column holds one block entry per
  value: W is gathered from the blocks at each sample's values, O(n * sum(l))
  work and cells, with no counts, frequencies or block products.

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

from .data import Dataset, OneHot


@dataclass(frozen=True)
class ClusterProfile:
    """Within-cluster value frequencies and counts, attributes stacked like ``OneHot``."""

    probs: np.ndarray  # (k, sum of l_r) float64 value frequencies, attributes stacked
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


@dataclass(frozen=True, eq=False)
class ValueDistances:
    """Value-to-value distances under one order set, over the stacked columns of ``enc``.

    ``blocks[r][a, g]`` is the distance between values a and g of attribute r:
    ``|R[a] - R[g]| / (l - 1)`` over the stacked ranks R, or ``1 - delta(a, g)``
    where the attribute has no order. The blocks are views of one flat array.
    Every array is read-only.
    """

    ranks: np.ndarray  # (sum l,) float64 rank of each value; 0 where ``unordered``
    unordered: np.ndarray  # (sum l,) bool: the value's attribute has no order
    blocks: tuple  # per attribute: (l_r, l_r) float64
    enc: OneHot

    def __len__(self) -> int:
        """The attribute count, over which distances average."""
        return len(self.blocks)


def value_distance_matrices(d: Dataset, orders) -> ValueDistances:
    """Distances between the values of every categorical attribute under ``orders``.

    An attribute whose rank array is None falls back to match/mismatch
    distances (no usable order): 0 on the diagonal, 1 elsewhere. All blocks
    come from one pass over ``OneHot.block_index``.
    """
    enc = d.onehot
    span, rows, cols = enc.block_index
    ranks = np.concatenate([np.zeros(0)] + [np.zeros(l) if r is None else r  # float64, also with no attribute
                                            for r, l in zip(orders.ranks, d.cardinalities)])
    if ranks.size != enc.attribute.size:
        raise ValueError("one rank per categorical value required")
    unordered = np.array([r is None for r in orders.ranks], dtype=bool)[enc.attribute]
    flat = np.where(unordered[rows], rows != cols, np.abs(ranks[rows] - ranks[cols]) / span[rows])
    for arr in (ranks, unordered, flat):
        arr.flags.writeable = False
    blocks, at = [], 0
    for l in d.cardinalities:
        blocks.append(flat[at:at + l * l].reshape(l, l))
        at += l * l
    return ValueDistances(ranks, unordered, tuple(blocks), enc)


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
    return ClusterProfile(probs=counts / nonzero[:, None], sizes=sizes, counts=counts)


def value_costs(matrices: ValueDistances, prof: ClusterProfile, form: str) -> np.ndarray:
    """(sum of cardinalities, k) cost of each value against each cluster, attributes stacked.

    A sample holding value c costs ``W[c, m]`` on c's attribute in cluster m.
    An empty cluster's column is not a distance; callers mask it. Built once per
    (profile, distances object, form): objective, distances and refresh share it read-only.
    """
    key = (matrices, form)
    if key not in prof._costs:
        prof._costs[key] = _cost_table(matrices, prof, form)
    return prof._costs[key]


def _cost_table(matrices: ValueDistances, prof: ClusterProfile, form: str) -> np.ndarray:
    enc = matrices.enc
    if form == "profile":  # per attribute block @ probs.T, written into its rows of the table
        table = np.empty((len(matrices.ranks), prof.k))
        bounds = enc.offsets.tolist()
        for block, a, b in zip(matrices.blocks, bounds, bounds[1:]):
            np.matmul(block, prof.probs[:, a:b].T, out=table[a:b])
    elif form == "mode":  # each value against its attribute's mode in every cluster
        ranks, modes = matrices.ranks, enc.first_maxima(prof.probs).T[enc.attribute]
        table = np.abs(ranks[:, None] - ranks[modes]) / enc.block_index.span[:, None]
        table = np.where(matrices.unordered[:, None], modes != np.arange(len(ranks))[:, None], table)
    else:
        raise ValueError(f"unknown form {form!r}")
    table.flags.writeable = False
    return table


def _distances(enc: OneHot, matrices, prof: ClusterProfile, form: str) -> np.ndarray:
    dist = _mean_costs(enc, value_costs(matrices, prof, form), len(matrices))
    dist[:, prof.empty] = np.inf
    return dist


def _mean_costs(enc: OneHot, table: np.ndarray, s: int) -> np.ndarray:
    """``X @ table / s``: each sample's costs added from zero in attribute order, then averaged."""
    dist = enc.X @ table
    dist /= max(s, 1)
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


# Largest export ``pairwise_distance_matrix`` builds: 2**27 float64 cells, 1 GiB,
# for the (n, n) matrix and its (sum of cardinalities, n) cost table together.
MAX_PAIRWISE_CELLS = 2**27


def check_pairwise_size(n: int, values: int) -> None:
    """Refuse an export of n samples over ``values`` one-hot columns past ``MAX_PAIRWISE_CELLS``."""
    cells = n * (n + values)
    if cells > MAX_PAIRWISE_CELLS:
        raise ValueError(
            f"a {n}x{n} distance matrix and its {values}x{n} cost table need {cells * 8 / 2**30:.1f} GiB; "
            f"the limit is {MAX_PAIRWISE_CELLS} cells ({MAX_PAIRWISE_CELLS * 8 / 2**30:.0f} GiB)"
        )


def pairwise_distance_matrix(d: Dataset, orders) -> np.ndarray:
    """(n, n) sample-to-sample distances: each sample's distance to n singleton clusters.

    Feeds external embedding tools; quadratic in n by nature, so exports
    past ``check_pairwise_size`` raise ValueError.
    """
    check_pairwise_size(d.n, sum(d.cardinalities))
    return _mean_costs(d.onehot, _singleton_costs(d, orders), d.s_categorical)


def _singleton_costs(d: Dataset, orders) -> np.ndarray:
    """(sum of cardinalities, n) costs of n singleton clusters, sample j in cluster j.

    ``W[c, j]`` is the distance from value c to sample j's value, the one
    nonzero term of the profile form's product. Returning drops the value
    distances before the (n, n) product is allocated.
    """
    matrices = value_distance_matrices(d, orders)
    table = np.empty((len(matrices.ranks), d.n))
    bounds = d.onehot.offsets.tolist()
    for block, col, a, b in zip(matrices.blocks, d.cat.T, bounds, bounds[1:]):
        # codes are in range, and "clip" writes in place where "raise" buffers an (l, n) copy
        np.take(block, col, axis=1, out=table[a:b], mode="clip")
    return table
