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
An order set's stacked ranks R (``order.OrderSet``) are read as they are into
one ``ValueDistances``, with no (l, l) table. A profile becomes one table W
(``value_costs``) of each value's cost against each cluster. Each cell is one
division of two integers below 2**53, so it is correctly rounded and the same
on every IEEE-754 machine and BLAS kernel, and equal costs are equal floats.
The profile form is ``I[c, m] / ((l - 1) * size_m)`` with ``I[c, m] = sum_g |R[c] - R[g]| * counts[m, g]``:
over the counts in rank order, with prefix sums A (counts) and B (rank x
count), the value of rank t has ``I = t (2 A(t) - A0 - A1) - 2 B(t) + B0 + B1``,
A0/B0 and A1/B1 being the sums before and through its attribute, so O(k *
sum(l)) work. Without an order it is ``(size_m - counts[m, c]) / size_m``. The
mode form is ``min(|key[c] - key[mode]| / den, 1)`` at each cluster's first
most frequent value in its counts, as ``argmax`` picks: key is the rank and
den is l - 1, or key the value's place and den 1 without an order, which
reads ``c != mode``. Then

- distances are ``X @ W / s``, with empty clusters set to +inf. The sparse
  product adds each row's s terms from zero in attribute order, without BLAS,
  per row block (``OneHot.map_rows``), so no bit depends on the block count.
  A row's distances depend only on its values, so the fit passes the
  ``OneHot.distinct`` rows where the table has that view, and the distance
  kernels return one row per distinct row;
- the profile is the integer (k, sum(l)) value counts, tallied by
  ``OneHot.counts`` over the column indices X stores (per (cluster, distinct
  row) pair where there is a view), and the cluster sizes; nothing is
  divided. Inside the fit's inner loop the counts are updated from the
  samples that changed cluster, the same integers to the bit;
- the objective total is ``fsum(counts * W.T) / s``: a sample's cost depends
  only on its (value, cluster) cell, so the total needs O(k * sum(l)) work
  and no per-sample table. ``math.fsum`` rounds the sum exactly, so the
  total does not depend on the order of the rows;
- the order refresh (``order.learn_orders``) ranks each value by its cost
  in W and returns stacked ranks again;
- the (n, n) export (``pairwise_distance_matrix``) is every sample's
  distance to n singleton clusters, ``X @ W / s`` again as one product, where
  a singleton's mode is its sample, so its cost column is the mode form at
  that sample's values: O(n * sum(l)) work and cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, OneHot


@dataclass(frozen=True)
class ClusterProfile:
    """Within-cluster integer value counts and cluster sizes, attributes stacked like ``OneHot``."""

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

    Values a and g of one attribute are ``|R[a] - R[g]| / (l - 1)`` apart over
    the stacked integer ranks R, or ``1 - delta(a, g)`` where the attribute has
    no order; ``den`` holds each column's denominator. No (l, l) table is
    built: the profile-form costs come from prefix sums over the columns in
    ``by_rank`` order, read at the rows ``prefix_rows`` names for each value.
    Every array is read-only.
    """

    ranks: np.ndarray  # (sum l,) int64 rank of each value; 0 where ``unordered``
    unordered: np.ndarray  # (sum l,) bool: the value's attribute has no order
    by_rank: np.ndarray  # (sum l,) intp: each attribute's columns by ascending rank (value order if unordered)
    prefix_rows: np.ndarray  # (3, sum l) int64: prefix row through the value's rank, its attribute's start and end
    den: np.ndarray  # (sum l,) int64: l - 1, or 1 where ``unordered``
    enc: OneHot

    def __len__(self) -> int:
        """The attribute count, over which distances average."""
        return len(self.enc.offsets) - 1


def value_distance_matrices(d: Dataset, orders) -> ValueDistances:
    """Distances between the values of every categorical attribute under the stacked ranks of ``orders``.

    An attribute whose ranks are all 0 falls back to match/mismatch distances (no usable order): 0
    between equal values, 1 otherwise. Every other attribute's integer ranks must be a bijection onto 1..l.
    """
    enc, ranks = d.onehot, orders.stacked_ranks
    if ranks.shape != enc.attribute.shape or not np.array_equal(orders.offsets, enc.offsets):
        raise ValueError("the orders are laid out for another dataset's attributes")
    if not np.can_cast(ranks.dtype, np.int64):
        raise ValueError(f"ranks must be integers; the orders hold {ranks.dtype} ranks")
    place, start, end, span = enc.segments
    unordered = ~np.logical_or.reduceat(ranks != 0, enc.offsets[:-1])[enc.attribute]  # every attribute has l >= 2
    key = np.where(unordered, place, ranks)
    by_rank = np.lexsort((key, start))
    if not np.array_equal(key[by_rank], place):
        r = enc.attribute[np.argmax(key[by_rank] != place)]
        raise ValueError(f"attribute {d.cat_names[r]!r}: ranks are not a bijection onto 1..{d.cardinalities[r]}")
    prefix_rows, den = np.stack([start + key, start, end]), np.where(unordered, 1, span)
    for arr in (unordered, by_rank, prefix_rows, den):
        arr.flags.writeable = False
    return ValueDistances(ranks, unordered, by_rank, prefix_rows, den, enc)


# A delta tallies every moved sample twice, after a gather; past these shares of
# moved samples one full tally is cheaper. Per sample: past a third (100k x 20
# rows, 2-core host). With a ``OneHot.distinct`` view the full tally adds each
# occupied (cluster, distinct row) pair once, so it is cheaper from about 5%
# moved: on 207k rows, 4% distinct (k = 2), 2.28 ms against a delta's 1.35 ms
# at 2.5% moved, 2.48 ms at 5.3%, 3.79 ms at 11% and 6.31 ms at 22%.
DELTA_MAX_MOVED = 1 / 3
DELTA_MAX_MOVED_DISTINCT = 1 / 20


def profile_from_assignment(enc: OneHot, assign: np.ndarray, k: int, prev=None) -> ClusterProfile:
    """Profile of ``assign``; ``prev`` = (assignment, profile) of an earlier partition of the same rows.

    With ``prev`` and few moved samples (see ``DELTA_MAX_MOVED``), only the
    samples whose cluster changed are tallied: their cells are added under the
    new cluster and removed under the old one. Counts are integers either way,
    so the result is the same to the bit.
    """
    moved = None if prev is None else np.flatnonzero(assign != prev[0])
    share = DELTA_MAX_MOVED if enc.distinct is None else DELTA_MAX_MOVED_DISTINCT
    if moved is None or moved.size > share * assign.size:
        sizes = np.bincount(assign, minlength=k).astype(np.int64)
        counts = enc.counts(assign, k)
    else:
        prev_assign, prev_prof = prev
        sizes = (prev_prof.sizes + np.bincount(assign[moved], minlength=k)
                 - np.bincount(prev_assign[moved], minlength=k))
        counts = prev_prof.counts + enc.counts(assign, k, moved) - enc.counts(prev_assign, k, moved)
    return ClusterProfile(sizes=sizes, counts=counts)


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
    enc, k = matrices.enc, prof.k
    if form == "profile":  # integer numerators over den * size; see the module docstring
        counts, unordered = prof.counts.T, matrices.unordered[:, None]
        cost = prof.sizes - counts  # without an order: the samples holding another value
        if not unordered.all():  # I from prefix sums A | B over the counts in rank order
            sums = np.zeros((len(counts) + 1, 2 * k), dtype=np.int64)
            sums[1:, :k] = counts[matrices.by_rank]
            np.multiply(sums[1:, :k], enc.segments[0][:, None], out=sums[1:, k:])
            np.cumsum(sums, axis=0, out=sums)
            at, before, end = sums[matrices.prefix_rows]
            x = 2 * at - before - end
            cost = np.where(unordered, cost, matrices.ranks[:, None] * x[:, :k] - x[:, k:])
        table = cost / (matrices.den[:, None] * np.maximum(prof.sizes, 1))
    elif form == "mode":  # prefix_rows[0] is start + key, and a value and its modes share a start
        key, modes = matrices.prefix_rows[0], enc.first_maxima(prof.counts).T[enc.attribute]
        table = np.minimum(np.abs(key[:, None] - key[modes]) / matrices.den[:, None], 1)
    else:
        raise ValueError(f"unknown form {form!r}")
    table.flags.writeable = False
    return table


def _distances(enc: OneHot, matrices, prof: ClusterProfile, form: str) -> np.ndarray:
    dist = mean_costs(enc, value_costs(matrices, prof, form), len(matrices))
    dist[:, prof.empty] = np.inf
    return dist


def mean_costs(enc: OneHot, table: np.ndarray, s: int) -> np.ndarray:
    """``X @ table / s`` by ``OneHot.map_rows`` blocks: each sample's costs added from zero in attribute order."""
    if len(enc.row_blocks) == 1:  # the product divided in place
        dist = enc.X @ table
        return np.divide(dist, max(s, 1), out=dist)
    dist = np.empty((enc.X.shape[0], table.shape[1]))
    enc.map_rows(lambda rows, X: np.divide(X @ table, max(s, 1), out=dist[rows]))
    return dist


def nearest_clusters(enc: OneHot, dist: np.ndarray) -> np.ndarray:
    """int32 ``dist.argmin(axis=1)`` of an (n, k) table by the row blocks of ``enc``: each row's first minimum."""
    nearest = np.empty(len(dist), dtype=np.int32)
    enc.map_rows(lambda rows, _: np.copyto(nearest[rows], dist[rows].argmin(axis=1), casting="unsafe"))
    return nearest


def cluster_distances(enc: OneHot, matrices, prof: ClusterProfile) -> np.ndarray:
    """(rows of ``enc``, k) profile-weighted distances; empty clusters are +inf columns."""
    return _distances(enc, matrices, prof, "profile")


def mode_distances(enc: OneHot, matrices, prof: ClusterProfile) -> np.ndarray:
    """(rows of ``enc``, k) distances to each cluster's most frequent value; empty -> +inf."""
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

    Sample j is singleton cluster j's mode, so the cost table's column j is the mode form at its values.
    Feeds external embedding tools; quadratic in n, so exports past ``check_pairwise_size`` raise ValueError.
    """
    check_pairwise_size(d.n, sum(d.cardinalities))
    enc, matrices = d.onehot, value_distance_matrices(d, orders)
    key, den, bounds = matrices.prefix_rows[0], matrices.den[:, None], enc.offsets.tolist()
    table = np.empty((len(key), d.n))
    for modes, a, b in zip(enc.codes.T, bounds, bounds[1:]):
        out = table[a:b]
        np.abs(np.subtract(key[a:b, None], key[modes], out=out), out=out)
        np.minimum(np.divide(out, den[a:b], out=out), 1, out=out)
    dist = enc.X @ table  # one product: per-block products would double the peak
    return np.divide(dist, max(d.s_categorical, 1), out=dist)
