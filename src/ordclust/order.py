"""Learning integer value orders from a partition.

The paper places each (cluster, attribute) row's values by link density: a
value's within-cluster frequency divided by its contribution to the
objective. For a present value that is (c / size) / (c * W[g, m]) =
1 / (size * W[g, m]), with W the value costs of ``metric.value_costs``, so
descending density within a row is ascending cost. A refresh therefore
ranks each row's present values by ascending cost, absent values last, ties
by value index, and never divides: equal costs stay equal. Values are placed
on a line by that rank (lowest cost in the middle, alternating outward), and
the per-cluster placements are blended by cluster size into one integer rank
per value. A refresh is handed the profile and value distance matrices the
fit already holds for its partition and orders, and rebuilds neither.

A refresh works on the stacked (k, sum(l)) layout of ``Dataset.onehot``
(attribute r owns columns ``offsets[r]:offsets[r + 1]``), so it makes a fixed
number of numpy calls rather than a few per (cluster, attribute) row, and
no pass over the samples. Every row's cost ranks come from one ``lexsort``
keyed by (value index, cost, segment), and the closed-form placement applies
to the whole table. The consensus keeps one ``weights @ positions`` product
per attribute, the summation order of the per-attribute form, and ranks all
scores with one more ``lexsort``. The per-row reference
(``oracle.per_row_orders``) gives identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metric
from .data import Dataset, split_columns


@dataclass(frozen=True)
class OrderSet:
    """Per-attribute rank arrays; ``ranks[r][g]`` is the 1-based rank of value g.

    A ``None`` entry means the attribute carries no order and is measured by
    match/mismatch distances instead.
    """

    ranks: tuple
    scores: tuple | None = None  # fractional consensus scores when learned

    def validate(self, d: Dataset) -> None:
        if len(self.ranks) != d.s_categorical:
            raise ValueError("one rank array per categorical attribute required")
        for r, ranks in enumerate(self.ranks):
            if ranks is None:
                continue
            l = d.cardinalities[r]
            if sorted(np.asarray(ranks).tolist()) != list(range(1, l + 1)):
                raise ValueError(f"attribute {d.cat_names[r]!r}: ranks are not a bijection onto 1..{l}")


def dictionary_orders(d: Dataset) -> OrderSet:
    """First-appearance ranks: value g gets rank g+1."""
    return OrderSet(tuple(np.arange(1, l + 1, dtype=np.int64) for l in d.cardinalities))


def hamming_orders(d: Dataset) -> OrderSet:
    """No orders anywhere: every attribute measured by match/mismatch."""
    return OrderSet(tuple(None for _ in d.cardinalities))


def random_orders(d: Dataset, rng: np.random.Generator) -> OrderSet:
    """One uniform random rank bijection per attribute."""
    return OrderSet(tuple(rng.permutation(l).astype(np.int64) + 1 for l in d.cardinalities))


def semantic_orders(d: Dataset) -> OrderSet:
    """Declared ranks for ordinal attributes, match/mismatch for the rest.

    Raises if the schema declared no ordinal attribute at all.
    """
    if not any(ranks is not None for ranks in d.semantic_ranks):
        raise ValueError("no attribute declares a semantic order; semantic mode is inapplicable")
    return OrderSet(tuple(r if r is None else r.copy() for r in d.semantic_ranks))


def _segment_ranks(keys: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """1-based ascending ranks of ``keys`` within each (row, attribute) segment.

    Ties break by value index. One lexsort over (value index, key, segment);
    segments stay in place under that sort, so a value's rank is its sorted
    position minus its segment's start.
    """
    lengths = np.tile(np.diff(offsets), keys.shape[0])
    segment = np.repeat(np.arange(lengths.size), lengths)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat = np.arange(keys.size)
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[np.lexsort((flat, keys.ravel(), segment))] = flat - start + 1
    return ranks.reshape(keys.shape)


def per_cluster_orders(ranks: np.ndarray, offsets: np.ndarray) -> tuple:
    """Closed-form unimodal placement of every (cluster, attribute) row at once.

    ``ranks`` are the stacked (k, sum l) 1-based ranks within each row. The
    rank-1 value lands on the central position ceil(l/2); later ranks
    alternate right, left, right, ... at growing offsets, a bijection onto 1..l.
    Returns per attribute the (k, l_r) int64 positions.
    """
    centre = np.repeat((np.diff(offsets) + 1) // 2, np.diff(offsets))
    positions = centre - np.where(ranks % 2 == 1, 1, -1) * (ranks // 2)
    return split_columns(positions, offsets)


def consensus_order(positions: tuple, cluster_sizes: np.ndarray, n: int):
    """Cluster-size-weighted mean of per-cluster ``positions``, sorted into integer ranks.

    Empty clusters carry zero weight. Returns (rank arrays, fractional score
    arrays); ties in the scores break by ascending value index.
    """
    sizes = np.asarray(cluster_sizes, dtype=np.float64)
    if int(sizes.sum()) != n:
        raise ValueError("cluster sizes must sum to the sample count")
    weights = sizes / n
    scores = tuple(weights @ pos for pos in positions)
    offsets = np.concatenate([[0], np.cumsum([sc.shape[0] for sc in scores])])
    ranks = _segment_ranks(np.concatenate(scores)[None, :], offsets)[0]
    return split_columns(ranks, offsets), scores


def learn_orders(
    d: Dataset,
    prof: metric.ClusterProfile,
    matrices: metric.ValueDistances,
    current: OrderSet,
    form: str = "profile",
    frozen: tuple | None = None,
) -> OrderSet:
    """One full order refresh from a partition's profile.

    ``prof`` is the partition's profile and ``matrices`` the value distances
    of ``current`` (``metric.value_distance_matrices(d, current)``), the tables
    the fit already holds. Costs are taken under the orders of the previous
    round, so the refresh sees the metric it is about to replace. Within each
    (cluster, attribute) row, present values rank by ascending cost (the
    paper's descending link density), absent values last, ties by value
    index. Attributes with two values pass through unchanged (any order
    induces the same distances), as do attributes marked frozen.
    """
    if not prof.sizes.any():
        raise ValueError("all clusters are empty")
    offsets = d.onehot.offsets
    cost = np.where(prof.counts > 0, metric.value_costs(matrices, prof, form).T, np.inf)
    positions = per_cluster_orders(_segment_ranks(cost, offsets), offsets)
    ranks, scores = consensus_order(positions, prof.sizes, d.n)

    out_ranks, out_scores = [], []
    for r, l in enumerate(d.cardinalities):
        keep = l <= 2 or (frozen is not None and frozen[r])
        if keep:
            prev = current.ranks[r]
            out_ranks.append(None if prev is None else np.asarray(prev, dtype=np.int64).copy())
            out_scores.append(None)
        else:
            out_ranks.append(ranks[r])
            out_scores.append(scores[r])
    return OrderSet(ranks=tuple(out_ranks), scores=tuple(out_scores))
