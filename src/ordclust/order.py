"""Learning integer value orders from a partition.

Per cluster and attribute, each value gets a link density: its within-cluster
frequency divided by its contribution to the objective. Values are placed on
a line by descending density (densest in the middle, alternating outward),
and the per-cluster placements are blended by cluster size into one integer
rank per value.

A refresh works on the stacked (k, sum(l)) layout of ``Dataset.onehot``
(attribute r owns columns ``offsets[r]:offsets[r + 1]``), so it makes a fixed
number of numpy calls rather than a few per (cluster, attribute) row. The
density is one elementwise pass over the stacked profile and cost tables;
every row's density ranks come from one ``lexsort`` keyed by (value index,
density, segment), and the closed-form placement applies to the whole table.
The consensus keeps one ``weights @ positions`` product per attribute, the
summation order of the per-attribute form, and ranks all scores with one
more ``lexsort``. The per-row reference (``oracle.rank_descending``,
``oracle.unimodal_place``) gives identical results.
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

    def has_order(self, r: int) -> bool:
        return self.ranks[r] is not None


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


@dataclass(frozen=True)
class LinkDensityTable:
    """Per (cluster, attribute, value) link densities and their descending ranks.

    Both tables are stacked (k, sum of cardinalities); attribute r owns
    columns ``offsets[r]:offsets[r + 1]``, as in ``Dataset.onehot``.
    """

    stacked_density: np.ndarray  # (k, sum l) float64, +inf marks zero-cost values
    stacked_ranks: np.ndarray  # (k, sum l) int64, 1-based descending ranks per attribute
    offsets: np.ndarray  # (s + 1,) int64

    @property
    def density(self) -> tuple:
        """Per attribute: (k, l_r) views of ``stacked_density``."""
        return split_columns(self.stacked_density, self.offsets)

    @property
    def ranks(self) -> tuple:
        """Per attribute: (k, l_r) views of ``stacked_ranks``."""
        return split_columns(self.stacked_ranks, self.offsets)


@dataclass(frozen=True)
class PerClusterOrder:
    """Value positions chosen independently within each cluster."""

    positions: tuple  # per attribute: (k, l_r) int64


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


def link_density(prof: metric.ClusterProfile, obj: metric.ObjectiveReport) -> LinkDensityTable:
    """Frequency / objective-contribution ratio per value.

    Absent values (zero frequency) get density 0; values present at zero
    objective cost get +inf so they outrank every finite density.
    """
    offsets = np.concatenate([[0], np.cumsum([p.shape[1] for p in prof.probs])])
    probs, cost = np.hstack(prof.probs), np.hstack(obj.per_value)
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(probs > 0, probs / cost, 0.0)
    density[(probs > 0) & (cost == 0)] = np.inf
    return LinkDensityTable(density, _segment_ranks(-density, offsets), offsets)


def per_cluster_orders(density: LinkDensityTable) -> PerClusterOrder:
    """Closed-form unimodal placement of every (cluster, attribute) row at once.

    The rank-1 value lands on the central position ceil(l/2); later ranks
    alternate right, left, right, ... at growing offsets, a bijection onto 1..l.
    """
    rank = density.stacked_ranks
    centre = np.repeat((np.diff(density.offsets) + 1) // 2, np.diff(density.offsets))
    positions = centre - np.where(rank % 2 == 1, 1, -1) * (rank // 2)
    return PerClusterOrder(positions=split_columns(positions, density.offsets))


def consensus_order(per_cluster: PerClusterOrder, cluster_sizes: np.ndarray, n: int):
    """Cluster-size-weighted mean positions, sorted into integer ranks.

    Empty clusters carry zero weight. Returns (rank arrays, fractional score
    arrays); ties in the scores break by ascending value index.
    """
    sizes = np.asarray(cluster_sizes, dtype=np.float64)
    if int(sizes.sum()) != n:
        raise ValueError("cluster sizes must sum to the sample count")
    weights = sizes / n
    scores = tuple(weights @ pos for pos in per_cluster.positions)
    offsets = np.concatenate([[0], np.cumsum([sc.shape[0] for sc in scores])])
    ranks = _segment_ranks(np.concatenate(scores)[None, :], offsets)[0]
    return split_columns(ranks, offsets), scores


def learn_orders(
    d: Dataset,
    q,
    current: OrderSet,
    form: str = "profile",
    frozen: tuple | None = None,
) -> OrderSet:
    """One full order refresh from the current partition.

    The objective decomposition is evaluated under the orders of the previous
    round, so the refresh sees the metric it is about to replace. Attributes
    with two values pass through unchanged (any order induces the same
    distances), as do attributes marked frozen.
    """
    prof = metric.compute_profile(d, q)
    if not prof.sizes.any():
        raise ValueError("all clusters are empty")
    matrices = metric.value_distance_matrices(d, current)
    obj = metric.objective_report(d.onehot, matrices, prof, np.asarray(q.assign), form)
    density = link_density(prof, obj)
    per_cluster = per_cluster_orders(density)
    ranks, scores = consensus_order(per_cluster, prof.sizes, d.n)

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
