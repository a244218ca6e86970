"""Learning integer value orders from a partition.

Per cluster and attribute, each value gets a link density: its within-cluster
frequency divided by its contribution to the objective. Values are placed on
a line by descending density (densest in the middle, alternating outward),
and the per-cluster placements are blended by cluster size into one integer
rank per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metric
from .data import Dataset


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
    """Per (cluster, attribute, value) link densities and their descending ranks."""

    density: tuple  # per attribute: (k, l_r) float64, +inf marks zero-cost values
    ranks: tuple  # per attribute: (k, l_r) int64, 1-based descending ranks


@dataclass(frozen=True)
class PerClusterOrder:
    """Value positions chosen independently within each cluster."""

    positions: tuple  # per attribute: (k, l_r) int64


def link_density(prof: metric.ClusterProfile, obj: metric.ObjectiveReport) -> LinkDensityTable:
    """Frequency / objective-contribution ratio per value.

    Absent values (zero frequency) get density 0; values present at zero
    objective cost get +inf so they outrank every finite density.
    """
    density_all, rank_all = [], []
    for r, probs in enumerate(prof.probs):
        cost = obj.per_value[r]
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.where(probs > 0, probs / cost, 0.0)
        density[(probs > 0) & (cost == 0)] = np.inf
        density_rank = np.vstack([rank_descending(row) for row in density])
        density_all.append(density)
        rank_all.append(density_rank)
    return LinkDensityTable(density=tuple(density_all), ranks=tuple(rank_all))


def rank_descending(density: np.ndarray) -> np.ndarray:
    """1-based ranks of a density vector, largest first, ties by value index."""
    l = density.shape[0]
    order = np.lexsort((np.arange(l), -density))
    density_rank = np.empty(l, dtype=np.int64)
    density_rank[order] = np.arange(1, l + 1)
    return density_rank


def unimodal_place(density_rank: np.ndarray, l: int) -> np.ndarray:
    """Closed-form unimodal placement of values by descending-density rank.

    The rank-1 value lands on the central position ceil(l/2); later ranks
    alternate right, left, right, ... at growing offsets. The result is a
    position bijection onto 1..l.
    """
    density_rank = np.asarray(density_rank, dtype=np.int64)
    if sorted(density_rank.tolist()) != list(range(1, l + 1)):
        raise ValueError("density_rank must be a permutation of 1..l")
    sign = np.where(density_rank % 2 == 1, 1, -1)  # (-1)**(density_rank+1)
    return math.ceil(l / 2) - sign * (density_rank // 2)


def per_cluster_orders(density: LinkDensityTable) -> PerClusterOrder:
    positions = []
    for density_rank in density.ranks:
        k, l = density_rank.shape
        pos = np.vstack([unimodal_place(density_rank[m], l) for m in range(k)])
        positions.append(pos)
    return PerClusterOrder(positions=tuple(positions))


def consensus_order(per_cluster: PerClusterOrder, cluster_sizes: np.ndarray, n: int):
    """Cluster-size-weighted mean positions, sorted into integer ranks.

    Empty clusters carry zero weight. Returns (rank arrays, fractional score
    arrays); ties in the scores break by ascending value index.
    """
    sizes = np.asarray(cluster_sizes, dtype=np.float64)
    if int(sizes.sum()) != n:
        raise ValueError("cluster sizes must sum to the sample count")
    weights = sizes / n
    ranks_all, scores_all = [], []
    for pos in per_cluster.positions:
        scores = weights @ pos
        l = scores.shape[0]
        order = np.lexsort((np.arange(l), scores))
        ranks = np.empty(l, dtype=np.int64)
        ranks[order] = np.arange(1, l + 1)
        ranks_all.append(ranks)
        scores_all.append(scores)
    return tuple(ranks_all), tuple(scores_all)


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
