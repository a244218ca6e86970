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

An ``OrderSet`` keeps its ranks in the stacked layout of ``Dataset.onehot``
(attribute r owns columns ``offsets[r]:offsets[r + 1]``) that the kernels
read, and a refresh works on (k, sum(l)) tables in it with a fixed number of
numpy calls and no pass over the samples. Every row's cost ranks come from
one stable two-key ``lexsort`` over (cost, segment start): equal costs keep
value-index order, and the segment start is what a sorted position subtracts
to become a rank. A value's consensus score is its integer total ``sizes @
positions``, exact in any summation order, so score ties are real ties and
break by value index; the printed score is that total / n. The per-row
references (``oracle.per_row_orders`` and ``oracle.consensus_order``) give
identical results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import metric
from .data import Dataset, split_columns


@dataclass(frozen=True, eq=False)
class OrderSet:
    """Stacked ranks: ``stacked_ranks[c]`` is the 1-based rank of column c's value within its attribute.

    An attribute with ranks 0 throughout has no order and is measured by match/mismatch distances.
    The arrays given are made read-only; ``ranks`` and ``scores`` view them per attribute. Compared by identity.
    """

    stacked_ranks: np.ndarray  # (sum l,) int64, laid out by ``offsets``
    offsets: np.ndarray  # the dataset's ``onehot.offsets``
    stacked_scores: np.ndarray | None = None  # learned: (sum l,) position total / n, NaN if passed through

    def __post_init__(self):
        for arr in (self.stacked_ranks, self.stacked_scores):
            if arr is not None:
                arr.flags.writeable = False

    @classmethod
    def from_ranks(cls, d: Dataset, ranks) -> OrderSet:
        """The set of one rank array or None (no order) per attribute of ``d``; a given rank of 0 is refused."""
        stacked, offsets = np.zeros(int(d.onehot.offsets[-1]), dtype=np.int64), d.onehot.offsets
        if len(ranks) != len(d.cardinalities):
            raise ValueError(f"{len(ranks)} rank arrays given for the dataset's {len(d.cardinalities)} attributes")
        for r, (l, given) in enumerate(zip(d.cardinalities, ranks)):
            cast = None if given is None else np.asarray(given).astype(np.int64)
            if cast is not None and (cast.shape != (l,) or not cast.all() or not np.array_equal(cast, given)):
                raise ValueError(f"attribute {d.cat_names[r]!r}: ranks are not a bijection onto 1..{l}")
            stacked[offsets[r]:offsets[r + 1]] = 0 if cast is None else cast
        return cls(stacked, offsets)

    @functools.cached_property
    def ranks(self) -> tuple:
        """``ranks[r][g]``: value g's rank on attribute r, a view of ``stacked_ranks``; None without an order."""
        return tuple(r if r.any() else None for r in split_columns(self.stacked_ranks, self.offsets))

    @functools.cached_property
    def scores(self) -> tuple | None:
        """Per-attribute views of ``stacked_scores``, None where passed through; None unless learned."""
        return None if self.stacked_scores is None else tuple(
            None if np.isnan(v).all() else v for v in split_columns(self.stacked_scores, self.offsets))


def dictionary_orders(d: Dataset) -> OrderSet:
    """First-appearance ranks: value g gets rank g+1."""
    return OrderSet(d.onehot.segments[0], d.onehot.offsets)


def hamming_orders(d: Dataset) -> OrderSet:
    """No orders anywhere: every attribute measured by match/mismatch."""
    return OrderSet(np.zeros(int(d.onehot.offsets[-1]), dtype=np.int64), d.onehot.offsets)


def random_orders(d: Dataset, rng: np.random.Generator) -> OrderSet:
    """One uniform random rank bijection per attribute."""
    return OrderSet.from_ranks(d, [rng.permutation(l) + 1 for l in d.cardinalities])


def semantic_orders(d: Dataset) -> OrderSet:
    """Declared ranks for ordinal attributes, match/mismatch for the rest; raises if none is declared."""
    if not any(ranks is not None for ranks in d.semantic_ranks):
        raise ValueError("no attribute declares a semantic order; semantic mode is inapplicable")
    return OrderSet.from_ranks(d, d.semantic_ranks)


def _segment_ranks(keys: np.ndarray, enc) -> np.ndarray:
    """1-based ascending ranks of ``keys`` within each attribute of each row of a (rows, sum l) table.

    ``enc`` is the ``OneHot`` whose ``offsets`` and ``attribute`` lay out the
    columns. One stable lexsort over (key, segment start): segments stay in
    place, equal keys keep value-index order, and a value's rank is its sorted
    position minus its segment's start.
    """
    start = (np.arange(keys.shape[0])[:, None] * keys.shape[1] + enc.offsets[enc.attribute]).ravel()
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[np.lexsort((keys.ravel(), start))] = np.arange(keys.size) - start + 1
    return ranks.reshape(keys.shape)


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
    if int(prof.sizes.sum()) != d.n:
        raise ValueError("cluster sizes must sum to the sample count")
    enc = d.onehot
    cost = np.where(prof.counts > 0, metric.value_costs(matrices, prof, form).T, np.inf)
    ranks = _segment_ranks(cost, enc)
    # rank 1 at the centre ceil(l/2), later ranks right, left, right, ... outward
    centre = ((np.diff(enc.offsets) + 1) // 2)[enc.attribute]
    positions = centre - np.where(ranks % 2 == 1, 1, -1) * (ranks // 2)
    totals = prof.sizes @ positions  # int64, exact
    passed = ((np.diff(enc.offsets) <= 2) | np.array(frozen or False))[enc.attribute]  # kept as in ``current``
    ranks = np.where(passed, current.stacked_ranks, _segment_ranks(totals[None, :], enc)[0])
    return OrderSet(ranks, enc.offsets, np.where(passed, np.nan, totals / d.n))
