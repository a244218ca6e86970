import numpy as np
import pytest

from conftest import exact_profile_costs, make_dataset
from ordclust import metric, oracle, order
from ordclust.cluster import Partition
from ordclust.data import Dataset, split_columns, synthesize


def test_link_density_division():
    # density = (c / size) / (c * W) = 1 / (size * W): frequency cancels. The
    # rarest value b sits between a and c and costs least, so it takes the
    # centre; a and c cost the same and keep value-index order
    d = make_dataset([["a"] * 3 + ["b"] + ["c"] * 3])
    q = Partition(np.zeros(d.n, dtype=np.int32), 1)
    assert refresh(d, q, order.dictionary_orders(d)).ranks[0].tolist() == [3, 2, 1]


def test_link_density_absent_value_is_zero():
    # cluster 0 holds a and c only; a, b and c all cost 0.5 there, and the
    # absent b ranks last, at the edge. Cluster 1 is b alone. Blended 8:1,
    # b ends first ([2, 3, 1] if b ranked second in cluster 0)
    d = make_dataset([["a", "b", "c"] + ["a", "c"] * 3])
    q = Partition((np.arange(d.n) == 1).astype(np.int32), 2)
    assert refresh(d, q, order.dictionary_orders(d)).ranks[0].tolist() == [2, 1, 3]


def test_link_density_pure_cluster_sentinel():
    # cluster 1 holds only a: a costs 0 there and ranks first, the absent b
    # and c follow by value index; cluster 0 holds b and c at cost 0.25 each
    # and the absent a last. Blended 2:6, a takes the centre
    d = make_dataset([["a"] * 6 + ["b", "c"]])
    q = Partition((np.arange(d.n) < 6).astype(np.int32), 2)
    assert refresh(d, q, order.dictionary_orders(d)).ranks[0].tolist() == [2, 3, 1]


def test_rank_descending_examples():
    assert oracle.rank_descending(np.array([0.1, 0.9, 0.5])).tolist() == [3, 1, 2]
    assert oracle.rank_descending(np.array([0.4, 0.4])).tolist() == [1, 2]
    assert oracle.rank_descending(np.array([np.inf, 2.0, 0.0])).tolist() == [1, 2, 3]


def test_unimodal_place_examples():
    assert oracle.unimodal_place(np.array([1, 2, 3, 4, 5]), 5).tolist() == [3, 4, 2, 5, 1]
    assert oracle.unimodal_place(np.array([1, 2, 3, 4]), 4).tolist() == [2, 3, 1, 4]
    assert oracle.unimodal_place(np.array([1, 2]), 2).tolist() == [1, 2]


def test_unimodal_place_rejects_non_permutation():
    with pytest.raises(ValueError):
        oracle.unimodal_place(np.array([1, 1, 3]), 3)


def test_unimodal_place_bijection_for_all_small_sizes(rng):
    for l in range(2, 21):
        for _ in range(10):
            density_rank = rng.permutation(l) + 1
            pos = oracle.unimodal_place(density_rank, l)
            assert sorted(pos.tolist()) == list(range(1, l + 1))


def test_unimodal_place_unimodal_walk(rng):
    # walking the positions center-out, alternating right/left, visits the
    # values in increasing rank order
    for l in (3, 4, 5, 8, 11):
        density_rank = rng.permutation(l) + 1
        pos = oracle.unimodal_place(density_rank, l)
        value_at = {int(p): int(e) for p, e in zip(pos, density_rank)}
        center = (l + 1) // 2
        walk = [center]
        for off in range(1, l):
            nxt = center + off if off % 2 == 1 else center - off // 2
            walk.append(nxt if off % 2 == 1 else center - off // 2)
        # build the canonical visiting order explicitly
        visits, right, left = [center], center, center
        while len(visits) < l:
            right += 1
            if right <= l:
                visits.append(right)
            if len(visits) < l:
                left -= 1
                if left >= 1:
                    visits.append(left)
        assert [value_at[p] for p in visits] == list(range(1, l + 1))


def test_stacked_refresh_equals_per_row_oracle(rng):
    # Costs under random and match/mismatch orders tie often and are zero at
    # each mode, clusters of at most five rows leave most values absent, and
    # one cluster is empty.
    ties = zero_costs = 0
    for trial in range(300):
        form = ("profile", "mode")[trial % 2]
        k = int(rng.integers(2, 5))
        cards = [int(l) for l in rng.integers(2, 10, size=int(rng.integers(1, 5)))]
        sizes = rng.integers(1, 6, size=k)
        sizes[rng.integers(k)] = 0
        n = int(sizes.sum())
        d = Dataset(
            cat=np.column_stack([rng.integers(0, l, size=n) for l in cards]).astype(np.int32),
            num=np.empty((n, 0)),
            dictionaries=tuple(tuple(str(g) for g in range(l)) for l in cards),
            cat_names=tuple(f"a{r}" for r in range(len(cards))),
            semantic_ranks=tuple(None for _ in cards),
            num_names=(),
        )
        prof = metric.profile_from_assignment(d.onehot, np.repeat(np.arange(k), sizes).astype(np.int32), k)
        orders = order.OrderSet.from_ranks(d, [None if rng.random() < 0.3 else rng.permutation(l) + 1 for l in cards])
        matrices = metric.value_distance_matrices(d, orders)
        costs = metric.value_costs(matrices, prof, form).T
        if form == "profile":  # every cell the exact ratio, so equal costs are equal floats
            assert costs.T.tobytes() == exact_profile_costs(d, prof, orders).tobytes()
        offsets = d.onehot.offsets

        ranks, positions = oracle.per_row_orders(prof, matrices, form)
        stacked = order._segment_ranks(np.where(prof.counts > 0, costs, np.inf), d.onehot)
        consensus, scores = oracle.consensus_order(positions, sizes, n)
        learned = order.learn_orders(d, prof, matrices, order.dictionary_orders(d), form)
        for r, l in enumerate(cards):
            assert split_columns(stacked, offsets)[r].tolist() == ranks[r].tolist()
            # ascending scores, ties by value index
            assert consensus[r].tolist() == oracle.rank_descending(-scores[r]).tolist()
            if l > 2:
                assert learned.ranks[r].tolist() == consensus[r].tolist()
                assert learned.scores[r].tobytes() == scores[r].tobytes()
            for count, cost in zip(split_columns(prof.counts, offsets)[r], split_columns(costs, offsets)[r]):
                present = cost[count > 0]
                ties += np.unique(present).size < present.size
                zero_costs += (present == 0).sum()
    assert ties > 0 and zero_costs > 0


def test_consensus_weighted_mean():
    per_cluster = (np.array([[2, 1, 3], [4, 1, 3]]),)
    ranks, scores = oracle.consensus_order(per_cluster, np.array([3, 1]), 4)
    assert scores[0][0] == pytest.approx(0.75 * 2 + 0.25 * 4)


def test_consensus_single_cluster_identity():
    per_cluster = (np.array([[2, 3, 1, 4]]),)
    ranks, _ = oracle.consensus_order(per_cluster, np.array([5]), 5)
    assert ranks[0].tolist() == [2, 3, 1, 4]


def test_consensus_tie_breaks_by_value_index():
    # weighted scores come out as (2.5, 1.75, 1.75) -> ranks (3, 1, 2)
    per_cluster = (np.array([[3, 1, 2], [3, 2, 1], [1, 3, 2]], dtype=np.int64),)
    ranks, scores = oracle.consensus_order(per_cluster, np.array([2, 1, 1]), 4)
    assert scores[0].tolist() == pytest.approx([2.5, 1.75, 1.75])
    assert ranks[0].tolist() == [3, 1, 2]


def test_consensus_rejects_bad_sizes():
    # a profile of five rows handed to the refresh of a four-row dataset
    d = make_dataset([["a", "b", "c", "a"]])
    prof = metric.profile_from_assignment(make_dataset([["a", "b", "c", "a", "b"]]).onehot,
                                          np.zeros(5, dtype=np.int32), 1)
    with pytest.raises(ValueError, match="cluster sizes must sum to the sample count"):
        order.learn_orders(d, prof, metric.value_distance_matrices(d, order.dictionary_orders(d)),
                           order.dictionary_orders(d))


def refresh(d, q, current, **kw):
    """``learn_orders`` fed the tables a fit holds for partition q under ``current``."""
    prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
    return order.learn_orders(d, prof, metric.value_distance_matrices(d, current), current, **kw)


def test_learn_orders_binary_pass_through(rng):
    d = synthesize(60, 5, 2, values_per_attribute=2, seed=13)
    q = Partition(rng.integers(0, 2, size=60).astype(np.int32), 2)
    start = order.dictionary_orders(d)
    learned = refresh(d, q, start)
    for r in range(d.s_categorical):
        assert learned.ranks[r].tolist() == start.ranks[r].tolist()


def test_learn_orders_single_cluster_matches_placement():
    # single cluster, frequency ladder 8/4/2/1: costs 11/45 < 12/45 < 21/45 <
    # 34/45, so a is cheapest (densest) and goes to the centre, then right, left
    d = make_dataset([["a"] * 8 + ["b"] * 4 + ["c"] * 2 + ["d"]])
    q = Partition(np.zeros(d.n, dtype=np.int32), 1)
    learned = refresh(d, q, order.dictionary_orders(d))
    assert learned.ranks[0].tolist() == oracle.unimodal_place(np.array([1, 2, 3, 4]), 4).tolist()


def test_learn_orders_equal_costs_keep_value_index():
    # mode form, mode b: a and c are both exactly 1/3 from it. Equal costs
    # keep value-index order, so a ranks before c; a density computed by
    # division ranked c first by rounding and learned [1, 2, 3, 4]
    d = make_dataset([["a"] + ["b"] * 6 + ["c"] * 5 + ["d"]])
    q = Partition(np.zeros(d.n, dtype=np.int32), 1)
    learned = refresh(d, q, order.dictionary_orders(d), form="mode")
    assert learned.ranks[0].tolist() == [3, 2, 1, 4]


def test_learn_orders_pure_clusters_hand_trace():
    # three pure clusters on [a, b, c] with sizes 3/1/1; per-cluster
    # placements (a, b, c) are (2, 3, 1), (3, 2, 1) and (3, 1, 2), so the
    # size-weighted totals are 12, 12 and 6 over n = 5. a and b tie exactly
    # at 2.4 and keep value-index order: a=2, b=3, c=1
    d = make_dataset([["a", "a", "a", "b", "c"]])
    q = Partition(np.array([0, 0, 0, 1, 2], dtype=np.int32), 3)
    learned = refresh(d, q, order.dictionary_orders(d))
    assert learned.ranks[0].tolist() == [2, 3, 1]
    assert learned.ranks[0][0] == 2  # central rank of three
    assert learned.scores[0].tolist() == [12 / 5, 12 / 5, 6 / 5]


def test_learn_orders_ranks_an_exact_cost_tie_by_value_index():
    # A refresh row of fixture HR (k = 3, seed 4, attribute 3, cluster 1) under
    # dictionary ranks: counts (15, 10, 3, 2) of 30 give a and b the same cost,
    # 22 / 90. Costs from float products ranked b first there; the exact
    # costs tie, and a keeps its value-index place
    counts = [[57, 16, 11, 0], [15, 10, 3, 2], [0, 5, 12, 1]]
    d = make_dataset([[v for row in counts for v, c in zip("abcd", row) for _ in range(c)]])
    assign = np.repeat(np.arange(3), [sum(row) for row in counts]).astype(np.int32)
    prof = metric.profile_from_assignment(d.onehot, assign, 3)
    assert prof.counts.tolist() == counts
    matrices = metric.value_distance_matrices(d, order.dictionary_orders(d))
    costs = metric.value_costs(matrices, prof, "profile")
    assert costs[:, 1].tolist() == [22 / 90, 22 / 90, 42 / 90, 68 / 90]
    ranks = order._segment_ranks(np.where(prof.counts > 0, costs.T, np.inf), d.onehot)
    assert ranks[1].tolist() == [1, 2, 3, 4]
    assert order.learn_orders(d, prof, matrices, order.dictionary_orders(d)).ranks[0].tolist() == [2, 3, 1, 4]


def test_learn_orders_deterministic(rng):
    d = synthesize(50, 3, 3, values_per_attribute=4, seed=17)
    q = Partition(rng.integers(0, 3, size=50).astype(np.int32), 3)
    a = refresh(d, q, order.dictionary_orders(d))
    b = refresh(d, q, order.dictionary_orders(d))
    for ra, rb in zip(a.ranks, b.ranks):
        assert ra.tolist() == rb.tolist()


def test_learn_orders_invariant_to_cluster_relabeling(rng):
    d = synthesize(50, 3, 3, values_per_attribute=4, seed=19)
    assign = rng.integers(0, 3, size=50).astype(np.int32)
    perm = np.array([2, 0, 1])
    a = refresh(d, Partition(assign, 3), order.dictionary_orders(d))
    b = refresh(d, Partition(perm[assign].astype(np.int32), 3), order.dictionary_orders(d))
    for ra, rb in zip(a.ranks, b.ranks):
        assert ra.tolist() == rb.tolist()


def test_learn_orders_output_is_bijection(rng):
    for _ in range(10):
        n = int(rng.integers(10, 60))
        k = int(rng.integers(1, 4))
        d = synthesize(n, 3, k, values_per_attribute=int(rng.integers(2, 6)), seed=int(rng.integers(1000)))
        q = Partition(rng.integers(0, k, size=n).astype(np.int32), k)
        learned = refresh(d, q, order.dictionary_orders(d))
        metric.value_distance_matrices(d, learned)


def test_learn_orders_respects_frozen_mask(rng):
    d = synthesize(40, 3, 2, values_per_attribute=4, seed=23)
    q = Partition(rng.integers(0, 2, size=40).astype(np.int32), 2)
    start = order.random_orders(d, np.random.default_rng(1))
    learned = refresh(d, q, start, frozen=(True, False, True))
    assert learned.ranks[0].tolist() == start.ranks[0].tolist()
    assert learned.ranks[2].tolist() == start.ranks[2].tolist()


def test_semantic_orders_require_declared_order():
    d = synthesize(10, 2, 2, values_per_attribute=3, seed=0)
    with pytest.raises(ValueError, match="inapplicable"):
        order.semantic_orders(d)


def test_random_orders_are_valid(rng):
    d = synthesize(10, 4, 2, values_per_attribute=6, seed=0)
    o = order.random_orders(d, rng)
    metric.value_distance_matrices(d, o)


@pytest.mark.parametrize("count", [1, 3])
def test_from_ranks_refuses_a_rank_array_count_other_than_the_attribute_count(count):
    d = make_dataset([["a", "b", "a"], ["x", "y", "y"]])
    with pytest.raises(ValueError, match=f"^{count} rank arrays given for the dataset's 2 attributes$"):
        order.OrderSet.from_ranks(d, [np.array([1, 2])] * count)
