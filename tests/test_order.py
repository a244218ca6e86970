import numpy as np
import pytest

from conftest import make_dataset
from ordclust import metric, oracle, order
from ordclust.cluster import Partition
from ordclust.data import synthesize


def test_link_density_division():
    d = make_dataset([["a", "a", "b", "b"]])
    q = Partition(np.zeros(4, dtype=np.int32), 1)
    prof = metric.compute_profile(d, q)
    obj = metric.objective(d, q, order.dictionary_orders(d))
    table = order.link_density(prof, obj)
    # p = .5 each, form(a) = form(b) = .5 -> cost share .5*2 = 1 each
    assert table.density[0][0].tolist() == pytest.approx([0.5, 0.5])


def test_link_density_absent_value_is_zero():
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.array([0, 0, 0, 1], dtype=np.int32), 2)
    prof = metric.compute_profile(d, q)
    obj = metric.objective(d, q, order.dictionary_orders(d))
    table = order.link_density(prof, obj)
    # value c never occurs in cluster 0
    assert table.density[0][0, 2] == 0.0


def test_link_density_pure_cluster_sentinel():
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.array([1, 1, 0, 0], dtype=np.int32), 2)
    prof = metric.compute_profile(d, q)
    obj = metric.objective(d, q, order.dictionary_orders(d))
    table = order.link_density(prof, obj)
    # cluster 1 holds only value a: zero cost share at positive probability
    assert np.isinf(table.density[0][1, 0])
    assert table.density[0][1, 1] == 0.0
    assert table.density[0][1, 2] == 0.0
    assert table.ranks[0][1].tolist() == [1, 2, 3]


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
    # densities drawn from a few values tie often; a zero cost at a positive
    # frequency gives +inf, a zero frequency gives 0; one cluster is empty
    for _ in range(300):
        k = int(rng.integers(2, 5))
        cards = rng.integers(2, 10, size=int(rng.integers(1, 5)))
        sizes = rng.integers(1, 6, size=k)
        sizes[rng.integers(k)] = 0
        probs = tuple(rng.choice([0.0, 0.25, 0.5], size=(k, l)) * (sizes > 0)[:, None] for l in cards)
        costs = tuple(rng.choice([0.0, 0.5, 1.0], size=(k, l)) for l in cards)
        prof = metric.ClusterProfile(probs=probs, sizes=sizes)
        obj = metric.ObjectiveReport(total=0.0, per_cluster_attribute=np.zeros((k, len(cards))), per_value=costs)

        density, ranks, positions = oracle.per_row_orders(prof, obj)
        table = order.link_density(prof, obj)
        placed = order.per_cluster_orders(table)
        consensus, scores = order.consensus_order(placed, sizes, int(sizes.sum()))
        for r in range(len(cards)):
            assert table.density[r].tobytes() == density[r].tobytes()
            assert table.ranks[r].tolist() == ranks[r].tolist()
            assert placed[r].dtype == np.int64
            assert placed[r].tolist() == positions[r].tolist()
            # ascending scores, ties by value index
            assert consensus[r].tolist() == oracle.rank_descending(-scores[r]).tolist()


def test_consensus_weighted_mean():
    per_cluster = (np.array([[2, 1, 3], [4, 1, 3]]),)
    ranks, scores = order.consensus_order(per_cluster, np.array([3, 1]), 4)
    assert scores[0][0] == pytest.approx(0.75 * 2 + 0.25 * 4)


def test_consensus_single_cluster_identity():
    per_cluster = (np.array([[2, 3, 1, 4]]),)
    ranks, _ = order.consensus_order(per_cluster, np.array([5]), 5)
    assert ranks[0].tolist() == [2, 3, 1, 4]


def test_consensus_tie_breaks_by_value_index():
    # weighted scores come out as (2.5, 1.75, 1.75) -> ranks (3, 1, 2)
    per_cluster = (np.array([[3, 1, 2], [3, 2, 1], [1, 3, 2]], dtype=np.int64),)
    ranks, scores = order.consensus_order(per_cluster, np.array([2, 1, 1]), 4)
    assert scores[0].tolist() == pytest.approx([2.5, 1.75, 1.75])
    assert ranks[0].tolist() == [3, 1, 2]


def test_consensus_rejects_bad_sizes():
    per_cluster = (np.array([[1, 2]]),)
    with pytest.raises(ValueError):
        order.consensus_order(per_cluster, np.array([3]), 4)


def refresh(d, q, current, **kw):
    """``learn_orders`` fed the tables a fit holds for partition q under ``current``."""
    prof = metric.compute_profile(d, q)
    return order.learn_orders(d, prof, metric.value_distance_matrices(d, current), q.assign, current, **kw)


def test_learn_orders_binary_pass_through(rng):
    d = synthesize(60, 5, 2, values_per_attribute=2, seed=13)
    q = Partition(rng.integers(0, 2, size=60).astype(np.int32), 2)
    start = order.dictionary_orders(d)
    learned = refresh(d, q, start)
    for r in range(d.s_categorical):
        assert learned.ranks[r].tolist() == start.ranks[r].tolist()


def test_learn_orders_single_cluster_matches_placement():
    # single cluster, four values with strictly decreasing link density
    # (frequency ladder): densest value goes to the centre, then right, left
    d = make_dataset([["a"] * 8 + ["b"] * 4 + ["c"] * 2 + ["d"]])
    q = Partition(np.zeros(d.n, dtype=np.int32), 1)
    learned = refresh(d, q, order.dictionary_orders(d))
    density_rank = oracle.rank_descending(
        order.link_density(
            metric.compute_profile(d, q), metric.objective(d, q, order.dictionary_orders(d))
        ).density[0][0]
    )
    assert learned.ranks[0].tolist() == oracle.unimodal_place(density_rank, 4).tolist()


def test_learn_orders_pure_clusters_hand_trace():
    # three pure clusters on [a, b, c] with sizes 3/1/1; per-cluster
    # placements fold around each pure value, and the size-weighted blend
    # gives a=2, b=3, c=1: the dominant cluster's value takes the centre
    d = make_dataset([["a", "a", "a", "b", "c"]])
    q = Partition(np.array([0, 0, 0, 1, 2], dtype=np.int32), 3)
    learned = refresh(d, q, order.dictionary_orders(d))
    assert learned.ranks[0].tolist() == [2, 3, 1]
    assert learned.ranks[0][0] == 2  # central rank of three


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
        learned.validate(d)


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
    o.validate(d)
