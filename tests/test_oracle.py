import numpy as np
import pytest

from conftest import make_dataset
from ordclust import cluster, metric, oracle, order
from ordclust.cluster import Partition
from ordclust.data import synthesize
from ordclust.fixtures import load_fixture


def test_exhaustive_search_binary_orders_tie_lexicographic():
    d = make_dataset([["a", "b", "a", "b"]])
    q = Partition(np.zeros(4, dtype=np.int32), 1)
    pos, cost = oracle.exhaustive_order_search(d, q, 0, 0)
    assert pos.tolist() == [1, 2]  # both orders cost the same; first wins


def test_exhaustive_search_pure_cluster_zero_cost():
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.array([0, 0, 1, 1], dtype=np.int32), 2)
    pos, cost = oracle.exhaustive_order_search(d, q, 0, 0)
    assert cost == 0.0
    assert pos.tolist() == [1, 2, 3]


def test_exhaustive_search_lower_bounds_unimodal_placement(rng):
    for _ in range(10):
        d, q, _ = oracle.random_instance(rng, n_max=25, s_max=2, l_max=4, k_max=2)
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        _, placed = oracle.per_row_orders(prof, metric.value_distance_matrices(d, order.dictionary_orders(d)))
        for m in range(q.k):
            if prof.sizes[m] == 0:
                continue
            _, best = oracle.exhaustive_order_search(d, q, 0, m)
            assert best <= oracle.within_cluster_cost(d, q, 0, m, placed[0][m]) + 1e-12


def test_exhaustive_search_guards():
    d = synthesize(10, 1, 1, values_per_attribute=8, seed=0)
    q = Partition(np.zeros(10, dtype=np.int32), 1)
    with pytest.raises(ValueError, match="7"):
        oracle.exhaustive_order_search(d, q, 0, 0)


def test_objective_direct_agrees_with_fast_path(rng):
    for _ in range(50):
        d, q, o = oracle.random_instance(rng)
        fast = metric.objective(d, q, o)
        slow = oracle.objective_direct(d, q, o)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


# only HR declares semantic orders; its other two attributes are measured by match/mismatch
_UNORDERED_FITS = [(name, settings) for name in ("HR", "SB", "VT")
                   for settings in ({"ablation": "hamming_only"}, {"order_mode": "hamming"})]


@pytest.mark.parametrize("name,settings", _UNORDERED_FITS + [("HR", {"order_mode": "semantic"})])
def test_objective_direct_agrees_with_fits_under_match_mismatch_attributes(name, settings):
    # the termwise objective's match/mismatch branch, at the tolerance of ``verify_suite``
    d = load_fixture(name)
    for seed in range(3):
        res = cluster.fit(d, cluster.FitConfig(k=len(set(d.labels.tolist())), seed=seed, **settings))
        assert any(ranks is None for ranks in res.orders.ranks)
        slow = oracle.objective_direct(d, res.partition, res.orders)
        assert slow == pytest.approx(res.trace.best_objective, rel=1e-9)


def test_objective_direct_singleton_clusters_zero():
    d = synthesize(8, 3, 8, values_per_attribute=4, seed=3)
    q = Partition(np.arange(8, dtype=np.int32), 8)
    assert oracle.objective_direct(d, q, order.dictionary_orders(d)) == 0.0


def test_pair_counts_identical_partitions():
    counts, ari, nmi = oracle.pair_count_metrics([0, 0, 1], [1, 1, 0])
    assert ari == 1.0
    assert nmi == 1.0
    assert counts.both_together == 1


def test_pair_counts_constant_vs_balanced():
    _, ari, _ = oracle.pair_count_metrics([0, 0, 0, 0], [0, 0, 1, 1])
    assert ari == 0.0


def test_pair_counts_guard():
    with pytest.raises(ValueError, match="2000"):
        oracle.pair_count_metrics([0] * 2001, [0] * 2001)


def test_oracle_and_fast_metrics_agree_exactly(rng):
    for _ in range(50):
        n = int(rng.integers(4, 60))
        pred = rng.integers(0, int(rng.integers(1, 5)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 5)), size=n)
        _, ari, nmi = oracle.pair_count_metrics(pred, truth)
        assert evaluate_ari(pred, truth) == ari
        assert evaluate_nmi(pred, truth) == nmi
        assert evaluate_ca(pred, truth) == oracle.brute_force_accuracy(pred, truth)


def evaluate_ari(a, b):
    from ordclust.evaluate import adjusted_rand_index
    return adjusted_rand_index(a, b)


def evaluate_nmi(a, b):
    from ordclust.evaluate import normalized_mutual_info
    return normalized_mutual_info(a, b)


def evaluate_ca(a, b):
    from ordclust.evaluate import clustering_accuracy
    return clustering_accuracy(a, b)


def test_verify_suite_green():
    results = oracle.verify_suite(rounds=40, seed=11)
    assert all(ok for _, ok, _ in results), results


def test_placement_vs_exhaustive_exploration(rng, capsys):
    # exploratory, non-gating: how often does the closed-form placement reach
    # the exhaustive within-cluster optimum?
    hits = total = 0
    for _ in range(15):
        d, q, _ = oracle.random_instance(rng, n_max=20, s_max=1, l_max=4, k_max=2)
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        _, placed = oracle.per_row_orders(prof, metric.value_distance_matrices(d, order.dictionary_orders(d)))
        for m in range(q.k):
            if prof.sizes[m] == 0:
                continue
            _, best = oracle.exhaustive_order_search(d, q, 0, m)
            got = oracle.within_cluster_cost(d, q, 0, m, placed[0][m])
            total += 1
            hits += abs(got - best) <= 1e-9
    print(f"\nplacement reached the exhaustive optimum on {hits}/{total} instances")
    assert total > 0
