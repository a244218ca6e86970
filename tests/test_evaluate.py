import dataclasses
import math

import numpy as np
import pytest

from conftest import make_dataset
from ordclust import evaluate, oracle
from ordclust.cluster import Partition
from ordclust.data import synthesize


def test_accuracy_identity():
    assert evaluate.clustering_accuracy([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0


def test_accuracy_absorbs_relabeling():
    assert evaluate.clustering_accuracy([1, 0, 1, 0], [0, 1, 0, 1]) == 1.0


def test_accuracy_confusion_matrix_example():
    # joint counts [[3, 1], [2, 4]]: best matching picks 3 + 4 of 10
    pred = [0] * 4 + [1] * 6
    truth = [0] * 3 + [1] + [0] * 2 + [1] * 4
    assert evaluate.clustering_accuracy(pred, truth) == pytest.approx(0.7)
    assert oracle.brute_force_accuracy(pred, truth) == pytest.approx(0.7)


def test_accuracy_rectangular_matching():
    # more predicted clusters than labels and vice versa
    assert evaluate.clustering_accuracy([0, 1, 2], [0, 0, 1]) == pytest.approx(2 / 3)
    assert evaluate.clustering_accuracy([0, 0, 1], [0, 1, 2]) == pytest.approx(2 / 3)


def _table_labels(table):
    """A prediction and truth whose joint count table is ``table``, rows predicted."""
    rows, cols = np.indices(table.shape)
    return np.repeat(rows.ravel(), table.ravel()), np.repeat(cols.ravel(), table.ravel())


def test_accuracy_equals_the_exhaustive_matching(rng):
    tables = [rng.integers(0, int(rng.integers(1, 9)), size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
              for _ in range(400)]
    tables += [np.full((1, m), 3) + np.arange(m) % 2 for m in range(1, 8)]  # one cluster, and its transpose
    tables += [t.T for t in tables[-7:]]
    for table in tables:
        if table.sum() == 0:
            continue
        pred, truth = _table_labels(table)
        assert evaluate.clustering_accuracy(pred, truth) == oracle.brute_force_accuracy(pred, truth), table


def test_accuracy_is_exact_on_a_near_uniform_table():
    # 100k samples in 5 x 5 cells of about 4000 each: many matchings within a few counts of the best
    g = np.random.default_rng(7)
    pred, truth = g.integers(0, 5, 100_000), g.integers(0, 5, 100_000)
    assert evaluate.clustering_accuracy(pred, truth) == oracle.brute_force_accuracy(pred, truth)
    eye = np.eye(5, dtype=np.int64)
    table = 4000 + np.roll(eye, 1, axis=1) - eye  # the shifted diagonal wins by one count per cell
    assert evaluate.clustering_accuracy(*_table_labels(table)) == 20_005 / 100_000


def test_the_matching_total_equals_scipys(rng):
    from scipy.optimize import linear_sum_assignment

    for _ in range(150):
        rows = int(rng.integers(1, 41))
        table = rng.integers(0, int(rng.choice([2, 10, 10**6])), size=(rows, int(rng.integers(rows, 41))))
        r, c = linear_sum_assignment(table, maximize=True)
        assert evaluate._max_matching(table.tolist()) == int(table[r, c].sum()), table.shape


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        evaluate.clustering_accuracy([0, 1], [0])


@pytest.mark.parametrize("pred, truth, message", [
    ([[0, 1]], [0, 1], "labels must be a flat sequence"),
    ([0, 1], [[0, 1]], "labels must be a flat sequence"),
    ([], [], "empty label sequences"),
])
def test_scores_reject_labels_that_are_not_one_flat_sequence_each(pred, truth, message):
    for fn in (evaluate.clustering_accuracy, evaluate.adjusted_rand_index, evaluate.normalized_mutual_info):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(pred, truth)


def test_ari_identity():
    assert evaluate.adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_ari_constant_prediction_scores_zero():
    assert evaluate.adjusted_rand_index([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_ari_matches_pair_enumeration_small():
    pred = [0, 0, 1, 1, 2, 2]
    truth = [0, 1, 1, 1, 2, 0]
    _, ari, _ = oracle.pair_count_metrics(pred, truth)
    assert evaluate.adjusted_rand_index(pred, truth) == ari


def test_ari_all_singletons():
    assert evaluate.adjusted_rand_index([0, 1, 2], [2, 0, 1]) == 1.0


def test_nmi_identity_and_constants():
    assert evaluate.normalized_mutual_info([0, 1, 0, 1], [1, 0, 1, 0]) == 1.0
    assert evaluate.normalized_mutual_info([0, 0, 0], [0, 1, 2]) == 0.0
    assert evaluate.normalized_mutual_info([0, 0], [1, 1]) == 1.0


def test_nmi_independent_pair_is_zero():
    assert evaluate.normalized_mutual_info([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_product_distribution_near_zero():
    # every (pred, truth) combination equally often: exactly independent
    pred, truth = [], []
    for a in range(3):
        for b in range(4):
            pred.extend([a] * 5)
            truth.extend([b] * 5)
    assert evaluate.normalized_mutual_info(pred, truth) == pytest.approx(0.0, abs=1e-9)


def test_symmetry_of_ari_and_nmi(rng):
    for _ in range(20):
        n = int(rng.integers(5, 40))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 4, size=n)
        assert evaluate.adjusted_rand_index(a, b) == evaluate.adjusted_rand_index(b, a)
        assert evaluate.normalized_mutual_info(a, b) == pytest.approx(
            evaluate.normalized_mutual_info(b, a), rel=1e-12
        )


def test_metrics_invariant_to_prediction_relabeling(rng):
    d = make_dataset([["a", "b", "c", "a", "b", "c"]], labels=["x", "x", "y", "y", "x", "y"])
    pred = np.array([0, 1, 2, 0, 1, 2], dtype=np.int32)
    perm = np.array([2, 0, 1])
    relabeled = perm[pred].astype(np.int32)
    for fn in (evaluate.clustering_accuracy, evaluate.adjusted_rand_index,
               evaluate.normalized_mutual_info):
        assert fn(pred, d.labels) == pytest.approx(fn(relabeled, d.labels))
    assert evaluate.compactness(d, Partition(pred, 3)) == pytest.approx(
        evaluate.compactness(d, Partition(relabeled, 3))
    )


def test_compactness_zero_for_pure_clusters():
    d = make_dataset([["a", "a", "b", "b"], ["x", "x", "y", "y"]])
    assert evaluate.compactness(d, np.array([0, 0, 1, 1])) == 0.0


def test_compactness_uniform_single_cluster_is_one():
    d = make_dataset([["a", "b", "c", "d"]])
    assert evaluate.compactness(d, np.array([0, 0, 0, 0])) == pytest.approx(1.0)


def test_compactness_two_cluster_hand_value():
    # cluster 0 pure on 'a'; cluster 1 splits b/c evenly over a 3-value column
    d = make_dataset([["a", "a", "b", "c"]])
    got = evaluate.compactness(d, np.array([0, 0, 1, 1]))
    assert got == pytest.approx(math.log(2) / (2 * math.log(3)))


def test_compactness_weakly_decreases_when_splitting_mixed_cluster():
    d = make_dataset([["a", "a", "b", "b"]])
    mixed = evaluate.compactness(d, np.array([0, 0, 0, 0]))
    split = evaluate.compactness(d, np.array([0, 0, 1, 1]))
    assert split <= mixed


def test_compactness_excludes_empty_clusters_and_narrow_columns():
    d = make_dataset([["a", "a", "b", "b"]])
    dense = evaluate.compactness(d, np.array([0, 0, 1, 1]))
    sparse = evaluate.compactness(d, np.array([0, 0, 3, 3]))  # ids 1, 2 unused
    assert dense == pytest.approx(sparse)


def test_compactness_checks_the_length_and_reads_0_without_categorical_columns():
    d = make_dataset([["a", "b", "a", "b"]])
    with pytest.raises(ValueError, match="^partition length does not match the dataset$"):
        evaluate.compactness(d, np.array([0, 1, 0]))
    numerical_only = make_dataset([], num=[0.0, 1.0, 2.0, 3.0])
    assert evaluate.compactness(numerical_only, np.array([0, 1, 0, 1])) == 0.0


def test_score_without_labels_gives_nan_external():
    d = make_dataset([["a", "b", "a", "b"]])
    m = evaluate.score(d, np.array([0, 1, 0, 1]))
    assert math.isnan(m.ca) and math.isnan(m.ari) and math.isnan(m.nmi)
    assert m.cmp == 0.0


def test_aggregate_mean_and_std():
    runs = [
        evaluate.RunMetrics(0.8, 0.5, 0.4, 0.3),
        evaluate.RunMetrics(1.0, 0.7, 0.6, 0.1),
    ]
    rep = evaluate.aggregate(runs)
    assert rep.mean.ca == pytest.approx(0.9)
    assert rep.std.ca == pytest.approx(np.std([0.8, 1.0], ddof=1))
    single = evaluate.aggregate(runs[:1])
    assert single.std.ca == 0.0
    with pytest.raises(ValueError):
        evaluate.aggregate([])


def test_aggregate_ten_run_shape():
    runs = [evaluate.RunMetrics(0.9 + 0.01 * i, 0.0, 0.0, 0.0) for i in range(10)]
    rep = evaluate.aggregate(runs)
    assert 0.9 <= rep.mean.ca <= 1.0


def test_metric_ranges(rng):
    for _ in range(30):
        n = int(rng.integers(4, 50))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 3, size=n)
        assert 0.0 <= evaluate.clustering_accuracy(pred, truth) <= 1.0
        assert -1.0 <= evaluate.adjusted_rand_index(pred, truth) <= 1.0
        assert 0.0 <= evaluate.normalized_mutual_info(pred, truth) <= 1.0 + 1e-12


def _labels(rng, n):
    """Random labels with a random number of distinct ids, some skipped: empty clusters, gaps, k = 1."""
    k = int(rng.integers(1, 6))
    ids = np.sort(rng.choice(3 * k, size=k, replace=False))
    return ids[rng.integers(0, k, size=n)]


def test_score_equals_the_reference_scores_bit_for_bit(rng):
    for trial in range(120):
        n = int(rng.integers(2, 120))
        d = synthesize(n, int(rng.integers(1, 5)), 3, values_per_attribute=int(rng.integers(2, 6)),
                       seed=trial)
        pred, truth = _labels(rng, n), _labels(rng, n)
        if trial % 10 == 0:
            pred[:] = 0  # k = 1
        got = evaluate.score(d, pred, truth)
        _, ari, nmi = oracle.pair_count_metrics(pred, truth)
        want = evaluate.RunMetrics(
            ca=evaluate.clustering_accuracy(pred.astype(float), truth.astype(float)),  # np.unique table
            ari=ari, nmi=nmi, cmp=oracle.attribute_compactness(d, pred),
        )
        assert [x.hex() for x in dataclasses.astuple(got)] == [x.hex() for x in dataclasses.astuple(want)]


def test_integer_contingency_equals_the_unique_table(rng):
    for _ in range(100):
        n = int(rng.integers(1, 60))
        pred, truth = _labels(rng, n), _labels(rng, n)
        ref = evaluate.contingency(pred.astype(float), truth.astype(float))
        for p, t in ((pred, truth), (pred - 2, truth), (pred.astype(np.uint8), truth.astype(np.uint64)),
                     (pred * 10**9, truth)):  # negative and huge labels take the np.unique path
            table = evaluate.contingency(p, t)
            assert table.dtype == ref.dtype and table.tolist() == ref.tolist()


def test_ari_equals_the_fraction_form_on_its_edge_cases():
    for pred, truth in (([0], [0]), ([0, 0], [0, 0]), ([0, 1], [1, 0]), ([0, 0, 1], [0, 1, 1]),
                        ([0, 1, 2, 3], [0, 0, 0, 0]), ([3, 3, 7, 7, 7], [1, 2, 1, 2, 1])):
        assert evaluate.adjusted_rand_index(pred, truth) == oracle.pair_count_metrics(pred, truth)[1]
