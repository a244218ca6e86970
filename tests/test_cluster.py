import numpy as np
import pytest

from conftest import make_dataset
from ordclust import cluster, evaluate, metric, oracle, order
from ordclust.cluster import FitConfig, Partition
from ordclust.data import Dataset, synthesize


def separable_dataset():
    # two blocks with disjoint values on every attribute
    cols = [
        ["a"] * 10 + ["b"] * 10,
        ["x"] * 10 + ["y"] * 10,
        ["p"] * 10 + ["q"] * 10,
    ]
    labels = ["c0"] * 10 + ["c1"] * 10
    return make_dataset(cols, labels=labels)


def identical_rows_dataset(n=6):
    return Dataset(
        cat=np.zeros((n, 2), dtype=np.int32),
        num=np.empty((n, 0)),
        dictionaries=(("a", "b"), ("x", "y")),
        cat_names=("a0", "a1"),
        cat_kinds=("nominal", "nominal"),
        semantic_ranks=(None, None),
        num_names=(),
    )


def test_assign_examples():
    d = make_dataset([["a", "a", "b", "b", "a"]])
    prof = metric.compute_profile(d, Partition(np.array([0, 0, 1, 1, 0], dtype=np.int32), 2))
    part = cluster.assign(d, prof, order.dictionary_orders(d))
    assert part.assign.tolist() == [0, 0, 1, 1, 0]


def test_assign_tie_breaks_to_lowest_id():
    d = make_dataset([["a", "b", "a", "b"]])
    prof = metric.compute_profile(d, Partition(np.array([0, 0, 1, 1], dtype=np.int32), 2))
    # both clusters are 50/50: every sample ties, everyone goes to cluster 0
    part = cluster.assign(d, prof, order.dictionary_orders(d))
    assert part.assign.tolist() == [0, 0, 0, 0]


def test_assign_matches_per_sample_recomputation(rng):
    d = synthesize(40, 3, 3, values_per_attribute=4, seed=29)
    q0 = Partition(rng.integers(0, 3, size=40).astype(np.int32), 3)
    prof = metric.compute_profile(d, q0)
    o = order.random_orders(d, rng)
    part = cluster.assign(d, prof, o)
    table = oracle.build_distance_table(d, o)
    for i in range(d.n):
        dists = [
            oracle.sample_cluster_distance(i, m, table, prof) if prof.sizes[m] else np.inf
            for m in range(3)
        ]
        assert part.assign[i] == int(np.argmin(dists))


def test_assign_never_fills_empty_clusters():
    d = make_dataset([["a", "b", "a", "b"]])
    prof = metric.compute_profile(d, Partition(np.array([0, 0, 0, 0], dtype=np.int32), 3))
    part = cluster.assign(d, prof, order.dictionary_orders(d))
    assert set(part.assign.tolist()) == {0}


def test_fit_separable():
    d = separable_dataset()
    res = cluster.fit(d, FitConfig(k=2, seed=1))
    assert evaluate.clustering_accuracy(res.partition, d.labels) == 1.0
    assert res.trace.best_objective == pytest.approx(0.0)
    assert res.trace.converged


def test_fit_identical_samples_degenerate():
    d = identical_rows_dataset()
    res = cluster.fit(d, FitConfig(k=2, seed=0))
    assert res.trace.best_objective == 0.0
    assert res.trace.converged
    assert res.partition.effective_k == 1


def test_fit_deterministic():
    d = synthesize(80, 4, 3, values_per_attribute=4, seed=31)
    a = cluster.fit(d, FitConfig(k=3, seed=12))
    b = cluster.fit(d, FitConfig(k=3, seed=12))
    assert np.array_equal(a.partition.assign, b.partition.assign)
    assert a.trace.objective_values == b.trace.objective_values
    for ra, rb in zip(a.orders.ranks, b.orders.ranks):
        assert np.array_equal(ra, rb)
    c = cluster.fit(d, FitConfig(k=3, seed=13))
    assert a.trace.objective_values != c.trace.objective_values


def segment_bounds(trace):
    start = 0
    for count in trace.inner_counts:
        yield start, start + count
        start += count


def test_fit_strict_descent_within_segments(rng):
    for seed in range(4):
        d = synthesize(70, 4, 3, values_per_attribute=4, seed=seed)
        res = cluster.fit(d, FitConfig(k=3, seed=seed))
        tr = res.trace
        for (lo, hi), base in zip(segment_bounds(tr), tr.epoch_baselines):
            seg = tr.objective_values[lo:hi]
            vals = [base] + seg
            for prev, cur in zip(vals, vals[1:-1]):
                assert cur < prev
            if len(vals) >= 2:
                assert vals[-1] >= vals[-2] or hi - lo == res.trace.total_inner_iterations


def test_fit_returns_best_objective_seen():
    d = synthesize(60, 3, 3, values_per_attribute=4, seed=37)
    res = cluster.fit(d, FitConfig(k=3, seed=5))
    assert res.trace.best_objective <= min(res.trace.objective_values)
    assert res.trace.best_objective <= res.trace.init_objective


def test_fit_random_partition_init():
    # asymmetric blocks so the first assignment step cannot tie everywhere
    cols = [
        ["a"] * 8 + ["b"] * 12,
        ["x"] * 8 + ["y"] * 6 + ["z"] * 6,
        ["p"] * 8 + ["q"] * 12,
    ]
    d = make_dataset(cols, labels=["c0"] * 8 + ["c1"] * 12)
    res = cluster.fit(d, FitConfig(k=2, seed=3, init="random_partition"))
    assert evaluate.clustering_accuracy(res.partition, d.labels) == 1.0
    assert res.trace.converged


def test_fit_requires_categorical_columns():
    d = Dataset(
        cat=np.empty((4, 0), dtype=np.int32),
        num=np.ones((4, 2)),
        dictionaries=(),
        cat_names=(),
        cat_kinds=(),
        semantic_ranks=(),
        num_names=("x0", "x1"),
    )
    with pytest.raises(ValueError, match="categorical"):
        cluster.fit(d, FitConfig(k=2, seed=0))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(k=0)
    with pytest.raises(ValueError):
        FitConfig(k=2, init="nope")
    with pytest.raises(ValueError):
        FitConfig(k=2, order_mode="fixed")
    with pytest.raises(ValueError):
        FitConfig(k=2, ablation="single_order_update", order_mode="hamming")


def test_fit_kmodes_separable():
    d = separable_dataset()
    part, trace = cluster.fit_kmodes(d, 2, seed=7)
    assert evaluate.clustering_accuracy(part, d.labels) == 1.0
    assert trace.converged


def test_fit_kmodes_identical_samples():
    d = identical_rows_dataset()
    part, _ = cluster.fit_kmodes(d, 3, seed=1)
    assert part.effective_k == 1


def test_fit_kmodes_rejects_k_above_n():
    d = identical_rows_dataset(n=3)
    with pytest.raises(ValueError):
        cluster.fit_kmodes(d, 4, seed=0)


def test_fixed_order_binary_collapse_per_seed(rng):
    d = synthesize(80, 5, 2, values_per_attribute=2, seed=41, planted_labels=True)
    for seed in range(4):
        parts = []
        for _ in range(3):
            o = order.random_orders(d, rng)
            parts.append(cluster.fit_fixed_order(d, 2, o, seed=seed).partition.assign)
        wo = cluster.fit_fixed_order(d, 2, None, seed=seed).partition.assign
        for p in parts:
            assert np.array_equal(p, wo)


def test_fixed_order_semantic_baseline():
    cols = [["low", "low", "high", "high", "mid", "mid"]]
    d = make_dataset(cols, labels=["c0"] * 3 + ["c1"] * 3)
    d = Dataset(
        cat=d.cat, num=d.num, dictionaries=d.dictionaries, cat_names=d.cat_names,
        cat_kinds=("ordinal",), semantic_ranks=(np.array([1, 3, 2]),),
        num_names=(), labels=d.labels, label_values=d.label_values,
    )
    o = order.semantic_orders(d)
    res = cluster.fit_fixed_order(d, 2, o, seed=0)
    assert res.orders.ranks[0].tolist() == [1, 3, 2]


def test_learned_orders_no_worse_than_random_median():
    # same seeds, same data: the learned fit's objective should sit at or
    # below the median objective across random fixed orders
    rng = np.random.default_rng(99)
    d = synthesize(120, 4, 3, values_per_attribute=5, seed=43)
    seeds = range(5)
    learned = [cluster.fit(d, FitConfig(k=3, seed=s)).trace.best_objective for s in seeds]
    random_ls = []
    for s in seeds:
        for _ in range(9):
            o = order.random_orders(d, rng)
            random_ls.append(cluster.fit_fixed_order(d, 3, o, seed=s).trace.best_objective)
    assert np.mean(learned) <= np.median(random_ls)


def test_hamming_ablation_equals_wo_fit(rng):
    d = synthesize(60, 4, 3, values_per_attribute=4, seed=47, planted_labels=True)
    for seed in range(3):
        a = cluster.fit(d, FitConfig(k=3, seed=seed, ablation="hamming_only"))
        b = cluster.fit_fixed_order(d, 3, None, seed=seed)
        assert np.array_equal(a.partition.assign, b.partition.assign)
        for mat in metric.value_distance_matrices(d, a.orders):
            l = mat.shape[0]
            assert np.array_equal(mat, 1.0 - np.eye(l))


def test_single_update_ablation_refreshes_orders_once():
    d = synthesize(90, 4, 3, values_per_attribute=5, seed=53)
    res = cluster.fit(d, FitConfig(k=3, seed=2, ablation="single_order_update"))
    assert len(res.trace.order_update_iterations) == 1
    assert res.trace.epochs == 1
    assert res.trace.converged


def test_mode_theta_ablation_runs():
    d = synthesize(90, 4, 3, values_per_attribute=5, seed=59)
    res = cluster.fit(d, FitConfig(k=3, seed=2, ablation="no_prob_weight"))
    assert res.trace.converged
    res.orders.validate(d)


def test_ordinal_policies():
    cols = [
        ["low", "mid", "high", "low", "mid", "high", "low", "high"],
        ["a", "b", "c", "d", "a", "b", "c", "d"],
    ]
    d = make_dataset(cols, labels=["c0"] * 4 + ["c1"] * 4)
    d = Dataset(
        cat=d.cat, num=d.num, dictionaries=d.dictionaries, cat_names=d.cat_names,
        cat_kinds=("ordinal", "nominal"), semantic_ranks=(np.array([1, 2, 3]), None),
        num_names=(), labels=d.labels, label_values=d.label_values,
    )
    keep_ordinal = cluster.fit(d, FitConfig(k=2, seed=0, ordinal_policy="preserve_ordinal"))
    assert keep_ordinal.orders.ranks[0].tolist() == [1, 2, 3]
    keep_all = cluster.fit(d, FitConfig(k=2, seed=0, ordinal_policy="preserve_all"))
    assert keep_all.orders.ranks[0].tolist() == [1, 2, 3]
    assert keep_all.orders.ranks[1].tolist() == [1, 2, 3, 4]
    assert keep_all.trace.epochs == 1  # nothing to learn


def test_fit_mixed_requires_numericals():
    d = synthesize(20, 3, 2, values_per_attribute=3, seed=0)
    with pytest.raises(ValueError, match="numerical"):
        cluster.fit_mixed(d, FitConfig(k=2, seed=0))


def test_fit_mixed_constant_numericals_match_categorical_fit():
    cols = [
        ["a"] * 10 + ["b"] * 10,
        ["x"] * 10 + ["y"] * 10,
    ]
    labels = ["c0"] * 10 + ["c1"] * 10
    base = make_dataset(cols, labels=labels, num=[[1.0]] * 20)
    mixed = cluster.fit_mixed(base, FitConfig(k=2, seed=4))
    pure = cluster.fit(base, FitConfig(k=2, seed=4))
    ca_mixed = evaluate.clustering_accuracy(mixed.partition, base.labels)
    ca_pure = evaluate.clustering_accuracy(pure.partition, base.labels)
    assert ca_mixed == ca_pure == 1.0


def test_fit_mixed_binary_orders_are_immaterial():
    d = synthesize(60, 4, 2, values_per_attribute=2, seed=61, planted_labels=True)
    d = Dataset(
        cat=d.cat, num=np.linspace(0, 1, 60)[:, None], dictionaries=d.dictionaries,
        cat_names=d.cat_names, cat_kinds=d.cat_kinds, semantic_ranks=d.semantic_ranks,
        num_names=("x0",), labels=d.labels, label_values=d.label_values,
    )
    learned = cluster.fit_mixed(d, FitConfig(k=2, seed=9))
    fixed = cluster.fit_mixed(
        d, FitConfig(k=2, seed=9, order_mode="fixed", fixed_orders=order.dictionary_orders(d))
    )
    assert np.array_equal(learned.partition.assign, fixed.partition.assign)


def test_fit_kprototypes_runs():
    cols = [["a"] * 10 + ["b"] * 10]
    base = make_dataset(cols, labels=["c0"] * 10 + ["c1"] * 10,
                        num=[[0.0]] * 10 + [[1.0]] * 10)
    part, trace = cluster.fit_kprototypes(base, 2, seed=0)
    assert evaluate.clustering_accuracy(part, base.labels) == 1.0
    assert trace.converged


def test_efficiency_bench_rows():
    rows = cluster.efficiency_bench("n", [200, 400], s=4, k=2, seed=0)
    assert [r.n for r in rows] == [200, 400]
    assert all(r.wall_time > 0 for r in rows)
    with pytest.raises(ValueError):
        cluster.efficiency_bench("m", [10])
