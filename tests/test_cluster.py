import numpy as np
import pytest

from conftest import make_dataset
from ordclust import cli, cluster, evaluate, fixtures, metric, order
from ordclust.cluster import ABLATIONS, FitConfig, Partition
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


def _nearest(d, q, o):
    """The fit's assignment step: argmin of the profile distances."""
    matrices = metric.value_distance_matrices(d, o)
    return metric.cluster_distances(d.onehot, matrices, metric.compute_profile(d, q)).argmin(axis=1)


def test_assign_tie_breaks_to_lowest_id():
    d = make_dataset([["a", "b", "a", "b"]])
    # both clusters are 50/50: every sample ties, everyone goes to cluster 0
    q = Partition(np.array([0, 0, 1, 1], dtype=np.int32), 2)
    assert _nearest(d, q, order.dictionary_orders(d)).tolist() == [0, 0, 0, 0]


def test_assign_never_fills_empty_clusters():
    d = make_dataset([["a", "b", "a", "b"]])
    q = Partition(np.array([0, 0, 0, 0], dtype=np.int32), 3)
    assert set(_nearest(d, q, order.dictionary_orders(d)).tolist()) == {0}


def test_partition_stores_a_read_only_array():
    q = Partition([0, 1, 0], 2)
    assert isinstance(q.assign, np.ndarray)
    assert q.assign.tolist() == [0, 1, 0]
    assert not q.assign.flags.writeable
    with pytest.raises(ValueError):
        q.assign[0] = 1


def test_refresh_reuses_the_fits_tables(monkeypatch):
    # The refresh takes the profile and distance matrices the fit holds, so a
    # fit builds one set of matrices up front and one per refreshed order set.
    calls = {"value_distance_matrices": 0, "compute_profile": 0}
    in_refresh = {name: 0 for name in calls}
    refreshing = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            in_refresh[name] += bool(refreshing)
            return fn(*args, **kwargs)
        return wrapper

    def refresh(*args, **kwargs):
        refreshing.append(True)
        try:
            return learn_orders(*args, **kwargs)
        finally:
            refreshing.pop()

    for name in calls:
        monkeypatch.setattr(metric, name, counted(name, getattr(metric, name)))
    learn_orders = order.learn_orders
    monkeypatch.setattr(order, "learn_orders", refresh)
    res = cluster.fit(fixtures.load_fixture("HR"), FitConfig(k=3, seed=0))
    refreshes = len(res.trace.order_update_iterations)
    assert refreshes > 0
    assert calls["value_distance_matrices"] == 1 + refreshes
    assert in_refresh == {"value_distance_matrices": 0, "compute_profile": 0}


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


def test_single_update_ignores_max_outer():
    d = fixtures.load_fixture("HR")
    for seed in range(5):
        one, many = (
            cluster.fit(d, FitConfig(k=3, seed=seed, ablation="single_order_update", max_outer=m))
            for m in (1, 20)
        )
        assert np.array_equal(one.partition.assign, many.partition.assign)
        assert one.trace.objective_values == many.trace.objective_values
        assert one.trace.inner_counts == many.trace.inner_counts
        assert len(one.trace.inner_counts) == 2  # converge, refresh once, converge again
        assert one.trace.epochs == many.trace.epochs == 1


def test_capped_inner_segment_is_not_convergence():
    d = fixtures.load_fixture("SB")
    for ablation in ABLATIONS:
        res = cluster.fit(d, FitConfig(k=4, seed=0, init="random_partition", max_inner=1, ablation=ablation))
        assert not res.trace.converged, ablation


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
    rows = cli.efficiency_bench("n", [200, 400], s=4, k=2, seed=0)
    assert [r.n for r in rows] == [200, 400]
    assert all(r.wall_time > 0 for r in rows)
    with pytest.raises(ValueError):
        cli.efficiency_bench("m", [10])


def test_squared_distances_equal_the_broadcast_form(rng):
    for n, k, dim in ((1, 1, 1), (50, 3, 2), (300, 5, 7), (64, 8, 20), (1000, 2, 14)):
        data = rng.normal(size=(n, dim))
        centers = rng.normal(size=(k, dim))
        broadcast = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert cluster._squared_distances(data, centers).tobytes() == broadcast.tobytes()
