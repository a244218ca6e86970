import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_dataset, minmax_columns
from ordclust import cli, cluster, evaluate, fixtures, metric, order
from ordclust.cluster import ABLATIONS, FitConfig, Partition
from ordclust.data import DataError, Dataset, synthesize


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
    prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
    return metric.cluster_distances(d.onehot, matrices, prof).argmin(axis=1)


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


def test_partition_leaves_the_callers_array_writeable():
    a = np.array([0, 1, 0])
    q = Partition(a, 2)
    assert a.flags.writeable
    a[0] = 1
    assert q.assign.tolist() == [0, 1, 0]


def test_refresh_reuses_the_fits_tables(monkeypatch):
    # The refresh takes the profile and distance matrices the fit holds, so a
    # fit builds one set of matrices up front and one per refreshed order set,
    # and a refresh tallies no profile, sums no objective and reads no sample.
    calls = {"value_distance_matrices": 0, "profile_from_assignment": 0, "objective_total": 0}
    in_refresh = {name: 0 for name in calls}
    refreshing = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            in_refresh[name] += bool(refreshing)
            return fn(*args, **kwargs)
        return wrapper

    def refresh(d, *args, **kwargs):
        refreshing.append(True)
        try:
            # the dataset's shape only: no per-sample table to pass over
            shape = SimpleNamespace(n=d.n, cardinalities=d.cardinalities,
                                    onehot=SimpleNamespace(offsets=d.onehot.offsets))
            return learn_orders(shape, *args, **kwargs)
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
    assert calls["profile_from_assignment"] > 0 and calls["objective_total"] > 0
    assert in_refresh == {name: 0 for name in calls}


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
            cfg = FitConfig(k=2, seed=seed, order_mode="fixed", fixed_orders=o)
            parts.append(cluster.fit(d, cfg).partition.assign)
        wo = cluster.fit(d, FitConfig(k=2, seed=seed, order_mode="hamming")).partition.assign
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
    res = cluster.fit(d, FitConfig(k=2, seed=0, order_mode="semantic"))
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
            cfg = FitConfig(k=3, seed=s, order_mode="fixed", fixed_orders=o)
            random_ls.append(cluster.fit(d, cfg).trace.best_objective)
    assert np.mean(learned) <= np.median(random_ls)


def test_hamming_ablation_equals_wo_fit(rng):
    d = synthesize(60, 4, 3, values_per_attribute=4, seed=47, planted_labels=True)
    for seed in range(3):
        a = cluster.fit(d, FitConfig(k=3, seed=seed, ablation="hamming_only"))
        b = cluster.fit(d, FitConfig(k=3, seed=seed, order_mode="hamming"))
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
        cols = np.ascontiguousarray(data.T)
        assert cluster._squared_distances(cols, centers).tobytes() == broadcast.T.tobytes()


def test_row_sums_follow_numpys_row_sum_order(rng):
    # Pins numpy's pairwise summation order on the installed version: a
    # numpy whose contiguous row sum adds in another order fails here.
    for dim in [*range(1, 41), 63, 64, 65, 127, 128, 129, 130, 200, 257]:
        x = 10.0 ** rng.uniform(-6, 6, size=(300, dim))
        x[rng.random(x.shape) < 0.1] = 0.0
        expected = x.sum(axis=1)
        assert cluster._row_sums(np.ascontiguousarray(x.T)).tobytes() == expected.tobytes(), dim


def test_squared_distances_allocate_one_feature_buffer():
    # One (dim, n) buffer of squared differences plus the (k, n) result, and
    # nothing per centre: the row-major form also took an n-long sum per centre.
    n, dim, k = 100_000, 14, 5
    rng = np.random.default_rng(0)
    cols, centers = rng.random((dim, n)), rng.random((k, dim))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cluster._squared_distances(cols, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (dim + k) * n * 8 + 2**18


# Row-major reference loops: the (n, dim) k-means and k-prototypes forms the
# column-major kernels must reproduce bit for bit.
def _reference_distances(data, centers):
    out = np.empty((data.shape[0], centers.shape[0]))
    for m, center in enumerate(centers):
        out[:, m] = ((data - center) ** 2).sum(axis=1)
    return out


def _reference_lloyd(data, k, seed, max_iter):
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = data[rng.integers(n, size=k - j)]
            break
        centers[j] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    prev = None
    for _ in range(max_iter):
        a = _reference_distances(data, centers).argmin(axis=1)
        if prev is not None and np.array_equal(a, prev):
            return a, True
        for m in range(k):
            if (a == m).any():
                centers[m] = data[a == m].mean(axis=0)
        prev = a
    return prev, False


def _reference_kprototypes(d, k, seed, max_iter):
    # mismatches and lowest-index modes do not depend on the one-hot column offsets
    codes, num = d.cat.T, minmax_columns(d.num)
    rng = np.random.default_rng(seed)
    s_cat, n = codes.shape
    idx = rng.choice(n, size=k, replace=False)
    modes, means = codes[:, idx].T.copy(), num[idx].copy()
    values, prev = [], None
    for _ in range(max_iter):
        dist = _reference_distances(num, means)
        for r in range(s_cat):
            dist += codes[r][:, None] != modes[None, :, r]
        a = dist.argmin(axis=1)
        values.append(float(dist[np.arange(n), a].sum()) / (s_cat + num.shape[1]))
        if prev is not None and np.array_equal(a, prev):
            break
        for m in range(k):
            if (a == m).any():
                means[m] = num[a == m].mean(axis=0)
                modes[m] = [np.bincount(codes[r][a == m]).argmax() for r in range(s_cat)]
        prev = a
    return a, values


def _mixed_rows(rng, n, dim, distinct):
    """(categorical, numerical) rows: random, or copies of ``distinct`` grid rows (exact distance ties)."""
    if distinct is None:
        return rng.integers(0, 3, size=(n, 2)), rng.normal(size=(n, dim))
    pick = np.r_[0, 1, rng.integers(0, distinct, size=n - 2)]
    cat = np.r_[[[0, 0], [1, 1]], rng.integers(0, 2, size=(distinct - 2, 2))]
    return cat[pick], (rng.integers(0, 3, size=(distinct, dim)) / 2.0)[pick]


# (n, dim, k, distinct grid rows): k = 1, dim = 1, dim >= 9, ties, emptied clusters
EQUIVALENCE_CASES = [(40, 1, 1, None), (200, 1, 3, None), (300, 9, 4, None), (400, 14, 2, None),
                     (150, 130, 3, None), (257, 20, 5, 12), (300, 2, 4, 6), (60, 3, 4, 2)]


def test_lloyd_kmeans_reproduces_the_row_major_loop(rng):
    emptied = 0
    for n, dim, k, distinct in EQUIVALENCE_CASES:
        data = _mixed_rows(rng, n, dim, distinct)[1]
        cols = np.ascontiguousarray(data.T)
        for seed in range(3):
            for max_iter in (1, 2, 100):
                ref, ref_converged = _reference_lloyd(data, k, seed, max_iter)
                got, converged = cluster.lloyd_kmeans(cols, k, seed=seed, max_iter=max_iter)
                assert np.array_equal(got, ref) and converged == ref_converged, (n, dim, k, seed)
            emptied += np.bincount(ref, minlength=k).min() == 0
    assert emptied > 0


def test_fit_kprototypes_reproduces_the_row_major_loop(rng):
    emptied = 0
    for n, dim, k, distinct in EQUIVALENCE_CASES:
        cat, num = _mixed_rows(rng, n, dim, distinct)
        mixed = make_dataset([[f"v{x}" for x in col] for col in cat.T], num=num)
        for d in (mixed, make_dataset([], num=num)):  # and with no categorical column
            for seed in range(3):
                for max_iter in (1, 3, 100):
                    ref, values = _reference_kprototypes(d, k, seed, max_iter)
                    part, trace = cluster.fit_kprototypes(d, k, seed=seed, max_iter=max_iter)
                    assert np.array_equal(part.assign, ref), (n, dim, k, seed, d.s_categorical)
                    assert [v.hex() for v in trace.objective_values] == [v.hex() for v in values]
                emptied += np.bincount(ref, minlength=k).min() == 0
    assert emptied > 0


def test_filtered_assignment_equals_the_exact_path(rng, monkeypatch):
    exact = cluster._squared_distances
    verified = []
    monkeypatch.setattr(cluster, "_squared_distances", lambda c, ce: verified.append(c.shape[1]) or exact(c, ce))

    def columns_verified(cols, centers):
        verified.clear()
        got = cluster._assign(cols, centers, np.einsum("ij,ij->j", cols, cols))
        assert np.array_equal(got, cluster._nearest(exact(cols, centers))[0])
        return sum(verified)

    cols = rng.normal(size=(5, 2000))
    assert columns_verified(cols, rng.normal(size=(4, 5))) < 20
    assert columns_verified(cols, rng.normal(size=(1, 5))) == 0  # k = 1
    # near-ties: points within a few ulps of the bisector of two centres, a third centre far off
    centers = np.r_[rng.random((2, 4)), np.full((1, 4), 9.0)]
    normal = (centers[1] - centers[0]) / np.linalg.norm(centers[1] - centers[0])
    plane = rng.normal(size=(600, 4)) * 0.1
    plane -= (plane @ normal)[:, None] * normal
    steps = np.repeat(np.arange(-3, 3), 100)[:, None] * np.spacing(1.0) * normal
    near = np.ascontiguousarray(((centers[0] + centers[1]) / 2 + plane + steps).T)
    assert columns_verified(near, centers) == 600
    nearest = cluster._nearest(exact(near, centers))[0]
    ranking = np.einsum("ij,ij->i", centers, centers)[:, None] - 2.0 * (centers @ near)
    assert set(nearest.tolist()) == {0, 1} and (ranking.argmin(axis=0) != nearest).any()
    # exact grid ties, among them a repeated centre
    grid = rng.integers(0, 3, size=(3, 500)) / 2.0
    assert columns_verified(grid, np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0], [0.5, 1, 0]])) > 0
    # magnitudes where |c|^2 - 2 c.x overflows: distances overflow too, or stay finite
    huge = 1e200 * rng.integers(-2, 3, size=(3, 300)).astype(float)
    with np.errstate(over="ignore"):
        assert columns_verified(huge, huge[:, :3].T.copy()) == 300
    big = 1.5e154 + rng.normal(size=(3, 300)) * 1e152
    assert np.isfinite(exact(big, big[:, :2].T)).all()
    assert columns_verified(big, big[:, :2].T.copy()) == 300


def test_kmeans_pp_init_makes_one_distance_pass_per_draw(rng, monkeypatch):
    cols = rng.random((3, 200))
    exact = cluster._squared_distances
    calls = []
    monkeypatch.setattr(cluster, "_squared_distances", lambda c, ce: calls.append(len(ce)) or exact(c, ce))
    for k in range(1, 6):
        calls.clear()
        cluster._kmeans_pp_init(cols, k, np.random.default_rng(k))
        assert calls == [1] * (k - 1)


def test_baselines_reject_a_zero_iteration_cap():
    d = fixtures.load_fixture("AC")
    cols = np.ascontiguousarray(minmax_columns(d.num).T)
    for run in (lambda cap: cluster.fit_kmodes(d, 2, max_iter=cap),
                lambda cap: cluster.fit_kprototypes(d, 2, max_iter=cap),
                lambda cap: cluster.lloyd_kmeans(cols, 2, max_iter=cap)):
        for cap in (0, -1):
            with pytest.raises(ValueError, match=r"^iteration caps must be >= 1$"):
                run(cap)


def test_lloyd_kmeans_validates_k_like_the_baselines():
    cols = np.random.default_rng(0).random((2, 10))
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        cluster.lloyd_kmeans(cols, 0, max_iter=0)  # k is checked before the cap, as in the baselines
    with pytest.raises(ValueError, match=r"^iteration caps must be >= 1$"):
        cluster.lloyd_kmeans(cols, 11, max_iter=0)
    with pytest.raises(ValueError, match=r"^k exceeds the sample count$"):
        cluster.lloyd_kmeans(cols, 11)
    assert sorted(cluster.lloyd_kmeans(cols, 10)[0].tolist()) == list(range(10))  # k = n: one sample each


@pytest.mark.parametrize("method, kernel", [("main", "cluster_distances"), ("mode_dist", "mode_distances")])
def test_every_inner_iteration_calls_the_distance_kernel_through_metric(method, kernel, monkeypatch):
    d = fixtures.load_fixture("HR")
    calls = {"cluster_distances": 0, "mode_distances": 0}
    for name in calls:
        def counted(*args, name=name, wrapped=getattr(metric, name)):
            calls[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(metric, name, counted)
    iterations = sum(cli._run_method(d, method, 3, seed)[2].total_inner_iterations for seed in range(3))
    assert iterations > 0
    assert calls == {"cluster_distances": 0, "mode_distances": 0, kernel: iterations}


def test_fit_kprototypes_validates_k_like_fit_kmodes():
    d = make_dataset([["a", "b", "a", "b"]], num=[0.0, 1.0, 2.0, 3.0])
    for baseline in (cluster.fit_kmodes, cluster.fit_kprototypes):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            baseline(d, 0, seed=0)
        with pytest.raises(ValueError, match=r"^k exceeds the sample count$"):
            baseline(d, 5, seed=0)


def test_fit_mixed_reports_a_capped_kmeans(monkeypatch):
    d = fixtures.load_fixture("AC")
    full = cluster.fit_mixed(d, FitConfig(k=2, seed=0))
    assert full.trace.converged
    lloyd = cluster.lloyd_kmeans
    monkeypatch.setattr(cluster, "lloyd_kmeans", lambda *args, **kwargs: lloyd(*args, **kwargs, max_iter=1))
    capped = cluster.fit_mixed(d, FitConfig(k=2, seed=0))
    assert not capped.trace.converged
    assert capped.trace.objective_values == full.trace.objective_values  # stage one is untouched


def test_fit_kprototypes_rejects_a_range_that_overflows():
    d = make_dataset([["a", "b", "a", "b"]], num=[-1.7e308, 1.7e308, 0.0, 1.0])
    with pytest.raises(DataError, match="'x0'"):
        cluster.fit_kprototypes(d, 2, seed=0)


@pytest.mark.parametrize("method", ["main", "mode_dist"])
def test_fit_builds_one_cost_table_per_objective(method, monkeypatch):
    # The objective of a step builds its profile's table; the next step's
    # distances and an order refresh of that profile read it back.
    calls = {"objective_total": 0, "_cost_table": 0, "cluster_distances": 0, "mode_distances": 0}
    reading, built_while_reading = [], []

    def counted(name, fn, reads):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "_cost_table":
                built_while_reading.append(any(reading))
            reading.append(reads)
            try:
                return fn(*args, **kwargs)
            finally:
                reading.pop()
        return wrapper

    for name in calls:
        monkeypatch.setattr(metric, name, counted(name, getattr(metric, name), name.endswith("distances")))
    monkeypatch.setattr(order, "learn_orders", counted("learn_orders", order.learn_orders, True))
    res = cli._run_method(fixtures.load_fixture("HR"), method, 3, 0)[2]
    assert calls["learn_orders"] > 0 and res.total_inner_iterations > 0
    assert calls["_cost_table"] == calls["objective_total"]
    assert not any(built_while_reading)


SHARED_START_FLOWS = ("main", "mode_dist", "single_update", "hamming")
# Every kind of start orders: dictionary, hamming, preserved, semantic.
START_ORDER_FLOWS = {**cli.FIT_METHODS, "semantic": {"order_mode": "semantic"}}


def _fit_state(res):
    """Everything a fit returns, floats by repr (exact for every float), wall time left out."""
    trace = dataclasses.asdict(res.trace)
    del trace["wall_time"]
    def arrays(xs):
        return None if xs is None else [None if x is None else (x.dtype.str, x.tobytes()) for x in xs]

    return (res.partition.k, res.partition.assign.tobytes(), arrays(res.orders.ranks),
            arrays(res.orders.scores), repr(trace))


def _flow_config(flow, seed, init="kmodes_once"):
    return FitConfig(k=3, seed=seed, init=init, **START_ORDER_FLOWS[flow])


def test_fits_from_the_shared_start_equal_fits_on_fresh_datasets():
    # Flows interleaved within each (seed, init), the order bench and ablate
    # fit in, so every flow after the first starts from the Dataset's slot.
    d = fixtures.load_fixture("HR")
    for seed in range(4):
        for init in cluster.INITS:
            for flow in START_ORDER_FLOWS:
                cfg = _flow_config(flow, seed, init)
                shared = cluster.fit(d, cfg)
                assert d._start[0][:2] == (3, init)
                assert _fit_state(shared) == _fit_state(cluster.fit(dataclasses.replace(d), cfg)), (seed, init, flow)


def test_fit_keeps_one_read_only_start_per_dataset(kmodes_calls):
    d = fixtures.load_fixture("HR")
    for seed in range(20):
        for flow in SHARED_START_FLOWS:
            cluster.fit(d, _flow_config(flow, seed))
    assert len(kmodes_calls) == 20
    key, (assign, prof) = d._start
    assert key[:2] == (3, "kmodes_once")
    assert key[2] == np.random.SeedSequence(19).spawn(2)[0].pool.tobytes()
    # Only the start tables of the shared orders: (dictionary, profile), (dictionary, mode), (hamming, profile).
    assert len(prof._costs) == 3
    assert sorted(d._start_orders) == ["dictionary", "hamming"]
    arrays = [assign, prof.sizes, prof.counts, *prof.probs]
    for orders, matrices in d._start_orders.values():
        arrays += [r for r in orders.ranks if r is not None] + list(matrices)
    assert not any(a.flags.writeable for a in arrays)


def test_equal_seeds_of_any_type_share_one_start(kmodes_calls):
    # The slot compares seed streams, not seed objects: a numpy integer matches
    # its int, and equal entropy arrays match without an array comparison.
    d = fixtures.load_fixture("HR")
    for seed in (7, np.int64(7), np.array([1, 2]), np.array([1, 2])):
        cluster.fit(d, FitConfig(k=3, seed=seed))
    assert len(kmodes_calls) == 2


def test_drawn_start_orders_are_built_per_fit():
    d = fixtures.load_fixture("HR")
    rng = np.random.default_rng(3)
    for i in range(3):
        cluster.fit(d, FitConfig(k=3, seed=0, order_mode="fixed", fixed_orders=order.random_orders(d, rng)))
        cluster.fit(d, FitConfig(k=3, seed=0, order_mode="random"))
        cluster.fit(d, FitConfig(k=3, seed=0, random_order_init=True))
    assert d._start_orders == {}
    assert d._start[1][1]._costs == {}


def test_concurrent_fits_on_a_shared_dataset_equal_the_serial_fits():
    d = fixtures.load_fixture("HR")
    jobs = [(flow, seed, init) for seed in (0, 1, 0, 2, 1) for init in cluster.INITS for flow in SHARED_START_FLOWS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so fits swap the slot under each other
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda job: _fit_state(cluster.fit(d, _flow_config(*job))), job) for job in jobs]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [_fit_state(cluster.fit(dataclasses.replace(d), _flow_config(*job))) for job in jobs]
