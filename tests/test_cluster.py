import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_dataset, minmax_columns, split_rows
from ordclust import cli, cluster, data, evaluate, fixtures, metric, oracle, order
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


@pytest.mark.parametrize("assign, message", [
    ([[0, 1], [1, 0]], "assignment must be one id per sample"),
    ([0, 2], r"cluster ids must lie in \[0, k\)"),
    ([-1, 0], r"cluster ids must lie in \[0, k\)"),
])
def test_partition_rejects_ids_that_are_not_one_in_range_per_sample(assign, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Partition(np.array(assign), 2)


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
                                    onehot=SimpleNamespace(offsets=d.onehot.offsets,
                                                           attribute=d.onehot.attribute))
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
        semantic_ranks=(),
        num_names=("x0", "x1"),
    )
    with pytest.raises(ValueError, match="categorical"):
        cluster.fit(d, FitConfig(k=2, seed=0))
    with pytest.raises(DataError, match="^no usable categorical attributes"):
        cluster.fit_kmodes(d, 2)


def test_mixed_fits_require_numerical_columns():
    d = make_dataset([["a", "b", "a", "b"]])
    with pytest.raises(ValueError, match="^dataset has no numerical columns"):
        cluster.fit_kprototypes(d, 2)
    with pytest.raises(ValueError, match="^dataset has no numerical columns; use fit directly"):
        cluster.fit_mixed(d, FitConfig(k=2))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(k=0)
    with pytest.raises(ValueError):
        FitConfig(k=2, init="nope")
    with pytest.raises(ValueError):
        FitConfig(k=2, order_mode="fixed")
    with pytest.raises(ValueError):
        FitConfig(k=2, ablation="single_order_update", order_mode="hamming")
    for kwargs, message in [({"order_mode": "nope"}, "unknown order mode 'nope'"),
                            ({"ablation": "nope"}, "unknown ablation 'nope'"),
                            ({"ordinal_policy": "nope"}, "unknown ordinal policy 'nope'"),
                            ({"max_outer": 0}, "iteration caps must be >= 1"),
                            ({"max_inner": 0}, "iteration caps must be >= 1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            FitConfig(k=2, **kwargs)


NO_ORDER = order.hamming_orders(make_dataset([["a", "b"]]))  # one attribute without an order


@pytest.mark.parametrize("kwargs", [
    {"fixed_orders": NO_ORDER},
    {"order_mode": "random", "fixed_orders": NO_ORDER},
])
def test_fit_config_rejects_fixed_orders_it_would_ignore(kwargs):
    with pytest.raises(ValueError, match="fixed_orders"):
        FitConfig(k=2, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"order_mode": "hamming"},
    {"order_mode": "semantic"},
    {"order_mode": "random"},
    {"order_mode": "fixed", "fixed_orders": NO_ORDER},
    {"ablation": "hamming_only"},
])
def test_fit_config_rejects_a_random_order_init_it_would_ignore(kwargs):
    with pytest.raises(ValueError, match="random_order_init"):
        FitConfig(k=2, random_order_init=True, **kwargs)
    FitConfig(k=2, **kwargs)


def test_fit_config_with_fixed_orders_hashes_and_equals_itself():
    # order sets compare by identity: a second set with the same ranks is another set
    d = make_dataset([["a", "b", "c", "a"]])
    o, same_ranks = (order.random_orders(d, np.random.default_rng(0)) for _ in range(2))
    cfg = FitConfig(k=3, order_mode="fixed", fixed_orders=o)
    assert hash(cfg) == hash(FitConfig(k=3, order_mode="fixed", fixed_orders=o))
    assert cfg == FitConfig(k=3, order_mode="fixed", fixed_orders=o)
    assert cfg != FitConfig(k=3, order_mode="fixed", fixed_orders=same_ranks)


def test_fit_refuses_fixed_orders_built_for_another_dataset():
    d = make_dataset([["a", "b", "c", "a"], ["x", "y", "x", "y"]])  # cardinalities (3, 2)
    # one attribute fewer, the same five values split (2, 3), then this layout with 3 or 40 stacked ranks
    others = ([["a", "b", "a", "b"]], [["a", "b", "a", "b"], ["x", "y", "z", "x"]])
    for o in [order.dictionary_orders(make_dataset(other)) for other in others] + [
            order.OrderSet(np.ones(length, np.int64), d.onehot.offsets) for length in (3, 40)]:
        with pytest.raises(ValueError, match="another dataset"):
            metric.value_distance_matrices(d, o)
        with pytest.raises(ValueError, match="another dataset"):
            cluster.fit(d, FitConfig(k=2, order_mode="fixed", fixed_orders=o))


def test_random_order_init_is_kept_by_every_learned_flow():
    for ablation in ("full", "no_prob_weight", "single_order_update"):
        for policy in cluster.ORDINAL_POLICIES:
            if ablation == "full" or policy != "preserve_all":
                FitConfig(k=2, ablation=ablation, ordinal_policy=policy, random_order_init=True)


@pytest.mark.parametrize("kwargs, message", [
    ({"order_mode": "hamming", "ablation": "hamming_only"}, "ablation 'hamming_only'"),
    ({"order_mode": "semantic", "ablation": "hamming_only"}, "ablation 'hamming_only'"),
    ({"order_mode": "semantic", "ordinal_policy": "preserve_ordinal"}, "ordinal policy 'preserve_ordinal'"),
    ({"order_mode": "random", "ordinal_policy": "preserve_all"}, "ordinal policy 'preserve_all'"),
    ({"ablation": "hamming_only", "ordinal_policy": "preserve_ordinal"}, "ordinal policy 'preserve_ordinal'"),
])
def test_fit_config_rejects_a_setting_the_orders_ignore(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        FitConfig(k=2, **kwargs)


def _settings(fixed_orders):
    """Every (init, order_mode, ablation, ordinal_policy, random_order_init) as FitConfig keywords."""
    for init, mode, ablation, policy, drawn in itertools.product(
        cluster.INITS, cluster.ORDER_MODES, ABLATIONS, cluster.ORDINAL_POLICIES, (False, True)
    ):
        yield {"init": init, "order_mode": mode, "ablation": ablation, "ordinal_policy": policy,
               "random_order_init": drawn, "fixed_orders": fixed_orders if mode == "fixed" else None}


def _valid_settings(fixed_orders):
    valid = []
    for kwargs in _settings(fixed_orders):
        try:
            FitConfig(k=2, **kwargs)
        except ValueError:  # any other exception fails the test
            continue
        valid.append(kwargs)
    return valid


def test_fit_config_accepts_38_of_the_240_settings():
    assert len(list(_settings(NO_ORDER))) == 240
    valid = _valid_settings(NO_ORDER)
    assert len(valid) == 38
    for kwargs in valid:  # only learned orders take an ablation, a policy or a drawn start
        if kwargs["order_mode"] != "learned" or kwargs["ablation"] == "hamming_only":
            assert (kwargs["ordinal_policy"], kwargs["random_order_init"]) == ("learn_all", False)
        if kwargs["order_mode"] != "learned":
            assert kwargs["ablation"] == "full"
    cfgs = [FitConfig(k=2, **kwargs) for kwargs in valid]  # how each setting's orders come about
    assert {cfg.orders for cfg in cfgs} == {"learned", "preserved", "semantic", "random", "hamming", "fixed"}
    for cfg in cfgs:
        assert cfg.learns_orders == (cfg.orders == "learned")
        assert (cfg.orders == "preserved") == (cfg.order_mode == "learned" and cfg.ordinal_policy == "preserve_all")
        assert (cfg.orders == "hamming") == (cfg.order_mode == "hamming" or cfg.ablation == "hamming_only")


def test_learns_orders_is_whether_a_fit_refreshes():
    # a read-only property, not a field, so it adds no option
    assert "learns_orders" not in {f.name for f in dataclasses.fields(FitConfig)}
    d = fixtures.load_fixture("HR")
    for kwargs in _valid_settings(order.random_orders(d, np.random.default_rng(0))):
        cfg = FitConfig(k=3, seed=1, **kwargs)
        assert cfg.learns_orders == bool(cluster.fit(d, cfg).trace.order_update_iterations), kwargs


def test_the_valid_settings_give_36_distinct_fits():
    # The one alias left: hamming_only equals order_mode="hamming", once per init.
    d = fixtures.load_fixture("AP")
    valid = _valid_settings(order.random_orders(d, np.random.default_rng(0)))
    seeds = (3, 4)
    cfgs = [FitConfig(k=2, seed=seed, **kwargs) for seed in seeds for kwargs in valid]
    state = [_fit_state(res) for res in cluster.fit_many(d, cfgs)]
    groups = {}
    for i, kwargs in enumerate(valid):
        key = repr([state[j * len(valid) + i] for j in range(len(seeds))])
        groups.setdefault(key, []).append(kwargs)
    assert len(groups) == 36
    shared = sorted((g[0]["init"], [(kw["order_mode"], kw["ablation"]) for kw in g])
                    for g in groups.values() if len(g) > 1)
    assert shared == [(init, [("learned", "hamming_only"), ("hamming", "full")]) for init in cluster.INITS]


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
    d = make_dataset(cols, labels=["c0"] * 3 + ["c1"] * 3, semantic=[np.array([1, 3, 2])])
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
        for mat in oracle.build_distance_table(d, a.orders).matrices:
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
    # full alternation that runs out of max_outer: every HR fit here accepts its one refresh
    d = fixtures.load_fixture("HR")
    for seed in range(4):
        res = cluster.fit(d, FitConfig(k=fixtures.FIXTURES["HR"].k, seed=seed, max_outer=1))
        assert res.trace.accepted_order_updates == 1 and not res.trace.converged, seed


def test_mode_theta_ablation_runs():
    d = synthesize(90, 4, 3, values_per_attribute=5, seed=59)
    res = cluster.fit(d, FitConfig(k=3, seed=2, ablation="no_prob_weight"))
    assert res.trace.converged
    metric.value_distance_matrices(d, res.orders)


def test_ordinal_policies():
    cols = [
        ["low", "mid", "high", "low", "mid", "high", "low", "high"],
        ["a", "b", "c", "d", "a", "b", "c", "d"],
    ]
    d = make_dataset(cols, labels=["c0"] * 4 + ["c1"] * 4, semantic=[np.array([1, 2, 3]), None])
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
        cat_names=d.cat_names, semantic_ranks=d.semantic_ranks,
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
    cfgs = [FitConfig(k=3, seed=seed, **cli.FIT_METHODS[method]) for seed in range(3)]
    iterations = sum(cluster.fit(d, cfg).trace.total_inner_iterations for cfg in cfgs)
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
    res = cluster.fit(fixtures.load_fixture("HR"), FitConfig(k=3, seed=0, **cli.FIT_METHODS[method])).trace
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


def _drawn_configs(d, seeds):
    """Configs whose start orders are drawn or given, so never shared."""
    rng = np.random.default_rng(3)
    return [cfg for seed in seeds for cfg in (
        FitConfig(k=3, seed=seed, order_mode="fixed", fixed_orders=order.random_orders(d, rng)),
        FitConfig(k=3, seed=seed, order_mode="random"),
        FitConfig(k=3, seed=seed, random_order_init=True),
    )]


def test_fits_from_the_shared_start_equal_fits_on_fresh_datasets():
    # Flows interleaved within each (seed, init), the order bench and ablate
    # fit in, so every flow after the first starts from the call's start slot.
    d = fixtures.load_fixture("HR")
    cfgs = [_flow_config(flow, seed, init) for seed in range(4) for init in cluster.INITS for flow in START_ORDER_FLOWS]
    cfgs += _drawn_configs(d, range(2))
    for cfg, shared in zip(cfgs, cluster.fit_many(d, cfgs), strict=True):
        assert _fit_state(shared) == _fit_state(cluster.fit(dataclasses.replace(d), cfg)), cfg


def test_fit_many_builds_one_start_per_consecutive_key_group(kmodes_calls):
    # One slot: seed 5 fitted again after seed 6 builds its start again.
    d = fixtures.load_fixture("HR")
    cfgs = [_flow_config(flow, seed, init) for seed, init in
            ((5, "kmodes_once"), (6, "kmodes_once"), (6, "random_partition"), (5, "kmodes_once"))
            for flow in SHARED_START_FLOWS]
    results = list(cluster.fit_many(d, cfgs))
    assert len(results) == len(cfgs)
    assert [seed.entropy for seed in kmodes_calls] == [5, 6, 5]
    assert all(seed.spawn_key == (0,) for seed in kmodes_calls)


def test_shared_start_orders_are_read_only():
    # Semantic orders are never relearned, so each fit returns the shared ones.
    d = fixtures.load_fixture("HR")
    first, second = cluster.fit_many(d, [_flow_config("semantic", 0), _flow_config("semantic", 1)])
    assert first.orders is second.orders
    assert not any(r.flags.writeable for r in first.orders.ranks if r is not None)


def test_fit_many_builds_each_start_inside_a_fit_call(monkeypatch):
    # A tracer that wraps the module's names takes a k-modes call made
    # outside ``cluster.fit`` for a k-modes baseline.
    depth, inside = [0], []
    fit, fit_kmodes = cluster.fit, cluster.fit_kmodes

    def counted_fit(*args, **kwargs):
        depth[0] += 1
        try:
            return fit(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_kmodes(*args, **kwargs):
        inside.append(depth[0] > 0)
        return fit_kmodes(*args, **kwargs)

    monkeypatch.setattr(cluster, "fit", counted_fit)
    monkeypatch.setattr(cluster, "fit_kmodes", counted_kmodes)
    d = fixtures.load_fixture("HR")
    list(cluster.fit_many(d, [_flow_config(flow, seed) for seed in (0, 1) for flow in SHARED_START_FLOWS]))
    assert inside == [True, True]


def test_equal_seeds_of_any_type_share_one_start(kmodes_calls):
    # The slot compares seed streams, not seed objects: a numpy integer matches
    # its int, and equal entropy arrays match without an array comparison.
    d = fixtures.load_fixture("HR")
    seeds = (7, np.int64(7), np.array([1, 2]), np.array([1, 2]))
    list(cluster.fit_many(d, [FitConfig(k=3, seed=seed) for seed in seeds]))
    assert len(kmodes_calls) == 2


def test_drawn_start_orders_are_built_per_fit(monkeypatch):
    # Every fit from drawn orders draws its own, also where an earlier fit drew
    # equal ranks (seed 0 twice), and none is read from the shared start-kind
    # slot; equal ranks only share one distances object.
    d = fixtures.load_fixture("HR")
    cfgs = _drawn_configs(d, (0, 0, 1))
    drawn, draw, memos, fit = [], order.random_orders, [], cluster.fit
    monkeypatch.setattr(order, "random_orders", lambda *args: drawn.append(draw(*args)) or drawn[-1])
    monkeypatch.setattr(cluster, "fit", lambda d, cfg, _memo: memos.append(_memo) or fit(d, cfg, _memo=_memo))
    results = list(cluster.fit_many(d, cfgs))
    assert len(drawn) == sum(cfg.order_mode == "random" or cfg.random_order_init for cfg in cfgs) == 6
    assert all(memo is memos[0] for memo in memos) and "orders" not in memos[0]
    returned = [res.orders for cfg, res in zip(cfgs, results) if cfg.order_mode == "random"]  # never refreshed
    assert [any(o is x for x in drawn) for o in returned] == [True] * 3
    assert returned[0] is not returned[1] and np.array_equal(returned[0].stacked_ranks, returned[1].stacked_ranks)


def test_fit_many_builds_each_kind_of_start_orders_once(monkeypatch):
    # Looked up before it is built: a fit whose kind is in the memo builds no orders.
    calls, build = [], order.dictionary_orders
    monkeypatch.setattr(order, "dictionary_orders", lambda d: calls.append(d) or build(d))
    d = fixtures.load_fixture("HR")
    list(cluster.fit_many(d, [_flow_config(flow, seed) for seed in range(3)
                              for flow in ("main", "mode_dist", "single_update")]))
    assert len(calls) == 1


def _bench_configs(name, seeds=range(20)):
    """The fits one ``bench`` fixture row set makes: seed-major, the four shared-start flows."""
    k = fixtures.FIXTURES[name].k
    return [FitConfig(k=k, seed=seed, **cli.FIT_METHODS[flow]) for seed in seeds for flow in SHARED_START_FLOWS]


@pytest.mark.parametrize("name", ["BC", "CS", "VT"])
def test_memoized_fits_equal_fits_on_fresh_datasets(monkeypatch, name):
    # Tables where seeds converge to the same states, so steps and refreshes are
    # read from the memo; in bench order, shuffled, and with no step kept.
    d = fixtures.load_fixture(name)
    cfgs = _bench_configs(name)
    solo = [_fit_state(cluster.fit(dataclasses.replace(d), cfg)) for cfg in cfgs]
    perm = np.random.default_rng(5).permutation(len(cfgs))

    def states(order):
        return [_fit_state(res) for res in cluster.fit_many(d, [cfgs[i] for i in order])]

    assert states(range(len(cfgs))) == solo
    assert states(perm) == [solo[i] for i in perm]
    monkeypatch.setattr(cluster, "MEMO_CELLS", 0)
    assert states(range(len(cfgs))) == solo


def test_fit_many_skips_repeated_steps_and_refreshes(monkeypatch):
    # BC's bench call: a fit without the memo makes 120 refreshes, 260 distance
    # calls and 122 distance builds.
    calls = {"learn_orders": 0, "distances": 0, "value_distance_matrices": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(order, "learn_orders", counted("learn_orders", order.learn_orders))
    for kernel in ("cluster_distances", "mode_distances"):
        monkeypatch.setattr(metric, kernel, counted("distances", getattr(metric, kernel)))
    monkeypatch.setattr(metric, "value_distance_matrices",
                        counted("value_distance_matrices", metric.value_distance_matrices))
    results = list(cluster.fit_many(fixtures.load_fixture("BC"), _bench_configs("BC")))
    assert sum(len(res.trace.order_update_iterations) for res in results) == 120
    assert calls == {"learn_orders": 12, "distances": 20, "value_distance_matrices": 5}


def test_the_memo_goes_with_its_call(monkeypatch):
    # Every profile a fit tallies, the memoized ones included, is freed with the call's generator.
    refs, tally = [], metric.profile_from_assignment

    def tracked(*args, **kwargs):
        prof = tally(*args, **kwargs)
        refs.append(weakref.ref(prof))
        return prof

    monkeypatch.setattr(metric, "profile_from_assignment", tracked)
    d = fixtures.load_fixture("BC")
    fits = cluster.fit_many(d, _bench_configs("BC", range(2)))
    results = [next(fits)]
    assert any(ref() is not None for ref in refs)  # kept for the call's later fits
    results += list(fits)
    assert len(results) == 8 and all(ref() is None for ref in refs)


def test_a_large_call_keeps_at_most_the_budget_of_step_cells(monkeypatch):
    # 100k rows: every step's assignment is 400 kB, so the 1 MiB budget keeps two.
    d = synthesize(100_000, 20, 5, seed=0)
    cfgs = [FitConfig(k=5, seed=seed, max_outer=2, max_inner=10) for seed in (0, 1)]
    d.onehot.distinct  # noqa: B018 - the table's views, built before tracing

    def held_by_call():
        tracemalloc.start()
        try:
            fits = cluster.fit_many(d, cfgs)
            results = [next(fits), next(fits)]
            held = tracemalloc.get_traced_memory()[0]
            assert next(fits, None) is None
            return results, held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    results, held = held_by_call()
    assert sum(res.trace.total_inner_iterations for res in results) > 10  # more steps than the budget keeps
    budget = cluster.MEMO_CELLS * np.dtype(np.int32).itemsize
    monkeypatch.setattr(cluster, "MEMO_CELLS", 0)
    _, held_without_steps = held_by_call()
    assert 2 * d.n * 4 <= held - held_without_steps <= budget + 2**16  # two steps' cells, their profiles and keys


def test_fits_leave_no_state_on_the_dataset():
    d = fixtures.load_fixture("HR")
    list(cluster.fit_many(d, [_flow_config(flow, 0) for flow in START_ORDER_FLOWS]))
    cluster.fit(d, _flow_config("main", 1))
    fields = {f.name for f in dataclasses.fields(Dataset)}
    assert set(vars(d)) - fields == {"onehot", "cardinalities"}


def test_concurrent_fits_on_a_shared_dataset_equal_the_serial_fits():
    d = fixtures.load_fixture("HR")
    jobs = [(flow, seed, init) for seed in (0, 1, 0, 2, 1) for init in cluster.INITS for flow in SHARED_START_FLOWS]
    cfgs = [_flow_config(*job) for job in jobs]

    def fit_all():
        return [_fit_state(res) for res in cluster.fit_many(d, cfgs)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the calls' fits interleave
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(fit_all) for _ in range(3)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    serial = [_fit_state(cluster.fit(dataclasses.replace(d), cfg)) for cfg in cfgs]
    assert got == [serial] * 3


@pytest.mark.parametrize("blocks", [2, 3])
def test_row_blocks_change_no_fit(monkeypatch, blocks):
    # every flow, both inits and drawn orders, capped or not, and k-modes, against one block
    d = fixtures.load_fixture("HR")
    cfgs = [_flow_config(flow, seed, init) for seed in range(2) for init in cluster.INITS for flow in START_ORDER_FLOWS]
    cfgs += _drawn_configs(d, range(2)) + [dataclasses.replace(_flow_config("main", 1), max_inner=1)]

    def run(d):
        kmodes = [cluster.fit_kmodes(d, 3, seed=seed) for seed in range(3)]
        return ([_fit_state(cluster.fit(d, cfg)) for cfg in cfgs],
                [(part.assign.tobytes(), dataclasses.replace(trace, wall_time=0.0)) for part, trace in kmodes])

    one = run(split_rows(monkeypatch, d, 1))
    split = split_rows(monkeypatch, d, blocks)
    assert len(split.onehot.row_blocks) == blocks
    assert run(split) == one


FORK_SCRIPT = """
import multiprocessing, os, sys, tempfile
from ordclust import cluster, data

data.ROW_BLOCK_CELLS, os.sched_getaffinity = 1, lambda pid: {0, 1}
d = data.synthesize(400, 4, 3, seed=1)
schema = [data.AttributeSchema("a", "nominal"), data.AttributeSchema("x", "numerical"),
          data.AttributeSchema("y", "numerical")]

def fit(path):
    cluster.fit(d, cluster.FitConfig(k=3, max_outer=2))
    cluster.lloyd_kmeans(data.normalize_numerical(data.load_csv(path, schema)), 3)

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w") as fh:
            fh.write("a,x,y\\n" + "".join(f"v{i % 3},{i % 7},{i % 11}\\n" for i in range(400)))
        fit(path)  # the parent's pool runs blocks and columns, so its threads exist before the fork
        child = multiprocessing.get_context("fork").Process(target=fit, args=(path,))
        child.start()
        child.join(30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
    sys.exit("the forked child's fit, load or k-means hung" if hung else child.exitcode)
"""


def test_a_forked_child_runs_row_blocks_in_its_own_pool():
    # a child forked after the pool started inherits a pool without threads; its fits, CSV loads and
    # k-means must not wait on it
    path = os.pathsep.join([str(Path(cluster.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _tiled_ac():
    """The AC fixture's rows tiled past the size floor."""
    base = fixtures.load_fixture("AC")
    reps = -(-data.ROW_BLOCK_CELLS // (base.n * base.s_categorical))
    return dataclasses.replace(base, cat=np.tile(base.cat, (reps, 1)), num=np.tile(base.num, (reps, 1)),
                               labels=np.tile(base.labels, reps))


def test_distinct_rows_change_no_result(monkeypatch):
    # The AC fixture's rows tiled past the size floor run the kernels once per distinct row; a twin
    # without the view runs them per sample. Every fit, baseline and score must agree bit for bit.
    d = _tiled_ac()
    twin = dataclasses.replace(d)
    twin.onehot.__dict__["distinct"] = None
    view, inverse = d.onehot.distinct
    assert view.X.shape[0] == len(np.unique(d.cat, axis=0)) < d.n
    assert np.array_equal(view.codes[inverse], d.onehot.codes)

    rows_seen = []
    for name in ("cluster_distances", "mode_distances", "mean_costs"):
        kernel = getattr(metric, name)
        monkeypatch.setattr(metric, name, lambda enc, *args, kernel=kernel: (
            rows_seen.append(enc.X.shape[0]), kernel(enc, *args))[1])

    def results(d):
        rows_seen.clear()
        fits = [_fit_state(cluster.fit(d, _flow_config(flow, seed, init)))
                for flow in SHARED_START_FLOWS for init in cluster.INITS for seed in range(2)]
        baselines = []
        for seed in range(2):
            for part, trace in (cluster.fit_kmodes(d, 3, seed=seed), cluster.fit_kprototypes(d, 3, seed=seed)):
                baselines.append((part.assign.tobytes(), repr(dataclasses.replace(trace, wall_time=0.0)),
                                  evaluate.compactness(d, part)))
            baselines.append(_fit_state(cluster.fit_mixed(d, FitConfig(k=2, seed=seed))))
        return fits, baselines, set(rows_seen)

    got, expect = results(d), results(twin)
    assert got[:2] == expect[:2]
    assert got[2] == {view.X.shape[0]} and expect[2] == {d.n}
    assign = np.random.default_rng(0).integers(0, 4, size=d.n)  # copies of a row in different clusters
    for rows in (np.arange(d.n), np.flatnonzero(assign == 1)):
        expect = np.zeros((5, int(d.onehot.offsets[-1])), dtype=np.int64)  # one cell at a time
        np.add.at(expect, (assign[rows][:, None], d.onehot.codes[rows]), 1)
        got = d.onehot.counts(assign, 5, None if rows.size == d.n else rows)
        assert got.dtype == np.int64 and np.array_equal(got, expect)


def test_sample_blocks_change_no_mixed_result(monkeypatch):
    # k-means, k-prototypes and the mixed fit run their per-sample passes in 1, 2 or 3 blocks and
    # their means in as many feature groups; every partition and trace must equal one block's.
    d = _tiled_ac()
    cols = np.concatenate([cluster.encode_with_orders(d, order.dictionary_orders(d)), data.normalize_numerical(d)])

    def run(d):
        kmeans = [cluster.lloyd_kmeans(cols, k, seed=seed) for k in (2, 5) for seed in range(2)]
        fits = [cluster.fit_kprototypes(d, 3, seed=seed) for seed in range(2)]
        mixed = [_fit_state(cluster.fit_mixed(d, FitConfig(k=2, seed=seed))) for seed in range(2)]
        return ([(a.tobytes(), converged) for a, converged in kmeans],
                [(part.assign.tobytes(), repr(dataclasses.replace(trace, wall_time=0.0))) for part, trace in fits],
                mixed)

    one = run(split_rows(monkeypatch, d, 1))
    for blocks in (2, 3):
        split = split_rows(monkeypatch, d, blocks)
        assert data.block_count(cols.size) == len(cluster._feature_groups(cols)) == blocks
        assert run(split) == one


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_update_means_in_feature_groups_equals_the_row_mean(rng, monkeypatch, groups):
    monkeypatch.setattr(data, "ROW_BLOCK_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(groups)))
    points = 10.0 ** rng.uniform(-3, 3, size=(500, 7))
    feature_groups = cluster._feature_groups(np.ascontiguousarray(points.T))
    assert len(feature_groups) == groups
    a = rng.integers(0, 4, size=500)
    a[a == 2] = 0  # an emptied cluster keeps its stale centre
    centers = rng.random((4, 7))
    stale = centers[2].copy()
    cluster._update_means(feature_groups, a, centers)
    for m in (0, 1, 3):
        assert np.array_equal(centers[m], points[a == m].mean(axis=0))
    assert np.array_equal(centers[2], stale)
