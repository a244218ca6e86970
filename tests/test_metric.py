import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_profile_costs, frequencies, make_dataset, split_rows
from ordclust import cluster, metric, oracle, order
from ordclust.cluster import Partition
from ordclust.data import Dataset, split_columns
from ordclust.data import synthesize
from ordclust.fixtures import FIXTURES, load_fixture


def test_profile_counts_within_cluster():
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.array([0, 0, 0, 1], dtype=np.int32), 2)
    prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
    probs = split_columns(frequencies(prof), d.onehot.offsets)
    assert probs[0][0].tolist() == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert probs[0][1].tolist() == pytest.approx([0.0, 0.0, 1.0])
    assert prof.sizes.tolist() == [3, 1]


def test_profile_rows_sum_to_one(rng):
    d = synthesize(60, 3, 4, values_per_attribute=4, seed=5)
    q = Partition(rng.integers(0, 4, size=60).astype(np.int32), 4)
    prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
    for probs in split_columns(frequencies(prof), d.onehot.offsets):
        sums = probs.sum(axis=1)
        for m in range(4):
            if prof.sizes[m] > 0:
                assert sums[m] == pytest.approx(1.0, abs=1e-12)
            else:
                assert sums[m] == 0.0
    assert prof.sizes.sum() == 60


def test_profile_empty_cluster_flagged():
    d = make_dataset([["a", "b"]])
    q = Partition(np.array([0, 0], dtype=np.int32), 3)
    prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
    assert prof.empty.tolist() == [False, True, True]


def test_profile_matches_brute_tally():
    d = make_dataset([["a", "b", "a", "c", "b", "b"], ["x", "x", "y", "y", "x", "y"]])
    assign = np.array([0, 1, 0, 1, 0, 1], dtype=np.int32)
    prof = metric.profile_from_assignment(d.onehot, assign, 2)
    probs = split_columns(frequencies(prof), d.onehot.offsets)
    for r in range(2):
        for m in range(2):
            members = d.cat[assign == m, r]
            for g in range(len(d.dictionaries[r])):
                expect = (members == g).sum() / len(members)
                assert probs[r][m, g] == pytest.approx(expect)


def test_order_distance_vector_examples():
    assert oracle.order_distance_vector(0, np.array([1, 2, 3])).tolist() == [0.0, 0.5, 1.0]
    # ranks (2,3,1); the sample holds the value ranked 2 (index 0)
    assert oracle.order_distance_vector(0, np.array([2, 3, 1])).tolist() == [0.0, 0.5, 0.5]
    for ranks in ([1, 2], [2, 1]):
        v = oracle.order_distance_vector(0, np.array(ranks))
        assert sorted(v.tolist()) == [0.0, 1.0]


def test_order_distance_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle.order_distance_vector(0, np.array([1]))
    with pytest.raises(ValueError):
        oracle.order_distance_vector(0, np.array([1, 1, 2]))


def test_distance_table_entries_bounded(rng):
    d = synthesize(30, 4, 2, values_per_attribute=5, seed=9)
    o = order.random_orders(d, rng)
    table = oracle.build_distance_table(d, o)
    for r in range(d.s_categorical):
        for i in range(d.n):
            v = table.vector(i, r)
            assert (v >= 0).all() and (v <= 1).all()
            assert np.where(v == 0)[0].tolist() == [d.cat[i, r]]


def test_binary_table_off_value_is_one():
    d = make_dataset([["a", "b", "a"]])
    table = oracle.build_distance_table(d, order.dictionary_orders(d))
    assert table.matrices[0].tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_sample_cluster_distance_examples():
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.array([0, 0, 0, 1], dtype=np.int32), 2)
    prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
    table = oracle.build_distance_table(d, order.dictionary_orders(d))
    # d = [0, .5, 1] against p = [2/3, 1/3, 0]
    assert oracle.sample_cluster_distance(0, 0, table, prof) == pytest.approx(1 / 6)
    # a pure cluster is at distance zero from its own value
    assert oracle.sample_cluster_distance(3, 1, table, prof) == pytest.approx(0.0)


def test_sample_cluster_distance_is_mean_over_attributes():
    # per-attribute distances 0.2 and 0.6 average to 0.4
    d = make_dataset([["a", "b", "a", "b", "b"], ["x", "y", "y", "y", "x"]])
    assign = np.zeros(5, dtype=np.int32)
    prof = metric.profile_from_assignment(d.onehot, assign, 1)
    table = oracle.build_distance_table(d, order.dictionary_orders(d))
    probs = split_columns(frequencies(prof), d.onehot.offsets)
    t0 = float(table.vector(0, 0) @ probs[0][0])
    t1 = float(table.vector(0, 1) @ probs[1][0])
    got = oracle.sample_cluster_distance(0, 0, table, prof)
    assert got == pytest.approx((t0 + t1) / 2)


def test_sample_cluster_distance_rejects_empty_cluster():
    d = make_dataset([["a", "b"]])
    prof = metric.profile_from_assignment(d.onehot, np.array([0, 0], dtype=np.int32), 2)
    table = oracle.build_distance_table(d, order.dictionary_orders(d))
    with pytest.raises(ValueError, match="empty"):
        oracle.sample_cluster_distance(0, 1, table, prof)


def test_objective_zero_for_identical_samples():
    # identical rows over two-value dictionaries: every distance is zero
    d = Dataset(
        cat=np.zeros((3, 2), dtype=np.int32),
        num=np.empty((3, 0)),
        dictionaries=(("a", "b"), ("x", "y")),
        cat_names=("a0", "a1"),
        semantic_ranks=(None, None),
        num_names=(),
    )
    q = Partition(np.zeros(3, dtype=np.int32), 1)
    assert metric.objective(d, q, order.dictionary_orders(d)) == 0.0


def test_objective_matches_hand_evaluation():
    # one attribute over [a, b, c], samples a,a,b,c in one cluster:
    # p = (.5, .25, .25); form(a) = .375, form(b) = .375, form(c) = .625
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.zeros(4, dtype=np.int32), 1)
    assert metric.objective(d, q, order.dictionary_orders(d)) == pytest.approx(1.75, rel=1e-12)
    assert oracle.objective_direct(d, q, order.dictionary_orders(d)) == pytest.approx(1.75)


def test_objective_invariant_to_cluster_relabeling(rng):
    d = synthesize(40, 3, 2, values_per_attribute=4, seed=3)
    assign = rng.integers(0, 2, size=40).astype(np.int32)
    o = order.random_orders(d, rng)
    a = metric.objective(d, Partition(assign, 2), o)
    b = metric.objective(d, Partition((1 - assign).astype(np.int32), 2), o)
    assert a == pytest.approx(b, rel=1e-12)


def test_order_reversal_leaves_distances_unchanged(rng):
    d = synthesize(50, 3, 2, values_per_attribute=5, seed=11)
    q = Partition(rng.integers(0, 2, size=50).astype(np.int32), 2)
    o = order.random_orders(d, rng)
    mirrored = order.OrderSet.from_ranks(d, [len(r) + 1 - r for r in o.ranks])
    assert metric.objective(d, q, o) == pytest.approx(metric.objective(d, q, mirrored), rel=1e-12)
    ta = oracle.build_distance_table(d, o).matrices
    tb = oracle.build_distance_table(d, mirrored).matrices
    for a, b in zip(ta, tb):
        assert np.allclose(a, b)
    # the kernel's cost table reads the reversed rank order and gives the same bits
    prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
    costs = [metric.value_costs(metric.value_distance_matrices(d, x), prof, "profile") for x in (o, mirrored)]
    assert costs[0].tobytes() == costs[1].tobytes()


def test_binary_collapse_is_exact(rng):
    d = synthesize(80, 6, 3, values_per_attribute=2, seed=7)
    q = Partition(rng.integers(0, 3, size=80).astype(np.int32), 3)
    for _ in range(5):
        o = order.random_orders(d, rng)
        assert metric.objective(d, q, o) == metric.objective(d, q, order.hamming_orders(d))


def test_pairwise_distance_matrix_properties():
    d = make_dataset([["a", "b", "c", "a"], ["x", "x", "y", "y"]])
    mat = metric.pairwise_distance_matrix(d, order.dictionary_orders(d))
    assert mat.shape == (4, 4)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)
    # samples 0 and 3 share the first value, differ on the second
    assert mat[0, 3] == pytest.approx(0.5)


def test_pairwise_distance_matrix_adds_row_blocks_within_one_matrix(rng, monkeypatch):
    d = synthesize(1000, 5, 3, values_per_attribute=6, seed=4)
    o = order.OrderSet.from_ranks(d, (None,) + order.random_orders(d, rng).ranks[1:])  # one match/mismatch attribute
    expect = np.zeros((d.n, d.n))
    for mat, col in zip(oracle.build_distance_table(d, o).matrices, d.cat.T):
        expect += mat[np.ix_(col, col)]
    expect /= d.s_categorical
    assert metric.pairwise_distance_matrix(d, o).tobytes() == expect.tobytes()
    del expect
    # the export is one product even where the fit's kernels run in row blocks: per-block
    # products would hold a second (n, n) matrix
    for d in (d, split_rows(monkeypatch, d, 2)):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            metric.pairwise_distance_matrix(d, o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * d.n * d.n * 8
    assert len(d.onehot.row_blocks) == 2


_EXPORTED = [(name, kind) for name in FIXTURES for kind in ("dictionary", "hamming", "random")]


@pytest.mark.parametrize("name,kind", _EXPORTED + [("no_categorical", "dictionary"), ("one_row", "dictionary")])
def test_pairwise_export_equals_the_per_attribute_sum(name, kind, rng):
    # the export is the fit's distance to singleton clusters; it must keep the per-attribute sum's bits
    if name == "no_categorical":
        d = synthesize(40, 3, 2, values_per_attribute=1)
    elif name == "one_row":
        d = synthesize(1, 3, 1, values_per_attribute=4)
    else:
        d = load_fixture(name)
    if kind == "random":  # one match/mismatch attribute
        o = order.OrderSet.from_ranks(d, (None,) + order.random_orders(d, rng).ranks[1:])
    else:
        o = getattr(order, f"{kind}_orders")(d)
    expect = np.zeros((d.n, d.n))
    for mat, col in zip(oracle.build_distance_table(d, o).matrices, d.cat.T):
        expect += mat[np.ix_(col, col)]
    expect /= max(d.s_categorical, 1)
    assert metric.pairwise_distance_matrix(d, o).tobytes() == expect.tobytes()


@pytest.mark.parametrize("unordered", [False, True])
def test_pairwise_export_of_an_id_column_stays_within_its_table(unordered, rng):
    # an ID-like attribute (l close to n) beside two small ones: the bits of the per-attribute
    # sum, and a peak of the (n, n) matrix plus one (sum l, n) cost table
    n = 600
    ids = rng.permutation(n) % (n - 20)
    d = make_dataset([[f"u{v}" for v in ids], [f"a{v}" for v in rng.integers(0, 4, n)],
                      [f"b{v}" for v in rng.integers(0, 7, n)]])
    o = order.random_orders(d, rng)
    if unordered:
        o = order.OrderSet.from_ranks(d, (None,) + o.ranks[1:])
    expect = np.zeros((d.n, d.n))
    for mat, col in zip(oracle.build_distance_table(d, o).matrices, d.cat.T):
        expect += mat[np.ix_(col, col)]
    expect /= d.s_categorical
    assert metric.pairwise_distance_matrix(d, o).tobytes() == expect.tobytes()
    del expect
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        metric.pairwise_distance_matrix(d, o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.cardinalities == (n - 20, 4, 7)
    assert peak < d.n * (d.n + sum(d.cardinalities)) * 8 + 2**20


def _kernel_instances(rng):
    # random small instances, plus one whose last cluster is empty
    out = [oracle.random_instance(rng) for _ in range(15)]
    d = synthesize(30, 4, 3, values_per_attribute=4, seed=13)
    q = Partition(rng.integers(0, 2, size=30).astype(np.int32), 3)
    out.append((d, q, order.random_orders(d, rng)))
    return out


def _order_sets(d, q, o):
    """Random, match/mismatch, partly unordered and learned orders of one instance."""
    learned = cluster.fit(d, cluster.FitConfig(k=q.k, seed=1)).orders
    return o, order.hamming_orders(d), order.OrderSet.from_ranks(d, (None,) + o.ranks[1:]), learned


def test_value_distance_matrices_equal_the_oracle_table(rng):
    # the oracle builds its table from order_distance_vector rows and 1 - delta, not from the kernel
    for d, q, o in _kernel_instances(rng):
        for orders in _order_sets(d, q, o):
            got = metric.value_distance_matrices(d, orders)
            want = oracle.build_distance_table(d, orders).matrices
            assert len(got) == len(want) == d.s_categorical
            for b, a0, a1 in zip(want, d.onehot.offsets, d.onehot.offsets[1:]):
                l, ranks = a1 - a0, got.ranks[a0:a1]
                values = np.arange(l)
                if got.unordered[a0]:
                    block = (values[:, None] != values).astype(np.float64)
                else:
                    block = np.abs(ranks[:, None] - ranks) / (l - 1)
                    assert ranks[got.by_rank[a0:a1] - a0].tolist() == list(range(1, l + 1))
                    assert got.prefix_rows[:, a0:a1].tolist() == [(a0 + ranks).tolist(), [a0] * l, [a1] * l]
                assert b.dtype == np.float64 and block.shape == b.shape
                assert block.tobytes() == b.tobytes()
                assert got.den[a0:a1].tolist() == [1 if got.unordered[a0] else l - 1] * l
            stacked = [np.zeros(l) if r is None else r for r, l in zip(orders.ranks, d.cardinalities)]
            assert got.ranks.tolist() == np.concatenate(stacked).astype(np.int64).tolist()
            assert got.unordered.tolist() == [r is None for r, l in zip(orders.ranks, d.cardinalities) for _ in range(l)]
            for arr in (got.ranks, got.unordered, got.by_rank, got.prefix_rows, got.den):
                assert not arr.flags.writeable


def test_value_distance_matrices_refuse_ranks_that_are_no_bijection():
    d = make_dataset([["a", "b", "c", "a"]])
    for ranks in ([1, 1, 3], [0, 1, 2], [1, 2, 4], [0, 0, 0], [1, 2.5, 3]):
        with pytest.raises(ValueError, match="attribute 'a0'"):
            metric.value_distance_matrices(d, order.OrderSet.from_ranks(d, (np.array(ranks),)))


def test_float_ranks_are_refused_by_every_distance_build():
    # integer-valued float64 ranks, stacked without from_ranks' cast: the cost tables index with ranks
    d = load_fixture("HR")
    o = order.OrderSet(order.dictionary_orders(d).stacked_ranks.astype(np.float64), d.onehot.offsets)
    builds = (lambda: metric.value_distance_matrices(d, o), lambda: metric.pairwise_distance_matrix(d, o),
              lambda: cluster.fit(d, cluster.FitConfig(k=3, order_mode="fixed", fixed_orders=o)))
    for build in builds:
        with pytest.raises(ValueError, match="^ranks must be integers; the orders hold float64 ranks$"):
            build()
    narrow = order.OrderSet(order.dictionary_orders(d).stacked_ranks.astype(np.int32), d.onehot.offsets)
    want = metric.pairwise_distance_matrix(d, order.dictionary_orders(d))
    assert metric.pairwise_distance_matrix(d, narrow).tobytes() == want.tobytes()


@pytest.mark.parametrize("form", ["profile", "mode"])
def test_cost_tables_equal_per_attribute_products_of_the_oracle_matrices(rng, form):
    # profile: each cell the exact ratio I / (den * size); mode: the columns of each cluster's argmax value
    ties = 0
    for d, q, o in _kernel_instances(rng):
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        probs = split_columns(frequencies(prof), d.onehot.offsets)
        ties += sum(int(((p == p.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum()) for p in probs)
        for orders in _order_sets(d, q, o):
            mats = oracle.build_distance_table(d, orders).matrices
            want = exact_profile_costs(d, prof, orders) if form == "profile" else np.vstack(
                [mat[:, p.argmax(axis=1)] for mat, p in zip(mats, probs)])
            got = metric.value_costs(metric.value_distance_matrices(d, orders), prof, form)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert ties > 0  # modes tied within a cluster, the lowest value index wins


def _sized_dataset(cols, cards):
    return Dataset(cat=np.column_stack(cols).astype(np.int32), num=np.empty((len(cols[0]), 0)),
                   dictionaries=tuple(tuple(str(g) for g in range(l)) for l in cards),
                   cat_names=tuple(f"a{r}" for r in range(len(cards))),
                   semantic_ranks=tuple(None for _ in cards), num_names=())


def test_profile_cost_cells_are_exact_integer_ratios(rng):
    # random instances: 1-5 attributes, l from 2 to 11, 30% of them unordered, some clusters empty
    for _ in range(200):
        k = int(rng.integers(1, 5))
        sizes = rng.integers(0, 9, size=k)
        sizes[0] += 1
        cards = [int(l) for l in rng.integers(2, 12, size=int(rng.integers(1, 6)))]
        d = _sized_dataset([rng.integers(0, l, size=sizes.sum()) for l in cards], cards)
        prof = metric.profile_from_assignment(d.onehot, np.repeat(np.arange(k), sizes).astype(np.int32), k)
        orders = order.OrderSet.from_ranks(d, [None if rng.random() < 0.3 else rng.permutation(l) + 1 for l in cards])
        got = metric.value_costs(metric.value_distance_matrices(d, orders), prof, "profile")
        assert got.tobytes() == exact_profile_costs(d, prof, orders).tobytes()
    # one attribute of 4,000 values at k = 8: the integer sums straight from the ranks, in row chunks
    l, k = 4000, 8
    counts = rng.integers(0, 4, size=(k, l))
    d = _sized_dataset([np.concatenate([np.repeat(np.arange(l), row) for row in counts])], [l])
    ranks = rng.permutation(l) + 1
    prof = metric.profile_from_assignment(d.onehot, np.repeat(np.arange(k), counts.sum(axis=1)).astype(np.int32), k)
    assert np.array_equal(prof.counts, counts)
    got = metric.value_costs(metric.value_distance_matrices(d, order.OrderSet.from_ranks(d, (ranks,))), prof, "profile")
    for c in (0, 1234, l - 1):  # the oracle's rows are these integers over l - 1
        assert (oracle.order_distance_vector(c, ranks) == np.abs(ranks[c] - ranks) / (l - 1)).all()
    for a in range(0, l, 500):
        integer = np.abs(ranks[a:a + 500, None] - ranks) @ counts.T
        want = [[float(Fraction(int(i), (l - 1) * int(size))) for i, size in zip(row, prof.sizes)] for row in integer]
        assert got[a:a + 500].tolist() == want


def test_value_distances_of_an_id_column_take_no_quadratic_memory(rng):
    # one 580-value attribute over 600 rows: O(l) value distances stay far below one (n, n)
    # float64 matrix, where a single (l, l) float64 table would be 0.93x it
    n = 600
    d = make_dataset([[f"u{v}" for v in rng.permutation(n) % (n - 20)]])
    o = order.random_orders(d, rng)
    peak = _traced_peak(lambda: metric.value_distance_matrices(d, o))  # index arrays built here, on first use
    assert d.cardinalities == (n - 20,) and peak < 0.1 * n * n * 8


@pytest.mark.parametrize("form", ["profile", "mode"])
def test_distance_kernels_match_per_sample_oracle(rng, form):
    kernel = metric.cluster_distances if form == "profile" else metric.mode_distances
    reference = oracle.sample_cluster_distance if form == "profile" else oracle.sample_mode_distance
    saw_empty = False
    for d, q, o in _kernel_instances(rng):
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        table = oracle.build_distance_table(d, o)
        dist = kernel(d.onehot, metric.value_distance_matrices(d, o), prof)
        assert dist.shape == (d.n, q.k)
        for m in range(q.k):
            if prof.sizes[m] == 0:
                saw_empty = True
                assert np.isinf(dist[:, m]).all()
                continue
            for i in range(d.n):
                assert dist[i, m] == pytest.approx(reference(i, m, table, prof), rel=1e-12, abs=1e-15)
    assert saw_empty


@pytest.mark.parametrize("form", ["profile", "mode"])
def test_distance_kernels_sum_attributes_in_order(rng, monkeypatch, form):
    # X @ W must reproduce the attribute-ordered float sum bit for bit, in any number of row blocks
    for (d, q, o), blocks in itertools.product(_kernel_instances(rng), (1, 2, 3)):
        d = split_rows(monkeypatch, d, blocks)
        assert len(d.onehot.row_blocks) == min(blocks, d.n * d.s_categorical)
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        mats = metric.value_distance_matrices(d, o)
        probs = split_columns(frequencies(prof), d.onehot.offsets)
        exact = split_columns(exact_profile_costs(d, prof, o).T, d.onehot.offsets)
        expect = np.zeros((d.n, q.k))
        for r, mat in enumerate(oracle.build_distance_table(d, o).matrices):
            cols = exact[r].T if form == "profile" else mat[:, probs[r].argmax(axis=1)]
            expect += cols[d.cat[:, r]]
        expect /= d.s_categorical
        expect[:, prof.empty] = np.inf
        kernel = metric.cluster_distances if form == "profile" else metric.mode_distances
        dist = kernel(d.onehot, mats, prof)
        assert dist.tobytes() == expect.tobytes()
        nearest = metric.nearest_clusters(d.onehot, dist)
        assert nearest.dtype == np.int32 and np.array_equal(nearest, dist.argmin(axis=1))


def test_profile_kernel_matches_tally(rng):
    for d, q, _ in _kernel_instances(rng):
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        probs = split_columns(frequencies(prof), d.onehot.offsets)
        assert prof.sizes.tolist() == np.bincount(q.assign, minlength=q.k).tolist()
        for r, l in enumerate(d.cardinalities):
            assert probs[r].shape == (q.k, l)
            for m in range(q.k):
                members = d.cat[q.assign == m, r]
                expect = [(members == g).sum() / max(len(members), 1) for g in range(l)]
                assert probs[r][m].tolist() == expect


@pytest.mark.parametrize("form", ["profile", "mode"])
def test_objective_total_matches_oracle(rng, form):
    reference = oracle.sample_cluster_distance if form == "profile" else oracle.sample_mode_distance
    for d, q, o in _kernel_instances(rng):
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        table = oracle.build_distance_table(d, o)
        got = metric.objective_total(metric.value_distance_matrices(d, o), prof, form)
        probs = split_columns(frequencies(prof), d.onehot.offsets)
        exact = split_columns(exact_profile_costs(d, prof, o).T, d.onehot.offsets)
        # the exactly rounded sum of count x cost over the (k, sum l) cells, reproduced exactly
        products = []
        for r, mat in enumerate(table.matrices):
            cols = exact[r].T if form == "profile" else mat[:, probs[r].argmax(axis=1)]
            for g in range(d.cardinalities[r]):
                for m in range(q.k):
                    products.append(int(((d.cat[:, r] == g) & (q.assign == m)).sum()) * cols[g, m])
        assert got == math.fsum(products) / d.s_categorical
        expect = sum(reference(i, int(q.assign[i]), table, prof) for i in range(d.n))
        assert got == pytest.approx(expect, rel=1e-12)
        if form == "profile":
            assert got == pytest.approx(oracle.objective_direct(d, q, o), rel=1e-12)


def test_onehot_built_once_with_s_ones_per_row():
    d = synthesize(50, 4, 3, values_per_attribute=3, seed=2)
    enc = d.onehot
    assert d.onehot is enc
    assert enc.offsets.tolist() == [0, 3, 6, 9, 12]
    assert enc.X.shape == (50, 12)
    assert np.diff(enc.X.indptr).tolist() == [4] * 50
    assert (enc.X.data == 1.0).all()
    expect = d.cat + enc.offsets[:-1]
    assert np.array_equal(enc.X.indices.reshape(50, 4), expect)
    assert enc.codes.shape == (50, 4) and np.array_equal(enc.codes, expect)
    assert np.shares_memory(enc.codes, enc.X.indices)
    assign = np.random.default_rng(0).integers(0, 3, size=50)
    for rows in (np.arange(50), np.array([1, 4, 9, 30, 49])):
        tally = np.zeros((4, 12), dtype=np.int64)  # cluster 3 stays empty
        for i in rows:
            for c in expect[i]:
                tally[assign[i], c] += 1
        got = enc.counts(assign, 4, None if rows.size == 50 else rows)
        assert got.dtype == np.int64 and np.array_equal(got, tally)
    # one stored copy of the codes: building the encoding retains only X's arrays
    big = synthesize(100_000, 20, 5, 5, seed=3)
    tracemalloc.start()
    try:
        enc = big.onehot
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= enc.X.data.nbytes + enc.X.indices.nbytes + enc.X.indptr.nbytes + 2**20


def test_unknown_form_rejected():
    d = make_dataset([["a", "b", "a"]])
    q = Partition(np.zeros(3, dtype=np.int32), 1)
    with pytest.raises(ValueError, match="unknown form"):
        metric.objective(d, q, order.dictionary_orders(d), form="median")


def _same_profile(a, b):
    assert a.counts.tobytes() == b.counts.tobytes()
    assert a.sizes.tobytes() == b.sizes.tobytes()
    assert frequencies(a).tobytes() == frequencies(b).tobytes()


@pytest.mark.parametrize("share", [metric.DELTA_MAX_MOVED, 1.0])  # 1.0: the delta for any move count
def test_delta_profile_equals_profile_from_scratch(rng, monkeypatch, share):
    monkeypatch.setattr(metric, "DELTA_MAX_MOVED", share)
    for _ in range(40):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 60))
        d = synthesize(n, int(rng.integers(1, 5)), k, values_per_attribute=int(rng.integers(2, 6)),
                       seed=int(rng.integers(1 << 30)))
        enc = d.onehot
        old = rng.integers(0, k, size=n).astype(np.int32)
        if k > 1:
            old[old == k - 1] = 0  # cluster k - 1 starts empty
        shifted = ((old + rng.integers(1, k, size=n)) % k).astype(np.int32) if k > 1 else old.copy()
        partial = np.where(rng.random(n) < 0.3, rng.integers(0, k, size=n), old).astype(np.int32)
        emptied = old.copy()
        emptied[old == 0] = k - 1  # cluster 0 empties into the empty cluster k - 1
        base = metric.profile_from_assignment(enc, old, k)
        for new in (old.copy(), shifted, partial, emptied):  # no moves, every sample moved, some, via empties
            delta = metric.profile_from_assignment(enc, new, k, prev=(old, base))
            _same_profile(delta, metric.profile_from_assignment(enc, new, k))
            # and a second step chained onto the delta-built profile
            back = metric.profile_from_assignment(enc, old, k, prev=(new, delta))
            _same_profile(back, base)


@pytest.mark.parametrize("share", [0.0, metric.DELTA_MAX_MOVED_DISTINCT, 1.0])
def test_delta_profile_on_a_distinct_view_table(monkeypatch, share):
    # 0.0: a full pair tally at every move; 1.0: a delta at every move.
    monkeypatch.setattr(metric, "DELTA_MAX_MOVED_DISTINCT", share)
    d = synthesize(30_000, 10, 4, values_per_attribute=2, seed=6)  # 2**10 distinct rows, past the 2**18-cell floor
    enc, k = d.onehot, 4
    assert enc.distinct is not None
    rng = np.random.default_rng(7)
    old = rng.integers(0, k, size=d.n).astype(np.int32)
    base = metric.profile_from_assignment(enc, old, k)
    for moved in (0.0, 0.02, 0.2, 1.0):
        new = np.where(rng.random(d.n) < moved, rng.integers(0, k, size=d.n), old).astype(np.int32)
        expect = np.zeros_like(base.counts)
        np.add.at(expect, (new[:, None], enc.codes), 1)
        delta = metric.profile_from_assignment(enc, new, k, prev=(old, base))
        assert np.array_equal(delta.counts, expect) and np.array_equal(delta.sizes, np.bincount(new, minlength=k))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_objective_and_delta_profile_allocate_no_per_sample_table():
    # An (s, n) index table here is 16 MB; the objective, the order refresh and
    # a small delta profile each stay under 1 MiB.
    d = synthesize(100_000, 20, 5, 5, seed=3)
    enc, k = d.onehot, 5
    rng = np.random.default_rng(0)
    assign = rng.integers(0, k, size=d.n).astype(np.int32)
    prof = metric.profile_from_assignment(enc, assign, k)
    start = order.dictionary_orders(d)
    matrices = metric.value_distance_matrices(d, start)
    for form in ("profile", "mode"):
        assert _traced_peak(lambda: metric.objective_total(matrices, prof, form)) < 2**20
        assert _traced_peak(lambda: order.learn_orders(d, prof, matrices, start, form)) < 2**20
    moved = assign.copy()
    idx = rng.choice(d.n, size=100, replace=False)
    moved[idx] = (moved[idx] + 1) % k
    assert _traced_peak(lambda: metric.profile_from_assignment(enc, moved, k, prev=(assign, prof))) < 2**20


def _costed_profile(rng, k=3):
    d = synthesize(40, 3, k, values_per_attribute=4, seed=3)
    return d, metric.profile_from_assignment(d.onehot, rng.integers(0, k, size=40).astype(np.int32), k)


def _count_builds(monkeypatch) -> list:
    builds, build = [], metric._cost_table
    monkeypatch.setattr(metric, "_cost_table", lambda *args: builds.append(args[0]) or build(*args))
    return builds


def test_value_costs_table_is_shared_and_read_only(rng):
    d, prof = _costed_profile(rng)
    matrices = metric.value_distance_matrices(d, order.dictionary_orders(d))
    table = metric.value_costs(matrices, prof, "profile")
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert metric.value_costs(matrices, prof, "profile") is table
    assert metric.value_costs(matrices, prof, "mode") is not table


def test_value_costs_keeps_one_table_per_matrices_tuple(rng, monkeypatch):
    builds = _count_builds(monkeypatch)
    d, prof = _costed_profile(rng)
    orders = order.dictionary_orders(d), order.random_orders(d, np.random.default_rng(7))
    first, other = (metric.value_distance_matrices(d, o) for o in orders)
    tables = [metric.value_costs(m, prof, "profile") for m in (first, other, first, other)]
    assert tables[0] is tables[2] and tables[1] is tables[3]
    assert len(builds) == 2 and builds[0] is first and builds[1] is other
    assert tables[0].tobytes() != tables[1].tobytes()
    for o, table in zip(orders, tables):
        assert table.tobytes() == exact_profile_costs(d, prof, o).tobytes()


def test_value_costs_rebuilds_for_a_new_equal_tuple(rng, monkeypatch):
    builds = _count_builds(monkeypatch)
    d, prof = _costed_profile(rng)
    matrices = metric.value_distance_matrices(d, order.dictionary_orders(d))
    equal = metric.value_distance_matrices(d, order.dictionary_orders(d))
    table, again = (metric.value_costs(m, prof, "mode") for m in (matrices, equal))
    assert len(builds) == 2 and again is not table
    assert again.tobytes() == table.tobytes()
