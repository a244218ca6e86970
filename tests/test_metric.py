import numpy as np
import pytest

from conftest import make_dataset
from ordclust import metric, oracle, order
from ordclust.cluster import Partition
from ordclust.data import Dataset
from ordclust.data import synthesize


def test_profile_counts_within_cluster():
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.array([0, 0, 0, 1], dtype=np.int32), 2)
    prof = metric.compute_profile(d, q)
    assert prof.probs[0][0].tolist() == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert prof.probs[0][1].tolist() == pytest.approx([0.0, 0.0, 1.0])
    assert prof.sizes.tolist() == [3, 1]


def test_profile_rows_sum_to_one(rng):
    d = synthesize(60, 3, 4, values_per_attribute=4, seed=5)
    q = Partition(rng.integers(0, 4, size=60).astype(np.int32), 4)
    prof = metric.compute_profile(d, q)
    for probs in prof.probs:
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
    prof = metric.compute_profile(d, q)
    assert prof.empty.tolist() == [False, True, True]


def test_profile_matches_brute_tally():
    d = make_dataset([["a", "b", "a", "c", "b", "b"], ["x", "x", "y", "y", "x", "y"]])
    assign = np.array([0, 1, 0, 1, 0, 1], dtype=np.int32)
    prof = metric.compute_profile(d, Partition(assign, 2))
    for r in range(2):
        for m in range(2):
            members = d.cat[assign == m, r]
            for g in range(len(d.dictionaries[r])):
                expect = (members == g).sum() / len(members)
                assert prof.probs[r][m, g] == pytest.approx(expect)


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
    prof = metric.compute_profile(d, q)
    table = oracle.build_distance_table(d, order.dictionary_orders(d))
    # d = [0, .5, 1] against p = [2/3, 1/3, 0]
    assert oracle.sample_cluster_distance(0, 0, table, prof) == pytest.approx(1 / 6)
    # a pure cluster is at distance zero from its own value
    assert oracle.sample_cluster_distance(3, 1, table, prof) == pytest.approx(0.0)


def test_sample_cluster_distance_is_mean_over_attributes():
    # per-attribute distances 0.2 and 0.6 average to 0.4
    d = make_dataset([["a", "b", "a", "b", "b"], ["x", "y", "y", "y", "x"]])
    assign = np.zeros(5, dtype=np.int32)
    prof = metric.compute_profile(d, Partition(assign, 1))
    table = oracle.build_distance_table(d, order.dictionary_orders(d))
    t0 = float(table.vector(0, 0) @ prof.probs[0][0])
    t1 = float(table.vector(0, 1) @ prof.probs[1][0])
    got = oracle.sample_cluster_distance(0, 0, table, prof)
    assert got == pytest.approx((t0 + t1) / 2)


def test_sample_cluster_distance_rejects_empty_cluster():
    d = make_dataset([["a", "b"]])
    prof = metric.compute_profile(d, Partition(np.array([0, 0], dtype=np.int32), 2))
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
        cat_kinds=("nominal", "nominal"),
        semantic_ranks=(None, None),
        num_names=(),
    )
    q = Partition(np.zeros(3, dtype=np.int32), 1)
    rep = metric.objective(d, q, order.dictionary_orders(d))
    assert rep.total == 0.0


def test_objective_matches_hand_evaluation():
    # one attribute over [a, b, c], samples a,a,b,c in one cluster:
    # p = (.5, .25, .25); form(a) = .375, form(b) = .375, form(c) = .625
    d = make_dataset([["a", "a", "b", "c"]])
    q = Partition(np.zeros(4, dtype=np.int32), 1)
    rep = metric.objective(d, q, order.dictionary_orders(d))
    assert rep.total == pytest.approx(1.75, rel=1e-12)
    assert oracle.objective_direct(d, q, order.dictionary_orders(d)) == pytest.approx(1.75)


def test_objective_invariant_to_cluster_relabeling(rng):
    d = synthesize(40, 3, 2, values_per_attribute=4, seed=3)
    assign = rng.integers(0, 2, size=40).astype(np.int32)
    o = order.random_orders(d, rng)
    a = metric.objective(d, Partition(assign, 2), o).total
    b = metric.objective(d, Partition((1 - assign).astype(np.int32), 2), o).total
    assert a == pytest.approx(b, rel=1e-12)


def test_objective_decompositions(rng):
    for trial in range(25):
        d, q, o = oracle.random_instance(rng)
        rep = metric.objective(d, q, o)
        total = rep.per_cluster_attribute.sum() / d.s_categorical
        assert rep.total == pytest.approx(total, rel=1e-9)
        for r in range(d.s_categorical):
            assert rep.per_value[r].sum(axis=1) == pytest.approx(
                rep.per_cluster_attribute[:, r], rel=1e-9, abs=1e-12
            )


def test_order_reversal_leaves_distances_unchanged(rng):
    d = synthesize(50, 3, 2, values_per_attribute=5, seed=11)
    q = Partition(rng.integers(0, 2, size=50).astype(np.int32), 2)
    o = order.random_orders(d, rng)
    mirrored = order.OrderSet(tuple(len(r) + 1 - r for r in o.ranks))
    assert metric.objective(d, q, o).total == pytest.approx(
        metric.objective(d, q, mirrored).total, rel=1e-12
    )
    ta = metric.value_distance_matrices(d, o)
    tb = metric.value_distance_matrices(d, mirrored)
    for a, b in zip(ta, tb):
        assert np.allclose(a, b)


def test_binary_collapse_is_exact(rng):
    d = synthesize(80, 6, 3, values_per_attribute=2, seed=7)
    q = Partition(rng.integers(0, 3, size=80).astype(np.int32), 3)
    for _ in range(5):
        o = order.random_orders(d, rng)
        assert metric.objective(d, q, o).total == metric.objective(
            d, q, order.hamming_orders(d)
        ).total


def test_pairwise_distance_matrix_properties():
    d = make_dataset([["a", "b", "c", "a"], ["x", "x", "y", "y"]])
    mat = metric.pairwise_distance_matrix(d, order.dictionary_orders(d))
    assert mat.shape == (4, 4)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)
    # samples 0 and 3 share the first value, differ on the second
    assert mat[0, 3] == pytest.approx(0.5)


def _kernel_instances(rng):
    # random small instances, plus one whose last cluster is empty
    out = [oracle.random_instance(rng) for _ in range(15)]
    d = synthesize(30, 4, 3, values_per_attribute=4, seed=13)
    q = Partition(rng.integers(0, 2, size=30).astype(np.int32), 3)
    out.append((d, q, order.random_orders(d, rng)))
    return out


@pytest.mark.parametrize("form", ["profile", "mode"])
def test_distance_kernels_match_per_sample_oracle(rng, form):
    kernel = metric.cluster_distances if form == "profile" else metric.mode_distances
    reference = oracle.sample_cluster_distance if form == "profile" else oracle.sample_mode_distance
    saw_empty = False
    for d, q, o in _kernel_instances(rng):
        prof = metric.compute_profile(d, q)
        table = oracle.build_distance_table(d, o)
        dist = kernel(d.onehot, table.matrices, prof)
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
def test_distance_kernels_sum_attributes_in_order(rng, form):
    # X @ W must reproduce the attribute-ordered float sum bit for bit
    for d, q, o in _kernel_instances(rng):
        prof = metric.compute_profile(d, q)
        mats = metric.value_distance_matrices(d, o)
        expect = np.zeros((d.n, q.k))
        for r, mat in enumerate(mats):
            cols = mat @ prof.probs[r].T if form == "profile" else mat[:, prof.probs[r].argmax(axis=1)]
            expect += cols[d.cat[:, r]]
        expect /= d.s_categorical
        expect[:, prof.empty] = np.inf
        kernel = metric.cluster_distances if form == "profile" else metric.mode_distances
        assert np.array_equal(kernel(d.onehot, mats, prof), expect)


def test_profile_kernel_matches_tally(rng):
    for d, q, _ in _kernel_instances(rng):
        prof = metric.profile_from_assignment(d.onehot, d.cardinalities, q.assign, q.k)
        assert prof.sizes.tolist() == np.bincount(q.assign, minlength=q.k).tolist()
        for r, l in enumerate(d.cardinalities):
            assert prof.probs[r].shape == (q.k, l)
            for m in range(q.k):
                members = d.cat[q.assign == m, r]
                expect = [(members == g).sum() / max(len(members), 1) for g in range(l)]
                assert prof.probs[r][m].tolist() == expect


@pytest.mark.parametrize("form", ["profile", "mode"])
def test_objective_total_matches_oracle(rng, form):
    reference = oracle.sample_cluster_distance if form == "profile" else oracle.sample_mode_distance
    for d, q, o in _kernel_instances(rng):
        prof = metric.compute_profile(d, q)
        table = oracle.build_distance_table(d, o)
        got = metric.objective_total(d.onehot, table.matrices, prof, q.assign, form)
        # the per-attribute loop, summed in attribute order, is reproduced exactly
        looped = 0.0
        for r, mat in enumerate(table.matrices):
            cols = mat @ prof.probs[r].T if form == "profile" else mat[:, prof.probs[r].argmax(axis=1)]
            looped += float(cols[d.cat[:, r], q.assign].sum())
        assert got == looped / d.s_categorical
        expect = sum(reference(i, int(q.assign[i]), table, prof) for i in range(d.n))
        assert got == pytest.approx(expect, rel=1e-12)
        if form == "profile":
            assert got == pytest.approx(oracle.objective_direct(d, q, o), rel=1e-12)
        rep = metric.objective_report(d.onehot, table.matrices, prof, q.assign, form)
        assert rep.total == pytest.approx(got, rel=1e-12)


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
    assert np.array_equal(enc.codes, expect.T)


def test_objective_report_cells_sum_to_total(rng):
    for form in ("profile", "mode"):
        for d, q, o in _kernel_instances(rng):
            rep = metric.objective(d, q, o, form=form)
            cells = sum(float(v.sum()) for v in rep.per_value)
            assert cells == pytest.approx(rep.total * d.s_categorical, rel=1e-12, abs=1e-15)


def test_unknown_form_rejected():
    d = make_dataset([["a", "b", "a"]])
    q = Partition(np.zeros(3, dtype=np.int32), 1)
    with pytest.raises(ValueError, match="unknown form"):
        metric.objective(d, q, order.dictionary_orders(d), form="median")
