"""Metamorphic properties: transformations of the input that must not change the result."""

import dataclasses

import numpy as np
import pytest

from conftest import frequencies
from ordclust import cluster, evaluate, fixtures, metric, order
from ordclust.cluster import FitConfig


def _moved(ranks, perm):
    if ranks is None:
        return None
    out = np.empty_like(ranks)
    out[perm] = ranks
    return out


def _relabel(d, o, r, perm):
    """Attribute r's value g renamed to perm[g], in the table, the dictionary and the ranks."""
    cat = d.cat.copy()
    cat[:, r] = perm[d.cat[:, r]]
    vocab = [None] * len(perm)
    for g, literal in enumerate(d.dictionaries[r]):
        vocab[perm[g]] = literal
    dictionaries = d.dictionaries[:r] + (tuple(vocab),) + d.dictionaries[r + 1 :]
    semantic = list(d.semantic_ranks)
    semantic[r] = _moved(semantic[r], perm)
    ranks = list(o.ranks)
    ranks[r] = _moved(ranks[r], perm)
    d2 = dataclasses.replace(d, cat=cat, dictionaries=dictionaries, semantic_ranks=tuple(semantic))
    return d2, order.OrderSet.from_ranks(d2, ranks)


@pytest.mark.parametrize("name", fixtures.SMALL_FIXTURES)
def test_relabeling_values_with_their_ranks_changes_nothing(name, rng):
    # Profile form only: the mode form breaks frequency ties by value index,
    # so renaming values may pick another mode.
    d = fixtures.load_fixture(name)
    for seed in range(4):
        o = order.random_orders(d, rng)
        r = int(rng.integers(d.s_categorical))
        d2, o2 = _relabel(d, o, r, rng.permutation(d.cardinalities[r]))
        k = 3
        assign = rng.integers(0, k, size=d.n).astype(np.int32)
        totals = []
        for ds, os_ in ((d, o), (d2, o2)):
            matrices = metric.value_distance_matrices(ds, os_)
            prof = metric.profile_from_assignment(ds.onehot, assign, k)
            totals.append(metric.objective_total(matrices, prof))
        assert totals[0] == totals[1]
        # random_partition: the k-modes init also breaks mode ties by value index
        fixed = dict(k=k, seed=seed, init="random_partition", order_mode="fixed")
        a = cluster.fit(d, FitConfig(fixed_orders=o, **fixed))
        b = cluster.fit(d2, FitConfig(fixed_orders=o2, **fixed))
        assert a.partition.assign.tolist() == b.partition.assign.tolist()
        assert a.trace.best_objective == b.trace.best_objective


@pytest.mark.parametrize("name", fixtures.SMALL_FIXTURES)
def test_duplicating_every_row_keeps_profiles_and_scores(name, rng):
    d = fixtures.load_fixture(name)
    twice = dataclasses.replace(
        d,
        cat=np.vstack([d.cat, d.cat]),
        num=np.vstack([d.num, d.num]),
        labels=np.concatenate([d.labels, d.labels]),
    )
    k = 4
    for _ in range(3):
        assign = rng.integers(0, k, size=d.n).astype(np.int32)
        assign2 = np.concatenate([assign, assign])
        once = metric.profile_from_assignment(d.onehot, assign, k)
        dup = metric.profile_from_assignment(twice.onehot, assign2, k)
        assert dup.sizes.tolist() == (2 * once.sizes).tolist()
        for p1, p2 in zip(frequencies(once), frequencies(dup)):
            assert p1.tobytes() == p2.tobytes()
        assert evaluate.compactness(twice, assign2) == evaluate.compactness(d, assign)
        ca = evaluate.clustering_accuracy(assign, d.labels)
        assert evaluate.clustering_accuracy(assign2, twice.labels) == ca


def _permuted(d, perm):
    """The same table with row i taken from row perm[i]."""
    labels = None if d.labels is None else d.labels[perm]
    return dataclasses.replace(d, cat=d.cat[perm], num=d.num[perm], labels=labels)


@pytest.mark.parametrize("name", fixtures.SMALL_FIXTURES)
def test_permuting_rows_keeps_objective_bits_and_permutes_the_fit(name, rng, monkeypatch):
    d = fixtures.load_fixture(name)
    k = 3
    for seed in range(3):
        perm = rng.permutation(d.n)
        dp = _permuted(d, perm)
        o = order.random_orders(d, rng)
        start = rng.integers(0, k, size=d.n).astype(np.int32)
        matrices = metric.value_distance_matrices(d, o)
        for form in ("profile", "mode"):
            got = [
                metric.objective_total(matrices, metric.profile_from_assignment(ds.onehot, a, k), form)
                for ds, a in ((d, start), (dp, start[perm]))
            ]
            assert got[0].hex() == got[1].hex()
        starts = {id(d): start, id(dp): start[perm]}
        monkeypatch.setattr(cluster, "_initial_partition", lambda ds, cfg, seed_seq: starts[id(ds)].copy())
        a = cluster.fit(d, FitConfig(k=k, seed=seed, order_mode="fixed", fixed_orders=o))
        b = cluster.fit(dp, FitConfig(k=k, seed=seed, order_mode="fixed", fixed_orders=o))
        assert [v.hex() for v in b.trace.objective_values] == [v.hex() for v in a.trace.objective_values]
        assert b.partition.assign.tolist() == a.partition.assign[perm].tolist()
