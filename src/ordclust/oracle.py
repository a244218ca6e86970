"""Brute-force reference implementations used to cross-check the fast paths.

Everything here trades speed for obvious correctness: exhaustive search over
order permutations, termwise objective evaluation, explicit pair enumeration
for agreement scores, and exhaustive matching for accuracy. Disagreement with
the main implementations is always a bug, never something to tolerate.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cluster, evaluate, metric, order
from .data import Dataset, split_columns, synthesize


@dataclass(frozen=True)
class DistanceTable:
    """Per-attribute value-to-value distances plus the encoded sample table.

    ``matrices[r][a, g]`` is the distance between values ``a`` and ``g`` of
    attribute ``r``.
    """

    matrices: tuple  # per attribute: (l_r, l_r) float64
    cat: np.ndarray  # (n, s_cat) int32

    def vector(self, i: int, r: int) -> np.ndarray:
        """Distance from sample i's value on attribute r to every value of r."""
        return self.matrices[r][self.cat[i, r]]

    @property
    def offsets(self) -> np.ndarray:
        """Where each attribute's values start in a stacked (k, sum l) table, and the end."""
        return np.cumsum([0] + [mat.shape[0] for mat in self.matrices])


def build_distance_table(d: Dataset, orders) -> DistanceTable:
    """One ``order_distance_vector`` row per value, or 1 - delta(a, g) where an attribute has no order."""
    rows = [[np.arange(card) != a if ranks is None else order_distance_vector(a, ranks) for a in range(card)]
            for ranks, card in zip(orders.ranks, d.cardinalities)]
    return DistanceTable(matrices=tuple(np.array(m, dtype=np.float64) for m in rows), cat=d.cat)


def order_distance_vector(value_index: int, ranks: np.ndarray) -> np.ndarray:
    """Distances from one value to every value of its attribute, given ranks."""
    l = ranks.shape[0]
    if l < 2:
        raise ValueError("attributes with a single value have no distance structure")
    if sorted(ranks.tolist()) != list(range(1, l + 1)):
        raise ValueError("ranks must be a bijection onto 1..l")
    return np.abs(ranks[value_index] - np.asarray(ranks, dtype=np.float64)) / (l - 1)


def sample_cluster_distance(i: int, m: int, dist: DistanceTable, prof) -> float:
    """Mean over attributes of the profile-weighted value distance; in [0, 1]."""
    if prof.sizes[m] == 0:
        raise ValueError(f"cluster {m} is empty; it has no distance to any sample")
    s = len(dist.matrices)
    probs = split_columns(prof.counts[m] / prof.sizes[m], dist.offsets)
    total = 0.0
    for r in range(s):
        total += float(dist.vector(i, r) @ probs[r])
    return total / s


def sample_mode_distance(i: int, m: int, dist: DistanceTable, prof) -> float:
    """Mean over attributes of the distance to cluster m's most frequent value."""
    if prof.sizes[m] == 0:
        raise ValueError(f"cluster {m} is empty; it has no distance to any sample")
    s = len(dist.matrices)
    probs = split_columns(prof.counts[m] / prof.sizes[m], dist.offsets)
    total = 0.0
    for r in range(s):
        total += float(dist.vector(i, r)[int(np.argmax(probs[r]))])
    return total / s


def rank_descending(density: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, largest first, ties by value index."""
    l = density.shape[0]
    by_density = np.lexsort((np.arange(l), -density))
    density_rank = np.empty(l, dtype=np.int64)
    density_rank[by_density] = np.arange(1, l + 1)
    return density_rank


def unimodal_place(density_rank: np.ndarray, l: int) -> np.ndarray:
    """Closed-form unimodal placement of values by descending-density rank.

    The rank-1 value lands on the central position ceil(l/2); later ranks
    alternate right, left, right, ... at growing offsets. The result is a
    position bijection onto 1..l.
    """
    density_rank = np.asarray(density_rank, dtype=np.int64)
    if sorted(density_rank.tolist()) != list(range(1, l + 1)):
        raise ValueError("density_rank must be a permutation of 1..l")
    sign = np.where(density_rank % 2 == 1, 1, -1)  # (-1)**(density_rank+1)
    return math.ceil(l / 2) - sign * (density_rank // 2)


def per_row_orders(prof, matrices, form: str = "profile"):
    """Cost ranks and unimodal positions, one (cluster, attribute) row at a time.

    Takes what ``order.learn_orders`` takes. A row ranks its present values
    by ascending cost (``metric.value_costs``), absent values last, ties by
    value index. Returns two per-attribute tuples of (k, l_r) arrays: the
    reference for the refresh's cost ranks and placement.
    """
    counts = split_columns(prof.counts, matrices.enc.offsets)
    costs = split_columns(metric.value_costs(matrices, prof, form).T, matrices.enc.offsets)
    rank_all, pos_all = [], []
    for count, cost in zip(counts, costs):
        ranks = np.vstack([rank_descending(-np.where(n > 0, c, np.inf)) for n, c in zip(count, cost)])
        rank_all.append(ranks)
        pos_all.append(np.vstack([unimodal_place(row, count.shape[1]) for row in ranks]))
    return tuple(rank_all), tuple(pos_all)


def consensus_order(positions: tuple, cluster_sizes: np.ndarray, n: int):
    """Cluster-size-weighted mean of each attribute's (k, l_r) ``positions``, ranked ascending.

    The scores are exact fractions, so empty clusters carry zero weight and
    score ties are real ties, broken by value index. Returns (rank arrays,
    float score arrays): the reference for ``order.learn_orders``.
    """
    exact = [[sum(Fraction(int(w) * int(p), n) for w, p in zip(cluster_sizes, col)) for col in pos.T]
             for pos in positions]
    ranks = tuple(np.argsort(sorted(range(len(sc)), key=lambda g: (sc[g], g))) + 1 for sc in exact)
    return ranks, tuple(np.array([float(x) for x in sc]) for sc in exact)


def exhaustive_order_search(d: Dataset, q, r: int, m: int):
    """Try every rank bijection of attribute r within cluster m.

    Returns (best positions, best within-cluster objective share). Ties keep
    the lexicographically smallest positions. Guarded to seven values.
    """
    l = d.cardinalities[r]
    if l > 7:
        raise ValueError("exhaustive search is factorial; refusing more than 7 values")
    assign = np.asarray(q.assign)
    members = d.cat[assign == m, r]
    if members.size == 0:
        raise ValueError(f"cluster {m} is empty")
    counts = Counter(members.tolist())
    p = {g: c / members.size for g, c in counts.items()}

    best_positions = None
    best_cost = math.inf
    for perm in itertools.permutations(range(1, l + 1)):
        cost = 0.0
        for x in members.tolist():
            cost += sum(abs(perm[x] - perm[g]) / (l - 1) * pg for g, pg in p.items())
        if cost < best_cost:
            best_cost = cost
            best_positions = np.array(perm, dtype=np.int64)
    return best_positions, best_cost


def within_cluster_cost(d: Dataset, q, r: int, m: int, positions: np.ndarray) -> float:
    """Objective share of cluster m on attribute r for one candidate order."""
    l = d.cardinalities[r]
    assign = np.asarray(q.assign)
    members = d.cat[assign == m, r]
    counts = Counter(members.tolist())
    p = {g: c / members.size for g, c in counts.items()}
    cost = 0.0
    for x in members.tolist():
        cost += sum(abs(int(positions[x]) - int(positions[g])) / (l - 1) * pg for g, pg in p.items())
    return cost


def objective_direct(d: Dataset, q, o: order.OrderSet) -> float:
    """Termwise objective: explicit loops over clusters, samples, attributes."""
    assign = np.asarray(q.assign)
    s = d.s_categorical
    total = 0.0
    for m in range(q.k):
        idx = np.where(assign == m)[0]
        if idx.size == 0:
            continue
        probs = []
        for r, l in enumerate(d.cardinalities):
            counts = Counter(d.cat[idx, r].tolist())
            probs.append({g: c / idx.size for g, c in counts.items()})
        for i in idx.tolist():
            acc = 0.0
            for r, l in enumerate(d.cardinalities):
                ranks = o.ranks[r]
                x = int(d.cat[i, r])
                term = 0.0
                for g, pg in probs[r].items():
                    if ranks is None:
                        dd = 0.0 if g == x else 1.0
                    else:
                        dd = abs(int(ranks[x]) - int(ranks[g])) / (l - 1)
                    term += dd * pg
                acc += term
            total += acc / s
    return total


@dataclass(frozen=True)
class PairCounts:
    both_together: int
    pred_only: int
    truth_only: int
    neither: int


def pair_count_metrics(pred, truth):
    """ARI and NMI recomputed from explicit pair enumeration and raw tallies.

    Quadratic in n by design; guarded to 2000 samples.
    """
    p = np.asarray(getattr(pred, "assign", pred)).tolist()
    t = np.asarray(getattr(truth, "assign", truth)).tolist()
    n = len(p)
    if n != len(t):
        raise ValueError("length mismatch")
    if n > 2000:
        raise ValueError("pair enumeration is quadratic; refusing more than 2000 samples")

    n11 = n10 = n01 = n00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = p[i] == p[j]
            same_t = t[i] == t[j]
            if same_p and same_t:
                n11 += 1
            elif same_p:
                n10 += 1
            elif same_t:
                n01 += 1
            else:
                n00 += 1
    counts = PairCounts(n11, n10, n01, n00)

    ari = fraction_ari(n11, n11 + n10, n11 + n01, n * (n - 1) // 2)
    joint = Counter(zip(p, t))
    rows = Counter(p)
    cols = Counter(t)
    hp = math.fsum(-(c / n) * math.log(c / n) for c in rows.values())
    ht = math.fsum(-(c / n) * math.log(c / n) for c in cols.values())
    if hp == 0.0 and ht == 0.0:
        nmi = 1.0
    elif hp == 0.0 or ht == 0.0:
        nmi = 0.0
    else:
        mi = math.fsum(
            (c / n) * math.log((n * c) / (rows[a] * cols[b])) for (a, b), c in joint.items()
        )
        nmi = mi / ((hp + ht) / 2.0)
    return counts, ari, nmi


def fraction_ari(cells: int, rows: int, cols: int, pairs: int) -> float:
    """ARI in rational arithmetic from the pairs together in both partitions, in each, and all pairs."""
    if pairs == 0:
        return 1.0
    expected = Fraction(rows * cols, pairs)
    maximum = Fraction(rows + cols, 2)
    if maximum == expected:  # both trivially fine or trivially coarse partitions
        return 1.0 if Fraction(cells) == expected else 0.0
    return float((Fraction(cells) - expected) / (maximum - expected))


def attribute_compactness(d: Dataset, pred) -> float:
    """``evaluate.compactness`` one attribute at a time, each attribute's counts divided on their own."""
    p = np.asarray(getattr(pred, "assign", pred))
    sizes = np.bincount(p)
    live = sizes > 0
    total = 0.0
    for cell, l in zip(split_columns(d.onehot.counts(p, sizes.size)[live], d.onehot.offsets), d.cardinalities):
        probs = cell / sizes[live, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(probs > 0, -probs * np.log(probs), 0.0).sum(axis=1)
        total += float(h.sum()) / math.log(l)
    return total / (d.s_categorical * int(live.sum()))


def brute_force_accuracy(pred, truth) -> float:
    """Accuracy maximized over every one-to-one cluster/label matching."""
    table = evaluate.contingency(pred, truth)
    kp, kt = table.shape
    n = int(table.sum())
    best = 0
    if kp <= kt:
        if kp > 6:
            raise ValueError("matching enumeration too large")
        for cols in itertools.permutations(range(kt), kp):
            best = max(best, int(sum(table[i, c] for i, c in enumerate(cols))))
    else:
        if kt > 6:
            raise ValueError("matching enumeration too large")
        for rows in itertools.permutations(range(kp), kt):
            best = max(best, int(sum(table[r, j] for j, r in enumerate(rows))))
    return best / n


def random_instance(rng, n_max=50, s_max=4, l_max=5, k_max=4):
    """Small random dataset + partition + orders for equivalence testing."""
    n = int(rng.integers(4, n_max + 1))
    s = int(rng.integers(1, s_max + 1))
    l = int(rng.integers(2, l_max + 1))
    k = int(rng.integers(1, k_max + 1))
    d = synthesize(n, s, k, values_per_attribute=l, seed=int(rng.integers(2**31)))
    q = cluster.Partition(rng.integers(0, k, size=n).astype(np.int32), k)
    o = order.random_orders(d, rng)
    return d, q, o


def verify_suite(rounds: int = 200, seed: int = 0):
    """Cross-check the fast implementations against every oracle.

    Returns a list of (check name, passed, detail) triples; the detail of a
    failed check is a reproducible counterexample description.
    """
    results = []
    rng = np.random.default_rng(seed)

    worst = (0.0, "")
    ok = True
    for _ in range(rounds):
        d, q, o = random_instance(rng)
        fast = metric.objective(d, q, o)
        slow = objective_direct(d, q, o)
        rel = abs(fast - slow) / max(abs(slow), 1e-30)
        if rel > worst[0]:
            worst = (rel, f"n={d.n} s={d.s_categorical} k={q.k}")
        if rel > 1e-9:
            ok = False
            break
    results.append(("objective vs termwise evaluation", ok, f"worst rel err {worst[0]:.3e} ({worst[1]})"))

    ok = True
    detail = f"{rounds} instances, exact equality"
    for _ in range(rounds):
        n = int(rng.integers(4, 60))
        kp = int(rng.integers(1, 5))
        kt = int(rng.integers(1, 5))
        pred = rng.integers(0, kp, size=n)
        truth = rng.integers(0, kt, size=n)
        _, ari_o, nmi_o = pair_count_metrics(pred, truth)
        ca_o = brute_force_accuracy(pred, truth)
        if evaluate.adjusted_rand_index(pred, truth) != ari_o:
            ok, detail = False, f"ari mismatch on pred={pred.tolist()} truth={truth.tolist()}"
            break
        if evaluate.normalized_mutual_info(pred, truth) != nmi_o:
            ok, detail = False, f"nmi mismatch on pred={pred.tolist()} truth={truth.tolist()}"
            break
        if evaluate.clustering_accuracy(pred, truth) != ca_o:
            ok, detail = False, f"accuracy mismatch on pred={pred.tolist()} truth={truth.tolist()}"
            break
    results.append(("agreement scores vs pair enumeration", ok, detail))

    ok = True
    detail = "all cardinalities 2..20"
    for l in range(2, 21):
        for _ in range(5):
            density_rank = rng.permutation(l) + 1
            pos = unimodal_place(density_rank, l)
            if sorted(pos.tolist()) != list(range(1, l + 1)):
                ok, detail = False, f"placement not a bijection for density_rank={density_rank.tolist()}"
                break
        if not ok:
            break
    results.append(("unimodal placement is a bijection", ok, detail))

    better = 0
    total = 0
    for _ in range(20):
        d, q, _ = random_instance(rng, n_max=30, s_max=2, l_max=4, k_max=2)
        prof = metric.profile_from_assignment(d.onehot, q.assign, q.k)
        _, placed = per_row_orders(prof, metric.value_distance_matrices(d, order.dictionary_orders(d)))
        for m in range(q.k):
            if prof.sizes[m] == 0:
                continue
            r = 0
            exhaust_pos, exhaust_cost = exhaustive_order_search(d, q, r, m)
            placed_cost = within_cluster_cost(d, q, r, m, placed[r][m])
            total += 1
            if exhaust_cost <= placed_cost + 1e-12:
                better += 1
    results.append(
        ("exhaustive order search lower-bounds placement", better == total, f"{better}/{total} instances")
    )
    return results
