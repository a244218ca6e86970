"""Clustering drivers: the alternating order/partition fit, baselines, ablations.

The main fit alternates two phases. The inner loop holds the value orders
fixed and repeats assignment + profile refresh while the objective strictly
decreases. The outer loop relearns the orders from the converged partition
and runs another inner loop, stopping when an epoch fails to improve. The
best objective visited wins; the non-improving terminal steps are recorded
in the trace but never returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import metric, order
from .data import Dataset, normalize_numerical, synthesize

INITS = ("kmodes_once", "random_partition")
ORDER_MODES = ("learned", "semantic", "random", "hamming", "fixed")
ABLATIONS = ("full", "no_prob_weight", "single_order_update", "hamming_only")
ORDINAL_POLICIES = ("learn_all", "preserve_ordinal", "preserve_all")


@dataclass(frozen=True)
class Partition:
    """Hard assignment of every sample to one of k clusters."""

    assign: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assign)
        if a.ndim != 1:
            raise ValueError("assignment must be one id per sample")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ValueError("cluster ids must lie in [0, k)")
        a.flags.writeable = False

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assign, minlength=self.k)

    @property
    def effective_k(self) -> int:
        return int((self.sizes > 0).sum())


@dataclass(frozen=True)
class FitConfig:
    k: int
    init: str = "kmodes_once"
    order_mode: str = "learned"
    ablation: str = "full"
    ordinal_policy: str = "learn_all"
    seed: int = 0
    max_outer: int = 20
    max_inner: int = 200
    random_order_init: bool = False
    fixed_orders: order.OrderSet | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if self.order_mode not in ORDER_MODES:
            raise ValueError(f"unknown order mode {self.order_mode!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        if self.ordinal_policy not in ORDINAL_POLICIES:
            raise ValueError(f"unknown ordinal policy {self.ordinal_policy!r}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.order_mode == "fixed" and self.fixed_orders is None:
            raise ValueError("order_mode='fixed' requires fixed_orders")
        if self.ablation in ("no_prob_weight", "single_order_update") and (
            self.order_mode != "learned" or self.ordinal_policy == "preserve_all"
        ):
            raise ValueError(f"ablation {self.ablation!r} needs learnable orders")


@dataclass
class FitTrace:
    """Objective trajectory and loop accounting for one fit."""

    objective_values: list = field(default_factory=list)  # L after every inner iteration
    epoch_baselines: list = field(default_factory=list)  # L at each segment start
    inner_counts: list = field(default_factory=list)  # iterations per segment
    order_update_iterations: list = field(default_factory=list)  # global iteration index per refresh
    epochs: int = 0
    accepted_order_updates: int = 0
    converged: bool = False
    wall_time: float = 0.0
    init_objective: float = float("nan")
    best_objective: float = float("nan")
    final_objective: float = float("nan")  # objective at the terminal, non-improving step

    @property
    def total_inner_iterations(self) -> int:
        return len(self.objective_values)


class FitResult(NamedTuple):
    partition: Partition
    orders: order.OrderSet
    trace: FitTrace


def assign(d: Dataset, prof: metric.ClusterProfile, o: order.OrderSet) -> Partition:
    """Assign every sample to its nearest cluster profile; ties pick the lowest id."""
    if not (prof.sizes > 0).any():
        raise ValueError("every cluster is empty")
    matrices = metric.value_distance_matrices(d, o)
    dist = metric.cluster_distances(d.onehot, matrices, prof)
    return Partition(assign=dist.argmin(axis=1).astype(np.int32), k=prof.k)


def _distances(enc, matrices, prof, form):
    if form == "mode":
        return metric.mode_distances(enc, matrices, prof)
    return metric.cluster_distances(enc, matrices, prof)


def _inner_segment(enc, cards, matrices, form, assign0, k, l_base, trace, max_inner):
    """Alternate assignment and profile refresh until L stops strictly decreasing.

    Returns the last strictly-improving state (or the start state when the
    first step already fails to improve).
    """
    cur_assign = assign0
    prof = metric.profile_from_assignment(enc, cards, cur_assign, k)
    l_prev = l_base
    trace.epoch_baselines.append(l_base)
    iters = 0
    converged = False
    while iters < max_inner:
        dist = _distances(enc, matrices, prof, form)
        new_assign = dist.argmin(axis=1).astype(np.int32)
        new_prof = metric.profile_from_assignment(enc, cards, new_assign, k)
        l_new = metric.objective_total(enc, matrices, new_prof, new_assign, form)
        iters += 1
        trace.objective_values.append(l_new)
        if l_new >= l_prev:
            converged = True
            trace.final_objective = l_new
            break
        cur_assign, prof, l_prev = new_assign, new_prof, l_new
    trace.inner_counts.append(iters)
    return cur_assign, l_prev, converged


def _initial_partition(d: Dataset, cfg: FitConfig, seed_seq) -> np.ndarray:
    if cfg.init == "kmodes_once":
        part, _ = fit_kmodes(d, cfg.k, seed=seed_seq)
        return np.asarray(part.assign)
    rng = np.random.default_rng(seed_seq)
    return rng.integers(0, cfg.k, size=d.n, dtype=np.int32)


def _initial_orders(d: Dataset, cfg: FitConfig, rng) -> order.OrderSet:
    if cfg.order_mode == "hamming" or cfg.ablation == "hamming_only":
        return order.hamming_orders(d)
    if cfg.order_mode == "semantic":
        return order.semantic_orders(d)
    if cfg.order_mode == "random":
        return order.random_orders(d, rng)
    if cfg.order_mode == "fixed":
        cfg.fixed_orders.validate(d)
        return cfg.fixed_orders
    base = order.random_orders(d, rng) if cfg.random_order_init else order.dictionary_orders(d)
    if cfg.ordinal_policy in ("preserve_ordinal", "preserve_all"):
        ranks = [
            (sem.copy() if sem is not None else base.ranks[r])
            for r, sem in enumerate(d.semantic_ranks)
        ]
        return order.OrderSet(tuple(ranks))
    return base


def fit(d: Dataset, cfg: FitConfig) -> FitResult:
    """Joint order and partition fit (with every ablation and order mode).

    Deterministic per (seed, config): the initializer, any random orders and
    the loop itself all draw from streams spawned off ``cfg.seed``.
    """
    if d.s_categorical < 1:
        raise ValueError("no usable categorical attributes; nothing to cluster on")
    t0 = time.perf_counter()
    enc, cards, k = d.onehot, d.cardinalities, cfg.k
    init_seed, order_seed = np.random.SeedSequence(cfg.seed).spawn(2)

    form = "mode" if cfg.ablation in ("no_prob_weight", "single_order_update") else "profile"
    learning = (
        cfg.order_mode == "learned"
        and cfg.ablation != "hamming_only"
        and cfg.ordinal_policy != "preserve_all"
    )
    frozen = None
    if cfg.ordinal_policy == "preserve_ordinal":
        frozen = tuple(kind == "ordinal" for kind in d.cat_kinds)

    assign0 = _initial_partition(d, cfg, init_seed)
    orders = _initial_orders(d, cfg, np.random.default_rng(order_seed))

    trace = FitTrace()
    matrices = metric.value_distance_matrices(d, orders)
    prof0 = metric.profile_from_assignment(enc, cards, assign0, k)
    l0 = metric.objective_total(enc, matrices, prof0, assign0, form)
    trace.init_objective = l0
    best = (assign0, orders, l0)

    def run_segment(a, orders_now, l_base):
        mats = metric.value_distance_matrices(d, orders_now)
        return _inner_segment(enc, cards, mats, form, a, k, l_base, trace, cfg.max_inner)

    if not learning:
        a1, l1, converged = run_segment(assign0, orders, l0)
        if l1 < best[2]:
            best = (a1, orders, l1)
        trace.epochs = 1
        trace.converged = converged
    elif cfg.ablation == "single_order_update":
        best, converged = _single_update_flow(d, cfg, form, assign0, orders, l0, best, trace, run_segment)
        trace.converged = converged
    else:
        best = _epoch_flow(d, cfg, form, frozen, assign0, orders, l0, best, trace)

    trace.best_objective = best[2]
    trace.wall_time = time.perf_counter() - t0
    return FitResult(Partition(best[0], k), best[1], trace)


def _epoch_flow(d, cfg, form, frozen, assign0, orders0, l0, best, trace):
    """Full alternation: each epoch refreshes orders, then reconverges the partition."""
    enc, cards, k = d.onehot, d.cardinalities, cfg.k
    cur_assign, cur_orders = assign0, orders0
    l_prev_epoch = l0
    for _ in range(cfg.max_outer):
        trace.epochs += 1
        new_orders = order.learn_orders(d, Partition(cur_assign, k), cur_orders, form=form, frozen=frozen)
        matrices = metric.value_distance_matrices(d, new_orders)
        prof = metric.profile_from_assignment(enc, cards, cur_assign, k)
        l_base = metric.objective_total(enc, matrices, prof, cur_assign, form)
        trace.order_update_iterations.append(trace.total_inner_iterations)
        a_new, l_new, _ = _inner_segment(enc, cards, matrices, form, cur_assign, k, l_base, trace, cfg.max_inner)
        if l_new < best[2]:
            best = (a_new, new_orders, l_new)
        if l_new >= l_prev_epoch:
            trace.converged = True
            break
        trace.accepted_order_updates += 1
        cur_assign, cur_orders, l_prev_epoch = a_new, new_orders, l_new
    return best


def _single_update_flow(d, cfg, form, assign0, orders0, l0, best, trace, run_segment):
    """One inner convergence, one order refresh, one more inner convergence."""
    enc, cards, k = d.onehot, d.cardinalities, cfg.k
    a1, l1, conv1 = run_segment(assign0, orders0, l0)
    if l1 < best[2]:
        best = (a1, orders0, l1)
    frozen = None
    if cfg.ordinal_policy == "preserve_ordinal":
        frozen = tuple(kind == "ordinal" for kind in d.cat_kinds)
    new_orders = order.learn_orders(d, Partition(a1, k), orders0, form=form, frozen=frozen)
    matrices = metric.value_distance_matrices(d, new_orders)
    prof = metric.profile_from_assignment(enc, cards, a1, k)
    l_base = metric.objective_total(enc, matrices, prof, a1, form)
    trace.order_update_iterations.append(trace.total_inner_iterations)
    trace.epochs += 1
    a2, l2, conv2 = _inner_segment(enc, cards, matrices, form, a1, k, l_base, trace, cfg.max_inner)
    if l2 < best[2]:
        best = (a2, new_orders, l2)
        trace.accepted_order_updates = 1
    return best, (conv1 and conv2)


def fit_kmodes(d: Dataset, k: int, seed=0, max_iter: int = 100) -> tuple[Partition, FitTrace]:
    """Mode-centered clustering under match/mismatch distances.

    Initial modes are k distinct random samples. Serves both as a baseline
    and as the default initializer of the main fit.
    """
    if d.s_categorical < 1:
        raise ValueError("no usable categorical attributes; nothing to cluster on")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > d.n:
        raise ValueError("k exceeds the sample count")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    cat, s = d.cat, d.s_categorical
    n = d.n
    modes = cat[rng.choice(n, size=k, replace=False)].copy()  # (k, s)

    trace = FitTrace()
    prev_assign = None
    l_prev = np.inf
    cur_assign = np.zeros(n, dtype=np.int32)
    for _ in range(max_iter):
        dist = np.zeros((n, k))
        for r in range(s):
            dist += cat[:, r, None] != modes[None, :, r]
        new_assign = dist.argmin(axis=1).astype(np.int32)
        l_new = float(dist[np.arange(n), new_assign].sum()) / s
        trace.objective_values.append(l_new)
        if prev_assign is not None and (np.array_equal(new_assign, prev_assign) or l_new >= l_prev):
            trace.converged = True
            trace.final_objective = l_new
            break
        cur_assign = new_assign
        for r, card in enumerate(d.cardinalities):
            counts = np.bincount(new_assign * card + cat[:, r], minlength=k * card).reshape(k, card)
            occupied = counts.sum(axis=1) > 0
            modes[occupied, r] = counts[occupied].argmax(axis=1)
        prev_assign, l_prev = new_assign, l_new
    trace.inner_counts.append(len(trace.objective_values))
    trace.epochs = 1
    trace.best_objective = l_prev if np.isfinite(l_prev) else trace.objective_values[-1]
    trace.wall_time = time.perf_counter() - t0
    return Partition(cur_assign, k), trace


def fit_fixed_order(d: Dataset, k: int, o: order.OrderSet | None, seed=0, init: str = "kmodes_once") -> FitResult:
    """Partition-only fit under a frozen distance metric.

    ``o=None`` measures every attribute by match/mismatch; a declared-order
    OrderSet gives the semantic baseline; a random OrderSet gives one random
    draw of the order space.
    """
    orders = order.hamming_orders(d) if o is None else o
    orders.validate(d)
    cfg = FitConfig(k=k, init=init, order_mode="fixed", fixed_orders=orders, seed=_seed_int(seed))
    return fit(d, cfg)


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValueError("seed must be an integer")


def _kmeans_pp_init(data: np.ndarray, k: int, rng) -> np.ndarray:
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
    return centers


def lloyd_kmeans(data: np.ndarray, k: int, seed=0, max_iter: int = 100) -> np.ndarray:
    """Plain seeded k-means (k-means++ init); returns the assignment."""
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(data, k, rng)
    assign_prev = None
    for _ in range(max_iter):
        d2 = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1).astype(np.int32)
        if assign_prev is not None and np.array_equal(a, assign_prev):
            break
        for m in range(k):
            members = data[a == m]
            if len(members):
                centers[m] = members.mean(axis=0)
        assign_prev = a
    return assign_prev


def encode_with_orders(d: Dataset, o: order.OrderSet) -> np.ndarray:
    """Map categorical cells onto [0, 1] by normalized learned rank."""
    cols = []
    for r, card in enumerate(d.cardinalities):
        ranks = o.ranks[r]
        if ranks is None:
            ranks = np.arange(1, card + 1, dtype=np.int64)
        cols.append((np.asarray(ranks, dtype=np.float64)[d.cat[:, r]] - 1.0) / (card - 1))
    return np.column_stack(cols) if cols else np.empty((d.n, 0))


def fit_mixed(d: Dataset, cfg: FitConfig) -> FitResult:
    """Two-stage mixed-data fit.

    Stage one learns value orders on the categorical columns. Stage two
    re-encodes those columns by normalized rank, concatenates them with the
    min-max scaled numerical columns, and runs plain k-means on the result.
    """
    if d.s_numerical < 1:
        raise ValueError("dataset has no numerical columns; use fit directly")
    t0 = time.perf_counter()
    stage1 = fit(d, cfg)
    dn = normalize_numerical(d)
    features = np.hstack([encode_with_orders(d, stage1.orders), dn.num])
    kmeans_seed = np.random.SeedSequence(cfg.seed).spawn(3)[2]
    labels = lloyd_kmeans(features, cfg.k, seed=kmeans_seed)
    trace = stage1.trace
    trace.wall_time = time.perf_counter() - t0
    return FitResult(Partition(labels, cfg.k), stage1.orders, trace)


def fit_kprototypes(d: Dataset, k: int, seed=0, max_iter: int = 100) -> tuple[Partition, FitTrace]:
    """Mixed-data baseline: squared Euclidean on scaled numericals plus
    match/mismatch on categoricals, mean/mode centers."""
    if d.s_numerical < 1:
        raise ValueError("dataset has no numerical columns")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    dn = normalize_numerical(d)
    cat, num = dn.cat, dn.num
    n, s = d.n, d.s
    idx = rng.choice(n, size=k, replace=False)
    means = num[idx].copy()
    modes = cat[idx].copy()

    trace = FitTrace()
    prev_assign = None
    cur_assign = np.zeros(n, dtype=np.int32)
    for _ in range(max_iter):
        dist = ((num[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        for r in range(d.s_categorical):
            dist += cat[:, r, None] != modes[None, :, r]
        a = dist.argmin(axis=1).astype(np.int32)
        trace.objective_values.append(float(dist[np.arange(n), a].sum()) / s)
        if prev_assign is not None and np.array_equal(a, prev_assign):
            trace.converged = True
            break
        cur_assign = a
        for m in range(k):
            members = a == m
            if members.any():
                means[m] = num[members].mean(axis=0)
        for r, card in enumerate(d.cardinalities):
            counts = np.bincount(a * card + cat[:, r], minlength=k * card).reshape(k, card)
            occupied = counts.sum(axis=1) > 0
            modes[occupied, r] = counts[occupied].argmax(axis=1)
        prev_assign = a
    trace.inner_counts.append(len(trace.objective_values))
    trace.epochs = 1
    trace.best_objective = trace.objective_values[-1]
    trace.wall_time = time.perf_counter() - t0
    return Partition(cur_assign, k), trace


@dataclass(frozen=True)
class BenchRow:
    n: int
    s: int
    k: int
    wall_time: float
    inner_iterations: int
    epochs: int


def efficiency_bench(
    axis: str,
    points: list[int],
    n: int = 10_000,
    s: int = 20,
    k: int = 5,
    values_per_attribute: int = 5,
    seed: int = 0,
) -> list[BenchRow]:
    """Wall-time sweep over one size axis on uniform synthetic data."""
    if axis not in ("n", "s", "k"):
        raise ValueError("axis must be one of n, s, k")
    rows = []
    for v in points:
        nn, ss, kk = n, s, k
        if axis == "n":
            nn = v
        elif axis == "s":
            ss = v
        else:
            kk = v
        d = synthesize(nn, ss, kk, values_per_attribute, seed=seed, planted_labels=True)
        res = fit(d, FitConfig(k=kk, seed=seed))
        rows.append(
            BenchRow(nn, ss, kk, res.trace.wall_time, res.trace.total_inner_iterations, res.trace.epochs)
        )
    return rows
