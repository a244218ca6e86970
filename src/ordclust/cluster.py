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
from .data import Dataset, normalize_numerical

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
        object.__setattr__(self, "assign", a)

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


def _distances(enc, matrices, prof, form):
    if form == "mode":
        return metric.mode_distances(enc, matrices, prof)
    return metric.cluster_distances(enc, matrices, prof)


def _inner_segment(enc, matrices, form, assign0, prof, l_base, trace, max_inner):
    """Alternate assignment and profile refresh until L stops strictly decreasing.

    ``prof`` is the profile of ``assign0``. Returns the last strictly-improving
    state (or the start state when the first step already fails to improve)
    as (assignment, profile, objective), plus whether the segment ended on a
    non-improving step rather than at ``max_inner``.
    """
    cur_assign, l_prev, k = assign0, l_base, prof.k
    trace.epoch_baselines.append(l_base)
    converged = False
    for iters in range(1, max_inner + 1):
        dist = _distances(enc, matrices, prof, form)
        new_assign = dist.argmin(axis=1).astype(np.int32)
        new_prof = metric.profile_from_assignment(enc, new_assign, k)
        l_new = metric.objective_total(enc, matrices, new_prof, new_assign, form)
        trace.objective_values.append(l_new)
        if l_new >= l_prev:
            converged = True
            trace.final_objective = l_new
            break
        cur_assign, prof, l_prev = new_assign, new_prof, l_new
    trace.inner_counts.append(iters)
    return cur_assign, prof, l_prev, converged


def _initial_partition(d: Dataset, cfg: FitConfig, seed_seq) -> np.ndarray:
    if cfg.init == "kmodes_once":
        return fit_kmodes(d, cfg.k, seed=seed_seq)[0].assign
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

    Full alternation refreshes the orders up to ``max_outer`` times; every
    other flow first converges under the initial orders, then refreshes them
    once (``single_order_update``) or not at all. The first refresh whose
    segment fails to improve ends the loop, so the last kept state is the best.

    Deterministic per (seed, config): the initializer, any random orders and
    the loop itself all draw from streams spawned off ``cfg.seed``.
    """
    if d.s_categorical < 1:
        raise ValueError("no usable categorical attributes; nothing to cluster on")
    t0 = time.perf_counter()
    enc, k = d.onehot, cfg.k
    init_seed, order_seed = np.random.SeedSequence(cfg.seed).spawn(2)

    form = "mode" if cfg.ablation in ("no_prob_weight", "single_order_update") else "profile"
    learning = (
        cfg.order_mode == "learned"
        and cfg.ablation != "hamming_only"
        and cfg.ordinal_policy != "preserve_all"
    )
    alternating = learning and cfg.ablation != "single_order_update"
    refreshes = cfg.max_outer if alternating else int(learning)
    frozen = None
    if cfg.ordinal_policy == "preserve_ordinal":
        frozen = tuple(kind == "ordinal" for kind in d.cat_kinds)

    cur_assign = _initial_partition(d, cfg, init_seed)
    cur_orders = _initial_orders(d, cfg, np.random.default_rng(order_seed))

    trace = FitTrace()
    matrices = metric.value_distance_matrices(d, cur_orders)
    prof = metric.profile_from_assignment(enc, cur_assign, k)
    l_cur = metric.objective_total(enc, matrices, prof, cur_assign, form)
    trace.init_objective = l_cur
    trace.converged = True
    if not alternating:
        cur_assign, prof, l_cur, trace.converged = _inner_segment(
            enc, matrices, form, cur_assign, prof, l_cur, trace, cfg.max_inner
        )
    # Invariant at every refresh: ``prof`` is the profile of ``cur_assign`` and
    # ``matrices`` the value distances of ``cur_orders``.
    for _ in range(refreshes):
        new_orders = order.learn_orders(d, prof, matrices, cur_assign, cur_orders, form=form, frozen=frozen)
        new_matrices = metric.value_distance_matrices(d, new_orders)
        l_base = metric.objective_total(enc, new_matrices, prof, cur_assign, form)
        trace.order_update_iterations.append(trace.total_inner_iterations)
        a_new, p_new, l_new, seg_converged = _inner_segment(
            enc, new_matrices, form, cur_assign, prof, l_base, trace, cfg.max_inner
        )
        trace.converged = trace.converged and seg_converged
        if l_new >= l_cur:
            break
        trace.accepted_order_updates += 1
        cur_assign, cur_orders, matrices, prof, l_cur = a_new, new_orders, new_matrices, p_new, l_new
    else:  # no refresh failed to improve: full alternation ran out of max_outer
        trace.converged = trace.converged and not alternating

    trace.epochs = max(len(trace.order_update_iterations), 1)
    trace.best_objective = l_cur
    trace.wall_time = time.perf_counter() - t0
    return FitResult(Partition(cur_assign, k), cur_orders, trace)


def _centre_loop(enc, num, k, seed, max_iter, monotone) -> tuple[Partition, FitTrace]:
    """Lloyd loop over k distinct random samples as centres: modes, plus means when ``num`` is given.

    Stops on a repeated assignment and, when ``monotone``, on an objective
    that fails to decrease, reporting the last decreasing objective instead
    of the last one computed. An emptied cluster keeps its stale centre.

    Modes are kept as one-hot columns of ``enc``. Without ``num`` the mismatch
    count is ``s - X @ M`` for the (sum l, k) one-hot M of the modes, exact in
    floats; with ``num`` the mismatches are added onto the squared distances
    one attribute at a time, the summation order of the per-attribute form.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    s_cat, n = enc.codes.shape
    width = int(enc.offsets[-1])
    s = s_cat + (0 if num is None else num.shape[1])
    idx = rng.choice(n, size=k, replace=False)
    modes = enc.codes[:, idx].T.copy()  # (k, s_cat) one-hot columns
    means = None if num is None else num[idx].copy()
    attr = np.repeat(np.arange(s_cat), np.diff(enc.offsets))  # attribute of each column

    trace = FitTrace()
    cur_assign, l_prev = None, np.inf
    for _ in range(max_iter):
        if means is None:
            onehot = np.zeros((width, k))
            onehot[modes, np.arange(k)[:, None]] = 1.0
            dist = enc.X @ onehot
            np.subtract(s_cat, dist, out=dist)
        else:
            dist = _squared_distances(num, means)
            for r in range(s_cat):
                dist += enc.codes[r][:, None] != modes[None, :, r]
        a = dist.argmin(axis=1).astype(np.int32)
        l_new = float(dist[np.arange(n), a].sum()) / s
        trace.objective_values.append(l_new)
        if cur_assign is not None and (np.array_equal(a, cur_assign) or (monotone and l_new >= l_prev)):
            trace.converged = True
            trace.final_objective = l_new
            break
        if means is not None:
            for m in range(k):
                members = a == m
                if members.any():
                    means[m] = num[members].mean(axis=0)
        counts = np.bincount((a * width + enc.codes).ravel(), minlength=k * width).reshape(k, width)
        # Lowest-index most frequent value per attribute: the first of its
        # columns that reaches the attribute's maximum.
        peak = np.maximum.reduceat(counts, enc.offsets[:-1], axis=1)
        tied = np.where(counts == peak[:, attr], np.arange(width), width)
        best = np.minimum.reduceat(tied, enc.offsets[:-1], axis=1)
        occupied = np.bincount(a, minlength=k) > 0
        modes[occupied] = best[occupied]
        cur_assign, l_prev = a, l_new
    trace.inner_counts.append(len(trace.objective_values))
    trace.epochs = 1
    trace.best_objective = l_prev if monotone else trace.objective_values[-1]
    trace.wall_time = time.perf_counter() - t0
    return Partition(cur_assign, k), trace


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
    return _centre_loop(d.onehot, None, k, seed, max_iter, monotone=True)


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


def _squared_distances(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, one center at a time: no (n, k, dim) temporary."""
    out = np.empty((data.shape[0], centers.shape[0]))
    for m, center in enumerate(centers):
        out[:, m] = ((data - center) ** 2).sum(axis=1)
    return out


def lloyd_kmeans(data: np.ndarray, k: int, seed=0, max_iter: int = 100) -> np.ndarray:
    """Plain seeded k-means (k-means++ init); returns the assignment."""
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(data, k, rng)
    assign_prev = None
    for _ in range(max_iter):
        d2 = _squared_distances(data, centers)
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
    # d.onehot, not the scaled copy's: the copy would encode the table again.
    return _centre_loop(d.onehot, normalize_numerical(d).num, k, seed, max_iter, monotone=False)
