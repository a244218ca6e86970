"""Clustering drivers: the alternating order/partition fit, baselines, ablations.

The main fit alternates two phases. The inner loop holds the value orders
fixed and repeats assignment + profile refresh while the objective strictly
decreases. The outer loop relearns the orders from the converged partition
and runs another inner loop, stopping when an epoch fails to improve. The
best objective visited wins; the non-improving terminal steps are recorded
in the trace but never returned.
"""

from __future__ import annotations

import dataclasses
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
        a = np.array(self.assign)  # a copy: freezing it leaves the caller's array writeable
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

    @property
    def total_inner_iterations(self) -> int:
        return len(self.objective_values)


class FitResult(NamedTuple):
    partition: Partition
    orders: order.OrderSet
    trace: FitTrace


def _inner_segment(enc, matrices, form, assign0, prof, l_base, trace, max_inner):
    """Alternate assignment and profile refresh until L stops strictly decreasing.

    ``prof`` is the profile of ``assign0``. Each step's profile is the
    previous one updated by the samples that changed cluster, and its
    objective comes from that profile's count table, so after the distances
    a step costs O(k * sum l + moved * s) rather than O(n * s). Returns the
    last strictly-improving state (or the start state when the first step
    already fails to improve) as (assignment, profile, objective), plus
    whether the segment ended on a non-improving step rather than at
    ``max_inner``. The distance kernel is read off ``metric`` at every step,
    so a wrapper installed there sees each call.
    """
    cur_assign, l_prev, k = assign0, l_base, prof.k
    trace.epoch_baselines.append(l_base)
    converged = False
    for iters in range(1, max_inner + 1):
        dist = (metric.mode_distances if form == "mode" else metric.cluster_distances)(enc, matrices, prof)
        new_assign = dist.argmin(axis=1).astype(np.int32)
        new_prof = metric.profile_from_assignment(enc, new_assign, k, prev=(cur_assign, prof))
        l_new = metric.objective_total(matrices, new_prof, form)
        trace.objective_values.append(l_new)
        if l_new >= l_prev:
            converged = True
            break
        cur_assign, prof, l_prev = new_assign, new_prof, l_new
    trace.inner_counts.append(iters)
    return cur_assign, prof, l_prev, converged


def _initial_partition(d: Dataset, cfg: FitConfig, seed_seq) -> np.ndarray:
    if cfg.init == "kmodes_once":  # looked up on the module, so a wrapper installed there sees the call
        return fit_kmodes(d, cfg.k, seed=seed_seq)[0].assign
    rng = np.random.default_rng(seed_seq)
    return rng.integers(0, cfg.k, size=d.n, dtype=np.int32)


def _start(d: Dataset, cfg: FitConfig, seed_seq) -> tuple[np.ndarray, metric.ClusterProfile]:
    """Initial assignment and its profile, read-only, from the Dataset's one start slot.

    The slot holds the start of the last (k, init, seed) fitted on ``d``; a
    miss builds the start and replaces the slot's whole tuple at once. The
    seed is keyed by the pool of ``seed_seq``, the only state the start draws
    from, so equal seeds match whatever their type.
    """
    key = (cfg.k, cfg.init, seed_seq.pool.tobytes())
    slot = d._start
    if slot is not None and slot[0] == key:
        return slot[1]
    assign = _initial_partition(d, cfg, seed_seq)
    prof = metric.profile_from_assignment(d.onehot, assign, cfg.k)
    for arr in (assign, prof.sizes, prof.counts, *prof.probs):
        arr.flags.writeable = False
    object.__setattr__(d, "_start", (key, (assign, prof)))
    return assign, prof


def _start_kind(cfg: FitConfig) -> str | None:
    """Kind of the start orders ``_initial_orders`` builds; None when they are drawn or given."""
    if cfg.order_mode == "hamming" or cfg.ablation == "hamming_only":
        return "hamming"
    if cfg.order_mode != "learned":
        return "semantic" if cfg.order_mode == "semantic" else None
    if cfg.random_order_init:
        return None
    return "dictionary" if cfg.ordinal_policy == "learn_all" else "preserved"


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


def _start_orders(d: Dataset, cfg: FitConfig, rng) -> tuple[order.OrderSet, tuple, bool]:
    """Start orders, their value distance matrices, and whether the two are shared.

    Deterministic start orders are built once per Dataset and kind, with
    read-only ranks and matrices, so every fit starting from them holds the
    same matrices tuple and can share its cost tables. Drawn and given
    orders are built per fit.
    """
    kind = _start_kind(cfg)
    if kind is None:
        orders = _initial_orders(d, cfg, rng)
        return orders, metric.value_distance_matrices(d, orders), False
    if kind not in d._start_orders:
        orders = _initial_orders(d, cfg, rng)
        matrices = metric.value_distance_matrices(d, orders)
        for arr in (*orders.ranks, *matrices):
            if arr is not None:
                arr.flags.writeable = False
        d._start_orders.setdefault(kind, (orders, matrices))
    return (*d._start_orders[kind], True)


def fit(d: Dataset, cfg: FitConfig) -> FitResult:
    """Joint order and partition fit (with every ablation and order mode).

    Full alternation refreshes the orders up to ``max_outer`` times; every
    other flow first converges under the initial orders, then refreshes them
    once (``single_order_update``) or not at all. The first refresh whose
    segment fails to improve ends the loop, so the last kept state is the best.

    Deterministic per (seed, config): the initializer, any random orders and
    the loop itself all draw from streams spawned off ``cfg.seed``.

    The start depends only on (k, init, seed). Fits on one Dataset share the
    start of the last (k, init, seed) fitted, one partition plus one profile
    per Dataset, and the matrices of deterministic start orders. Fitting every
    flow of a seed before the next seed reuses the start; results are the
    same bit for bit in any order.
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

    cur_assign, start_prof = _start(d, cfg, init_seed)
    cur_orders, matrices, shared = _start_orders(d, cfg, np.random.default_rng(order_seed))
    if shared:  # kept on the shared profile: at most one table per kind of start orders and form
        metric.value_costs(matrices, start_prof, form)
    # The fit's other tables go on a private copy, which starts with the shared ones.
    prof = dataclasses.replace(start_prof)
    prof._costs.update(start_prof._costs)

    trace = FitTrace()
    l_cur = metric.objective_total(matrices, prof, form)
    trace.init_objective = l_cur
    trace.converged = True
    if not alternating:
        cur_assign, prof, l_cur, trace.converged = _inner_segment(
            enc, matrices, form, cur_assign, prof, l_cur, trace, cfg.max_inner
        )
    # Invariant at every refresh: ``prof`` is the profile of ``cur_assign`` and
    # ``matrices`` the value distances of ``cur_orders``.
    for _ in range(refreshes):
        new_orders = order.learn_orders(d, prof, matrices, cur_orders, form=form, frozen=frozen)
        new_matrices = metric.value_distance_matrices(d, new_orders)
        l_base = metric.objective_total(new_matrices, prof, form)
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


def _check_centres(k: int, n: int, max_iter: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iter < 1:
        raise ValueError("iteration caps must be >= 1")
    if k > n:
        raise ValueError("k exceeds the sample count")


def _centre_loop(enc, cols, k, seed, max_iter, monotone) -> tuple[Partition, FitTrace]:
    """Lloyd loop over k distinct random samples as centres: modes, plus means when ``cols`` is given.

    Stops on a repeated assignment and, when ``monotone``, on an objective
    that fails to decrease, reporting the last decreasing objective instead
    of the last one computed. An emptied cluster keeps its stale centre.

    Modes are kept as one-hot columns of ``enc``. Without ``cols`` the mismatch
    count is ``s - X @ M`` for the (sum l, k) one-hot M of the modes, exact in
    floats; with ``cols``, (dim, n) numerical rows, the mismatches are added onto
    the (k, n) squared distances one attribute at a time, the summation order
    of the per-attribute form, over a contiguous (s_cat, n) copy of the codes.
    """
    t0 = time.perf_counter()
    n, s_cat = enc.codes.shape
    _check_centres(k, n, max_iter)
    rng = np.random.default_rng(seed)
    width = int(enc.offsets[-1])
    s = s_cat + (0 if cols is None else cols.shape[0])
    idx = rng.choice(n, size=k, replace=False)
    modes = enc.codes[idx]  # (k, s_cat) one-hot columns
    means = None if cols is None else cols[:, idx].T.copy()
    code_rows = None if cols is None else enc.codes.T.copy()  # a strided column takes twice as long

    starts, lengths = enc.offsets[:-1], np.diff(enc.offsets)
    columns, rows, clusters = np.arange(width), np.arange(n), np.arange(k)[:, None]
    trace = FitTrace()
    cur_assign, l_prev = None, np.inf
    for _ in range(max_iter):
        if means is None:
            onehot = np.zeros((width, k))
            onehot[modes, clusters] = 1.0
            dist = enc.X @ onehot
            np.subtract(s_cat, dist, out=dist)
            a = dist.argmin(axis=1).astype(np.int32)
            l_new = float(dist[rows, a].sum()) / s
        else:
            dist = _squared_distances(cols, means)
            for r in range(s_cat):
                dist += code_rows[r] != modes[:, r, None]
            a, nearest = _nearest(dist)
            l_new = float(nearest.sum()) / s
        trace.objective_values.append(l_new)
        if cur_assign is not None and (np.array_equal(a, cur_assign) or (monotone and l_new >= l_prev)):
            trace.converged = True
            break
        if means is not None:
            _update_means(cols, a, means)
        counts = enc.counts(a, k)
        # Lowest-index most frequent value per attribute: the first of its
        # columns that reaches the attribute's maximum.
        peak = np.maximum.reduceat(counts, starts, axis=1).repeat(lengths, axis=1)
        tied = np.where(counts == peak, columns, width)
        best = np.minimum.reduceat(tied, starts, axis=1)
        occupied = np.bincount(a, minlength=k) > 0
        modes[occupied] = best[occupied]
        cur_assign, l_prev = a, l_new
    trace.inner_counts.append(len(trace.objective_values))
    trace.epochs = 1
    trace.best_objective = l_prev if monotone else trace.objective_values[-1]
    trace.wall_time = time.perf_counter() - t0
    return Partition(cur_assign.astype(np.int32, copy=False), k), trace


def fit_kmodes(d: Dataset, k: int, seed=0, max_iter: int = 100) -> tuple[Partition, FitTrace]:
    """Mode-centered clustering under match/mismatch distances.

    Initial modes are k distinct random samples. Serves both as a baseline
    and as the default initializer of the main fit.
    """
    if d.s_categorical < 1:
        raise ValueError("no usable categorical attributes; nothing to cluster on")
    return _centre_loop(d.onehot, None, k, seed, max_iter, monotone=True)


def _kmeans_pp_init(cols: np.ndarray, k: int, rng) -> np.ndarray:
    n = cols.shape[1]
    centers = np.empty((k, cols.shape[0]))
    centers[0] = cols[:, rng.integers(n)]
    d2 = np.full(n, np.inf)
    for j in range(1, k):  # one distance pass per draw that reads it
        np.minimum(d2, _squared_distances(cols, centers[j - 1:j])[0], out=d2)
        total = d2.sum()
        if total <= 0:
            centers[j:] = cols[:, rng.integers(n, size=k - j)].T
            break
        centers[j] = cols[:, rng.choice(n, p=d2 / total)]
    return centers


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the rows of a (dim, n) array, added in place in the order of numpy's pairwise sum
    of one contiguous row: for x >= 0, bit-identical to ``x.T.sum(axis=1)``. Returns the row holding them."""
    dim = x.shape[0]
    if dim > 128:  # two halves, split at a multiple of 8
        half = dim // 2 - dim // 2 % 8
        return np.add(_row_sums(x[:half]), _row_sums(x[half:]), out=x[0])
    blocked = dim - dim % 8 if dim >= 8 else 1  # below 8 the rows are added in turn
    for i in range(8, blocked, 8):  # eight accumulators, then a fixed tree
        x[:8] += x[i:i + 8]
    for step in (1, 2, 4) if dim >= 8 else ():
        x[:8:2 * step] += x[step:8:2 * step]
    for row in x[blocked:]:
        x[0] += row
    return x[0]


def _squared_distances(cols: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(k, n) squared distances from the columns of a (dim, n) array to each centre, bit-identical
    to ``((data - c) ** 2).sum(axis=1)`` over the (n, dim) rows: the same subtractions and squares,
    summed by ``_row_sums``, with every numpy call over n-long rows of one reused (dim, n) buffer."""
    diff, out = np.empty_like(cols), np.empty((len(centers), cols.shape[1]))
    for m, center in enumerate(centers):
        np.subtract(cols, center[:, None], out=diff)
        np.square(diff, out=diff)
        out[m] = _row_sums(diff)
    return out


def _nearest(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and value of each column's first minimum in ``dist``, as ``argmin`` picks for finite values."""
    nearest, a = dist[0].copy(), np.zeros(dist.shape[1], dtype=np.intp)
    for m in range(1, len(dist)):
        a[dist[m] < nearest] = m
        np.minimum(nearest, dist[m], out=nearest)
    return a, nearest


def _update_means(cols: np.ndarray, a: np.ndarray, centers: np.ndarray) -> None:
    """Set each live cluster's centre to its members' mean, bit-identical to
    ``data[a == m].mean(axis=0)``; an emptied cluster keeps its stale centre."""
    counts = np.bincount(a, minlength=len(centers))
    live = counts > 0
    if len(cols) == 1:  # a one-column mean is numpy's pairwise sum
        centers[live, 0] = [cols[0][a == m].mean() for m in np.flatnonzero(live)]
        return
    for r, row in enumerate(cols):  # in sample order from zero, as numpy's axis-0 sum adds
        centers[live, r] = np.bincount(a, weights=row, minlength=len(centers))[live] / counts[live]


def _assign(cols: np.ndarray, centers: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``_nearest(_squared_distances(cols, centers))[0]``, exact distances computed only for the
    columns whose nearest centre is in doubt; ``norms`` holds each column's |x|^2.

    The centres are ranked by ``|c|^2 - 2 c.x``, the squared distance less |x|^2. Over dim terms
    this value and the exact distance each lie within E = (dim + 2) eps (|x|^2 + |c|^2) of their
    true values (2 |c.x| <= |x|^2 + |c|^2; the smallest normal float added to the magnitudes
    covers underflow). A top-two gap above 4 E at the largest |c|^2 leaves one nearest centre
    on both forms; the tolerance is four times that. Every other column, overflowed and NaN
    ones included, takes the exact path, elementwise per column, so bits and ties are kept.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = np.einsum("ij,ij->i", centers, centers)
        ranks = sizes[:, None] - 2.0 * (centers @ cols)
        a, best, second = np.zeros(cols.shape[1], dtype=np.intp), ranks[0].copy(), np.inf
        for m in range(1, len(ranks)):
            a[ranks[m] < best] = m
            second = np.minimum(second, np.maximum(best, ranks[m]))
            np.minimum(best, ranks[m], out=best)
        f64 = np.finfo(np.float64)
        tol = 16 * (len(cols) + 2) * f64.eps * (norms + (sizes.max() + f64.tiny))
        doubt = np.flatnonzero(~(second - best > tol))
    if doubt.size:
        a[doubt] = _nearest(_squared_distances(cols[:, doubt], centers))[0]
    return a


def lloyd_kmeans(cols: np.ndarray, k: int, seed=0, max_iter: int = 100) -> tuple[np.ndarray, bool]:
    """Plain seeded k-means (k-means++ init) over the columns of a (dim, n) array; returns the
    assignment and False when ``max_iter`` ran out before it repeated. Distances, assignment
    and means are each bit-identical to the (n, dim) form, so it finds that form's partition."""
    _check_centres(k, cols.shape[1], max_iter)
    centers = _kmeans_pp_init(cols, k, np.random.default_rng(seed))
    norms = np.einsum("ij,ij->j", cols, cols)
    assign_prev = None
    for _ in range(max_iter):
        a = _assign(cols, centers, norms)
        if assign_prev is not None and np.array_equal(a, assign_prev):
            return a.astype(np.int32), True
        _update_means(cols, a, centers)
        assign_prev = a
    return assign_prev.astype(np.int32), False


def encode_with_orders(d: Dataset, o: order.OrderSet) -> np.ndarray:
    """(s_categorical, n) rows: each categorical cell mapped onto [0, 1] by normalized learned rank."""
    rows = np.empty((d.s_categorical, d.n))
    for r, card in enumerate(d.cardinalities):
        ranks = o.ranks[r]
        if ranks is None:
            ranks = np.arange(1, card + 1, dtype=np.int64)
        rows[r] = (np.asarray(ranks, dtype=np.float64)[d.cat[:, r]] - 1.0) / (card - 1)
    return rows


def fit_mixed(d: Dataset, cfg: FitConfig) -> FitResult:
    """Two-stage mixed-data fit.

    Stage one learns value orders on the categorical columns. Stage two
    re-encodes those columns by normalized rank, stacks them with the
    min-max scaled numerical columns, and runs plain k-means on the result.
    The trace is stage one's; a k-means stopped by its cap makes it unconverged.
    """
    if d.s_numerical < 1:
        raise ValueError("dataset has no numerical columns; use fit directly")
    t0 = time.perf_counter()
    num = normalize_numerical(d)
    stage1 = fit(d, cfg)
    cols = np.concatenate([encode_with_orders(d, stage1.orders), num])
    kmeans_seed = np.random.SeedSequence(cfg.seed).spawn(3)[2]
    labels, kmeans_converged = lloyd_kmeans(cols, cfg.k, seed=kmeans_seed)
    trace = stage1.trace
    trace.converged = trace.converged and kmeans_converged
    trace.wall_time = time.perf_counter() - t0
    return FitResult(Partition(labels, cfg.k), stage1.orders, trace)


def fit_kprototypes(d: Dataset, k: int, seed=0, max_iter: int = 100) -> tuple[Partition, FitTrace]:
    """Mixed-data baseline: squared Euclidean on scaled numericals plus
    match/mismatch on categoricals, mean/mode centers."""
    if d.s_numerical < 1:
        raise ValueError("dataset has no numerical columns")
    return _centre_loop(d.onehot, normalize_numerical(d), k, seed, max_iter, monotone=False)
