"""Clustering drivers: the alternating order/partition fit, baselines, ablations.

The main fit is one loop of epochs. An epoch refreshes the value orders from
the kept partition, then runs an inner segment under them: assignment and
profile refresh while the objective strictly decreases. Full alternation
refreshes in every epoch, up to ``max_outer`` epochs; the other flows keep
their initial orders in the first epoch, and ``single_order_update`` adds one
refreshing epoch. An epoch's last decreasing state is kept unless the epoch
refreshed and failed to lower the objective, which ends the fit, so the kept
state is the best visited; non-improving steps are traced, one moving no
sample with the kept objective, but never returned. A fit is converged unless
a segment ran out of ``max_inner`` or full alternation ran out of ``max_outer``.
The fits of one ``fit_many`` call reuse each other's refreshes and steps by content.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import metric, order
from .data import DataError, Dataset, block_count, blocks, normalize_numerical, run_jobs

INITS = ("kmodes_once", "random_partition")
ORDER_MODES = ("learned", "semantic", "random", "hamming", "fixed")
ABLATIONS = ("full", "no_prob_weight", "single_order_update", "hamming_only")
ORDINAL_POLICIES = ("learn_all", "preserve_ordinal", "preserve_all")
# Most assignment cells one fit_many call's step memo keeps: 2**18 int32 cells, 1 MiB. The largest
# bench fixture call, seeds 0-19, needs 85k (HR: 647 distinct steps of 132 rows); 100k rows keep two.
MEMO_CELLS = 2**18


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
        if (self.order_mode == "fixed") != (self.fixed_orders is not None):
            raise ValueError("fixed_orders is given exactly when order_mode='fixed'")
        if self.ablation == "hamming_only" and self.order_mode != "learned":
            raise ValueError("ablation 'hamming_only' sets the orders itself; it needs order_mode='learned'")
        learned = self.orders in ("learned", "preserved")
        if self.random_order_init and not learned:
            raise ValueError("random_order_init needs learned orders")
        if self.ordinal_policy != "learn_all" and not learned:
            raise ValueError(f"ordinal policy {self.ordinal_policy!r} applies only to learned orders")
        if self.ablation in ("no_prob_weight", "single_order_update") and not self.learns_orders:
            raise ValueError(f"ablation {self.ablation!r} needs learnable orders")

    @property
    def orders(self) -> str:
        """How a fit's orders come about: the order mode, except ``hamming`` under the ``hamming_only``
        ablation and ``preserved`` for learned orders that ``preserve_all`` never refreshes."""
        if self.ablation == "hamming_only":
            return "hamming"
        if self.order_mode == "learned" and self.ordinal_policy == "preserve_all":
            return "preserved"
        return self.order_mode

    @property
    def learns_orders(self) -> bool:
        """Whether a fit refreshes its orders."""
        return self.orders == "learned"


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


def _initial_partition(d: Dataset, cfg: FitConfig, seed_seq) -> np.ndarray:
    if cfg.init == "kmodes_once":  # looked up on the module, so a wrapper installed there sees the call
        return fit_kmodes(d, cfg.k, seed=seed_seq)[0].assign
    rng = np.random.default_rng(seed_seq)
    return rng.integers(0, cfg.k, size=d.n, dtype=np.int32)


def _initial_orders(d: Dataset, cfg: FitConfig, rng) -> order.OrderSet:
    """A fit's start orders, as ``cfg.orders`` names them."""
    if cfg.orders == "hamming":
        return order.hamming_orders(d)
    if cfg.orders == "semantic":
        return order.semantic_orders(d)
    if cfg.orders in ("random", "fixed"):  # given orders are checked by their distance build
        return cfg.fixed_orders or order.random_orders(d, rng)
    base = order.random_orders(d, rng) if cfg.random_order_init else order.dictionary_orders(d)
    if cfg.ordinal_policy == "learn_all":
        return base
    sem = order.OrderSet.from_ranks(d, d.semantic_ranks).stacked_ranks
    return order.OrderSet(np.where(sem > 0, sem, base.stacked_ranks), d.onehot.offsets)


def _start(d: Dataset, cfg: FitConfig, memo: dict) -> tuple:
    """Initial assignment, its profile, the start orders and their value distances, all read-only.

    The partition and any drawn orders come from two streams spawned off
    ``cfg.seed``. The memo's start slot keeps the assignment and profile of
    the last (k, init, seed), the seed keyed by its stream's pool so equal
    seeds of any type match. Each kind of deterministic start orders is kept;
    drawn and given orders are built per fit. Distances come from the memo's
    table, except for given orders, whose own build checks their layout.
    """
    init_seed, order_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    key, slot = (cfg.k, cfg.init, init_seed.pool.tobytes()), memo.get("start")
    if slot is None or slot[0] != key:
        assign = _initial_partition(d, cfg, init_seed)
        prof = metric.profile_from_assignment(d.onehot, assign, cfg.k)
        for arr in (assign, prof.sizes, prof.counts):
            arr.flags.writeable = False
        memo["start"] = slot = (key, (assign, prof))
    shared = {} if cfg.orders in ("random", "fixed") or cfg.random_order_init else memo.setdefault("orders", {})
    kind = (cfg.orders, cfg.ordinal_policy == "learn_all")
    if kind not in shared:  # built only on a miss
        shared[kind] = _initial_orders(d, cfg, np.random.default_rng(order_seed))
    orders = shared[kind]
    return *slot[1], orders, _value_distances(d, orders, {} if cfg.fixed_orders else memo)


def _value_distances(d: Dataset, orders: order.OrderSet, memo: dict) -> metric.ValueDistances:
    """Value distances of ``orders`` looked up by stacked ranks: equal ranks share one object and its cost tables."""
    key = orders.stacked_ranks.tobytes()
    if key not in memo:
        memo[key] = metric.value_distance_matrices(d, orders)
    return memo[key]


def _step(d: Dataset, mats, assign: np.ndarray, prof, form: str, memo: dict) -> tuple | None:
    """One inner step from ``assign`` and its profile: None if no sample moves, else the new
    assignment, its profile and objective. The assignment is a function of (counts, mats, form),
    kept under that key up to ``MEMO_CELLS``; the profile and objective join it on the first move.
    Distances run once per ``distinct`` row, read off ``metric`` so a wrapper there sees each call.
    """
    key = ("step", prof.counts.tobytes(), mats, form)
    entry = memo.get(key)
    if entry is None:
        rows_enc, inverse = d.onehot.distinct or (d.onehot, None)
        dist = (metric.mode_distances if form == "mode" else metric.cluster_distances)(rows_enc, mats, prof)
        new_assign = metric.nearest_clusters(rows_enc, dist)
        entry = [new_assign if inverse is None else new_assign[inverse], None]
        entry[0].flags.writeable = False
        cells = memo.get("cells", 0) + entry[0].size
        if cells <= MEMO_CELLS:
            memo[key], memo["cells"] = entry, cells
    if np.array_equal(entry[0], assign):  # the same profile, so the objective to the bit
        return None
    if entry[1] is None:  # each profile is the previous one updated by the samples that changed cluster
        new_prof = metric.profile_from_assignment(d.onehot, entry[0], prof.k, prev=(assign, prof))
        new_prof.sizes.flags.writeable = new_prof.counts.flags.writeable = False
        entry[1] = new_prof, metric.objective_total(mats, new_prof, form)
    return entry[0], *entry[1]


def fit(d: Dataset, cfg: FitConfig, *, _memo: dict | None = None) -> FitResult:
    """Joint order and partition fit, with every ablation and order mode: the module's epoch loop.

    An epoch is an order refresh (``learn_orders``, its value distances and
    the kept state's objective under them; skipped in the first epoch of a
    flow that does not alternate) and then an inner segment of ``_step`` calls
    from the kept state. Refreshes and steps are looked up in ``_memo``, which
    ``fit_many`` shares across one call's fits; each fit still takes its own
    branches, so the memo changes no bit of any result.

    Deterministic per (seed, config): the initializer, any random orders and
    the loop itself all draw from streams spawned off ``cfg.seed``.
    """
    if d.s_categorical < 1:
        raise DataError("no usable categorical attributes; nothing to cluster on")
    t0 = time.perf_counter()

    form = "mode" if cfg.ablation in ("no_prob_weight", "single_order_update") else "profile"
    alternating = cfg.learns_orders and cfg.ablation != "single_order_update"
    epochs = cfg.max_outer if alternating else 1 + cfg.learns_orders
    frozen = tuple(r is not None for r in d.semantic_ranks) if cfg.ordinal_policy == "preserve_ordinal" else None

    memo = {} if _memo is None else _memo
    cur_assign, prof, cur_orders, matrices = _start(d, cfg, memo)

    trace = FitTrace()
    l_cur = metric.objective_total(matrices, prof, form)
    trace.init_objective = l_cur
    trace.converged = True
    # At every epoch start ``prof`` is the profile of ``cur_assign`` and ``matrices`` the distances of ``cur_orders``.
    for epoch in range(epochs):
        refresh = alternating or epoch > 0
        orders, mats, assign, p, l_prev = cur_orders, matrices, cur_assign, prof, l_cur
        if refresh:  # a pure function of (counts, distances, form, frozen), kept in the memo
            key = ("refresh", prof.counts.tobytes(), matrices, form, frozen)
            if key not in memo:
                orders = order.learn_orders(d, prof, matrices, cur_orders, form=form, frozen=frozen)
                mats = _value_distances(d, orders, memo)
                memo[key] = orders, mats, metric.objective_total(mats, prof, form)
            orders, mats, l_prev = memo[key]
            trace.order_update_iterations.append(trace.total_inner_iterations)
        trace.epoch_baselines.append(l_prev)
        for iters in range(1, cfg.max_inner + 1):
            moved = _step(d, mats, assign, p, form, memo)
            if moved is None:
                trace.objective_values.append(l_prev)
                break
            new_assign, new_prof, l_new = moved
            trace.objective_values.append(l_new)
            if l_new >= l_prev:
                break
            assign, p, l_prev = new_assign, new_prof, l_new
        else:  # max_inner ran out
            trace.converged = False
        trace.inner_counts.append(iters)
        if refresh and l_prev >= l_cur:
            break
        trace.accepted_order_updates += refresh
        cur_assign, cur_orders, matrices, prof, l_cur = assign, orders, mats, p, l_prev
    else:  # no refresh failed to improve: full alternation ran out of max_outer
        trace.converged = trace.converged and not alternating

    trace.epochs = max(len(trace.order_update_iterations), 1)
    trace.best_objective = l_cur
    trace.wall_time = time.perf_counter() - t0
    return FitResult(Partition(cur_assign, cfg.k), cur_orders, trace)


def fit_many(d: Dataset, cfgs) -> Iterator[FitResult]:
    """``fit(d, cfg)`` for each config, yielded in the order given.

    The fits of one call share one memo, dropped when the call ends. Consecutive
    configs with the same (k, init, seed) fit from one initial partition and
    profile, so give the configs seed-major. Each deterministic kind of start
    orders is built once, and equal ranks share one value distances object.
    A refresh or step from a state an earlier fit reached is not recomputed:
    seeds converge to the same states. Any order gives the same results, bit
    for bit, as separate ``fit`` calls.
    """
    memo = {}
    for cfg in cfgs:
        yield fit(d, cfg, _memo=memo)


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
    count is ``X @ W`` for the (sum l, k) table W[c, m] = c != mode m, the mode
    form without orders, exact in floats, over the distinct rows where ``enc``
    has a ``distinct`` view; the objective still adds one value per sample in
    sample order. With ``cols``, (dim, n) numerical rows, the mismatches are
    added onto the (k, n) squared distances one attribute at a time, the
    summation order of the per-attribute form, over a contiguous (s_cat, n)
    copy of the codes; adding their total in one step reorders the float sum
    and changes some fits. That pass runs per sample block into one (n,)
    ``nearest``, summed in one call; the integer tally stays one pass.
    """
    t0 = time.perf_counter()
    n, s_cat = enc.codes.shape
    _check_centres(k, n, max_iter)
    rng = np.random.default_rng(seed)
    s = s_cat + (0 if cols is None else cols.shape[0])
    idx = rng.choice(n, size=k, replace=False)
    modes = enc.codes[idx]  # (k, s_cat) one-hot columns
    if cols is not None:
        means, groups = cols[:, idx].T.copy(), _feature_groups(cols)
        code_rows = enc.codes.T.copy()  # a strided column takes twice as long
        samples = blocks(n, block_count(n * s))

        def nearest_block(block, a, nearest):  # the samples of one block: distances, then the nearest centre
            dist = _squared_distances(cols[:, block], means)
            for r in range(s_cat):
                dist += code_rows[r, block] != modes[:, r, None]
            a[block], nearest[block] = _nearest(dist)

    rows_enc, inverse = enc.distinct or (enc, None)
    rows = np.arange(n) if inverse is None else inverse  # each sample's row of the mismatch table
    values = np.arange(enc.offsets[-1])[:, None]
    trace = FitTrace()
    cur_assign, l_prev = None, np.inf
    for _ in range(max_iter):
        if cols is None:
            dist = metric.mean_costs(rows_enc, (values != modes.T[enc.attribute]).astype(float), 1)
            a = metric.nearest_clusters(rows_enc, dist)
            if inverse is not None:
                a = a[inverse]
            l_new = float(dist[rows, a].sum()) / s
        else:
            a, nearest = np.empty(n, dtype=np.intp), np.empty(n)
            run_jobs([functools.partial(nearest_block, block, a, nearest) for block in samples], len(samples))
            l_new = float(nearest.sum()) / s
        trace.objective_values.append(l_new)
        if cur_assign is not None and (np.array_equal(a, cur_assign) or (monotone and l_new >= l_prev)):
            trace.converged = True
            break
        if cols is not None:
            _update_means(groups, a, means)
        best = enc.first_maxima(enc.counts(a, k))  # lowest-index most frequent value per attribute
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
        raise DataError("no usable categorical attributes; nothing to cluster on")
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


def _feature_groups(cols: np.ndarray) -> list[tuple]:
    """(feature slice, C-contiguous (n, features) copy) pairs of a (dim, n) array, one group per
    ``block_count`` of its cells at most: the row-major copies ``_update_means`` reads."""
    groups = blocks(len(cols), min(block_count(cols.size), len(cols)))
    copies = run_jobs([functools.partial(np.ascontiguousarray, cols[g].T) for g in groups], len(groups))
    return list(zip(groups, copies))


def _update_means(groups, a: np.ndarray, centers: np.ndarray) -> None:
    """Set each live cluster's centre to the mean of its members among the points whose features
    ``_feature_groups`` holds, bit-identical to ``points[a == m].mean(axis=0)`` over the (n, dim)
    points; an emptied cluster keeps its stale centre.

    The sums are one product of the (k, n) CSC membership matrix, a 1.0 at row ``a[i]`` of column
    i, with each group's features: scipy's ``csc_matvecs`` adds each sample's row into its
    cluster's sums from zero, in sample order, as numpy's axis-0 sum adds, whatever the other
    columns, and 1.0 * x is exact with or without FMA. The groups run as ``run_jobs`` jobs."""
    n, k = len(a), len(centers)
    counts = np.bincount(a, minlength=k)
    live = counts > 0
    if centers.shape[1] == 1:  # a one-column mean is numpy's pairwise sum
        centers[live, 0] = [groups[0][1][a == m, 0].mean() for m in np.flatnonzero(live)]
        return
    members = sparse.csc_matrix((k, n))  # set directly: the constructor's index checks took 2 of 4 ms
    members.data, members.indices, members.indptr = np.ones(n), a, np.arange(n + 1, dtype=a.dtype)

    def update(features, points):
        centers[live, features] = (members @ points)[live] / counts[live, None]

    run_jobs([functools.partial(update, *group) for group in groups], len(groups))


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
        ranks = centers @ cols  # then |c|^2 - 2 c.x in place, the same bits
        ranks *= -2.0
        ranks += sizes[:, None]
        a, best, second = np.zeros(cols.shape[1], dtype=np.intp), ranks[0], np.inf
        for m in range(1, len(ranks)):
            a[ranks[m] < best] = m
            second = np.minimum(second, np.maximum(best, ranks[m]))
            np.minimum(best, ranks[m], out=best)
        f64 = np.finfo(np.float64)
        tol = norms + (sizes.max() + f64.tiny)
        tol *= 16 * (len(cols) + 2) * f64.eps
        second -= best
        doubt = np.flatnonzero(~(second > tol))
    if doubt.size:
        a[doubt] = _nearest(_squared_distances(cols[:, doubt], centers))[0]
    return a


def lloyd_kmeans(cols: np.ndarray, k: int, seed=0, max_iter: int = 100) -> tuple[np.ndarray, bool]:
    """Plain seeded k-means (k-means++ init) over the columns of a (dim, n) array; returns the
    assignment and False when ``max_iter`` ran out before it repeated. Distances, assignment
    and means are each bit-identical to the (n, dim) form, so it finds that form's partition.
    The assignment runs per sample block: ``_assign`` keeps each column's exact result however
    BLAS rounds a block's ranks."""
    _check_centres(k, cols.shape[1], max_iter)
    centers = _kmeans_pp_init(cols, k, np.random.default_rng(seed))
    norms = np.einsum("ij,ij->j", cols, cols)
    groups, samples = _feature_groups(cols), blocks(cols.shape[1], block_count(cols.size))
    assign_prev = None
    for _ in range(max_iter):
        jobs = [functools.partial(_assign, cols[:, block], centers, norms[block]) for block in samples]
        a = np.concatenate(run_jobs(jobs, len(jobs)))
        if assign_prev is not None and np.array_equal(a, assign_prev):
            return a.astype(np.int32), True
        _update_means(groups, a, centers)
        assign_prev = a
    return assign_prev.astype(np.int32), False


def encode_with_orders(d: Dataset, o: order.OrderSet) -> np.ndarray:
    """(s_categorical, n) rows: each categorical cell mapped onto [0, 1] by normalized learned rank.

    An attribute without an order is encoded in value order. Each value's
    ``(rank - 1) / (l - 1)`` is computed once and gathered for every cell.
    """
    place, _, _, span = d.onehot.segments
    ranks = np.where(o.stacked_ranks == 0, place, o.stacked_ranks)
    return ((ranks - 1.0) / span)[d.onehot.codes.T]


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
