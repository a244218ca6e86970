"""Layer spans for the traced benchmark run, recorded from outside the package.

A wrapper is swapped in at every name an ``ordclust`` module binds to a traced
function (``cli.load_csv``, ``metric.cluster_distances``, ``cluster.fit``, ...),
so callers reach it through the lookups they already make. The wrappers are
removed again when the traced operation ends; untraced operations run the
original functions. Spans stay in memory and are summarized, and written out,
only after the operation has finished.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

# (module, function) pairs wrapped in the traced run, grouped by layer.
TRACED = (
    ("data", "load_csv"),
    ("data", "normalize_numerical"),
    ("metric", "cluster_distances"),
    ("metric", "mode_distances"),
    ("metric", "profile_from_assignment"),
    ("metric", "objective_total"),
    ("metric", "objective"),
    ("metric", "value_distance_matrices"),
    ("order", "learn_orders"),
    ("cluster", "fit"),
    ("cluster", "fit_kmodes"),
    ("cluster", "fit_mixed"),
    ("cluster", "lloyd_kmeans"),
    ("cluster", "fit_kprototypes"),
    ("evaluate", "score"),
    ("evaluate", "clustering_accuracy"),
    ("evaluate", "adjusted_rand_index"),
    ("evaluate", "normalized_mutual_info"),
    ("evaluate", "compactness"),
)
ROOT = "cli.main"
DISTANCES = ("metric.cluster_distances", "metric.mode_distances")
FITS = ("cluster.fit", "cluster.fit_kmodes", "cluster.fit_mixed", "cluster.fit_kprototypes")
# An inner iteration of cluster.fit is one distance call followed by one
# profile and one objective call; the fit calls the distance kernels nowhere
# else, but the profile and objective kernels also before each segment and epoch.
ITERATION_TAIL = ("metric.profile_from_assignment", "metric.objective_total")
# Percentiles tried for the fit-time tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def _distance_cells(args, kwargs, result):
    # (n, k) result over s attribute matrices: n·k·s cells per call.
    return int(result.size) * len(args[1])


def _loaded(args, kwargs, result):
    return str(args[0]), result


def _fit_call(args, kwargs, result):
    return args, kwargs, result


# What each traced call keeps for the summary; every hook is O(1).
HOOKS = {name: _distance_cells for name in DISTANCES}
HOOKS["data.load_csv"] = _loaded
HOOKS.update({name: _fit_call for name in FITS})


class Tracer:
    """Spans of one traced operation plus the values the hooks kept."""

    def __init__(self):
        self.spans: list = []  # Span, or None while its call is still open
        self.kept: list = []  # (span index, hook value)
        self._stack: list = []

    def wrap(self, name: str, fn, hook=None):
        spans, kept, stack = self.spans, self.kept, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
            if hook is not None:
                kept.append((idx, hook(args, kwargs, result)))
            return result

        return traced

    def kept_for(self, name: str) -> list:
        """(span index, hook value) pairs of every call to ``name``."""
        return [(i, v) for i, v in self.kept if self.spans[i].name == name]


def package_modules() -> dict:
    """Loaded ``ordclust`` modules by short name (the package itself as ``ordclust``)."""
    return {
        key.rsplit(".", 1)[-1]: mod
        for key, mod in list(sys.modules.items())
        if key == "ordclust" or key.startswith("ordclust.")
    }


def install(tracer: Tracer, modules: dict) -> list:
    """Bind a wrapper at every module name that holds a traced function.

    Returns the (module, attribute, original) triples that ``uninstall`` puts back.
    """
    patched = []
    for modname, fname in TRACED:
        original = getattr(modules[modname], fname)
        name = f"{modname}.{fname}"
        wrapper = tracer.wrap(name, original, HOOKS.get(name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


@contextmanager
def traced(tracer: Tracer):
    patched = install(tracer, package_modules())
    try:
        yield tracer
    finally:
        uninstall(patched)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its child spans.

    The tracer opens and closes spans on one stack, so children never overlap
    each other or reach outside their parent.
    """
    out = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            out[sp.parent] -= sp.duration
    return out


def tail_percentile(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, or (100, max) when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, xs[max(0, int(np.ceil(p / 100.0 * n)) - 1)]
    return 100.0, (xs[-1] if xs else 0.0)


def _seed_text(seed) -> str:
    if hasattr(seed, "spawn_key"):  # a numpy SeedSequence handed down by the fit
        return f"{seed.entropy}:{list(seed.spawn_key)}"
    return str(seed)


def fit_config_text(fn: str, args: tuple, kwargs: dict) -> str:
    if fn in ("cluster.fit", "cluster.fit_mixed"):
        cfg = args[1]
        return (f"k={cfg.k} ablation={cfg.ablation} policy={cfg.ordinal_policy} "
                f"order_mode={cfg.order_mode} init={cfg.init} seed={cfg.seed}")
    seed = kwargs.get("seed", args[2] if len(args) > 2 else 0)
    return f"k={args[1]} seed={_seed_text(seed)}"


def fit_trace(result):
    """The FitTrace of any fit driver's return value."""
    return result.trace if hasattr(result, "trace") else result[1]


def fit_outcome(result) -> tuple:
    """(partition, best objective) of any fit driver's return value."""
    part = result.partition if hasattr(result, "partition") else result[0]
    return part, fit_trace(result).best_objective


def fit_record(fn: str, parent: str, dataset: str, config: str, result) -> str:
    """One line per fit: partition hash and best objective as ``float.hex``."""
    part, best = fit_outcome(result)
    digest = hashlib.sha256(np.ascontiguousarray(part.assign, dtype=np.int32).tobytes()).hexdigest()
    return f"{fn}\t{parent}\t{dataset}\t{config}\t{digest[:16]}\t{float(best).hex()}"


def dataset_names(tracer: Tracer) -> dict:
    """id(Dataset) -> CSV file stem, for every dataset the operation loaded."""
    return {id(d): Path(path).stem for _, (path, d) in tracer.kept_for("data.load_csv")}


def fit_records(tracer: Tracer) -> list:
    names = dataset_names(tracer)
    out = []
    for idx, (args, kwargs, result) in sorted(
        (kv for name in FITS for kv in tracer.kept_for(name)), key=lambda kv: kv[0]
    ):
        sp = tracer.spans[idx]
        parent = tracer.spans[sp.parent].name if sp.parent >= 0 else ""
        config = fit_config_text(sp.name, args, kwargs)
        out.append(fit_record(sp.name, parent, names.get(id(args[0]), "?"), config, result))
    return out


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for modname, fname in TRACED:
        base = f"{modname}.{fname}"
        names += [(f"{base}.calls", "count"), (f"{base}.s", "s"), (f"{base}.self_s", "s")]
    names += [
        ("data.rows_per_s", "rows/s"),
        ("data.distinct_row_ratio", "ratio"),
        ("metric.dist_cells", "count"),
        ("cluster.fit.p50_ms", "ms"),
        ("cluster.fit.tail_ms", "ms"),
        ("cluster.fit.tail_pct", "%"),
        ("cluster.inner_iters", "count"),
        ("cluster.epochs", "count"),
        ("cluster.order_refreshes", "count"),
        ("cluster.iter_ms", "ms"),
        ("cluster.refresh_accept_ratio", "ratio"),
        ("cluster.nonimproving_iter_ratio", "ratio"),
        ("cli.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced operation, but for the overhead ratio
    and the workload's distinct-row ratio, which the caller adds."""
    spans = tracer.spans
    selfs = self_times(spans)
    m = {}
    for modname, fname in TRACED:
        base = f"{modname}.{fname}"
        m[f"{base}.calls"], m[f"{base}.s"], m[f"{base}.self_s"] = 0, 0.0, 0.0
    traced_e2e = cli_self = 0.0
    fit_ms, loop_kernel_s, pending = [], 0.0, 0
    for sp, own in zip(spans, selfs):
        if sp.name == ROOT:
            traced_e2e += sp.duration
            cli_self += own
            continue
        m[f"{sp.name}.calls"] += 1
        m[f"{sp.name}.s"] += sp.duration
        m[f"{sp.name}.self_s"] += own
        if sp.name == "cluster.fit":
            fit_ms.append(sp.duration * 1e3)
        elif sp.parent >= 0 and spans[sp.parent].name == "cluster.fit":
            if sp.name in DISTANCES:
                loop_kernel_s += sp.duration
                pending = len(ITERATION_TAIL)
            elif pending and sp.name == ITERATION_TAIL[-pending]:
                loop_kernel_s += sp.duration
                pending -= 1

    rows = sum(d.n for _, (_, d) in tracer.kept_for("data.load_csv"))
    m["data.rows_per_s"] = _ratio(rows, m["data.load_csv.s"])
    m["metric.dist_cells"] = sum(v for name in DISTANCES for _, v in tracer.kept_for(name))

    pct, tail = tail_percentile(fit_ms)
    m["cluster.fit.p50_ms"] = float(np.median(fit_ms)) if fit_ms else 0.0
    m["cluster.fit.tail_ms"] = float(tail)
    m["cluster.fit.tail_pct"] = pct
    traces = [fit_trace(v[2]) for _, v in tracer.kept_for("cluster.fit")]
    inner = sum(t.total_inner_iterations for t in traces)
    refreshes = sum(len(t.order_update_iterations) for t in traces)
    m["cluster.inner_iters"] = inner
    m["cluster.epochs"] = sum(t.epochs for t in traces)
    m["cluster.order_refreshes"] = refreshes
    m["cluster.iter_ms"] = _ratio(loop_kernel_s * 1e3, inner)
    m["cluster.refresh_accept_ratio"] = _ratio(sum(t.accepted_order_updates for t in traces), refreshes)
    m["cluster.nonimproving_iter_ratio"] = _ratio(sum(len(t.inner_counts) for t in traces), inner)
    m["cli.self_s"] = cli_self
    m["trace.e2e_s"] = traced_e2e
    return m
