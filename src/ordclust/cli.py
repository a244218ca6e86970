"""Command-line surface: fitting, benchmarks, demos, verification, exports.

Reports are line-oriented text plus CSV side files so any external tool can
diff or plot them. Every report embeds the resolved configuration and the
exact seed list. Exit codes: 0 success, 2 configuration problems, 3 data
problems, 4 runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cluster, evaluate, fixtures, metric, oracle, order
from .data import DataError, Dataset, SchemaError, load_csv, load_schema, synthesize
from .evaluate import SCORES

# What the imports above made (about 40k objects, nearly all from numpy and scipy.sparse) lives as long
# as the process. Frozen, it is left out of every later full collection, which would otherwise scan it
# again for 10-17 ms on a 2-core host, wherever the collection happens to fall.
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

# The fit options a report's config line names, in its order; all but ``mixed`` are FitConfig fields.
FIT_OPTIONS = ("k", "init", "order_mode", "ablation", "ordinal_policy", "mixed", "max_outer", "max_inner",
               "random_order_init")
SEED_ROW = ("  {seed:4d}  {scores.ca:.4f}  {scores.ari:+.4f}  {scores.nmi:.4f}  {scores.cmp:.4f}  "
            "{trace.best_objective:9.4f}  {trace.total_inner_iterations:5d}  "
            "{trace.accepted_order_updates:7d}  {effective_k:5d}")  # a report's per-seed line
REPORT_NOTES = (
    "objective divisor: number of effective categorical attributes",
    "numerical scaling: min-max onto [0, 1] (mixed pipeline only)",
    "nmi normalizer: arithmetic mean of the two entropies",
    "compactness: natural log; single-valued attributes and empty clusters excluded",
    "order ties: values of equal cost keep ascending value index; ranks start at 1",
    "no-probability-weight ablation: distance taken to the cluster's modal value",
)


def _default_outdir() -> Path:
    return Path(os.environ.get("ORDCLUST_OUT", "runs"))


def _resolve_data(data: str, schema: str | None) -> tuple[Path, Path]:
    if data.startswith("fixture:"):
        name = data.split(":", 1)[1]
        return fixtures.fixture_paths(name)
    if schema is None:
        raise SchemaError("--schema is required unless --data uses fixture:<NAME>")
    return Path(data), Path(schema)


def _load(args) -> Dataset:
    data_path, schema_path = _resolve_data(args.data, args.schema)
    missing = tuple(args.missing_token) if args.missing_token else ("",)
    return load_csv(data_path, load_schema(schema_path), args.missing_policy, missing)


FIT_METHODS = {  # FitConfig keywords of the benchmark methods that run the main fit
    "main": {},
    "mode_dist": {"ablation": "no_prob_weight"},
    "single_update": {"ablation": "single_order_update"},
    "hamming": {"ablation": "hamming_only"},
    "learn_nominal_only": {"ordinal_policy": "preserve_ordinal"},
    "no_order_learning": {"ordinal_policy": "preserve_all"},
}
METHODS = (*FIT_METHODS, "kmd", "kpt", "mixed")


def _run_method(d: Dataset, method: str, k: int, seed: int) -> cluster.Partition:
    """The partition of one fit of a baseline method: ``kmd``, ``kpt`` or ``mixed``."""
    if method == "mixed":
        return cluster.fit_mixed(d, cluster.FitConfig(k=k, seed=seed)).partition
    baseline = cluster.fit_kmodes if method == "kmd" else cluster.fit_kprototypes
    return baseline(d, k, seed=seed)[0]


def _count(text: str) -> int:
    """An option that counts runs, seeds, draws or sizes: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _counts(text: str) -> list[int]:
    """A comma-separated list of counts."""
    return [_count(part) for part in text.split(",")]


def _format_orders(d: Dataset, o: order.OrderSet) -> list[str]:
    lines = []
    for r, name in enumerate(d.cat_names):
        ranks = o.ranks[r]
        if ranks is None:
            lines.append(f"{name}: (no order; match/mismatch distances)")
            continue
        by_rank = np.argsort(np.asarray(ranks), kind="stable")
        scores = o.scores[r] if o.scores is not None else None
        parts = []
        for g in by_rank:
            lit = d.dictionaries[r][g]
            parts.append(f"{lit}({scores[g]:.3f})" if scores is not None else lit)
        lines.append(f"{name}: " + " < ".join(parts))
    return lines


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_distances(path: Path, d: Dataset, orders) -> None:
    """The (n, n) distance matrix as CSV, formatted one row at a time."""
    mat = metric.pairwise_distance_matrix(d, orders)
    _write_csv(path, [f"s{i}" for i in range(d.n)], ([f"{x:.6g}" for x in row.tolist()] for row in mat))


def _seed_list(base: int, runs: int) -> list[int]:
    return [base + i for i in range(runs)]


def _mean_std(report: evaluate.MetricReport, names) -> str:
    """``name mean±std`` for each named score, two spaces apart."""
    return "  ".join(f"{n} {getattr(report.mean, n):.4f}±{getattr(report.std, n):.4f}" for n in names)


def _report_lines(run: dict) -> list[str]:
    """The lines of a fit's ``report.txt``, rendered from its run record."""
    ds, best = run["dataset"], run["per_seed"][run["best"]]
    degenerate = ", ".join(f"{name}={value!r}" for name, value in ds["degenerate"])
    return [
        "run report", "=" * 60,
        f"dataset: {ds['data']} (n={ds['n']}, categorical={ds['categorical']}, numerical={ds['numerical']})",
        f"degenerate columns (excluded from clustering): {degenerate}" if degenerate else "degenerate columns: none",
        "config: " + " ".join(f"{name}={value}" for name, value in run["config"].items()),
        f"seeds: {', '.join(str(r['seed']) for r in run['per_seed'])}",
        "notes:", *(f"  - {note}" for note in REPORT_NOTES),
        "",
        "per-seed metrics:",
        "  seed      ca      ari      nmi      cmp  objective  iters  updates  eff_k",
        *(SEED_ROW.format(**r) for r in run["per_seed"]),
        "",
        f"aggregate: {_mean_std(run['aggregate'], SCORES)}",
        f"best objective: {best['trace'].best_objective:.6f} (seed {best['seed']})",
        "",
        f"{run['orders_kind']} orders (seed {best['seed']}):",
        *("  " + line for line in run["orders"]),
    ]


def cmd_fit(args) -> int:
    config = {name: getattr(args, name) for name in FIT_OPTIONS}
    options = {name: value for name, value in config.items() if name != "mixed"}
    cfgs = [cluster.FitConfig(seed=seed, **options) for seed in _seed_list(args.seed, args.runs)]
    d = _load(args)
    if args.export_distances:
        metric.check_pairwise_size(d.n, sum(d.cardinalities))

    fits = list((cluster.fit_mixed(d, cfg) for cfg in cfgs) if args.mixed else cluster.fit_many(d, cfgs))
    per_seed = [{"seed": cfg.seed, "scores": evaluate.score(d, res.partition, d.labels), "trace": res.trace,
                 "effective_k": res.partition.effective_k} for cfg, res in zip(cfgs, fits)]
    best = min(range(len(fits)), key=lambda i: fits[i].trace.best_objective)
    run = {  # the run record: every output below is rendered from it
        "dataset": {"data": args.data, "n": d.n, "categorical": d.s_categorical, "numerical": d.s_numerical,
                    "degenerate": [(c.name, c.value) for c in d.degenerate]},
        "config": config,
        "per_seed": per_seed,
        "aggregate": evaluate.aggregate([r["scores"] for r in per_seed]),
        "best": best,  # the index into per_seed of the lowest objective
        "orders": _format_orders(d, fits[best].orders),
        "orders_kind": cfgs[0].orders,  # how the orders came about, the word heading them in the report
    }

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.txt").write_text("\n".join(_report_lines(run)) + "\n")
    metrics = [[r["seed"], *(getattr(r["scores"], n) for n in SCORES), r["trace"].best_objective,
                r["trace"].total_inner_iterations, r["trace"].accepted_order_updates] for r in per_seed]
    _write_csv(outdir / "metrics.csv", ["seed", *SCORES, "objective", "inner_iterations", "order_updates"], metrics)
    if args.export_trace:
        _write_csv(outdir / "trace.csv", ["seed", "iteration", "objective", "order_update"],
                   [[r["seed"], i + 1, f"{l:.10g}", int(i in r["trace"].order_update_iterations)]
                    for r in per_seed for i, l in enumerate(r["trace"].objective_values)])
    if args.export_orders:
        (outdir / "orders.txt").write_text("\n".join(run["orders"]) + "\n")
    if args.export_distances:
        _write_distances(outdir / "distances.csv", d, fits[best].orders)
    print(f"report written to {outdir / 'report.txt'}")
    print(f"aggregate: {_mean_std(run['aggregate'], SCORES[:2])}")
    return EXIT_OK


def cmd_demo_orders(args) -> int:
    d = _load(args)
    if d.labels is None:
        raise DataError("the order demo needs ground-truth labels")
    declared = any(r is not None for r in d.semantic_ranks)
    rng = np.random.default_rng(args.seed)
    groups = {  # FitConfig keywords; the fits of one group run under seeds args.seed + 0, 1, ...
        "wo": [{"order_mode": "hamming"}] * args.wo_seeds,
        "so": [{"order_mode": "semantic"}] * args.so_seeds if declared else None,
        "ro": [{"order_mode": "fixed", "fixed_orders": order.random_orders(d, rng)} for _ in range(args.ro_draws)],
        "main": [{}] * args.overlay_seeds,
    }
    groups = {name: configs for name, configs in groups.items() if configs is not None}
    jobs = [  # index-major: the fits of one seed share their start
        (name, cluster.FitConfig(k=args.k, seed=args.seed + i, **configs[i]))
        for i in range(max(map(len, groups.values())))
        for name, configs in groups.items() if i < len(configs)
    ]
    ca = {name: [] for name in groups}
    for (name, _), res in zip(jobs, cluster.fit_many(d, [cfg for _, cfg in jobs])):
        ca[name].append(evaluate.clustering_accuracy(res.partition, d.labels))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "demo_orders.csv", ["method", "index", "ca"],
               [[name, i, x] for name, xs in ca.items() for i, x in enumerate(xs)])

    ro = ca["ro"]
    p00, p100 = min(ro), max(ro)
    p25, p50, p75 = np.quantile(ro, [0.25, 0.5, 0.75])
    lines = [
        "order demo report", "=" * 60,
        f"dataset: {args.data} (n={d.n}), k={args.k}, base seed {args.seed}",
        f"wo: {args.wo_seeds} runs, mean {np.mean(ca['wo']):.4f}",
        f"so: {args.so_seeds} runs, mean {np.mean(ca['so']):.4f}" if declared
        else "so: inapplicable (no attribute declares a semantic order)",
        f"ro: {args.ro_draws} draws, quantiles p00={p00:.4f} p25={p25:.4f} p50={p50:.4f} "
        f"p75={p75:.4f} p100={p100:.4f}",
        f"main-fit overlay: {args.overlay_seeds} runs, mean {np.mean(ca['main']):.4f}",
    ]
    (outdir / "demo_report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines[2:]))
    return EXIT_OK


def _matrix_rows(name: str, d: Dataset, k: int, methods, seeds: list[int]) -> list:
    """One benchmark-matrix row per method: mean and std of each score over the seeds.

    Seeds run outer and methods inner, so the fits of one seed share their start.
    Each distinct partition is scored once: every partition here has the same k,
    so its scores depend only on the assignment, keyed by its dtype and digest.
    """
    fits = cluster.fit_many(d, [cluster.FitConfig(k=k, seed=seed, **FIT_METHODS[meth])
                                for seed in seeds for meth in methods if meth in FIT_METHODS])
    scored, scores = {}, [[] for _ in methods]
    for seed in seeds:
        for per_seed, meth in zip(scores, methods):
            part = next(fits).partition if meth in FIT_METHODS else _run_method(d, meth, k, seed)
            key = (part.assign.dtype.str, hashlib.sha256(part.assign.tobytes()).digest())
            if key not in scored:
                scored[key] = evaluate.score(d, part, d.labels)
            per_seed.append(scored[key])
    reports = [evaluate.aggregate(per_seed) for per_seed in scores]
    return [[name, meth, *(f"{getattr(stat, n):.4f}" for n in SCORES for stat in (rep.mean, rep.std))]
            for meth, rep in zip(methods, reports)]


def _write_matrix(outdir: Path, rows: list) -> None:
    header = ["dataset", "method", *(f"{n}_{stat}" for n in SCORES for stat in ("mean", "std"))]
    _write_csv(outdir / "benchmark_matrix.csv", header, rows)
    print(f"benchmark matrix written to {outdir / 'benchmark_matrix.csv'}")


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or not set(methods) <= set(METHODS):
        raise ValueError(f"--methods must name methods among {', '.join(METHODS)}, got {args.methods!r}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    seeds = _seed_list(args.seed, args.runs)

    suite = []
    with open(args.suite, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#") or row[0].strip() == "name":
                continue
            try:
                name, data, schema, k = (cell.strip() for cell in row)
                suite.append((name, data, schema or None, int(k)))
            except ValueError:
                raise ValueError(f"{args.suite}:{reader.line_num}: expected 'name,data,schema,k' "
                                 f"with an integer k, got {','.join(row)!r}") from None

    out_rows = []
    failures = []
    for name, data, schema, k in suite:
        try:
            data_path, schema_path = _resolve_data(data, schema)
            d = load_csv(data_path, load_schema(schema_path), args.missing_policy)
            out_rows += _matrix_rows(name, d, k, methods, seeds)
        except Exception as exc:  # keep the suite going, record the failure
            failures.append((name, str(exc)))
            out_rows.append([name, "ERROR", str(exc)] + [""] * (2 * len(SCORES) - 1))
    _write_matrix(outdir, out_rows)
    for name, msg in failures:
        print(f"warning: {name} failed: {msg}", file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_ablate(args) -> int:
    d = _load(args)
    methods = ("main", "mode_dist", "single_update", "hamming")
    rows = _matrix_rows(args.name, d, args.k, methods, _seed_list(args.seed, args.runs))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_matrix(outdir, rows)
    return EXIT_OK


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
        nn, ss, kk = (v if axis == name else size for name, size in zip("nsk", (n, s, k)))
        d = synthesize(nn, ss, kk, values_per_attribute, seed=seed, planted_labels=True)
        t = cluster.fit(d, cluster.FitConfig(k=kk, seed=seed)).trace
        rows.append(BenchRow(nn, ss, kk, t.wall_time, t.total_inner_iterations, t.epochs))
    return rows


def cmd_bench_efficiency(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = efficiency_bench(
        args.axis, args.points, n=args.n, s=args.s, k=args.k,
        values_per_attribute=args.values, seed=args.seed,
    )
    _write_csv(
        outdir / "efficiency.csv",
        ["n", "s", "k", "wall_time_s", "inner_iterations", "epochs"],
        [[r.n, r.s, r.k, f"{r.wall_time:.4f}", r.inner_iterations, r.epochs] for r in rows],
    )
    for r in rows:
        print(f"n={r.n} s={r.s} k={r.k}: {r.wall_time:.3f}s ({r.inner_iterations} iterations)")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = oracle.verify_suite(rounds=args.rounds, seed=args.seed)
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed |= not ok
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_export_distances(args) -> int:
    d = _load(args)
    metric.check_pairwise_size(d.n, sum(d.cardinalities))
    out = Path(args.out_file)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.order_mode == "learned":
        res = cluster.fit(d, cluster.FitConfig(k=args.k, seed=args.seed))
        orders = res.orders
    elif args.order_mode == "hamming":
        orders = order.hamming_orders(d)
    else:
        orders = order.dictionary_orders(d)
    _write_distances(out, d, orders)
    print(f"{d.n}x{d.n} distance matrix written to {out}")
    return EXIT_OK


def _add_data_args(p, schema_required=False):
    p.add_argument("--data", required=True, help="CSV path, or fixture:<NAME> for a bundled dataset")
    p.add_argument("--schema", default=None, required=schema_required, help="schema file path")
    p.add_argument("--missing-policy", default="drop_row", choices=("drop_row", "error"))
    p.add_argument("--missing-token", action="append", default=None,
                   help="cell literal treated as missing (repeatable; default: empty cell)")


def _add_fit_args(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--init", default="kmodes_once", choices=cluster.INITS)
    p.add_argument("--order-mode", default="learned", choices=cluster.ORDER_MODES[:-1],
                   dest="order_mode")
    p.add_argument("--ablation", default="full", choices=cluster.ABLATIONS)
    p.add_argument("--ordinal-policy", default="learn_all", choices=cluster.ORDINAL_POLICIES,
                   dest="ordinal_policy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-outer", type=int, default=20)
    p.add_argument("--max-inner", type=int, default=200)
    p.add_argument("--random-order-init", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ordclust",
                                 description="Categorical data clustering with learned value orders")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one dataset over multiple seeds and write a report")
    _add_data_args(p)
    _add_fit_args(p)
    p.add_argument("--runs", type=_count, default=10)
    p.add_argument("--mixed", action="store_true", help="two-stage pipeline for mixed data")
    p.add_argument("--out", default=str(_default_outdir() / "fit"))
    p.add_argument("--export-orders", action="store_true")
    p.add_argument("--export-trace", action="store_true")
    p.add_argument("--export-distances", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("demo-orders", help="order-impact demonstration: WO/SO/RO plus overlay")
    _add_data_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wo-seeds", type=_count, default=100)
    p.add_argument("--so-seeds", type=_count, default=100)
    p.add_argument("--ro-draws", type=_count, default=1000)
    p.add_argument("--overlay-seeds", type=_count, default=10)
    p.add_argument("--out", default=str(_default_outdir() / "demo"))
    p.set_defaults(func=cmd_demo_orders)

    p = sub.add_parser("bench", help="benchmark matrix over a dataset suite")
    p.add_argument("--suite", required=True, help="CSV: name,data,schema,k per line")
    p.add_argument("--methods", default="main,kmd")
    p.add_argument("--runs", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--missing-policy", default="drop_row", choices=("drop_row", "error"))
    p.add_argument("--out", default=str(_default_outdir() / "bench"))
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="compare the fit against its ablation variants")
    _add_data_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--name", default="dataset")
    p.add_argument("--runs", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(_default_outdir() / "ablate"))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench-efficiency", help="wall-time scaling sweep on synthetic data")
    p.add_argument("--axis", default="n", choices=("n", "s", "k"))
    p.add_argument("--points", type=_counts,
                   default="10000,20000,30000,40000,50000,60000,70000,80000,90000,100000")
    p.add_argument("--n", type=_count, default=10_000)
    p.add_argument("--s", type=_count, default=20)
    p.add_argument("--k", type=_count, default=5)
    p.add_argument("--values", type=_count, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(_default_outdir() / "efficiency"))
    p.set_defaults(func=cmd_bench_efficiency)

    p = sub.add_parser("verify", help="run the brute-force equivalence suite")
    p.add_argument("--rounds", type=_count, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-distances", help="write the pairwise sample distance matrix")
    _add_data_args(p)
    p.add_argument("--order-mode", default="learned", choices=("learned", "dictionary", "hamming"),
                   dest="order_mode")
    p.add_argument("--k", type=int, default=2, help="cluster count for learned orders")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-file", default=str(_default_outdir() / "distances.csv"))
    p.set_defaults(func=cmd_export_distances)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
