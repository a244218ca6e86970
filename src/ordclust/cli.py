"""Command-line surface: fitting, benchmarks, demos, verification, exports.

Reports are line-oriented text plus CSV side files so any external tool can
diff or plot them. Every report embeds the resolved configuration and the
exact seed list. Exit codes: 0 success, 2 configuration problems, 3 data
problems, 4 runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cluster, evaluate, fixtures, metric, oracle, order
# load_csv is not called here; it stays bound because perfbench's tracer test looks for it.
from .data import DataError, Dataset, SchemaError, load_csv, load_dataset, synthesize  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

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
    return load_dataset(data_path, schema_path, args.missing_policy, missing)


def _fit_config(args, seed: int) -> cluster.FitConfig:
    return cluster.FitConfig(
        k=args.k,
        init=args.init,
        order_mode=args.order_mode,
        ablation=args.ablation,
        ordinal_policy=args.ordinal_policy,
        seed=seed,
        max_outer=args.max_outer,
        max_inner=args.max_inner,
        random_order_init=args.random_order_init,
    )


FIT_METHODS = {  # FitConfig keywords of the benchmark methods that run the main fit
    "main": {},
    "mode_dist": {"ablation": "no_prob_weight"},
    "single_update": {"ablation": "single_order_update"},
    "hamming": {"ablation": "hamming_only"},
    "learn_nominal_only": {"ordinal_policy": "preserve_ordinal"},
    "no_order_learning": {"ordinal_policy": "preserve_all"},
}
METHODS = (*FIT_METHODS, "kmd", "kpt", "mixed")


def _run_method(d: Dataset, method: str, k: int, seed: int):
    """One fit of a named benchmark method; returns (Partition, orders, trace)."""
    if method in ("kmd", "kpt"):
        baseline = cluster.fit_kmodes if method == "kmd" else cluster.fit_kprototypes
        part, trace = baseline(d, k, seed=seed)
        return part, None, trace
    if method == "mixed":
        return cluster.fit_mixed(d, cluster.FitConfig(k=k, seed=seed))
    return cluster.fit(d, cluster.FitConfig(k=k, seed=seed, **FIT_METHODS[method]))


def _count(text: str) -> int:
    """An option that counts runs, seeds or draws: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


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


def cmd_fit(args) -> int:
    d = _load(args)
    if args.export_distances:
        metric.check_pairwise_size(d.n)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    seeds = _seed_list(args.seed, args.runs)

    per_seed, traces, results = [], [], []
    for seed in seeds:
        cfg = _fit_config(args, seed)
        res = cluster.fit_mixed(d, cfg) if args.mixed else cluster.fit(d, cfg)
        results.append(res)
        traces.append(res.trace)
        per_seed.append(evaluate.score(d, res.partition, d.labels))
    report = evaluate.aggregate(per_seed)
    best = min(range(len(results)), key=lambda i: results[i].trace.best_objective)

    lines = ["run report", "=" * 60]
    lines.append(f"dataset: {args.data} (n={d.n}, categorical={d.s_categorical}, numerical={d.s_numerical})")
    if d.degenerate:
        lines.append("degenerate columns (excluded from clustering): "
                     + ", ".join(f"{c.name}={c.value!r}" for c in d.degenerate))
    else:
        lines.append("degenerate columns: none")
    lines.append(
        f"config: k={args.k} init={args.init} order_mode={args.order_mode} "
        f"ablation={args.ablation} ordinal_policy={args.ordinal_policy} "
        f"mixed={args.mixed} max_outer={args.max_outer} max_inner={args.max_inner} "
        f"random_order_init={args.random_order_init}"
    )
    lines.append(f"seeds: {', '.join(map(str, seeds))}")
    lines.append("notes:")
    lines.extend(f"  - {n}" for n in REPORT_NOTES)
    lines.append("")
    lines.append("per-seed metrics:")
    lines.append("  seed      ca      ari      nmi      cmp  objective  iters  updates  eff_k")
    for seed, m, res in zip(seeds, per_seed, results):
        tr = res.trace
        lines.append(
            f"  {seed:4d}  {m.ca:.4f}  {m.ari:+.4f}  {m.nmi:.4f}  {m.cmp:.4f}  "
            f"{tr.best_objective:9.4f}  {tr.total_inner_iterations:5d}  "
            f"{tr.accepted_order_updates:7d}  {res.partition.effective_k:5d}"
        )
    lines.append("")
    lines.append(
        f"aggregate: ca {report.mean.ca:.4f}±{report.std.ca:.4f}  "
        f"ari {report.mean.ari:.4f}±{report.std.ari:.4f}  "
        f"nmi {report.mean.nmi:.4f}±{report.std.nmi:.4f}  "
        f"cmp {report.mean.cmp:.4f}±{report.std.cmp:.4f}"
    )
    lines.append(f"best objective: {results[best].trace.best_objective:.6f} (seed {seeds[best]})")
    lines.append("")
    lines.append(f"learned orders (seed {seeds[best]}):")
    lines.extend("  " + s for s in _format_orders(d, results[best].orders))

    (outdir / "report.txt").write_text("\n".join(lines) + "\n")
    _write_csv(
        outdir / "metrics.csv",
        ["seed", "ca", "ari", "nmi", "cmp", "objective", "inner_iterations", "order_updates"],
        [
            [seed, m.ca, m.ari, m.nmi, m.cmp, tr.best_objective, tr.total_inner_iterations,
             tr.accepted_order_updates]
            for seed, m, tr in zip(seeds, per_seed, traces)
        ],
    )
    if args.export_trace:
        rows = []
        for seed, tr in zip(seeds, traces):
            marks = set(tr.order_update_iterations)
            for i, l in enumerate(tr.objective_values):
                rows.append([seed, i + 1, f"{l:.10g}", 1 if i in marks else 0])
        _write_csv(outdir / "trace.csv", ["seed", "iteration", "objective", "order_update"], rows)
    if args.export_orders:
        (outdir / "orders.txt").write_text("\n".join(_format_orders(d, results[best].orders)) + "\n")
    if args.export_distances:
        _write_distances(outdir / "distances.csv", d, results[best].orders)
    print(f"report written to {outdir / 'report.txt'}")
    print(
        f"aggregate: ca {report.mean.ca:.4f}±{report.std.ca:.4f}  "
        f"ari {report.mean.ari:.4f}±{report.std.ari:.4f}"
    )
    return EXIT_OK


def cmd_demo_orders(args) -> int:
    d = _load(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
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
    ca = {name: [] for name in groups}
    for i in range(max(map(len, groups.values()))):  # index-major: the fits of one seed share their start
        for name, configs in groups.items():
            if i < len(configs):
                res = cluster.fit(d, cluster.FitConfig(k=args.k, seed=args.seed + i, **configs[i]))
                ca[name].append(evaluate.clustering_accuracy(res.partition, d.labels))
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
    """
    scores = [[] for _ in methods]
    for seed in seeds:
        for per_seed, meth in zip(scores, methods):
            per_seed.append(evaluate.score(d, _run_method(d, meth, k, seed)[0], d.labels))
    rows = []
    for meth, per_seed in zip(methods, scores):
        rep = evaluate.aggregate(per_seed)
        rows.append([
            name, meth,
            f"{rep.mean.ca:.4f}", f"{rep.std.ca:.4f}",
            f"{rep.mean.ari:.4f}", f"{rep.std.ari:.4f}",
            f"{rep.mean.nmi:.4f}", f"{rep.std.nmi:.4f}",
            f"{rep.mean.cmp:.4f}", f"{rep.std.cmp:.4f}",
        ])
    return rows


def _write_matrix(outdir: Path, rows: list) -> None:
    header = ["dataset", "method", "ca_mean", "ca_std", "ari_mean", "ari_std",
              "nmi_mean", "nmi_std", "cmp_mean", "cmp_std"]
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
            d = load_dataset(data_path, schema_path, args.missing_policy)
            out_rows += _matrix_rows(name, d, k, methods, seeds)
        except Exception as exc:  # keep the suite going, record the failure
            failures.append((name, str(exc)))
            out_rows.append([name, "ERROR", str(exc)] + [""] * 7)
    _write_matrix(outdir, out_rows)
    for name, msg in failures:
        print(f"warning: {name} failed: {msg}", file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_ablate(args) -> int:
    d = _load(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    methods = ("main", "mode_dist", "single_update", "hamming")
    _write_matrix(outdir, _matrix_rows(args.name, d, args.k, methods, _seed_list(args.seed, args.runs)))
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
    points = [int(p) for p in args.points.split(",")]
    rows = efficiency_bench(
        args.axis, points, n=args.n, s=args.s, k=args.k,
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
    metric.check_pairwise_size(d.n)
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
    p.add_argument("--points", default="10000,20000,30000,40000,50000,60000,70000,80000,90000,100000")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--s", type=int, default=20)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--values", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(_default_outdir() / "efficiency"))
    p.set_defaults(func=cmd_bench_efficiency)

    p = sub.add_parser("verify", help="run the brute-force equivalence suite")
    p.add_argument("--rounds", type=int, default=200)
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
