"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: ``ordclust`` is imported from ``src/`` of the checkout this
file sits in. The run generates the workload's inputs from the seed (several
times, reporting the median), runs the warm-up and the timed loop in a worker
process, checks the outputs, prints every metric by name with its unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Everything it writes goes to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("uniform_100k", "fixtures_paper", "mixed_ac_207k")
SETUP_ROUNDS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "e2e_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "ca_mean": "ratio"}


def code_hash() -> str:
    """Digest of the program and benchmark sources, keying the digest registry."""
    h = hashlib.sha256()
    files = sorted(p for d in (SRC / "ordclust", BENCH) for p in d.rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(loadavg: float, blas_threads) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_1m_at_start": loadavg,
    }


def registry_check(key: str, digest: str) -> tuple:
    """Require a digest equal to any earlier run's with the same key."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    earlier = known.setdefault(key, digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return (f"digest matches earlier runs ({key.rsplit('/', 1)[-1]})", earlier == digest,
            f"{digest[:16]}" + ("" if earlier == digest else f" vs earlier {earlier[:16]}"))


def run_worker(plan: dict, work: Path, deadline: float) -> dict | None:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    Path(plan["result"]).unlink(missing_ok=True)
    log_path = work / "worker.log"
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path)],
                                  stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            print("perfbench: worker timed out", file=sys.stderr)
            return None
    if proc.returncode != 0 or not Path(plan["result"]).is_file():
        print(f"perfbench: worker exited {proc.returncode}:\n{log_path.read_text()[-4000:]}", file=sys.stderr)
        return None
    return json.loads(Path(plan["result"]).read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    if not (SRC / "ordclust" / "__init__.py").is_file():
        print(f"perfbench: no ordclust sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    loadavg = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))
    import ordclust

    if Path(ordclust.__file__).resolve().parent != (SRC / "ordclust").resolve():
        print(f"perfbench: ordclust imported from {ordclust.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = WORK / args.workload
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        plan = workloads.setup(args.workload, work, args.seed)
        setup_times.append(time.perf_counter() - t0)
    plan.update(seconds=args.seconds, trace=bool(args.trace), src=str(SRC),
                result=str(work / "worker_result.json"), spans=str(work / "spans.jsonl"))
    res = run_worker(plan, work, deadline)
    if res is None:
        return 1

    # Everything below is untimed: output checks and reporting.
    ops = res["ops"]
    digests = {op["digest"] for op in ops} | {res["warm_digest"]}
    output = workloads.read_output(plan, res["output_text"])
    checks = [
        ("warm-up command exits 0", res["warm_rc"] == 0, f"exit {res['warm_rc']}"),
        ("output identical across operations", len(digests) == 1 and None not in digests,
         f"{len(digests)} distinct digests over warm-up and {len(ops)} operations"),
        ("output well-formed, no ERROR rows", not output["problems"] and not output["errors"],
         f"{output['errors']} ERROR rows; " + "; ".join(output["problems"])[:500]),
    ]
    key = f"{args.workload}/seed={args.seed}/code={code_hash()}"
    if len(digests) == 1 and None not in digests:
        checks.append(registry_check(f"{key}/output", ops[0]["digest"]))
    sample_checks, sample_records = workloads.oracle_sample(plan)
    checks += sample_checks
    if args.trace:
        records = res["fit_records"]
        fits_digest = hashlib.sha256("\n".join(records[0]).encode()).hexdigest()
        same = all(r == records[0] for r in records)
        checks.append(("fit records identical across traced operations", same,
                       f"{len(records)} traced, {len(records[0])} fits"))
        if same:
            checks.append(registry_check(f"{key}/fits", fits_digest))
        if sample_records:
            captured = set(records[0])
            missing = [r for r in sample_records if r not in captured]
            checks.append(("oracle-checked refits equal the returned fits", not missing,
                           f"{len(sample_records) - len(missing)}/{len(sample_records)} found"))
        checks += [tuple(c) for c in res["trace_checks"]]

    op_failed = [bool(op["error"]) or op["rc"] != 0 or op["digest"] is None for op in ops]
    all_checks_pass = all(ok for _, ok, _ in checks)
    failed = len(ops) if not all_checks_pass else sum(op_failed)
    attempted = len(ops)

    untraced = [op for op in ops if not op["traced"]]
    if args.trace:
        layers = dict(res["layers"])
        traced_e2e = statistics.median(op["e2e_s"] for op in ops if op["traced"])
        layers["data.distinct_row_ratio"] = plan["properties"]["distinct_row_ratio"]
        layers["trace.overhead_ratio"] = traced_e2e / statistics.median(op["e2e_s"] for op in untraced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.per_layer_names()}
    else:
        values = {
            "setup_s": statistics.median(setup_times) + res["warm_s"],
            "e2e_s": statistics.median(op["e2e_s"] for op in untraced),
            "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
            "peak_rss_mb": res["peak_rss_mb"],
            "ca_mean": statistics.fmean(output["ca"]) if output["ca"] else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    env = environment(loadavg, res["blas_threads"])
    props = plan["properties"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {workloads.WHY[args.workload]}")
    print("command: ordclust " + " ".join(plan["argv"]))
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("properties: " + ", ".join(f"{k} {v}" for k, v in props.items()))
    print(f"operations: {attempted} attempted, {failed} failed, error_rate {failed / attempted:.4f}, "
          f"setup rounds {', '.join(f'{t:.3f}' for t in setup_times)} s + warm-up {res['warm_s']:.3f} s")
    print("operation wall times: " + ", ".join(f"{op['e2e_s']:.3f}" for op in ops) + " s")
    print(f"output digest: {ops[0]['digest']}")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    if args.trace:
        print(f"trace: root span {layers['trace.e2e_s']:.4f} s, cli.self_s plus layer self times "
              f"{layers['cli.self_s'] + sum(layers[f'{m}.{f}.self_s'] for m, f in tracing.TRACED):.4f} s, "
              f"spans in {plan['spans']}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    run_s = time.perf_counter() - started
    print(f"run time: {run_s:.1f} s")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "run_s": run_s, "env": env,
              "properties": props, "argv": plan["argv"], "setup_rounds_s": setup_times,
              "warm_s": res["warm_s"], "ops": ops, "checks": checks, "metrics": metrics}
    (work / f"report-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": all_checks_pass and not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
