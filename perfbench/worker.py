"""Warm-up and timed loop of one benchmark run.

It runs in a process of its own so that its peak resident memory covers the
workload alone: the parent generates the inputs and checks the outputs.

    python3 perfbench/worker.py PLAN.json

reads the plan ``run.py`` wrote and writes the result to the plan's ``result``
path. The warm-up runs the timed command once. Every operation is timed by
its own wall time and the process's user+sys CPU time. A traced run
alternates untraced and traced operations, so that the ratio of their times is
the tracing overhead.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

# What the traced operation may spend outside its root span: installing and
# removing the wrappers.
TRACE_GAP_S = 0.01
TRACE_GAP_SHARE = 0.01


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def run_op(main, argv: list, output: str, tracer=None) -> dict:
    """Time one CLI call; returns its exit code, timings and output digest."""

    def call():
        try:
            if tracer is None:
                return main(argv), None
            with tracing.traced(tracer):
                return tracer.wrap(tracing.ROOT, main)(argv), None
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 2), None
        except Exception:
            return None, traceback.format_exc()

    Path(output).unlink(missing_ok=True)
    c0, w0 = time.process_time(), time.perf_counter()
    rc, error = call()
    w1, c1 = time.perf_counter(), time.process_time()
    text = Path(output).read_text() if Path(output).is_file() else None
    return {
        "rc": rc,
        "error": error,
        "traced": tracer is not None,
        "e2e_s": w1 - w0,
        "cpu_s": c1 - c0,
        "digest": hashlib.sha256(text.encode()).hexdigest() if text is not None else None,
        "text": text,
    }


def trace_covers_op(traced_s: float, measured_s: float) -> tuple:
    """The root span must cover the operation's own measured wall time, up to
    the wrapper installation around it; time outside the spans, or counted
    twice, would break this."""
    gap = measured_s - traced_s
    ok = 0.0 <= gap <= TRACE_GAP_S + TRACE_GAP_SHARE * measured_s
    return ("root span covers the measured operation", ok,
            f"root span {traced_s:.4f} s, operation {measured_s:.4f} s, gap {gap * 1e3:.2f} ms")


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())

    warm_start = time.perf_counter()
    sys.path.insert(0, plan["src"])
    from ordclust import cli

    import workloads

    for csv_path, schema_path, _ in plan["inputs"]:
        Path(csv_path).read_bytes()
        Path(schema_path).read_bytes()
    # One untimed run of the command itself: heap growth and lazy imports
    # otherwise slow the first timed operations.
    warm = run_op(cli.main, plan["argv"], plan["output"])
    warm_s = time.perf_counter() - warm_start

    ops, layers, records, checks, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if plan["trace"] and len(ops) % 2 == 1 else None
        op = run_op(cli.main, plan["argv"], plan["output"], tracer)
        if tracer is not None:
            layer = tracing.summarize(tracer)
            checks.append(trace_covers_op(layer["trace.e2e_s"], op["e2e_s"]))
            layers.append(layer)
            records.append(tracing.fit_records(tracer))
            checks += workloads.check_traced(plan, tracer, op["text"])
            origin = tracer.spans[0].start if tracer.spans else 0.0
            spans += [[len(ops), s.name, s.start - origin, s.end - origin, s.parent] for s in tracer.spans]
        ops.append(op)
        enough = not plan["trace"] or len(ops) >= 2
        if enough and time.perf_counter() - start >= plan["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spans:
        with open(plan["spans"], "w") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")
    last_text = ops[-1]["text"]
    for op in ops:
        del op["text"]
    result = {
        "warm_s": warm_s,
        "warm_rc": warm["rc"],
        "warm_digest": warm["digest"],
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
        "ops": ops,
        "output_text": last_text,
        "layers": {key: statistics.median(m[key] for m in layers) for key in layers[0]} if layers else {},
        "fit_records": records,
        "trace_checks": checks,
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
