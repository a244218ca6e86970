"""A traced ``bench`` run passes the benchmark harness's output checks.

The harness (``perfbench/``) wraps the package's functions by module name and
maps every fit the CLI calls directly to a row of the benchmark matrix, so a
fit step that surfaces at the top level, such as a shared start's k-modes run,
shows up as a wrong ``kmd`` mean.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from ordclust import cli, fixtures  # noqa: E402


def test_traced_bench_reproduces_its_matrix(tmp_path):
    suite = tmp_path / "suite.csv"
    suite.write_text("".join(f"{name},{','.join(map(str, fixtures.fixture_paths(name)))},{k}\n"
                             for name, k in (("HR", 3), ("VT", 2))))
    out = tmp_path / "out"
    argv = ["bench", "--suite", str(suite), "--methods", "main,mode_dist,kmd", "--runs", "2",
            "--seed", "1", "--out", str(out)]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert tracer.wrap(tracing.ROOT, cli.main)(argv) == cli.EXIT_OK
    checks = workloads.check_traced({"kind": "bench"}, tracer, (out / "benchmark_matrix.csv").read_text())
    assert checks and all(ok for _, ok, _ in checks), checks
    assert "12 fits in 6 rows" in checks[0][2]
