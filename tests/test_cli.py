import csv

import numpy as np
import pytest

from ordclust import cli, fixtures


def run(argv):
    return cli.main(argv)


def test_fit_end_to_end(tmp_path):
    out = tmp_path / "run"
    code = run([
        "fit", "--data", "fixture:HR", "--k", "3", "--runs", "3",
        "--out", str(out), "--export-trace", "--export-orders", "--export-distances",
    ])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "aggregate: ca" in report
    assert "seeds: 0, 1, 2" in report
    assert "learned orders" in report
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + 3 seeds
    with open(out / "trace.csv") as fh:
        trace_rows = list(csv.reader(fh))
    assert trace_rows[0] == ["seed", "iteration", "objective", "order_update"]
    assert (out / "orders.txt").exists()
    d = fixtures.load_fixture("HR")
    with open(out / "distances.csv") as fh:
        dist_rows = list(csv.reader(fh))
    assert len(dist_rows) == d.n + 1


def test_fit_reports_resolved_config(tmp_path):
    out = tmp_path / "run"
    code = run([
        "fit", "--data", "fixture:DS", "--k", "2", "--runs", "1",
        "--order-mode", "hamming", "--out", str(out),
    ])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "order_mode=hamming" in report


def test_fit_missing_schema_is_data_error(tmp_path, capsys):
    code = run([
        "fit", "--data", str(tmp_path / "none.csv"), "--schema", str(tmp_path / "none.schema"),
        "--k", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "none.schema" in capsys.readouterr().err


def test_fit_bad_config_exit_code(tmp_path):
    code = run([
        "fit", "--data", "fixture:DS", "--k", "0", "--runs", "1",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_demo_orders_counts_and_sections(tmp_path):
    out = tmp_path / "demo"
    code = run([
        "demo-orders", "--data", "fixture:HR", "--k", "3",
        "--wo-seeds", "5", "--so-seeds", "5", "--ro-draws", "10", "--overlay-seeds", "2",
        "--out", str(out),
    ])
    assert code == 0
    with open(out / "demo_orders.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    methods = [r[0] for r in rows]
    assert methods.count("ro") == 10
    assert methods.count("wo") == 5
    assert methods.count("so") == 5
    report = (out / "demo_report.txt").read_text()
    assert "ro: 10 draws" in report


def test_demo_orders_so_inapplicable(tmp_path):
    out = tmp_path / "demo"
    code = run([
        "demo-orders", "--data", "fixture:VT", "--k", "2",
        "--wo-seeds", "3", "--so-seeds", "3", "--ro-draws", "5", "--overlay-seeds", "1",
        "--out", str(out),
    ])
    assert code == 0
    report = (out / "demo_report.txt").read_text()
    assert "so: inapplicable" in report
    with open(out / "demo_orders.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(r[0] != "so" for r in rows)


def test_bench_suite(tmp_path):
    suite = tmp_path / "suite.csv"
    suite.write_text(
        "name,data,schema,k\nDS,fixture:DS,,2\nCS,fixture:CS,,2\nBAD,/nonexistent.csv,/nonexistent.schema,2\n"
    )
    out = tmp_path / "bench"
    code = run([
        "bench", "--suite", str(suite), "--methods", "main,kmd",
        "--runs", "2", "--out", str(out),
    ])
    assert code == 4  # the BAD entry failed; the matrix is still written
    with open(out / "benchmark_matrix.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    names = [r[0] for r in rows]
    assert names.count("DS") == 2 and names.count("CS") == 2
    assert any(r[0] == "BAD" and r[1] == "ERROR" for r in rows)


def test_bench_unreadable_entry_exits_runtime(tmp_path, capsys):
    unreadable = tmp_path / "data_dir"
    unreadable.mkdir()
    suite = tmp_path / "suite.csv"
    suite.write_text(f"name,data,schema,k\nDS,fixture:DS,,2\nDIR,{unreadable},{unreadable},2\n")
    out = tmp_path / "bench"
    code = run(["bench", "--suite", str(suite), "--methods", "main", "--runs", "1", "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    with open(out / "benchmark_matrix.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[:2] for r in rows] == [["DS", "main"], ["DIR", "ERROR"]]
    assert "DIR failed" in capsys.readouterr().err


def test_bench_deterministic(tmp_path):
    suite = tmp_path / "suite.csv"
    suite.write_text("name,data,schema,k\nDS,fixture:DS,,2\n")
    outs = []
    for sub in ("b1", "b2"):
        out = tmp_path / sub
        assert run(["bench", "--suite", str(suite), "--methods", "main",
                    "--runs", "2", "--seed", "5", "--out", str(out)]) == 0
        outs.append((out / "benchmark_matrix.csv").read_text())
    assert outs[0] == outs[1]


def test_ablate_runs_all_variants(tmp_path):
    out = tmp_path / "ablate"
    code = run([
        "ablate", "--data", "fixture:DS", "--k", "2", "--runs", "2",
        "--name", "DS", "--out", str(out),
    ])
    assert code == 0
    with open(out / "benchmark_matrix.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[1] for r in rows] == ["main", "mode_dist", "single_update", "hamming"]


def test_bench_efficiency(tmp_path):
    out = tmp_path / "eff"
    code = run([
        "bench-efficiency", "--axis", "n", "--points", "200,400",
        "--s", "4", "--k", "2", "--out", str(out),
    ])
    assert code == 0
    with open(out / "efficiency.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[0]) for r in rows] == [200, 400]


def test_verify_command_exit_zero():
    assert run(["verify", "--rounds", "10", "--seed", "4"]) == 0


def test_export_distances(tmp_path):
    out_file = tmp_path / "d.csv"
    code = run([
        "export-distances", "--data", "fixture:DS", "--order-mode", "dictionary",
        "--out-file", str(out_file),
    ])
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    n = len(rows) - 1
    mat = np.array([[float(x) for x in row] for row in rows[1:]])
    assert mat.shape == (n, n)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)
