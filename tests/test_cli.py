import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from ordclust import cli, cluster, evaluate, fixtures, metric, order
from ordclust.data import load_dataset


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


@pytest.mark.parametrize("argv, aggregate", [
    (["--data", "fixture:HR", "--k", "3", "--runs", "3"], "ca 0.4318±0.0000  ari 0.0355±0.0197"),
    (["--data", "fixture:AC", "--k", "2", "--runs", "2", "--mixed"], "ca 0.7891±0.0010  ari 0.3334±0.0024"),
])
def test_fit_console_lines(argv, aggregate, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["fit", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"report written to {out / 'report.txt'}\naggregate: {aggregate}\n"


def test_fit_without_labels_reports_nan_scores(tmp_path, capsys):
    csv_path, schema_path = fixtures.fixture_paths("HR")
    schema = tmp_path / "HR.schema"
    schema.write_text(schema_path.read_text().replace("class,label", "class,ignore"))
    out = tmp_path / "run"
    assert run(["fit", "--data", str(csv_path), "--schema", str(schema), "--k", "3", "--runs", "2",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("\naggregate: ca nan±nan  ari nan±nan\n")
    report = (out / "report.txt").read_text()
    assert "\n     0  nan  +nan  nan  0.6896    34.0026     14        2      3\n" in report
    assert "\naggregate: ca nan±nan  ari nan±nan  nmi nan±nan  cmp 0.7114±0.0308\n" in report
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[:4] for r in rows] == [["0", "nan", "nan", "nan"], ["1", "nan", "nan", "nan"]]


def test_fit_reports_resolved_config(tmp_path):
    out = tmp_path / "run"
    code = run([
        "fit", "--data", "fixture:DS", "--k", "2", "--runs", "1",
        "--order-mode", "hamming", "--out", str(out),
    ])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "order_mode=hamming" in report


@pytest.mark.parametrize("flags, kind", [
    ([], "learned"), (["--order-mode", "hamming"], "hamming"), (["--order-mode", "semantic"], "semantic"),
    (["--ablation", "hamming_only"], "hamming"), (["--ordinal-policy", "preserve_all"], "preserved"),
    (["--order-mode", "random"], "random"),
])
def test_fit_report_heads_the_orders_by_how_they_came_about(flags, kind, tmp_path):
    out = tmp_path / "run"
    assert run(["fit", "--data", "fixture:HR", "--k", "3", "--runs", "1", *flags, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert f"\n{kind} orders (seed 0):\n" in report
    assert ("learned orders" in report) == (kind == "learned")


def test_fit_missing_schema_is_data_error(tmp_path, capsys):
    code = run([
        "fit", "--data", str(tmp_path / "none.csv"), "--schema", str(tmp_path / "none.schema"),
        "--k", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "none.schema" in capsys.readouterr().err


def test_fit_schema_names_not_in_the_header_is_data_error(tmp_path, capsys):
    data = tmp_path / "t.csv"
    data.write_text("a,b,class\nx,1,c0\ny,2,c1\n")
    schema = tmp_path / "t.schema"
    schema.write_text("zzz,nominal\nqq,numerical\nclass,label\n")
    code = run([
        "fit", "--data", str(data), "--schema", str(schema), "--mixed",
        "--k", "2", "--runs", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "column 1: schema declares 'zzz', CSV header has 'a'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [[], ["--mixed"]])
def test_fit_without_a_usable_categorical_attribute_is_data_error(flags, tmp_path, capsys):
    data, schema = tmp_path / "t.csv", tmp_path / "t.schema"
    data.write_text("a,x\np,1\np,2\np,3\n")  # the one categorical column holds one value
    schema.write_text("a,nominal\nx,numerical\n")
    code = run(["fit", "--data", str(data), "--schema", str(schema), *flags, "--k", "2", "--runs", "1",
                "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: no usable categorical attributes; nothing to cluster on\n"


def test_demo_orders_without_labels_is_data_error(tmp_path, capsys):
    csv_path, schema_path = fixtures.fixture_paths("HR")
    schema = tmp_path / "HR.schema"
    schema.write_text(schema_path.read_text().replace("class,label", "class,ignore"))
    code = run(["demo-orders", "--data", str(csv_path), "--schema", str(schema), "--k", "3",
                "--out", str(tmp_path / "demo")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: the order demo needs ground-truth labels\n"


def test_an_unexpected_failure_is_a_runtime_error(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify", boom)
    assert run(["verify"]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: boom\n"


def test_fit_reports_degenerate_columns(tmp_path):
    out = tmp_path / "run"
    assert run(["fit", "--data", "fixture:SB", "--k", "4", "--runs", "1", "--out", str(out)]) == 0
    d = fixtures.load_fixture("SB")
    assert len(d.degenerate) == 14
    listed = ", ".join(f"{c.name}={c.value!r}" for c in d.degenerate)
    assert f"\ndegenerate columns (excluded from clustering): {listed}\n" in (out / "report.txt").read_text()


@pytest.mark.parametrize("line,message", [
    ("a,categorical", "unknown kind 'categorical' for column 'a'"),
    ("a,ordinal,x,y,x", "duplicate values in declared order of 'a'"),
    ("a,nominal,x,y", "'a': a declared value order requires kind=ordinal"),
])
def test_fit_bad_schema_line_is_data_error(line, message, tmp_path, capsys):
    data, schema = tmp_path / "d.csv", tmp_path / "d.schema"
    data.write_text("a,b\nx,u\ny,v\nx,v\n")
    schema.write_text(f"{line}\nb,nominal\n")
    code = run(["fit", "--data", str(data), "--schema", str(schema), "--k", "2", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert f"data error: {message}" in capsys.readouterr().err


def test_fit_bad_config_exit_code(tmp_path):
    code = run([
        "fit", "--data", "fixture:DS", "--k", "0", "--runs", "1",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_mixed_fit_with_an_overflowing_range_is_data_error(tmp_path, capsys):
    data = tmp_path / "t.csv"
    data.write_text("a,x\np,-1.7e308\nq,1.7e308\np,0\nq,1\n")
    schema = tmp_path / "t.schema"
    schema.write_text("a,nominal\nx,numerical\n")
    code = run([
        "fit", "--data", str(data), "--schema", str(schema), "--mixed",
        "--k", "2", "--runs", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "'x'" in capsys.readouterr().err


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


def test_demo_orders_rows_are_the_direct_fits(tmp_path):
    out, seed = tmp_path / "demo", 4
    code = run([
        "demo-orders", "--data", "fixture:HR", "--k", "3", "--seed", str(seed),
        "--wo-seeds", "3", "--so-seeds", "2", "--ro-draws", "4", "--overlay-seeds", "2",
        "--out", str(out),
    ])
    assert code == 0
    with open(out / "demo_orders.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], int(r[1])) for r in rows] == (
        [("wo", i) for i in range(3)] + [("so", i) for i in range(2)]
        + [("ro", i) for i in range(4)] + [("main", i) for i in range(2)]
    )
    d = fixtures.load_fixture("HR")
    rng = np.random.default_rng(seed)
    draws = [order.random_orders(d, rng) for _ in range(4)]
    configs = {"wo": {"order_mode": "hamming"}, "so": {"order_mode": "semantic"}, "main": {}}
    for method, i, ca in rows:
        i = int(i)
        kw = {"order_mode": "fixed", "fixed_orders": draws[i]} if method == "ro" else configs[method]
        res = cluster.fit(d, cluster.FitConfig(k=3, seed=seed + i, **kw))
        assert float(ca) == evaluate.clustering_accuracy(res.partition, d.labels), (method, i)


def test_mixed_fit_with_k_above_the_sample_count_is_config_error(tmp_path, capsys):
    code = run([
        "fit", "--data", "fixture:AC", "--mixed", "--init", "random_partition",
        "--k", "700", "--runs", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "k exceeds the sample count" in capsys.readouterr().err


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


def test_ablate_runs_one_kmodes_start_per_seed(tmp_path, kmodes_calls):
    assert run(["ablate", "--data", "fixture:HR", "--k", "3", "--runs", "3", "--out", str(tmp_path / "a")]) == 0
    assert len(kmodes_calls) == 3


def test_matrix_rows_equal_per_method_fits_on_fresh_datasets():
    # The rows fit seeds outer and methods inner on one Dataset; the reference
    # fits one method at a time, each fit on a Dataset of its own.
    d = fixtures.load_fixture("HR")
    methods, seeds = [*cli.FIT_METHODS, "kmd"], [3, 4, 5]
    reference = []
    for meth in methods:
        per_seed = []
        for seed in seeds:
            fresh = dataclasses.replace(d)
            if meth in cli.FIT_METHODS:
                part = cluster.fit(fresh, cluster.FitConfig(k=3, seed=seed, **cli.FIT_METHODS[meth])).partition
            else:
                part = cli._run_method(fresh, meth, 3, seed)
            per_seed.append(evaluate.score(fresh, part, fresh.labels))
        rep = evaluate.aggregate(per_seed)
        stats = [f"{getattr(part, m):.4f}" for m in ("ca", "ari", "nmi", "cmp") for part in (rep.mean, rep.std)]
        reference.append(["HR", meth, *stats])
    assert cli._matrix_rows("HR", d, 3, methods, seeds) == reference


def test_bench_scores_each_distinct_partition_once(tmp_path, monkeypatch):
    datasets, returned, scored = [], set(), []  # datasets kept alive, so their ids stay unique
    fit, run_method, score = cluster.fit, cli._run_method, evaluate.score

    def note(d, part):
        datasets.append(d)
        returned.add((id(d), part.assign.tobytes()))
        return part

    def fitted(d, cfg, **kw):
        res = fit(d, cfg, **kw)
        note(d, res.partition)
        return res

    def counted(d, part, truth=None):
        scored.append((id(d), part.assign.tobytes()))
        return score(d, part, truth)

    monkeypatch.setattr(cluster, "fit", fitted)
    monkeypatch.setattr(cli, "_run_method", lambda d, meth, k, seed: note(d, run_method(d, meth, k, seed)))
    monkeypatch.setattr(evaluate, "score", counted)
    suite = tmp_path / "suite.csv"
    suite.write_text("name,data,schema,k\nHR,fixture:HR,,3\nVT,fixture:VT,,2\n")
    assert run(["bench", "--suite", str(suite), "--methods", "main,mode_dist,single_update,hamming,kmd",
                "--runs", "4", "--out", str(tmp_path / "b")]) == 0
    assert len(datasets) == 2 * 5 * 4
    assert len(scored) == len(set(scored)) == len(returned) < len(datasets)
    assert set(scored) == returned


def test_ablate_loads_like_fit(tmp_path, capsys):
    data, schema = tmp_path / "t.csv", tmp_path / "t.schema"
    data.write_text("a,b,class\nx,p,c0\ny,q,c1\nx,p,c0\ny,q,c1\n?,p,c0\nx,q,c1\n")
    schema.write_text("a,nominal\nb,nominal\nclass,label\n")
    flags = ["--data", str(data), "--schema", str(schema), "--k", "2", "--missing-token", "?"]
    for command in ("fit", "ablate"):
        code = run([command, *flags, "--missing-policy", "error", "--out", str(tmp_path / command)])
        assert code == cli.EXIT_DATA
        assert "t.csv:6: missing cell" in capsys.readouterr().err
    out = tmp_path / "good"
    assert run(["ablate", *flags, "--runs", "1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["benchmark_matrix.csv"]


@pytest.mark.parametrize("row", ["HR,fixture:HR,", "HR,fixture:HR,,x"])
def test_bad_suite_row_names_file_and_line(tmp_path, capsys, row):
    suite = tmp_path / "suite.csv"
    suite.write_text(f"name,data,schema,k\nDS,fixture:DS,,2\n{row}\n")
    code = run(["bench", "--suite", str(suite), "--runs", "1", "--out", str(tmp_path / "b")])
    assert code == cli.EXIT_CONFIG
    assert f"{suite}:3: expected 'name,data,schema,k'" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags", [
    ["--points", "0"], ["--points", "200,0"], ["--n", "0"], ["--s", "0"], ["--k", "-1"], ["--values", "0"],
])
def test_bench_efficiency_counts_below_one_are_config_errors_before_any_fit(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cluster, "fit", lambda *a, **kw: pytest.fail("fitted"))
    with pytest.raises(SystemExit) as exc:
        run(["bench-efficiency", *flags, "--out", str(tmp_path / "eff")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"argument {flags[0]}: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "eff").exists()


def test_verify_command_exit_zero():
    assert run(["verify", "--rounds", "10", "--seed", "4"]) == 0


@pytest.mark.parametrize("rounds", ["0", "-5"])
def test_verify_rounds_below_one_are_config_errors(rounds, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--rounds", rounds])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr()
    assert "argument --rounds: must be >= 1" in err.err and "PASS" not in err.out


@pytest.mark.parametrize("flags", [
    ["--order-mode", "hamming", "--random-order-init"],
    ["--order-mode", "semantic", "--random-order-init"],
    ["--ablation", "hamming_only", "--random-order-init"],
])
def test_ignored_random_order_init_is_a_config_error_before_loading(flags, tmp_path, capsys):
    code = run(["fit", "--k", "2", *flags, "--data", str(tmp_path / "missing.csv"),
                "--schema", str(tmp_path / "missing.schema"), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "random_order_init needs learned orders" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--order-mode", "semantic", "--ordinal-policy", "preserve_ordinal"], "ordinal policy 'preserve_ordinal'"),
    (["--order-mode", "random", "--ablation", "hamming_only"], "ablation 'hamming_only'"),
])
def test_ignored_order_settings_are_config_errors_before_loading(flags, message, tmp_path, capsys):
    code = run(["fit", "--k", "2", *flags, "--data", str(tmp_path / "missing.csv"),
                "--schema", str(tmp_path / "missing.schema"), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_export_distances_without_orders_writes_the_match_mismatch_matrix(tmp_path):
    out_file = tmp_path / "d.csv"
    code = run(["export-distances", "--data", "fixture:HR", "--order-mode", "hamming", "--out-file", str(out_file)])
    assert code == 0
    d = fixtures.load_fixture("HR")
    mat = metric.pairwise_distance_matrix(d, order.hamming_orders(d))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow([f"s{i}" for i in range(d.n)])
    writer.writerows([[f"{x:.6g}" for x in row] for row in mat])
    assert out_file.read_bytes() == expected.getvalue().encode()
    # each cell is the share of the attributes on which the two samples differ
    assert mat.tobytes() == ((d.cat[:, None, :] != d.cat[None, :, :]).sum(axis=2) / d.s_categorical).tobytes()


def test_export_distances_formats_one_row_at_a_time(tmp_path):
    rows = np.random.default_rng(3).integers(0, 5, size=(900, 4))
    data, schema = tmp_path / "d.csv", tmp_path / "d.schema"
    data.write_text("a,b,c,e\n" + "".join(",".join(f"v{x}" for x in row) + "\n" for row in rows))
    schema.write_text("a,nominal\nb,nominal\nc,nominal\ne,nominal\n")
    out_file = tmp_path / "distances.csv"
    tracemalloc.start()
    try:
        code = run(["export-distances", "--data", str(data), "--schema", str(schema),
                    "--order-mode", "dictionary", "--out-file", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the (n, n) matrix plus one attribute's gathered table, not n * n strings
    n = len(rows)
    assert peak < 2.5 * n * n * 8
    d = load_dataset(data, schema)
    mat = metric.pairwise_distance_matrix(d, cli.order.dictionary_orders(d))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow([f"s{i}" for i in range(n)])
    writer.writerows([[f"{x:.6g}" for x in row] for row in mat])
    assert out_file.read_bytes() == expected.getvalue().encode()


def test_quadratic_export_refused_before_any_fit(tmp_path, monkeypatch, capsys):
    # 12k rows: the (n, n) float64 matrix would hold 1.44e8 cells, past the 2**27 limit
    rows = np.random.default_rng(0).integers(0, 3, size=(12_000, 2))
    data, schema = tmp_path / "big.csv", tmp_path / "big.schema"
    data.write_text("a,b\n" + "".join(f"v{x},w{y}\n" for x, y in rows))
    schema.write_text("a,nominal\nb,nominal\n")

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the size check")

    monkeypatch.setattr(cli.cluster, "fit", no_fit)
    out = tmp_path / "run"
    code = run(["fit", "--data", str(data), "--schema", str(schema), "--k", "2", "--runs", "1",
                "--out", str(out), "--export-distances"])
    assert code == 2
    assert "12000x12000" in capsys.readouterr().err
    assert not (out / "distances.csv").exists()
    assert not (out / "report.txt").exists()
    out_file = tmp_path / "distances.csv"
    code = run(["export-distances", "--data", str(data), "--schema", str(schema), "--out-file", str(out_file)])
    assert code == 2
    assert not out_file.exists()


def test_pairwise_distance_matrix_checks_its_size(monkeypatch):
    d = fixtures.load_fixture("DS")
    cells = d.n * (d.n + sum(d.cardinalities))  # the matrix and its (sum l, n) cost table
    monkeypatch.setattr(metric, "MAX_PAIRWISE_CELLS", cells - 1)
    with pytest.raises(ValueError, match="distance matrix"):
        metric.pairwise_distance_matrix(d, cli.order.dictionary_orders(d))
    monkeypatch.setattr(metric, "MAX_PAIRWISE_CELLS", cells)
    assert metric.pairwise_distance_matrix(d, cli.order.dictionary_orders(d)).shape == (d.n, d.n)


@pytest.mark.parametrize("argv", [
    ["demo-orders", "--k", "2", "--wo-seeds", "0"],
    ["demo-orders", "--k", "2", "--so-seeds", "0"],
    ["demo-orders", "--k", "2", "--ro-draws", "0"],
    ["demo-orders", "--k", "2", "--overlay-seeds", "-1"],
    ["ablate", "--k", "2", "--runs", "0"],
    ["fit", "--k", "2", "--runs", "0"],
])
def test_counts_below_one_are_config_errors_before_loading(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:  # the data path does not exist: nothing is loaded
        run([*argv, "--data", str(tmp_path / "missing.csv"), "--schema", str(tmp_path / "missing.schema"),
             "--out", str(tmp_path / "o")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"argument {argv[3]}: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--runs", "0"], ["--methods", ","], ["--methods", "main,nope"]])
def test_bench_config_errors_exit_before_reading_the_suite(flags, tmp_path, capsys):
    argv = ["bench", "--suite", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "b"), *flags]
    if flags[0] == "--runs":
        with pytest.raises(SystemExit) as exc:
            run(argv)
        code = exc.value.code
    else:
        code = run(argv)
    assert code == cli.EXIT_CONFIG
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


LOADING_COMMANDS = [  # each command that loads one dataset from --data; {tmp} is the test's directory
    ["fit", "--k", "2", "--out", "{tmp}/o"],
    ["ablate", "--k", "2", "--out", "{tmp}/o"],
    ["demo-orders", "--k", "2", "--out", "{tmp}/o"],
    ["export-distances", "--out-file", "{tmp}/o/d.csv"],
]


@pytest.mark.parametrize("argv", LOADING_COMMANDS)
@pytest.mark.parametrize("name", ["NOPE", "hr"])
def test_unknown_fixture_is_data_error(argv, name, tmp_path, capsys):
    code = run([arg.replace("{tmp}", str(tmp_path)) for arg in argv] + ["--data", f"fixture:{name}"])
    assert code == cli.EXIT_DATA
    bundled = ", ".join(fixtures.FIXTURES)
    assert capsys.readouterr().err == f"data error: unknown fixture {name!r}; bundled: {bundled}\n"


@pytest.mark.parametrize("argv", LOADING_COMMANDS)
def test_a_data_file_without_a_schema_is_data_error(argv, tmp_path, capsys):
    data = tmp_path / "t.csv"
    data.write_text("a\nx\ny\n")
    code = run([arg.replace("{tmp}", str(tmp_path)) for arg in argv] + ["--data", str(data)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: --schema is required unless --data uses fixture:<NAME>\n"
    assert not (tmp_path / "o").exists()


def test_bench_unknown_fixture_is_an_error_row(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text("name,data,schema,k\nX,fixture:NOPE,,2\n")
    out = tmp_path / "bench"
    code = run(["bench", "--suite", str(suite), "--methods", "main", "--runs", "1", "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    with open(out / "benchmark_matrix.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    message = f"unknown fixture 'NOPE'; bundled: {', '.join(fixtures.FIXTURES)}"
    assert [r[:3] for r in rows] == [["X", "ERROR", message]]
    assert f"X failed: {message}" in capsys.readouterr().err
