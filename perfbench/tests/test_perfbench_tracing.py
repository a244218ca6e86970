"""Tests of the benchmark's own machinery: span arithmetic, wrapper
installation and removal, fixture writing, output parsing, and
BENCHMARK.json consistency.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ordclust import cli, cluster, data, fixtures  # noqa: E402
from tracing import Span  # noqa: E402

HR_FIT = ["fit", "--data", "fixture:HR", "--k", "3", "--runs", "2"]


def test_self_time_subtracts_nested_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 2.0, 3.0, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 4.0, 1.0]
    assert sum(tracing.self_times(spans)) == spans[0].duration


def test_iter_ms_counts_only_the_kernels_inside_inner_iterations():
    kernels = [("metric.profile_from_assignment", 7.0), ("metric.objective_total", 7.0),  # fit start
               ("metric.profile_from_assignment", 7.0)]  # segment start
    kernels += [("metric.cluster_distances", 0.5), ("metric.profile_from_assignment", 0.25),
                ("metric.objective_total", 0.25)] * 2  # two inner iterations
    total = sum(d for _, d in kernels)
    tracer = tracing.Tracer()
    tracer.spans += [Span("cli.main", 0.0, total, -1), Span("cluster.fit", 0.0, total, 0)]
    t = 0.0
    for name, d in kernels:
        tracer.spans.append(Span(name, t, t + d, 1))
        t += d
    fit_trace = cluster.FitTrace(objective_values=[2.0, 1.0], inner_counts=[2], epochs=1)
    tracer.kept.append((1, ((), {}, SimpleNamespace(trace=fit_trace))))
    layer = tracing.summarize(tracer)
    assert layer["cluster.inner_iters"] == 2
    assert layer["cluster.iter_ms"] == pytest.approx(1e3 * 2.0 / 2)
    assert layer["metric.profile_from_assignment.calls"] == 4


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(100))) == (90.0, 89)
    assert tracing.tail_percentile(list(range(1000)))[0] == 99.0
    assert tracing.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tracing.tail_percentile([]) == (100.0, 0.0)


def _bindings():
    """Every (module, attribute) bound to a traced function, with its value."""
    mods = tracing.package_modules()
    originals = {id(getattr(mods[m], f)) for m, f in tracing.TRACED}
    return {(name, attr): value for name, mod in mods.items()
            for attr, value in vars(mod).items() if id(value) in originals}


def test_traced_run_records_layers_and_removes_wrappers(tmp_path):
    before = _bindings()
    assert ("cli", "load_csv") in before and ("cluster", "fit") in before
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert all(getattr(tracing.package_modules()[m], a) is not v for (m, a), v in before.items())
        rc = tracer.wrap(tracing.ROOT, cli.main)(HR_FIT + ["--out", str(tmp_path)])
    assert rc == 0
    assert _bindings() == before

    layer = tracing.summarize(tracer)
    assert layer["data.load_csv.calls"] == 1
    assert layer["cluster.fit.calls"] == 2
    assert layer["evaluate.score.calls"] == 2
    assert layer["cluster.inner_iters"] > 0
    selfs = layer["cli.self_s"] + sum(layer[f"{m}.{f}.self_s"] for m, f in tracing.TRACED)
    assert selfs == pytest.approx(layer["trace.e2e_s"], rel=1e-9)
    records = tracing.fit_records(tracer)
    assert sum(r.startswith("cluster.fit\tcli.main\tHR\t") for r in records) == 2


def test_untraced_run_executes_the_unwrapped_functions(tmp_path):
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        pass
    assert cli.main(HR_FIT + ["--out", str(tmp_path)]) == 0
    assert tracer.spans == []
    assert not any(hasattr(v, "__wrapped__") for v in _bindings().values())


def test_wrappers_are_removed_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_read_output_counts_error_rows():
    plan = {"kind": "bench", "expected": [["A", "main"], ["B", "main"]]}
    text = ("dataset,method,ca_mean,ca_std,ari_mean,ari_std,nmi_mean,nmi_std,cmp_mean,cmp_std\n"
            "A,main,0.5000,0,0,0,0,0,0,0\nB,ERROR,boom,,,,,,,\n")
    out = workloads.read_output(plan, text)
    assert out["errors"] == 1 and out["ca"] == [0.5] and out["problems"]
    assert workloads.read_output(plan, None)["problems"] == ["no output file"]


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.SETUPS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()


def test_root_span_must_cover_the_measured_operation():
    assert worker.trace_covers_op(2.0, 2.004)[1]
    assert not worker.trace_covers_op(2.0, 2.5)[1]  # time outside the spans
    assert not worker.trace_covers_op(2.0, 1.9)[1]  # time counted twice


def test_written_fixture_is_the_bundled_data_and_its_properties_match_the_loader(tmp_path):
    (name, csv_path, schema_path, k), props = workloads._write_fixture(fixtures.FIXTURES["HR"], tmp_path)
    bundled_csv, bundled_schema = fixtures.fixture_paths("HR")
    assert Path(csv_path).read_text() == bundled_csv.read_text()
    assert Path(schema_path).read_text() == bundled_schema.read_text()
    d = data.load_dataset(csv_path, schema_path)
    assert (name, k) == ("HR", fixtures.FIXTURES["HR"].k)
    assert props == {"n": d.n, "categorical_columns": d.s_categorical, "numerical_columns": d.s_numerical,
                     "distinct_rows": len(np.unique(d.cat, axis=0)), "k": k}
