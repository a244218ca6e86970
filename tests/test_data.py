import dataclasses
import functools
import itertools
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_dataset, minmax_columns
from ordclust import cli, data, fixtures
from ordclust.data import (
    AttributeSchema,
    DataError,
    SchemaError,
    load_csv,
    load_dataset,
    load_schema,
    loads_csv,
    normalize_numerical,
    synthesize,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_first_appearance_encoding(tmp_path):
    p = write(tmp_path, "t.csv", "col\na\nb\na\n")
    d = load_csv(p, [AttributeSchema("col", "nominal")])
    assert d.dictionaries == (("a", "b"),)
    assert d.cat[:, 0].tolist() == [0, 1, 0]
    assert d.cardinalities == (2,)


def test_drop_row_policy(tmp_path):
    p = write(tmp_path, "t.csv", "a,b\nx,1\n,2\ny,3\n")
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "numerical")]
    d = load_csv(p, schema)
    assert d.n == 2
    # retained rows are untouched
    assert d.dictionaries == (("x", "y"),)
    assert d.cat[:, 0].tolist() == [0, 1]
    assert d.num[:, 0].tolist() == [1.0, 3.0]


def test_missing_error_policy(tmp_path):
    p = write(tmp_path, "t.csv", "a,b\nx,y\nz,\n")
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "nominal")]
    with pytest.raises(DataError, match="missing"):
        load_csv(p, schema, missing_policy="error")
    with pytest.raises(SchemaError, match="^unknown missing policy 'keep'$"):
        load_csv(p, schema, missing_policy="keep")


def test_arity_mismatch(tmp_path):
    p = write(tmp_path, "t.csv", "a,b\nx,y\n")
    with pytest.raises(SchemaError, match="columns"):
        load_csv(p, [AttributeSchema("a", "nominal")])


# A quote in the file sends it through csv.reader instead of the byte tokenizer.
@pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "quoted"])
@pytest.mark.parametrize("names,message", [
    (("b", "a"), "column 1: schema declares 'b', CSV header has 'a'"),
    (("zzz", "qq"), "column 1: schema declares 'zzz', CSV header has 'a'"),
    (("a", "qq"), "column 2: schema declares 'qq', CSV header has 'b'"),
], ids=["swapped", "renamed", "second_renamed"])
def test_header_names_must_match_the_schema(tmp_path, quote, names, message):
    p = write(tmp_path, "t.csv", f"a,b,class\nx,{quote}1{quote},c0\ny,2,c1\n")
    schema = [AttributeSchema(names[0], "nominal"), AttributeSchema(names[1], "numerical"),
              AttributeSchema("class", "label")]
    with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}: {re.escape(message)}$"):
        load_csv(p, schema)


@pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "quoted"])
def test_header_names_may_carry_a_bom_and_spaces(tmp_path, quote):
    p = tmp_path / "t.csv"
    p.write_bytes(f"\ufeff a ,b\t, class\nx,{quote}1{quote},c0\ny,2,c1\n".encode())
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "numerical"), AttributeSchema("class", "label")]
    d = load_csv(p, schema)
    assert (d.cat_names, d.num_names, d.label_values) == (("a",), ("b",), ("c0", "c1"))
    assert d.num[:, 0].tolist() == [1.0, 2.0]


def test_unparseable_numeric(tmp_path):
    p = write(tmp_path, "t.csv", "a\nnot_a_number\n")
    with pytest.raises(DataError):
        load_csv(p, [AttributeSchema("a", "numerical")])


def test_non_finite_numeric_rejected(tmp_path):
    p = write(tmp_path, "t.csv", "a\ninf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(p, [AttributeSchema("a", "numerical")])


def test_ordinal_needs_declared_values(tmp_path):
    with pytest.raises(SchemaError):
        AttributeSchema("a", "ordinal")
    p = write(tmp_path, "t.csv", "a\nlow\nhigh\nweird\n")
    schema = [AttributeSchema("a", "ordinal", ("low", "high"))]
    with pytest.raises(DataError, match="weird"):
        load_csv(p, schema)


def test_ordinal_semantic_ranks_compact_to_observed(tmp_path):
    p = write(tmp_path, "t.csv", "a\nmid\nhigh\nmid\n")
    schema = [AttributeSchema("a", "ordinal", ("low", "mid", "high"))]
    d = load_csv(p, schema)
    # 'low' never occurs; observed values get ranks 1..2 in declared order
    assert d.dictionaries == (("mid", "high"),)
    assert d.semantic_ranks[0].tolist() == [1, 2]


def test_single_label_column_enforced(tmp_path):
    p = write(tmp_path, "t.csv", "a,b\nx,y\n")
    schema = [AttributeSchema("a", "label"), AttributeSchema("b", "label")]
    with pytest.raises(SchemaError, match="label"):
        load_csv(p, schema)


def test_degenerate_column_flagged(tmp_path):
    p = write(tmp_path, "t.csv", "a,b\nsame,x\nsame,y\n")
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "nominal")]
    d = load_csv(p, schema)
    assert d.s_categorical == 1
    assert len(d.degenerate) == 1
    assert d.degenerate[0].name == "a"
    assert d.degenerate[0].value == "same"


def test_bundled_sb_fixture_shape():
    d = fixtures.load_fixture("SB")
    assert d.n == 47
    assert d.s_categorical == 21
    assert len(d.degenerate) == 14
    assert max(d.cardinalities) == 7
    assert min(d.cardinalities) == 2


def test_round_trip_decoding(tmp_path):
    rows = [["a", "p"], ["b", "q"], ["a", "q"], ["c", "p"]]
    text = "c1,c2\n" + "\n".join(",".join(r) for r in rows) + "\n"
    p = write(tmp_path, "t.csv", text)
    d = load_csv(p, [AttributeSchema("c1", "nominal"), AttributeSchema("c2", "nominal")])
    for i, row in enumerate(rows):
        assert [d.dictionaries[r][d.cat[i, r]] for r in range(2)] == row


def test_ignore_and_label_columns(tmp_path):
    p = write(tmp_path, "t.csv", "a,skip,cls\nx,junk,c0\ny,junk,c1\n")
    schema = [
        AttributeSchema("a", "nominal"),
        AttributeSchema("skip", "ignore"),
        AttributeSchema("cls", "label"),
    ]
    d = load_csv(p, schema)
    assert (d.s_categorical, d.s_numerical) == (1, 0)
    assert d.labels.tolist() == [0, 1]
    assert d.label_values == ("c0", "c1")


def test_schema_file_round_trip(tmp_path):
    text = "# comment\na,nominal\nb,ordinal,low,mid,high\nx,numerical\ncls,label\n"
    p = write(tmp_path, "t.schema", text)
    schema = load_schema(p)
    assert [c.kind for c in schema] == ["nominal", "ordinal", "numerical", "label"]
    assert schema[1].semantic_order == ("low", "mid", "high")


def test_schema_file_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_schema(write(tmp_path, "bad.schema", "name_without_kind\n"))
    with pytest.raises(SchemaError):
        load_schema(write(tmp_path, "empty.schema", "# nothing\n"))


def test_normalize_numerical():
    d = loads_csv("x,y,z\n2,5,0\n4,5,1\n6,5,0.5\n", [
        AttributeSchema("x", "numerical"),
        AttributeSchema("y", "numerical"),
        AttributeSchema("z", "numerical"),
    ])
    rows = normalize_numerical(d)
    assert rows[0].tolist() == [0.0, 0.5, 1.0]
    assert rows[1].tolist() == [0.0, 0.0, 0.0]  # constant column
    assert rows[2].tolist() == [0.0, 1.0, 0.5]  # already [0, 1]: unchanged


def test_normalize_numerical_rows_equal_the_column_formula_in_one_table(rng):
    n = 200_000
    columns = [np.full(n, -7.25), rng.normal(size=n), -50 * rng.random(n), 1e300 * rng.normal(size=n),
               1e-300 * rng.normal(size=n), rng.integers(-3, 3, size=n).astype(np.float64)]
    for num in (np.column_stack(columns), columns[3][:, None]):
        d = make_dataset([], num=num)
        rows = normalize_numerical(d)
        assert rows.shape == (num.shape[1], n) and rows.flags.c_contiguous
        assert rows.tobytes() == minmax_columns(num).T.tobytes()
    d = make_dataset([], num=np.column_stack(columns))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        normalize_numerical(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= d.num.nbytes + 2**20


def test_loads_csv_rejects_short_and_long_rows():
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "nominal")]
    with pytest.raises(DataError, match=r"^<memory>:3: expected 2 cells, got 1$"):
        loads_csv("a,b\nx,y\nz\n", schema)
    with pytest.raises(DataError, match=r"^<memory>:2: expected 2 cells, got 3$"):
        loads_csv("a,b\nx,y,extra\nz,w\n", schema)


def test_loads_csv_takes_load_csvs_keywords():
    schema = [AttributeSchema("a", "nominal")]
    with pytest.raises(DataError, match="missing"):
        loads_csv("a\nx\n?\ny\n", schema, missing_policy="error", missing_values=("?",))
    assert loads_csv("a\nx\n?\ny\n", schema, "drop_row", ("?",)).n == 2
    with pytest.raises(TypeError, match="missing_polcy"):
        loads_csv("a\nx\n\ny\n", schema, missing_polcy="error")


def test_normalize_rejects_a_range_that_overflows():
    # Both ends are finite, but max - min is inf: scaling would give NaN features.
    d = loads_csv("a,x,y\np,1,-1.7e308\nq,2,1.7e308\n", [
        AttributeSchema("a", "nominal"),
        AttributeSchema("x", "numerical"),
        AttributeSchema("y", "numerical"),
    ])
    with pytest.raises(DataError, match="'y'"):
        normalize_numerical(d)


def test_normalize_requires_numericals():
    d = loads_csv("a\nx\ny\n", [AttributeSchema("a", "nominal")])
    with pytest.raises(DataError):
        normalize_numerical(d)


def test_synthesize_deterministic():
    a = synthesize(200, 6, 3, values_per_attribute=5, seed=42)
    b = synthesize(200, 6, 3, values_per_attribute=5, seed=42)
    assert np.array_equal(a.cat, b.cat)
    c = synthesize(200, 6, 3, values_per_attribute=5, seed=43)
    assert not np.array_equal(a.cat, c.cat)


def test_synthesize_value_range():
    d = synthesize(40, 1, 2, values_per_attribute=2, seed=0)
    assert set(d.cat[:, 0].tolist()) <= {0, 1}


@pytest.mark.parametrize("counts", [(0, 2, 2, 2), (4, 0, 2, 2), (4, 2, 0, 2), (4, 2, 2, 0)])
def test_synthesize_counts_below_one_are_rejected(counts):
    with pytest.raises(DataError, match="^all synthesis counts must be >= 1$"):
        synthesize(*counts)


def test_synthesize_planted_labels():
    d = synthesize(10, 2, 3, seed=0, planted_labels=True)
    assert d.labels.tolist() == [i % 3 for i in range(10)]


@pytest.mark.parametrize("fields, message", [
    ({"cat": np.zeros(3, dtype=np.int32)}, "cat and num must be 2-d arrays"),
    ({"num": np.empty((2, 0))}, "cat and num row counts disagree"),
    ({"cat": np.empty((0, 1), dtype=np.int32), "num": np.empty((0, 0))}, "dataset has no rows"),
    ({"dictionaries": ()}, "one value dictionary per categorical column required"),
    ({"dictionaries": (("a",),)}, "column 'a0' is degenerate; drop it before construction"),
    ({"cat": np.array([[0], [2], [1]], dtype=np.int32)}, "column 'a0' holds an out-of-dictionary index"),
])
def test_dataset_checks_its_invariants(fields, message):
    d = make_dataset([["a", "b", "a"]])
    with pytest.raises(DataError, match=f"^{message}$"):
        dataclasses.replace(d, **fields)


def test_dataset_arrays_read_only():
    d = synthesize(10, 2, 2, seed=0)
    with pytest.raises(ValueError):
        d.cat[0, 0] = 1


def _distinct_cases():
    rng = np.random.default_rng(4)
    binary = rng.integers(0, 2, size=(8, 63), dtype=np.int32)
    share = data.DISTINCT_MAX_SHARE
    at = np.arange(200, dtype=np.int32) % int(share * 200)  # int(share * 200) distinct rows of 200
    above = np.arange(200, dtype=np.int32) % (int(share * 200) + 1)
    floor = rng.integers(0, 9, size=(16, 4), dtype=np.int32)[np.arange(data.ROW_BLOCK_CELLS // 4) % 16]
    fifty = np.arange(200, dtype=np.int32) % 50  # 50 distinct rows of 200: (j % a, j % b) for j < lcm(a, b)
    return {  # (cat, cardinalities, floor or None for ROW_BLOCK_CELLS, distinct rows or None)
        "no categorical columns": (np.empty((40, 0), dtype=np.int32), (), 0, 1),
        "key space of 2**63": (np.tile(binary, (5, 1)), (2,) * 63, 1, None),
        "key space below 2**63, the keys wrapping": (np.tile(binary[:, :62], (5, 1)), (2,) * 62, 1, 8),
        "one repeated row": (np.zeros((300, 3), dtype=np.int32), (2, 3, 4), 1, 1),
        "below the floor": (floor[1:], (9,) * 4, None, None),
        "at the floor": (floor, (9,) * 4, None, 16),
        "distinct share at the threshold": (np.column_stack([at, at]), (200, 200), 1, int(share * 200)),
        "distinct share just above the threshold": (np.column_stack([above, above]), (200, 200), 1, None),
        "key space n: grouped by one bincount": (np.column_stack([fifty % 8, fifty % 25]), (8, 25), 1, 50),
        "key space n + 1: grouped by a sort": (np.column_stack([fifty % 3, fifty % 67]), (3, 67), 1, 50),
    }


@pytest.mark.parametrize("case", list(_distinct_cases()))
def test_distinct_view_is_found_exactly_where_it_pays(case, monkeypatch):
    cat, cards, floor, expect = _distinct_cases()[case]
    if floor is not None:
        monkeypatch.setattr(data, "ROW_BLOCK_CELLS", floor)
    enc = data.OneHot.encode(cat, cards)
    assert enc.X.nnz >= data.ROW_BLOCK_CELLS or expect is None
    if expect is None:
        assert enc.distinct is None
    else:
        view, inverse = enc.distinct
        rows, first_inverse = np.unique(cat, axis=0, return_inverse=True)  # rows in key order
        assert view.X.shape[0] == expect == len(rows)
        assert np.array_equal(view.codes - view.offsets[:-1], rows)
        assert inverse.dtype == np.intp and np.array_equal(inverse, first_inverse.ravel())
        assert np.array_equal(view.codes[inverse], enc.codes)
    assign = np.arange(len(cat)) % 3  # copies of a row in different clusters
    tally = np.zeros((3, int(enc.offsets[-1])), dtype=np.int64)
    np.add.at(tally, (assign[:, None], enc.codes), 1)
    assert np.array_equal(enc.counts(assign, 3), tally)


def _dataset_bytes(d):
    """Every field of a Dataset, arrays as (dtype, shape, bytes)."""
    def plain(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str, x.shape, x.tobytes()
        return tuple(map(plain, x)) if isinstance(x, tuple) else x
    return tuple(plain(getattr(d, field.name)) for field in dataclasses.fields(d))


def _force_cpus(monkeypatch, cpus):
    """One cell per block suffices, and ``cpus`` CPUs are usable."""
    monkeypatch.setattr(data, "ROW_BLOCK_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["bytes", "csv_reader"])
def test_column_jobs_load_the_same_dataset(tmp_path, monkeypatch, line_end):
    # The bundled fixtures and the AC file tiled past the size floor, through either tokenizer
    # (a carriage return sends a file through csv.reader): 1, 2 or 3 threads give one Dataset.
    ac_csv, ac_schema = fixtures.fixture_paths("AC")
    header, *body = ac_csv.read_bytes().splitlines(keepends=True)
    reps = -(-data.ROW_BLOCK_CELLS // (len(body) * len(header.split(b","))))
    tiled = tmp_path / "AC_tiled.csv"
    tiled.write_bytes(header + b"".join(body) * reps)
    files = [fixtures.fixture_paths(name) for name in fixtures.FIXTURES] + [(tiled, ac_schema)]
    assert len(files) == 12
    for csv_path, schema_path in files:
        copy = tmp_path / "copy.csv"
        copy.write_bytes(csv_path.read_bytes().replace(b"\n", line_end))
        loads = []
        for cpus in (1, 2, 3):
            _force_cpus(monkeypatch, cpus)
            loads.append(_dataset_bytes(load_dataset(copy, schema_path)))
        assert loads[1] == loads[0] and loads[2] == loads[0], csv_path.name


BAD_COLUMNS = {  # schema line, cells, and the error the column raises
    "o": ("o,ordinal,lo,hi", ["lo", "weird", "hi"], "ordinal column 'o' holds values outside its declared order"),
    "x": ("x,numerical", ["1", "2", "x"], "column 'x': could not convert string to float: 'x'"),
    "y": ("y,numerical", ["1", "inf", "3"], "column 'y' holds a non-finite value"),
}


@pytest.mark.parametrize("names", list(itertools.permutations(BAD_COLUMNS)), ids="".join)
def test_the_first_bad_column_in_schema_order_is_raised(tmp_path, monkeypatch, capsys, names):
    # an ordinal value outside its declared order, a cell float() refuses and a non-finite value,
    # in every schema order: at any thread count the first column's error, and exit code 3
    csv_path, schema_path = tmp_path / "t.csv", tmp_path / "t.schema"
    rows = [names, *zip(*(BAD_COLUMNS[c][1] for c in names))]
    csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
    schema_path.write_text("".join(BAD_COLUMNS[c][0] + "\n" for c in names))
    errors = []
    for cpus in (1, 2, 3):
        _force_cpus(monkeypatch, cpus)
        code = cli.main(["fit", "--data", str(csv_path), "--schema", str(schema_path),
                         "--k", "2", "--runs", "1", "--out", str(tmp_path / "out")])
        assert code == 3
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith(f"data error: {csv_path}: {BAD_COLUMNS[names[0]][2]}"), errors[0]
    assert errors == errors[:1] * 3


def test_run_jobs_runs_every_job_once_and_raises_the_first_error(monkeypatch):
    # more threads than cores, switching often: each job runs once and the results come back in
    # order; the first failed job's error is raised after every job has run, or, on one thread,
    # where a loop would raise it
    ran = []

    def job(i, fail=()):
        ran.append(i)
        if i in fail:
            raise DataError(f"job {i}")
        return int(np.full(100, i).sum())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 8):
            ran.clear()
            results = data.run_jobs([functools.partial(job, i) for i in range(300)], threads)
            assert results == [100 * i for i in range(300)]
            assert sorted(ran) == list(range(300))
            ran.clear()
            with pytest.raises(DataError, match="^job 5$"):
                data.run_jobs([functools.partial(job, i, fail=(5, 17, 250)) for i in range(300)], threads)
            assert sorted(ran) == list(range(6 if threads == 1 else 300))
    finally:
        sys.setswitchinterval(interval)
