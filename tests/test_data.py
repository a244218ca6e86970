import numpy as np
import pytest

from ordclust import fixtures
from ordclust.data import (
    AttributeSchema,
    DataError,
    SchemaError,
    load_csv,
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


def test_arity_mismatch(tmp_path):
    p = write(tmp_path, "t.csv", "a,b\nx,y\n")
    with pytest.raises(SchemaError, match="columns"):
        load_csv(p, [AttributeSchema("a", "nominal")])


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
    assert d.s == 1
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
    nd = normalize_numerical(d)
    assert nd.num[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert nd.num[:, 1].tolist() == [0.0, 0.0, 0.0]  # constant column
    assert nd.num[:, 2].tolist() == [0.0, 1.0, 0.5]  # already [0, 1]: unchanged


def test_normalize_numerical_shares_the_categorical_table():
    d = loads_csv("a,x,c\np,1,u\nq,3,v\n", [
        AttributeSchema("a", "nominal"),
        AttributeSchema("x", "numerical"),
        AttributeSchema("c", "label"),
    ])
    nd = normalize_numerical(d)
    assert nd.cat is d.cat and nd.labels is d.labels
    assert nd.num[:, 0].tolist() == [0.0, 1.0]
    assert d.num[:, 0].tolist() == [1.0, 3.0]
    assert not nd.num.flags.writeable


def test_loads_csv_rejects_short_and_long_rows():
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "nominal")]
    with pytest.raises(DataError, match=r"^<memory>:3: expected 2 cells, got 1$"):
        loads_csv("a,b\nx,y\nz\n", schema)
    with pytest.raises(DataError, match=r"^<memory>:2: expected 2 cells, got 3$"):
        loads_csv("a,b\nx,y,extra\nz,w\n", schema)


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


def test_synthesize_planted_labels():
    d = synthesize(10, 2, 3, seed=0, planted_labels=True)
    assert d.labels.tolist() == [i % 3 for i in range(10)]


def test_dataset_arrays_read_only():
    d = synthesize(10, 2, 2, seed=0)
    with pytest.raises(ValueError):
        d.cat[0, 0] = 1
