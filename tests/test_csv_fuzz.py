"""CSV ingest: the numpy byte tokenizer against csv.reader and a row-at-a-time
reference loader on random tables, and the exit codes of unusable CSV files."""

import csv
import io
import random
import re

import numpy as np
import pytest

from ordclust import cli, data
from ordclust.data import AttributeSchema, DataError, SchemaError, loads_csv

ORDER = ("lo", "mid", "hi", "très haut")
WORDS = ("a", "b", " c", "日本", "x y", "é", "z" * 300)  # one long cell: object-array cells
NUMBERS = ("1", "-2.5", " 3 ", "1_0", "1e3", "-0", "٣", ".5", "7.", "0.1000000000000000055511151231257827")
TOKENS = ("", "NA")
POOLS = {"nominal": WORDS, "label": WORDS, "ordinal": ORDER, "numerical": NUMBERS, "ignore": WORDS + NUMBERS}


def random_table(rng):
    """CSV text without quotes or carriage returns, and its schema."""
    m = rng.randint(1, 6)
    kinds = [rng.choice(("nominal", "ordinal", "numerical", "ignore")) for _ in range(m)]
    if rng.random() < 0.5:
        kinds[rng.randrange(m)] = "label"
    schema = [AttributeSchema(f"c{j}", kind, ORDER if kind == "ordinal" else None)
              for j, kind in enumerate(kinds)]
    pools = [POOLS[kind] for kind in kinds]
    lines = [",".join(col.name for col in schema)]
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.1:
            lines.append("")
            continue
        cells = [rng.choice(pool[: rng.randint(1, len(pool))]) for pool in pools]
        if rng.random() < 0.2:
            cells[rng.randrange(m)] = rng.choice(TOKENS)
        if rng.random() < 0.01:  # unparseable, non-finite or undeclared where it lands
            cells[rng.randrange(m)] = rng.choice(("weird", "inf"))
        lines.append(",".join(cells))
    if rng.random() < 0.1:  # whitespace-only line: one cell, ragged unless m == 1
        lines.insert(rng.randint(1, len(lines)), rng.choice((" ", "\t")))
    if rng.random() < 0.05:  # ragged row
        lines.insert(rng.randint(1, len(lines)), ",".join(["a"] * rng.choice((m - 1, m + 1))))
    text = "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")
    return ("\ufeff" + text if rng.random() < 0.2 else text), schema


def summary(d):
    """Every field of a Dataset, arrays as (dtype, shape, bytes); errors as (type, text)."""
    if isinstance(d, tuple):
        return d

    def arr(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    return (arr(d.cat), arr(d.num), d.dictionaries, d.cat_names,
            tuple(map(arr, d.semantic_ranks)), d.num_names, arr(d.labels), d.label_values, d.degenerate)


def outcome(fn):
    try:
        return summary(fn())
    except (DataError, SchemaError) as exc:
        return type(exc).__name__, str(exc)


def tokenized(tokenize, text, schema, policy):
    cells = tokenize(text.encode(), [c.name for c in schema], "t.csv")
    return data._from_cells(cells, schema, policy, TOKENS, "t.csv")


def reference(text, schema, policy):
    """The row-at-a-time loader: csv.reader rows, dict.setdefault, float() per cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError("t.csv: empty file")
    if len(header) != len(schema):
        raise SchemaError(f"t.csv: schema declares {len(schema)} columns, CSV header has {len(header)}")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(schema):
            raise DataError(f"t.csv:{reader.line_num}: expected {len(schema)} cells, got {len(row)}")
        if any(cell in TOKENS for cell in row):
            if policy == "error":
                raise DataError(f"t.csv:{reader.line_num}: missing cell")
            continue
        rows.append(row)
    if not rows:
        raise DataError("t.csv: no usable rows")
    cat, num, dicts, names, ranks, num_names, degenerate = [], [], [], [], [], [], []
    labels = label_values = None
    for j, col in enumerate(schema):
        cells = [row[j] for row in rows]
        if col.kind == "numerical":
            try:
                num.append([float(c) for c in cells])
            except ValueError as exc:
                raise DataError(f"t.csv: column {col.name!r}: {exc}") from None
            if not np.all(np.isfinite(num[-1])):
                raise DataError(f"t.csv: column {col.name!r} holds a non-finite value")
            num_names.append(col.name)
            continue
        if col.kind == "ignore":
            continue
        vocab = {}
        codes = np.array([vocab.setdefault(c, len(vocab)) for c in cells], dtype=np.int32)
        if col.kind == "label":
            labels, label_values = codes, tuple(vocab)
        elif len(vocab) == 1:
            degenerate.append(data.DegenerateColumn(col.name, cells[0]))
        else:
            rank = None
            if col.kind == "ordinal":
                unknown = [v for v in vocab if v not in col.semantic_order]
                if unknown:
                    raise DataError(f"t.csv: ordinal column {col.name!r} holds values outside "
                                    f"its declared order: {unknown}")
                rank = np.empty(len(vocab), dtype=np.int64)
                for pos, v in enumerate([v for v in col.semantic_order if v in vocab], start=1):
                    rank[vocab[v]] = pos
            cat.append(codes)
            dicts.append(tuple(vocab))
            names.append(col.name)
            ranks.append(rank)
    n = len(rows)
    return data.Dataset(
        cat=np.column_stack(cat) if cat else np.empty((n, 0), dtype=np.int32),
        num=np.column_stack(num) if num else np.empty((n, 0), dtype=np.float64),
        dictionaries=tuple(dicts), cat_names=tuple(names),
        semantic_ranks=tuple(ranks), num_names=tuple(num_names),
        labels=labels, label_values=label_values, degenerate=tuple(degenerate),
    )


@pytest.mark.parametrize("seed", range(60))
def test_byte_tokenizer_matches_csv_reader_and_reference(seed):
    rng = random.Random(seed)
    for _ in range(10):
        text, schema = random_table(rng)
        policy = rng.choice(data.MISSING_POLICIES)
        expected = outcome(lambda: reference(text, schema, policy))
        assert outcome(lambda: tokenized(data._byte_cells, text, schema, policy)) == expected, text
        assert outcome(lambda: tokenized(data._csv_cells, text, schema, policy)) == expected, text
        via_loads = outcome(lambda: loads_csv(text, schema, missing_policy=policy, missing_values=TOKENS))
        assert via_loads == tuple(s.replace("t.csv", "<memory>") if isinstance(s, str) else s
                                  for s in expected)


def _short_word(rng, width):
    """A cell of 1 to ``width`` UTF-8 bytes."""
    word = ""
    for _ in range(rng.randint(1, width)):
        room = width - len(word.encode())
        word += rng.choice("ab -.0" + ("é" if room >= 2 else "")) if room else ""
    return word


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9])
def test_short_cells_group_as_the_reference_loader_does(width):
    # Columns of S1..S8 cells are grouped by their unsigned-integer view, zero-padded to u4 or u8.
    rng = random.Random(width)
    schema = [AttributeSchema("c0", "nominal"), AttributeSchema("c1", "nominal"), AttributeSchema("c2", "label")]
    for _ in range(20):
        edge = ["z" * (width - 1) + "y", "z" * (width - 1)]  # differ in the last byte, or only in length
        pools = [list({_short_word(rng, width) for _ in range(rng.randint(2, 12))} | set(filter(None, edge)))
                 for _ in schema]
        lines = ["c0,c1,c2"] + [",".join(rng.choice(pool) for pool in pools) for _ in range(rng.randint(1, 40))]
        lines.insert(rng.randint(1, len(lines)), ",".join(["z" * width] * len(schema)))  # the widest cell
        text = "\n".join(lines) + "\n"
        (cells, *_), _, _ = data._byte_cells(text.encode(), [c.name for c in schema], "t.csv")
        assert cells.dtype == f"S{width}"
        keys = data._narrow_keys(cells)
        assert keys.dtype == (cells.dtype if width > 8 else f"u{next(b for b in (1, 2, 4, 8) if b >= width)}")
        expected = outcome(lambda: reference(text, schema, "drop_row"))
        for tokenize in (data._byte_cells, data._csv_cells):
            assert outcome(lambda: tokenized(tokenize, text, schema, "drop_row")) == expected, text


@pytest.mark.parametrize("width", range(1, 18))
def test_cells_at_the_end_of_the_file_match_the_reference_loader(width):
    # A fixed-width column reads each cell as the ``width`` bytes from its start; a cell that starts
    # closer than that to the end of the file is copied byte by byte. Each column holds cells of 1 to
    # ``width`` bytes, the widest or the shortest on the last line, with and without a trailing newline,
    # and once more with a last cell too long for a fixed-width column.
    schema = [AttributeSchema("c0", "nominal"), AttributeSchema("c1", "numerical")]
    rows = [("é" + "x" * (w - 2) if w > 1 else "x", "12345678901234567"[:w]) for w in range(1, width + 1)]
    long_row = [("y" * 1000, "5")]
    tails = 0
    for body, fixed in ((rows * 2, True), (rows[::-1] * 2, True), (rows * 2 + long_row, False)):
        for newline in ("", "\n"):
            text = "\n".join(["c0,c1"] + [",".join(row) for row in body]) + newline
            columns, _, _ = data._byte_cells(text.encode(), ["c0", "c1"], "t.csv")
            widths = [max(len(row[j].encode()) for row in body) for j in range(2)]
            assert [cells.dtype for cells in columns] == [f"S{widths[0]}" if fixed else object, f"S{widths[1]}"]
            tails += len(body[-1][1]) + len(newline) < widths[1]  # c1's last cell reads past the end
            expected = outcome(lambda: reference(text, schema, "drop_row"))
            assert not isinstance(expected[0], str), expected  # the table loads
            for tokenize in (data._byte_cells, data._csv_cells):
                assert outcome(lambda: tokenized(tokenize, text, schema, "drop_row")) == expected, text
    assert tails == (0 if width < 2 else 2 if width == 2 else 4)


def test_value_first_seen_in_a_dropped_row():
    text = "a,b\nnew,\nx,1\nnew,2\ny,3\n"
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "numerical")]
    for tokenize in (data._byte_cells, data._csv_cells):
        d = tokenized(tokenize, text, schema, "drop_row")
        assert d.dictionaries == (("x", "new", "y"),)
        assert d.cat[:, 0].tolist() == [0, 1, 2]


def test_first_bad_line_wins_and_blank_lines_count():
    one = [AttributeSchema("a", "nominal")]
    two = [AttributeSchema("a", "nominal"), AttributeSchema("b", "nominal")]
    for tokenize in (data._byte_cells, data._csv_cells):
        with pytest.raises(DataError, match=r"^t\.csv:4: expected 1 cells, got 2$"):
            tokenized(tokenize, "a\nx\n\ny,z\n", one, "drop_row")
        with pytest.raises(DataError, match=r"^t\.csv:4: missing cell$"):
            tokenized(tokenize, "a,b\nx,1\n\n,2\ny\n", two, "error")
        with pytest.raises(DataError, match=r"^t\.csv:5: expected 2 cells, got 1$"):
            tokenized(tokenize, "a,b\nx,1\n\n,2\ny\n", two, "drop_row")


def test_numerical_cells_follow_float():
    text = "x\n1_0\n 2 \n٣\n\u20034\n-0\n"  # U+2003 is whitespace to float()
    d = loads_csv(text, [AttributeSchema("x", "numerical")])
    assert d.num[:, 0].tolist() == [10.0, 2.0, 3.0, 4.0, -0.0]
    assert np.signbit(d.num[4, 0])
    with pytest.raises(DataError, match=r"^<memory>: column 'x': could not convert string to float: 'zz'$"):
        loads_csv("x\n1\nzz\nyy\n", [AttributeSchema("x", "numerical")])


def test_numpy_cast_of_ascii_cells_equals_float():
    cells = ["0.1000000000000000055511151231257827", "2.2250738585072011e-308", "4.9e-324", "1e-400",
             "1.7976931348623157e308", "1e400", "9007199254740993", "-0", "nan", "-inf", "Infinity",
             " 7 ", "\t8\n", "1_000.5", "00012", ".5", "5.", "+1E-3"]
    got = data._floats(np.array([c.encode() for c in cells]), "x", "t.csv")
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()


def _decimal_cells(rng, count):
    """Random ``[-]digits[.digits]`` cells with 1 to 17 digits, the point anywhere or absent."""
    cells = []
    for _ in range(count):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 17)))
        point = rng.randint(-1, len(digits))
        cell = digits if point < 0 else digits[:point] + "." + digits[point:]
        cells.append(rng.choice(("", "-")) + cell)
    return cells


def assert_floats_equal_float(cells):
    got = data._floats(np.array([c.encode() for c in cells]), "x", "t.csv")
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()


def test_decimal_fast_path_equals_float_bit_for_bit():
    cells = _decimal_cells(random.Random(12), 20000)
    cells += ["0", "-0", "-0.000", "0.0", ".5", "5.", "-.5", "-5.", "00012.500", "000000000000001",
              "999999999999999", "-99999999.9999999", ".000000000000001", "1" * 16, "1" * 17]
    values, slow = data._decimals(np.array([c.encode() for c in cells]))
    digits = [sum(ch.isdigit() for ch in c) for c in cells]
    assert slow.tolist() == [n > 15 for n in digits]  # 16 and 17 digits take the cast
    assert values[~slow].tobytes() == np.array([float(c) for c, s in zip(cells, slow) if not s]).tobytes()
    assert_floats_equal_float(cells)
    assert np.signbit(data._floats(np.array([b"-0", b"-0.000", b"-.0"]), "x", "t.csv")).all()


def test_decimal_and_cast_cells_mix_in_one_column():
    rng = random.Random(13)
    others = ["1e5", "-2.5E-3", "+1", "+.5", " 7", "8 ", "\t9", "1_000", "inf", "-inf", "nan", "Infinity",
              "1" * 16 + ".5", "-0e0"]
    assert data._decimals(np.array([c.encode() for c in others]))[1].all()
    for _ in range(50):
        cells = _decimal_cells(rng, 40) + rng.sample(others, 4)
        rng.shuffle(cells)
        assert_floats_equal_float(cells)


@pytest.mark.parametrize("bad", [".", "-", "1.2.3", "--1", "1-", "-.", "1\x002"])
def test_malformed_decimals_raise_naming_the_first_bad_cell(bad):
    message = rf"^t\.csv: column 'x': could not convert string to float: {re.escape(repr(bad))}$"
    for cells in ([b"1.5", bad.encode(), b"zz"], [b"1e5", b"2", bad.encode(), b"-", b"."]):
        with pytest.raises(DataError, match=message):
            data._floats(np.array(cells), "x", "t.csv")
    if "\0" not in bad:
        with pytest.raises(DataError, match=message.replace("t\\.csv", "<memory>")):
            loads_csv(f"x\n1.5\n{bad}\n7\n", [AttributeSchema("x", "numerical")])


def test_one_long_cell_does_not_widen_its_column():
    raw = b"a\n" + b"x\n" * 1000 + b"y" * 5000 + b"\n"
    for tokenize in (data._byte_cells, data._csv_cells):
        (cells,), _, _ = tokenize(raw, ["a"], "t.csv")
        assert cells.dtype == object  # not 1001 cells of 5000 bytes each
        assert cells[-1] == b"y" * 5000 and cells[0] == b"x"
    (cells,), _, _ = data._csv_cells(b"a\n" + b"x\n" * 1000 + b"yy\n", ["a"], "t.csv")
    assert cells.dtype == "S2"


def test_a_trailing_nul_keeps_a_cell_distinct():
    d = loads_csv("a\nx\0\nx\n", [AttributeSchema("a", "nominal")])
    assert d.dictionaries == (("x\0", "x"),)


def test_missing_token_with_a_nul_matches_no_cell():
    d = loads_csv("a\nx\na\n", [AttributeSchema("a", "nominal")], missing_values=("a\0",))
    assert d.dictionaries == (("x", "a"),)


def test_quoted_commas_and_crlf_still_load():
    schema = [AttributeSchema("a", "nominal"), AttributeSchema("b", "nominal")]
    d = loads_csv('a,b\r\n"x,1",p\r\n"y",q\r\n\r\n', schema)
    assert d.dictionaries == (("x,1", "y"), ("p", "q"))
    plain = loads_csv("a,b\nx,p\ny,q\n", schema)
    assert summary(loads_csv("a,b\r\nx,p\r\ny,q\r\n", schema)) == summary(plain)


@pytest.mark.parametrize("body", [
    b"a,b\nx,y\nx\n",  # short row
    b"a,b\nx,y,z\n",  # extra cell
    b"a,b\nlo,x\nweird,y\n",  # value outside the declared order
    b"a,b\nhi,\n,y\n",  # every row has a missing cell
    b"a,b\n",  # header only
    b"",  # empty file
    b"a,b\n\xff\xfe,1\n",  # not UTF-8
    b'a,b\n"' + b"x" * 140_000 + b'",y\n',  # csv.Error: field larger than the field limit
])
def test_unusable_csv_exits_3(tmp_path, capsys, body):
    csv_path, schema_path = tmp_path / "t.csv", tmp_path / "t.schema"
    csv_path.write_bytes(body)
    schema_path.write_text("a,ordinal,lo,hi\nb,nominal\n")
    code = cli.main(["fit", "--data", str(csv_path), "--schema", str(schema_path),
                     "--k", "2", "--runs", "1", "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: ")


def test_bad_bytes_name_the_line():
    with pytest.raises(DataError, match=r"^<memory>:2: not UTF-8 text"):
        data._parse(b"a,b\n\xff\xfe,1\n", [AttributeSchema("a", "nominal"), AttributeSchema("b", "nominal")],
                    "drop_row", ("",), "<memory>")


def test_unreadable_schema_exits_3(tmp_path, capsys):
    csv_path, schema_path = tmp_path / "t.csv", tmp_path / "t.schema"
    csv_path.write_text("a\nx\ny\n")
    schema_path.write_bytes(b"a,nominal\n\xff,nominal\n")
    code = cli.main(["fit", "--data", str(csv_path), "--schema", str(schema_path),
                     "--k", "2", "--runs", "1", "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: ")
