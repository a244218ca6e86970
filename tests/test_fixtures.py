import dataclasses

import numpy as np
import pytest

from ordclust import fixtures
from ordclust.data import AttributeSchema
from ordclust.fixtures import CatColumn, FixtureSpec, NumColumn


def test_generator_rewrites_every_bundled_file(tmp_path):
    assert fixtures.main([str(tmp_path)]) == 0
    written = 0
    for name in fixtures.FIXTURES:
        for bundled in fixtures.fixture_paths(name):
            assert (tmp_path / bundled.name).read_bytes() == bundled.read_bytes(), bundled.name
            written += 1
    assert written == 22


# Per-row reference: the generator as it was before it built whole columns,
# with its tail distributions. The column builder must reproduce its rows,
# schema and (through the row permutation, drawn last) every random draw.
def _reference_tail_pvecs(l, k, spill, noise, rng):
    core = l // 2
    flip = int(rng.integers(2))
    reach = min(3, max(1, (l - 1) // 2))
    out = []
    for m in range(k):
        p = np.zeros(l)
        p[core] = 1.0 - spill
        pattern = (m + flip) % 3 if l > 2 else (m + flip) % 2
        strength = spill / (1 + m // 3)
        p[core] = 1.0 - strength

        def run(direction):
            steps = []
            for j in range(reach):
                t = core + direction * (j + 1)
                if 0 <= t < l:
                    steps.append(t)
            return steps

        if pattern == 0:
            targets = run(+1)
            shares = [1.0] * len(targets)
        elif pattern == 1:
            targets = run(-1)
            shares = [1.0] * len(targets)
        else:
            targets = run(+1) + run(-1)
            shares = [1.0] * len(targets)
        for t, w in zip(targets, shares):
            p[t] += strength * w / sum(shares)
        p = (1.0 - noise) * p + noise / l
        out.append(p / p.sum())
    return out


def _reference_build(spec):
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k
    labels = np.concatenate([np.full(sz, m) for m, sz in enumerate(spec.sizes)])
    gen_cluster = labels.copy()
    if spec.confusion > 0 and k > 1:
        confused = rng.random(n) < spec.confusion
        shift = rng.integers(1, k, size=n)
        gen_cluster = np.where(confused, (labels + shift) % k, labels)

    columns = []
    for j, col in enumerate(spec.cats):
        values, value_of_pos = fixtures._categorical_column(rng, col, gen_cluster, k)
        lits = np.array([f"v{v + 1}" for v in range(col.card)])
        declared = None
        if col.kind == "ordinal":
            by_line = [f"v{value_of_pos[p] + 1}" for p in range(col.card)]
            declared = by_line if col.semantic_match else [str(x) for x in rng.permutation(by_line)]
        columns.append((f"a{j + 1:02d}", col.kind, lits[values], declared))
    for j in range(spec.single_valued):
        columns.append((f"s{j + 1:02d}", "nominal", np.array(["only"] * n), None))
    rng.shuffle(columns)
    num_cols = [
        (f"x{j + 1:02d}", fixtures._numerical_column(rng, col, gen_cluster, k))
        for j, col in enumerate(spec.nums)
    ]

    perm = rng.permutation(n)
    header = [name for name, _, _, _ in columns] + [name for name, _ in num_cols] + ["class"]
    rows = [header]
    for i in perm:
        row = [str(vals[i]) for _, _, vals, _ in columns]
        row += [f"{vals[i]:.6f}" for _, vals in num_cols]
        row.append(f"c{labels[i] + 1}")
        rows.append(row)
    schema = [
        AttributeSchema(name, kind, tuple(declared) if declared else None)
        for name, kind, _, declared in columns
    ]
    schema += [AttributeSchema(name, "numerical") for name, _ in num_cols]
    schema.append(AttributeSchema("class", "label"))
    return rows, schema


def _scaled(name, factor):
    base = fixtures.FIXTURES[name]
    return dataclasses.replace(base, name=f"{name}x{factor}", sizes=tuple(factor * s for s in base.sizes))


def _column(card, family, kind="nominal", match=True):
    return CatColumn(card, kind, family, signal=0.7, spill=0.45, noise=0.05, semantic_match=match)


SPECS = [
    # tail columns of every cardinality up to AC's, k = 7 so the pattern cycle repeats weaker
    FixtureSpec("tail", (13, 9, 11, 7, 12, 8, 10), tuple(_column(l, "tail") for l in range(2, 15)), seed=5),
    FixtureSpec("tail_ordinal", (20, 15, 25),
                tuple(_column(l, "tail", "ordinal", l % 2 == 0) for l in range(2, 15)), confusion=0.2, seed=6),
    FixtureSpec("band_chain", (30, 20, 25, 15),
                (_column(5, "band"), _column(4, "band", "ordinal", False), _column(6, "chain"),
                 _column(3, "chain", "ordinal", False), _column(2, "chain", "ordinal"),
                 _column(7, "band", "ordinal")),
                single_valued=3, confusion=0.3, seed=7),
    FixtureSpec("mixed", (40, 35), (_column(3, "tail", "ordinal"), _column(4, "chain")),
                nums=(NumColumn(0.35), NumColumn(0.6, signal=0.0), NumColumn(1e-4), NumColumn(50.0)),
                single_valued=2, confusion=0.12, seed=8),
    FixtureSpec("one_cluster", (25,), (_column(4, "tail"), _column(3, "chain"), _column(5, "band")),
                nums=(NumColumn(0.5),), single_valued=1, seed=9),
]
SPECS += list(fixtures.FIXTURES.values()) + [_scaled("AC", 20), _scaled("HR", 7), _scaled("SB", 5)]


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
def test_column_builder_reproduces_the_row_loop(spec, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(fixtures, "_tail_pvecs", _reference_tail_pvecs)
        ref_rows, ref_schema = _reference_build(spec)
    rows, schema = fixtures.build_fixture(spec)
    assert rows == ref_rows
    assert schema == ref_schema
    assert all(type(cell) is str for row in rows for cell in row)


@pytest.mark.parametrize("l", range(2, 15))
def test_tail_distributions_are_bit_identical(l):
    for k in range(1, 9):
        for seed in range(4):
            for spill, noise in ((0.45, 0.10), (0.50, 0.05), (0.3, 0.0)):
                ref = _reference_tail_pvecs(l, k, spill, noise, np.random.default_rng(seed))
                got = fixtures._tail_pvecs(l, k, spill, noise, np.random.default_rng(seed))
                assert [p.tobytes() for p in got] == [p.tobytes() for p in ref], (l, k, seed)


def test_cells_share_each_columns_literals():
    spec = _scaled("AC", 3)
    rows, schema = fixtures.build_fixture(spec)
    for j, col in enumerate(schema):
        if col.kind != "numerical":
            cells = [row[j] for row in rows[1:]]
            assert len({id(c) for c in cells}) == len(set(cells)), col.name
