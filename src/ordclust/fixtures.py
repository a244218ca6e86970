"""Bundled benchmark fixtures.

Each fixture is a seeded synthetic dataset that mirrors the shape of a
well-known categorical benchmark (sample count, per-attribute cardinalities,
cluster count and imbalance) and plants a latent value order per attribute.
Two structure families are used: ``band`` columns draw each cluster from a
distribution that decays with distance from a cluster center on the hidden
line; ``chain`` columns give each cluster a core value with spill onto the
line-adjacent values plus uniform background noise. A fixture-level
``confusion`` fraction relabels feature generation (not the stored label) to
a different cluster, creating a coherent overlapping subpopulation that caps
reachable accuracy. Value labels are shuffled, so neither file order nor
dictionary order reveals the hidden line.

``python -m ordclust.fixtures <dir>`` materializes the CSV + schema files;
the copies bundled with the package were produced exactly that way.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .data import AttributeSchema, DataError, Dataset, load_dataset


@dataclass(frozen=True)
class CatColumn:
    card: int
    kind: str = "nominal"
    family: str = "chain"  # chain | band | tail
    signal: float = 1.0  # band: decay rate per position step
    spill: float = 0.3  # chain/tail: mass moved off the core value
    noise: float = 0.0  # chain/tail: uniform background mass
    semantic_match: bool = True  # ordinal only: declared order follows the hidden line


@dataclass(frozen=True)
class NumColumn:
    noise: float  # gaussian sd around the cluster center
    signal: float = 1.0  # 0 collapses all cluster centers to one point


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    sizes: tuple
    cats: tuple
    nums: tuple = ()
    single_valued: int = 0  # extra degenerate columns, interleaved
    confusion: float = 0.0  # fraction of samples generated as another cluster
    seed: int = 0

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return int(sum(self.sizes))


def _band(card, signal, kind="nominal", match=True):
    return CatColumn(card, kind, "band", signal=signal, semantic_match=match)


def _chain(card, spill, noise=0.0, kind="nominal", match=True):
    return CatColumn(card, kind, "chain", spill=spill, noise=noise, semantic_match=match)


def _tail(card, spill, noise=0.05, kind="nominal", match=True):
    return CatColumn(card, kind, "tail", spill=spill, noise=noise, semantic_match=match)


FIXTURES: dict[str, FixtureSpec] = {
    "SB": FixtureSpec(
        name="SB",
        sizes=(10, 10, 10, 17),
        cats=tuple(_chain(c, 0.25) for c in (7, 2, 3, 3, 2, 4, 4, 2, 2, 3, 2, 2, 4, 4, 2, 2, 2, 2, 2, 2, 2)),
        single_valued=14,
        seed=2101,
    ),
    "HR": FixtureSpec(
        name="HR",
        sizes=(51, 51, 30),
        cats=(
            _tail(3, 0.45, 0.10),
            _tail(4, 0.45, 0.10),
            _band(4, 0.0, kind="ordinal", match=True),
            _band(4, 0.0, kind="ordinal", match=False),
        ),
        seed=3106,
    ),
    "VT": FixtureSpec(
        name="VT",
        sizes=(267, 168),
        cats=tuple(_chain(3, 0.22, 0.08) for _ in range(16)),
        confusion=0.10,
        seed=2112,
    ),
    "ZO": FixtureSpec(
        name="ZO",
        sizes=(41, 20, 5, 13, 4, 8, 10),
        cats=tuple(_chain(2, 0.12) for _ in range(12)) + (_chain(6, 0.12),) + tuple(_chain(2, 0.12) for _ in range(3)),
        confusion=0.16,
        seed=2107,
    ),
    "CS": FixtureSpec(
        name="CS",
        sizes=(46, 34),
        cats=(
            _chain(4, 0.3),
            _chain(3, 0.3, kind="ordinal"),
            _chain(3, 0.3, kind="ordinal"),
            _chain(2, 0.3),
        ),
        confusion=0.30,
        seed=2105,
    ),
    "DS": FixtureSpec(
        name="DS",
        sizes=(70, 50),
        cats=tuple(_chain(2, 0.12) for _ in range(5)),
        confusion=0.25,
        seed=2104,
    ),
    "TT": FixtureSpec(
        name="TT",
        sizes=(626, 332),
        cats=tuple(_chain(3, 0.3) for _ in range(9)),
        confusion=0.35,
        seed=2110,
    ),
    "LG": FixtureSpec(
        name="LG",
        sizes=(2, 81, 61, 4),
        cats=tuple(
            _chain(c, 0.28)
            for c in (3, 4, 8, 4, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 8, 3, 2, 2)
        ),
        confusion=0.40,
        seed=2109,
    ),
    "BC": FixtureSpec(
        name="BC",
        sizes=(201, 85),
        cats=(
            _chain(3, 0.3, kind="ordinal"), _chain(3, 0.3, kind="ordinal"),
            _chain(2, 0.3), _chain(6, 0.3, kind="ordinal"), _chain(2, 0.3),
            _chain(6, 0.3, kind="ordinal"), _chain(11, 0.3), _chain(7, 0.3),
            _chain(3, 0.3),
        ),
        confusion=0.30,
        seed=2108,
    ),
    "AP": FixtureSpec(
        name="AP",
        sizes=(108, 81),
        cats=(
            _chain(8, 0.35), _chain(5, 0.35, kind="ordinal"), _chain(8, 0.35),
            _chain(7, 0.35), _chain(8, 0.35), _chain(3, 0.35, kind="ordinal"),
            _chain(5, 0.35, kind="ordinal"), _chain(6, 0.35),
            _chain(6, 0.35, kind="ordinal"), _chain(6, 0.35, kind="ordinal"),
            _chain(3, 0.35, kind="ordinal"), _chain(2, 0.35),
        ),
        confusion=0.38,
        seed=2103,
    ),
    "AC": FixtureSpec(
        name="AC",
        sizes=(383, 307),
        cats=(
            _chain(2, 0.30, kind="ordinal"), _chain(2, 0.30, kind="ordinal"),
            _chain(2, 0.30, kind="ordinal"), _chain(2, 0.30, kind="ordinal"),
            _tail(3, 0.50, kind="ordinal"), _tail(14, 0.50, kind="ordinal"),
            _tail(8, 0.50, kind="ordinal"), _tail(3, 0.50, kind="ordinal"),
        ),
        nums=(
            NumColumn(0.35), NumColumn(0.45), NumColumn(0.45),
            NumColumn(0.60, signal=0.0), NumColumn(0.60, signal=0.0), NumColumn(0.60, signal=0.0),
        ),
        confusion=0.12,
        seed=4111,
    ),
}

SMALL_FIXTURES = ("SB", "HR", "VT", "ZO", "CS", "DS", "TT", "LG", "BC", "AP")


def _chain_pvecs(l: int, k: int, spill: float, noise: float, rng) -> list:
    """Core value per cluster (evenly spread on the line, shuffled across
    clusters) with adjacent spill."""
    centers = np.linspace(0, l - 1, num=k).round().astype(int) if k > 1 else np.array([l // 2])
    centers = rng.permutation(centers)
    out = []
    for m in range(k):
        p = np.zeros(l)
        c = int(centers[m])
        p[c] = 1.0 - spill
        left, right = c - 1, c + 1
        if left < 0:
            left = right
        if right > l - 1:
            right = c - 1
        p[left] += spill / 2
        p[right] += spill / 2
        p = (1.0 - noise) * p + noise / l
        out.append(p / p.sum())
    return out


def _tail_pvecs(l: int, k: int, spill: float, noise: float, rng) -> list:
    """All clusters share the modal (middle) value; only the direction of the
    spill along the line distinguishes them, so the modes carry no cluster
    signal. Pattern per cluster: spill rightward, leftward, symmetric, then
    weaker repeats of the same cycle."""
    core = l // 2
    flip = int(rng.integers(2))
    reach = min(3, max(1, (l - 1) // 2))
    right = [t for t in range(core + 1, core + 1 + reach) if t < l]
    left = [t for t in range(core - 1, core - 1 - reach, -1) if t >= 0]
    out = []
    for m in range(k):
        strength = spill / (1 + m // 3)
        targets = (right, left, right + left)[(m + flip) % (3 if l > 2 else 2)]
        p = np.zeros(l)
        p[core] = 1.0 - strength
        for t in targets:
            p[t] += strength / len(targets)
        p = (1.0 - noise) * p + noise / l
        out.append(p / p.sum())
    return out


def _band_pvecs(l: int, k: int, signal: float, rng) -> list:
    """Exponential decay from a cluster-specific center position."""
    centers = rng.permutation(np.linspace(1.0, float(l), num=k)) if k > 1 else [(1.0 + l) / 2.0]
    positions = np.arange(1, l + 1, dtype=np.float64)
    out = []
    for m in range(k):
        logits = -signal * np.abs(positions - centers[m])
        p = np.exp(logits - logits.max())
        out.append(p / p.sum())
    return out


def _categorical_column(rng, col: CatColumn, gen_cluster: np.ndarray, k: int):
    """Sample one column; returns (value ids per sample, value id per position)."""
    l = col.card
    if col.family == "chain":
        pvecs = _chain_pvecs(l, k, col.spill, col.noise, rng)
    elif col.family == "tail":
        pvecs = _tail_pvecs(l, k, col.spill, col.noise, rng)
    else:
        pvecs = _band_pvecs(l, k, col.signal, rng)
    positions = np.empty(gen_cluster.shape[0], dtype=np.int64)
    for m in range(k):
        members = np.where(gen_cluster == m)[0]
        if members.size:
            positions[members] = rng.choice(l, size=members.size, p=pvecs[m])
    value_of_pos = rng.permutation(l)
    return value_of_pos[positions], value_of_pos


def _numerical_column(rng, col: NumColumn, gen_cluster: np.ndarray, k: int) -> np.ndarray:
    centers = np.linspace(0.0, 1.0, num=k) if k > 1 else np.array([0.5])
    centers = rng.permutation(centers) * col.signal + 0.5 * (1.0 - col.signal)
    return rng.normal(centers[gen_cluster], col.noise)


def build_fixture(spec: FixtureSpec) -> tuple[list[list[str]], list[AttributeSchema]]:
    """Materialize a fixture as CSV rows (with header) plus its schema."""
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k
    labels = np.concatenate([np.full(sz, m) for m, sz in enumerate(spec.sizes)])

    # a coherent overlapping subpopulation: generated as a different cluster
    gen_cluster = labels.copy()
    if spec.confusion > 0 and k > 1:
        confused = rng.random(n) < spec.confusion
        shift = rng.integers(1, k, size=n)
        gen_cluster = np.where(confused, (labels + shift) % k, labels)

    columns = []  # (name, kind, literals per sample, declared order or None)
    for j, col in enumerate(spec.cats):
        values, value_of_pos = _categorical_column(rng, col, gen_cluster, k)
        # an object array, so each row cell refers to one of the column's few literal strings
        lits = np.array([f"v{v + 1}" for v in range(col.card)], dtype=object)
        declared = None
        if col.kind == "ordinal":
            by_line = lits[value_of_pos].tolist()
            declared = tuple(by_line if col.semantic_match else rng.permutation(by_line).tolist())
        columns.append((f"a{j + 1:02d}", col.kind, lits[values], declared))

    for j in range(spec.single_valued):
        columns.append((f"s{j + 1:02d}", "nominal", np.full(n, "only", dtype=object), None))
    rng.shuffle(columns)

    num_cols = [
        (f"x{j + 1:02d}", _numerical_column(rng, col, gen_cluster, k))
        for j, col in enumerate(spec.nums)
    ]

    perm = rng.permutation(n)
    header = [name for name, _, _, _ in columns] + [name for name, _ in num_cols] + ["class"]
    body = [vals[perm].tolist() for _, _, vals, _ in columns]
    body += [[f"{v:.6f}" for v in vals[perm].tolist()] for _, vals in num_cols]
    body.append(np.array([f"c{m + 1}" for m in range(k)], dtype=object)[labels[perm]].tolist())
    rows = [header] + [list(r) for r in zip(*body)]

    schema = [AttributeSchema(name, kind, declared) for name, kind, _, declared in columns]
    schema += [AttributeSchema(name, "numerical") for name, _ in num_cols]
    schema.append(AttributeSchema("class", "label"))
    return rows, schema


def write_fixture(spec: FixtureSpec, directory: str | Path) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows, schema = build_fixture(spec)
    csv_path = directory / f"{spec.name}.csv"
    schema_path = directory / f"{spec.name}.schema"
    csv_path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    lines = ["# name,kind[,ordered values...]"]
    lines += [",".join([col.name, col.kind, *(col.semantic_order or ())]) for col in schema]
    schema_path.write_text("\n".join(lines) + "\n")
    return csv_path, schema_path


def fixture_paths(name: str) -> tuple[Path, Path]:
    """Filesystem paths of a bundled fixture's CSV and schema."""
    if name not in FIXTURES:
        raise DataError(f"unknown fixture {name!r}; bundled: {', '.join(FIXTURES)}")
    root = resources.files("ordclust") / "fixtures"
    return Path(str(root / f"{name}.csv")), Path(str(root / f"{name}.schema"))


def load_fixture(name: str) -> Dataset:
    csv_path, schema_path = fixture_paths(name)
    return load_dataset(csv_path, schema_path)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    outdir = Path(args[0]) if args else Path("fixtures")
    for spec in FIXTURES.values():
        csv_path, _ = write_fixture(spec, outdir)
        print(f"wrote {csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
