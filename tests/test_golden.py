"""Golden behaviour lock: fixed fits must reproduce their recorded results bit for bit.

Every entry of ``golden/fits.json`` records one fit's partition digest, learned
ranks, best objective (``float.hex``), a digest of the objective trajectory,
the inner iteration counts and the accepted order updates. A change that
claims "same behaviour" leaves the file byte-identical. Regenerate it only
for an intended behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from ordclust import cli, cluster, fixtures
from ordclust.data import synthesize

GOLDEN = Path(__file__).parent / "golden" / "fits.json"
SEEDS = range(10)
FIXTURE_METHODS = ("main", "mode_dist", "single_update", "hamming", "kmd")
MIXED_METHODS = ("mixed", "kpt")
ORDINAL_VARIANTS = {
    "semantic": {"order_mode": "semantic"},
    "preserve_ordinal": {"ordinal_policy": "preserve_ordinal"},
    "random_partition": {"init": "random_partition"},
}
ORDINAL_SEEDS = range(5)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def record(part, orders, trace) -> dict:
    ranks = None
    if orders is not None:
        ranks = [None if r is None else [int(v) for v in r] for r in orders.ranks]
    values = ",".join(float(v).hex() for v in trace.objective_values)
    return {
        "partition": _digest(part.assign.astype("<i4").tobytes()),
        "ranks": ranks,
        "best_objective": float(trace.best_objective).hex(),
        "objective_values": _digest(values.encode()),
        "inner_counts": [int(c) for c in trace.inner_counts],
        "accepted_order_updates": int(trace.accepted_order_updates),
    }


def compute() -> dict:
    out = {}
    datasets = {name: fixtures.load_fixture(name) for name in fixtures.SMALL_FIXTURES + ("AC",)}
    for name in fixtures.SMALL_FIXTURES:
        d, k = datasets[name], fixtures.FIXTURES[name].k
        for meth in FIXTURE_METHODS:
            for seed in SEEDS:
                out[f"{name}/{meth}/{seed}"] = record(*cli._run_method(d, meth, k, seed))
        if not any(kind == "ordinal" for kind in d.cat_kinds):
            continue
        for variant, kwargs in ORDINAL_VARIANTS.items():
            for seed in ORDINAL_SEEDS:
                res = cluster.fit(d, cluster.FitConfig(k=k, seed=seed, **kwargs))
                out[f"{name}/{variant}/{seed}"] = record(*res)
    d, k = datasets["AC"], fixtures.FIXTURES["AC"].k
    for meth in MIXED_METHODS:
        for seed in SEEDS:
            out[f"AC/{meth}/{seed}"] = record(*cli._run_method(d, meth, k, seed))
    d = synthesize(20_000, 20, 5, 5, seed=0, planted_labels=True)
    res = cluster.fit(d, cluster.FitConfig(k=5, seed=0, max_outer=2, max_inner=30))
    out["uniform_20k/main/0"] = record(*res)
    return out


def dumps(entries: dict) -> str:
    """One entry per line, keys sorted, so a changed fit shows as one changed line."""
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}" for key in sorted(entries)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_golden_fits_unchanged():
    expected = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(expected)
    changed = [key for key in sorted(got) if got[key] != expected[key]]
    assert not changed, f"{len(changed)} fits changed, first: {changed[:5]}"
    assert dumps(got) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps(compute()))
    print(f"wrote {GOLDEN}", file=sys.stderr)
