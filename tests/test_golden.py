"""Golden behaviour lock: fixed fits must reproduce their recorded results bit for bit.

Every entry of ``golden/fits.json`` records one fit's partition digest, learned
ranks, best objective (``float.hex``), a digest of the objective trajectory,
a digest of the start objective and the segment baselines, the inner iteration
counts, the refresh iterations, the epochs, the accepted order updates and
whether the fit converged. A slice of fits runs under tight iteration caps, so
capped traces are locked too. A change that claims "same behaviour" leaves the
file byte-identical. Regenerate it only for an intended behaviour change, and
say so in the change log:

    PYTHONPATH=src python tests/test_golden.py

Before it overwrites the file, the script prints how many entries change
against the recorded ones and how many change in each field.

The records must not depend on the BLAS kernel numpy dispatches to: a slice
of them is recomputed in a subprocess forced onto an older OpenBLAS kernel.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ordclust import cli, cluster, fixtures
from ordclust.data import synthesize

GOLDEN = Path(__file__).parent / "golden" / "fits.json"
SEEDS = range(10)
FIXTURE_METHODS = ("main", "mode_dist", "single_update", "hamming")  # keys of cli.FIT_METHODS
ORDINAL_VARIANTS = {
    "semantic": {"order_mode": "semantic"},
    "preserve_ordinal": {"ordinal_policy": "preserve_ordinal"},
    "random_partition": {"init": "random_partition"},
}
ORDINAL_SEEDS = range(5)
CAPPED_SEEDS = range(5)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def record(part, orders, trace) -> dict:
    ranks = None
    if orders is not None:
        ranks = [None if r is None else [int(v) for v in r] for r in orders.ranks]
    values = ",".join(float(v).hex() for v in trace.objective_values)
    baselines = ",".join(float(v).hex() for v in [trace.init_objective, *trace.epoch_baselines])
    return {
        "partition": _digest(part.assign.astype("<i4").tobytes()),
        "ranks": ranks,
        "best_objective": float(trace.best_objective).hex(),
        "objective_values": _digest(values.encode()),
        "baselines": _digest(baselines.encode()),
        "inner_counts": [int(c) for c in trace.inner_counts],
        "order_update_iterations": [int(i) for i in trace.order_update_iterations],
        "epochs": int(trace.epochs),
        "accepted_order_updates": int(trace.accepted_order_updates),
        "converged": bool(trace.converged),
    }


def main_fits(name: str, d, methods=FIXTURE_METHODS, seeds=SEEDS, **caps) -> dict:
    """Records of every fit of fixture ``name`` (loaded as ``d``) by ``methods`` over ``seeds``.

    ``caps`` are ``FitConfig`` iteration caps set on every fit and named in the keys.
    """
    tag = "".join(f"@{cap}={value}" for cap, value in caps.items())
    # Seed-major, as the bench and ablate commands fit, so the fits of a seed share their start.
    k = fixtures.FIXTURES[name].k
    fits = cluster.fit_many(d, [cluster.FitConfig(k=k, seed=seed, **cli.FIT_METHODS[meth], **caps)
                                for seed in seeds for meth in methods])
    return {f"{name}/{meth}{tag}/{seed}": record(*next(fits)) for seed in seeds for meth in methods}


def compute() -> dict:
    out = {}
    datasets = {name: fixtures.load_fixture(name) for name in fixtures.SMALL_FIXTURES + ("AC",)}
    for name in fixtures.SMALL_FIXTURES:
        d, k = datasets[name], fixtures.FIXTURES[name].k
        out.update(main_fits(name, d))
        for seed in SEEDS:
            part, trace = cluster.fit_kmodes(d, k, seed=seed)
            out[f"{name}/kmd/{seed}"] = record(part, None, trace)
        if all(ranks is None for ranks in d.semantic_ranks):
            continue
        for variant, kwargs in ORDINAL_VARIANTS.items():
            for seed in ORDINAL_SEEDS:
                res = cluster.fit(d, cluster.FitConfig(k=k, seed=seed, **kwargs))
                out[f"{name}/{variant}/{seed}"] = record(*res)
    out.update(main_fits("HR", datasets["HR"], ("main",), CAPPED_SEEDS, max_outer=1))
    # HR, not SB: from the k-modes start every SB segment stops at its first step, so no SB fit hits max_inner=1
    out.update(main_fits("HR", datasets["HR"], FIXTURE_METHODS, CAPPED_SEEDS, max_inner=1))
    d, k = datasets["AC"], fixtures.FIXTURES["AC"].k
    for seed in SEEDS:
        out[f"AC/mixed/{seed}"] = record(*cluster.fit_mixed(d, cluster.FitConfig(k=k, seed=seed)))
        part, trace = cluster.fit_kprototypes(d, k, seed=seed)
        out[f"AC/kpt/{seed}"] = record(part, None, trace)
    d = synthesize(20_000, 20, 5, 5, seed=0, planted_labels=True)
    res = cluster.fit(d, cluster.FitConfig(k=5, seed=0, max_outer=2, max_inner=30))
    out["uniform_20k/main/0"] = record(*res)
    return out


def dumps(entries: dict) -> str:
    """One entry per line, keys sorted, so a changed fit shows as one changed line."""
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}" for key in sorted(entries)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def changes(old: dict, new: dict) -> tuple[list, Counter]:
    """Keys whose entry differs between ``old`` and ``new``, and per field the number of changed entries."""
    changed = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    fields = Counter()
    for key in changed:
        a, b = old.get(key, {}), new.get(key, {})
        fields.update(field for field in a.keys() | b.keys() if a.get(field) != b.get(field))
    return changed, fields


def test_changes_counts_entries_and_fields():
    same, moved = {"partition": "p", "ranks": [1]}, {"partition": "q", "ranks": [1]}
    changed, fields = changes({"a": same, "b": same, "gone": same}, {"a": same, "b": moved, "added": same})
    assert changed == ["added", "b", "gone"]
    # b changed its partition only; an added or dropped entry counts in every field
    assert fields == {"partition": 3, "ranks": 2}


def test_golden_fits_unchanged():
    expected = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(expected)
    changed, fields = changes(expected, got)
    assert not changed, f"{len(changed)} fits changed ({dict(fields)}), first: {changed[:5]}"
    assert dumps(got) == GOLDEN.read_text()


def blas_core() -> str | None:
    """The kernel name numpy's bundled OpenBLAS reports, or None without that library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


KERNEL_SLICE = ("HR", "VT", "ZO", "TT")
SLICE_SCRIPT = "import json, test_golden; print(json.dumps([test_golden.blas_core(), test_golden.kernel_slice()]))"


def kernel_slice() -> dict:
    """``main_fits`` records of the ``KERNEL_SLICE`` fixtures."""
    records = {}
    for name in KERNEL_SLICE:
        records.update(main_fits(name, fixtures.load_fixture(name)))
    return records


def test_records_do_not_depend_on_the_blas_kernel():
    # Prescott has no FMA and rounds float products differently from the default kernel;
    # a test run already forced onto Prescott checks Sandybridge instead
    if blas_core() is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    forced = "Sandybridge" if os.environ.get("OPENBLAS_CORETYPE", "").lower() == "prescott" else "Prescott"
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(cli.__file__).parent.parent),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_CORETYPE=forced, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", SLICE_SCRIPT], env=env, capture_output=True, text=True,
                         check=True, timeout=600)
    core, records = json.loads(out.stdout)
    assert core != blas_core()  # two kernels, not the same one twice
    changed, fields = changes(kernel_slice(), records)
    assert not changed, f"{len(changed)} fits changed ({dict(fields)}), first: {changed[:5]}"


if __name__ == "__main__":
    got = compute()
    if GOLDEN.exists():
        changed, fields = changes(json.loads(GOLDEN.read_text()), got)
        print(f"{len(changed)} of {len(got)} entries change", file=sys.stderr)
        for field, count in sorted(fields.items()):
            print(f"  {field}: {count}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps(got))
    print(f"wrote {GOLDEN}", file=sys.stderr)
