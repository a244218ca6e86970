"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line (always visible, even
under pytest capture) and then asserts. Thresholds are fixed here; nothing is
deferred to later calibration.
"""

import numpy as np
import pytest

import conftest
from ordclust import cli, cluster, evaluate, oracle, order
from ordclust.cluster import FitConfig
from ordclust.data import synthesize
from ordclust.fixtures import SMALL_FIXTURES, load_fixture

SEEDS = list(range(10))
FIXTURE_K = {
    "SB": 4, "HR": 3, "VT": 2, "ZO": 7, "CS": 2,
    "DS": 2, "TT": 2, "LG": 4, "BC": 2, "AP": 2, "AC": 2,
}


def emit(num, ok, detail):
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def fit_stats(d, k, ablation="full"):
    cas, aris, results = [], [], []
    for seed in SEEDS:
        res = cluster.fit(d, FitConfig(k=k, seed=seed, ablation=ablation))
        results.append(res)
        cas.append(evaluate.clustering_accuracy(res.partition, d.labels))
        aris.append(evaluate.adjusted_rand_index(res.partition, d.labels))
    return np.array(cas), np.array(aris), results


@pytest.fixture(scope="module")
def datasets():
    return {name: load_fixture(name) for name in SMALL_FIXTURES + ("AC",)}


@pytest.fixture(scope="module")
def ocl_sweep(datasets):
    return {name: fit_stats(d, FIXTURE_K[name]) for name, d in datasets.items()}


def test_criterion_1_sb_reproduction(datasets, ocl_sweep):
    cas, aris, results = ocl_sweep["SB"]
    total_time = sum(r.trace.wall_time for r in results)
    ok = cas.mean() >= 0.90 and aris.mean() >= 0.85 and total_time < 10.0
    emit(1, ok, f"SB mean CA {cas.mean():.4f} (>=0.90), mean ARI {aris.mean():.4f} "
                f"(>=0.85), total time {total_time:.2f}s (<10s)")


def test_criterion_2_hr_reproduction(datasets, ocl_sweep):
    cas, _, _ = ocl_sweep["HR"]
    d = datasets["HR"]
    kmd = np.array([
        evaluate.clustering_accuracy(cluster.fit_kmodes(d, 3, seed=s)[0], d.labels)
        for s in SEEDS
    ])
    ok = cas.mean() >= 0.40 and 0.34 <= kmd.mean() <= 0.42
    emit(2, ok, f"HR mean CA {cas.mean():.4f} (>=0.40), baseline mean CA "
                f"{kmd.mean():.4f} (in [0.34, 0.42])")


def test_criterion_3_vt_reproduction(ocl_sweep):
    cas, _, _ = ocl_sweep["VT"]
    std = cas.std(ddof=1)
    ok = cas.mean() >= 0.87 and std <= 0.02
    emit(3, ok, f"VT mean CA {cas.mean():.4f} (>=0.87), per-seed std {std:.4f} (<=0.02)")


def test_criterion_4_ablation_trend(datasets, ocl_sweep):
    wins = 0
    rows = []
    for name in SMALL_FIXTURES:
        d = datasets[name]
        k = FIXTURE_K[name]
        ocl_ca = ocl_sweep[name][0].mean()
        ca2 = fit_stats(d, k, "single_order_update")[0].mean()
        ca3 = fit_stats(d, k, "hamming_only")[0].mean()
        both = ocl_ca >= ca3 and ocl_ca >= ca2
        wins += both
        rows.append(f"{name}:{'Y' if both else 'n'}")
    ok = wins >= 7
    emit(4, ok, f"full fit >= both ablations on {wins}/10 fixtures (need >=7): "
                + " ".join(rows))


def test_criterion_5_order_demo_on_hr(datasets):
    d = datasets["HR"]
    wo = np.array([
        evaluate.clustering_accuracy(cluster.fit_fixed_order(d, 3, None, seed=s).partition, d.labels)
        for s in range(100)
    ])
    so_orders = order.semantic_orders(d)
    so = np.array([
        evaluate.clustering_accuracy(cluster.fit_fixed_order(d, 3, so_orders, seed=s).partition, d.labels)
        for s in range(100)
    ])
    rng = np.random.default_rng(1234)
    ro_max = 0.0
    for j in range(1000):
        draw = order.random_orders(d, rng)
        ca = evaluate.clustering_accuracy(
            cluster.fit_fixed_order(d, 3, draw, seed=j).partition, d.labels
        )
        ro_max = max(ro_max, ca)
    ok = ro_max > so.mean() and ro_max > wo.mean()
    emit(5, ok, f"HR random-order max {ro_max:.4f} over 1000 draws exceeds "
                f"semantic mean {so.mean():.4f} and no-order mean {wo.mean():.4f}")


def _check_trace(trace):
    """Strict descent inside segments and across accepted epochs."""
    if not trace.converged:
        return False, "fit tripped an iteration cap"
    start = 0
    finals = []
    for count, base in zip(trace.inner_counts, trace.epoch_baselines):
        seg = trace.objective_values[start:start + count]
        vals = [base] + seg
        for prev, cur in zip(vals, vals[1:-1]):
            if cur >= prev:
                return False, f"non-decreasing accepted step: {prev} -> {cur}"
        finals.append(vals[-2] if len(vals) >= 2 else vals[-1])
        start += count
    prev = trace.init_objective
    for e in range(trace.accepted_order_updates):
        if finals[e] >= prev:
            return False, f"accepted epoch failed to improve: {prev} -> {finals[e]}"
        prev = finals[e]
    return True, ""


def test_criterion_6_convergence_invariants(datasets, ocl_sweep):
    problems = []
    bounded = {"SB", "HR", "ZO"}
    for name in SMALL_FIXTURES + ("AC",):
        _, _, results = ocl_sweep[name]
        for seed, res in zip(SEEDS, results):
            ok, msg = _check_trace(res.trace)
            if not ok:
                problems.append(f"{name}/seed{seed}: {msg}")
            if name in bounded:
                if res.trace.total_inner_iterations > 40:
                    problems.append(f"{name}/seed{seed}: {res.trace.total_inner_iterations} iterations")
                if res.trace.accepted_order_updates > 3:
                    problems.append(f"{name}/seed{seed}: {res.trace.accepted_order_updates} order updates")
    ok = not problems
    emit(6, ok, "descent/termination hold on all fixtures; "
                "SB/HR/ZO within 40 iterations and 3 order updates"
                + ("" if ok else "; problems: " + "; ".join(problems[:4])))


def test_criterion_7_oracle_equivalence():
    results = oracle.verify_suite(rounds=200, seed=7)
    bad = [name for name, ok, _ in results if not ok]
    details = {name: detail for name, ok, detail in results}
    ok = not bad
    emit(7, ok, "objective/score/placement oracles agree on 200 random instances"
                + (f" ({details['objective vs termwise evaluation']})" if ok
                   else f"; failing: {bad}"))


def test_criterion_8_binary_collapse():
    d = synthesize(200, 6, 3, values_per_attribute=2, seed=88, planted_labels=True)
    mismatches = []
    for seed in SEEDS:
        full = cluster.fit(d, FitConfig(k=3, seed=seed))
        hamming = cluster.fit(d, FitConfig(k=3, seed=seed, ablation="hamming_only"))
        ca_full = evaluate.clustering_accuracy(full.partition, d.labels)
        ca_hamming = evaluate.clustering_accuracy(hamming.partition, d.labels)
        if ca_full != ca_hamming:
            mismatches.append(seed)
        start = order.dictionary_orders(d)
        for r in range(d.s_categorical):
            if full.orders.ranks[r].tolist() != start.ranks[r].tolist():
                mismatches.append(f"seed {seed} changed orders")
    ok = not mismatches
    emit(8, ok, "all-binary data: per-seed accuracy identical with and without order "
                "machinery, and order learning is a no-op"
                + ("" if ok else f"; mismatches: {mismatches}"))


def test_criterion_9_mixed_enhancement(datasets):
    d = datasets["AC"]
    kms = np.array([
        evaluate.clustering_accuracy(
            cluster.fit_mixed(d, FitConfig(k=2, seed=s)).partition, d.labels)
        for s in SEEDS
    ])
    kpt = np.array([
        evaluate.clustering_accuracy(cluster.fit_kprototypes(d, 2, seed=s)[0], d.labels)
        for s in SEEDS
    ])
    delta = kms.mean() - kpt.mean()
    ok = delta >= 0.02
    emit(9, ok, f"AC mixed pipeline mean CA {kms.mean():.4f} vs prototype baseline "
                f"{kpt.mean():.4f}, margin {delta:+.4f} (>= 0.02)")


def test_criterion_10_efficiency_shape():
    rows = cli.efficiency_bench("n", [50_000, 100_000], s=20, k=5, seed=0)
    t50, t100 = rows[0].wall_time, rows[1].wall_time
    ratio = t100 / t50
    ok = 1.5 <= ratio <= 3.0 and t100 < 300.0
    emit(10, ok, f"doubling n: 50k {t50:.2f}s -> 100k {t100:.2f}s, ratio {ratio:.2f} "
                 f"(in [1.5, 3.0]); 100k run {t100:.2f}s (< 300s)")
