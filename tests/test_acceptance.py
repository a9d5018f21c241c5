"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the full suite takes on the order of ten minutes, dominated by the
two 10^4-sample ensembles.  Worker count follows CMCSEP_THREADS.
"""

import multiprocessing
import time

import numpy as np
import pytest

from cmcsep import covariance, criteria, filtering, matlin, states
from cmcsep.cli import (BENCHMARK_CRITERIA, _worker_count, bisect_threshold,
                        fig1_scan, run_benchmark)
from cmcsep.observables import standard_basis
from cmcsep.schmidt import operator_schmidt

BENCH_SEED = 1
BENCH_N = 10000
SOUND_N = 10000


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_acceptance_1_upb_thresholds():
    """Bisection reproduces the six UPB detection onsets to 5e-4 within
    two minutes."""
    expected = {
        "cmc-filter": 0.8723,
        "cmc-sv": 0.8822,
        "cmc-trace": 0.8822,
        "cmc-schmidt": 0.8834,
        "ccnr": 0.8897,
        "de-vicente": 0.9493,
    }
    start = time.perf_counter()
    found = {name: bisect_threshold("upb", name, 0.0, 1.0, tol=1e-4)
             for name in expected}
    elapsed = time.perf_counter() - start
    devs = {name: abs(found[name] - expected[name]) for name in expected}
    ok = all(d <= 5e-4 for d in devs.values()) and elapsed < 120.0
    detail = ", ".join(f"{n}={found[n]:.4f}" for n in expected)
    _report(1, "UPB thresholds", ok, f"{detail}; {elapsed:.1f}s")


# ------------------------------------------------------- criteria 2 and 7

@pytest.fixture(scope="module")
def chessboard_rows():
    rows, fractions = run_benchmark(BENCH_N, BENCH_SEED,
                                    list(BENCHMARK_CRITERIA))
    return rows, fractions


def test_acceptance_2_chessboard_fractions(chessboard_rows):
    """Detection fractions on the seeded chessboard ensemble match the
    reference values to 1.5 percentage points."""
    _, fractions = chessboard_rows
    expected = {
        "cmc-filter": 0.9886,
        "cmc-sv": 0.2257,
        "cmc-trace": 0.2200,
        "cmc-schmidt": 0.2000,
        "ccnr": 0.1952,
        "de-vicente": 0.0857,
    }
    devs = {k: abs(fractions[k] - v) for k, v in expected.items()}
    ok = all(d <= 0.015 for d in devs.values())
    detail = ", ".join(f"{k}={100 * fractions[k]:.2f}%" for k in expected)
    _report(2, "chessboard fractions", ok, detail)


def test_acceptance_7_hierarchy(chessboard_rows):
    """Implications between criteria hold sample by sample: de Vicente and
    diagonal-trace detections imply the singular-value test, CCNR implies
    the Schmidt test."""
    rows, _ = chessboard_rows
    det = {}
    for index, cname, _, flagged in rows:
        det.setdefault(index, {})[cname] = flagged
    violations = 0
    for flags in det.values():
        if flags["de-vicente"] and not flags["cmc-sv"]:
            violations += 1
        if flags["cmc-trace"] and not flags["cmc-sv"]:
            violations += 1
        if flags["ccnr"] and not flags["cmc-schmidt"]:
            violations += 1
    _report(7, "criterion hierarchy", violations == 0,
            f"{violations} counterexamples in {len(det)} states")


# ---------------------------------------------------------------- criterion 3

def _filter_vs_ppt(index: int) -> bool:
    rng = np.random.default_rng([811, index])
    rho = states.random_density(4, rng=rng)
    return (criteria.cmc_filter(rho, (2, 2)).detected
            == criteria.ppt(rho, (2, 2)).detected)


def test_acceptance_3_two_qubit_necessary_sufficient():
    """Filter-CMC agrees with partial transposition on every full-rank
    two-qubit sample, and the Werner onset sits at p = 1/3."""
    with multiprocessing.Pool(_worker_count()) as pool:
        agree = pool.map(_filter_vs_ppt, range(1000), chunksize=50)
    n_agree = sum(agree)

    p_star = bisect_threshold("werner", "cmc-filter", 0.0, 1.0, tol=2e-4)
    crossing_ok = abs(p_star - 1.0 / 3.0) <= 1e-3
    ok = n_agree == 1000 and crossing_ok
    _report(3, "two-qubit filter-CMC = PPT", ok,
            f"agreement {n_agree}/1000, werner crossing {p_star:.4f}")


# ---------------------------------------------------------------- criterion 4

def test_acceptance_4_sdp_lur_chain():
    """SDP verdict, witness value, and extracted uncertainty relation agree
    on 200 random states with every duality gap below 1e-8."""
    mismatches = []
    max_gap = 0.0
    max_lur_dev = 0.0
    for i in range(200):
        rng = np.random.default_rng([812, i])
        rho = states.random_density(4, rng=rng)
        v = criteria.cmc_sdp_2q(rho)
        if v.status != "ok":
            mismatches.append(f"solver failure at {i}")
            continue
        d = v.details
        max_gap = max(max_gap, abs(d["gap"]))
        if v.detected != (d["witness_value"] < 1.0 - 1e-7):
            mismatches.append(f"witness mismatch at {i}")
        if v.detected:
            max_lur_dev = max(max_lur_dev,
                              abs(d["lur_value"] - d["witness_value"]))
    ok = not mismatches and max_gap <= 1e-8 and max_lur_dev <= 1e-7
    _report(4, "SDP/LUR chain", ok,
            f"max gap {max_gap:.2e}, max LUR dev {max_lur_dev:.2e}, "
            f"{len(mismatches)} mismatches")


# ---------------------------------------------------------------- criterion 5

def _soundness_chunk(task) -> tuple[int, float]:
    da, db, lo, hi = task
    hits = 0
    worst = -np.inf
    for i in range(lo, hi):
        rng = np.random.default_rng([813, da, db, i])
        n_terms = int(rng.integers(4, 16))
        rho = states.random_separable(da, db, n_terms=n_terms, rng=rng)
        for v in criteria.run_all(rho, (da, db)):
            if v.status != "ok":
                hits += 1
                continue
            worst = max(worst, v.margin)
            if v.detected:
                hits += 1
    return hits, worst


def test_acceptance_5_soundness():
    """No criterion flags any of 10^4 explicit separable mixtures per
    dimension pair."""
    total_hits = 0
    worst = {}
    chunk = 250
    for da, db in ((2, 2), (2, 3), (3, 3)):
        tasks = [(da, db, lo, min(lo + chunk, SOUND_N))
                 for lo in range(0, SOUND_N, chunk)]
        with multiprocessing.Pool(_worker_count()) as pool:
            results = pool.map(_soundness_chunk, tasks)
        total_hits += sum(h for h, _ in results)
        worst[(da, db)] = max(w for _, w in results)
    detail = ", ".join(f"{k}: worst margin {v:.2e}" for k, v in worst.items())
    _report(5, "separable soundness", total_hits == 0,
            f"{total_hits} detections; {detail}")


# ---------------------------------------------------------------- criterion 6

def test_acceptance_6_structural_invariants():
    """Trace identity, pure-state projector property, mixing concavity, and
    the Schmidt/realignment spectrum match."""
    rng = np.random.default_rng(814)
    basis3 = standard_basis(3)

    max_trace_dev = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        rho = states.random_density(d, rng=rng)
        cm = covariance.build_cm(rho, standard_basis(d), kind="nonsymmetric")
        purity = float(np.real(np.trace(rho @ rho)))
        max_trace_dev = max(max_trace_dev,
                            abs(np.real(np.trace(cm)) - (d - purity)))

    max_idem = 0.0
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        cm = covariance.build_cm(np.outer(v, v.conj()), standard_basis(4),
                                 kind="nonsymmetric")
        max_idem = max(max_idem, float(np.linalg.norm(cm @ cm - cm)))

    min_concavity = np.inf
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        rhos = [states.random_density(3, rng=rng) for _ in range(k)]
        p = rng.exponential(size=k)
        p /= p.sum()
        min_concavity = min(min_concavity,
                            covariance.concavity_check(rhos, p, basis3))

    max_schmidt_dev = 0.0
    for _ in range(1000):
        rho = states.random_density(6, rng=rng)
        dec = operator_schmidt(rho, 2, 3)
        sv = np.linalg.svd(matlin.realign(rho, (2, 3)), compute_uv=False)
        max_schmidt_dev = max(max_schmidt_dev, float(
            np.max(np.abs(dec.lambdas - sv[: len(dec.lambdas)]))))

    ok = (max_trace_dev <= 1e-10 and max_idem <= 1e-8
          and min_concavity >= -1e-9 and max_schmidt_dev <= 1e-10)
    _report(6, "structural invariants", ok,
            f"trace dev {max_trace_dev:.2e}, idempotency {max_idem:.2e}, "
            f"concavity min {min_concavity:.2e}, schmidt dev "
            f"{max_schmidt_dev:.2e}")


# ---------------------------------------------------------------- criterion 8

def test_acceptance_8_filtering_performance():
    """Full-rank 3x3 normal forms converge at tol 1e-10 in under a second
    each with a non-increasing objective."""
    rng = np.random.default_rng(815)
    slowest = 0.0
    all_ok = True
    for _ in range(25):
        rho = states.random_density(9, rng=rng)
        start = time.perf_counter()
        nf = filtering.normal_form(rho, (3, 3), tol=1e-10)
        slowest = max(slowest, time.perf_counter() - start)
        monotone = bool(np.all(np.diff(nf.f_history) <= 1e-12))
        all_ok = all_ok and nf.converged and monotone and slowest < 1.0
    _report(8, "filtering performance", all_ok,
            f"slowest {slowest * 1000:.0f} ms over 25 states")


# ---------------------------------------------------------------- criterion 9

def test_acceptance_9_bloch_inversion_grid():
    """The (epsilon, r) scan shows all three regions and the epsilon = 1,
    t = 0 line stays PPT-positive."""
    rows = fig1_scan(0.005)
    regions = {region for _, _, region in rows}
    line_ok = all(
        not criteria.ppt(states.rho_epsilon(1.0, r, 0.45, 0.0), (2, 2)).detected
        for r in np.linspace(0.0, 0.45, 46))
    ok = regions == {"Same", "Different", "NotAState"} and line_ok
    counts = {reg: sum(1 for _, _, x in rows if x == reg) for reg in sorted(regions)}
    _report(9, "Bloch-inversion grid", ok, f"regions {counts}, PPT line ok={line_ok}")
