"""Tests of the benchmark itself: seeded generation, failure counting and
span arithmetic.  Run with ``python3 -m pytest perfbench``."""

import argparse

import numpy as np

import run
import tracing
import workloads
from cmcsep import criteria, matlin, states


def test_generation_is_deterministic_per_seed():
    for make in (workloads.separable_input, workloads.detect_input):
        a, b, c = make(5, 7), make(5, 7), make(6, 7)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]
        assert not np.allclose(a[0], c[0])
    cb = workloads.Chessboard()
    cb.seed = 5
    first, again = cb.call(3), cb.call(3)
    assert first == again


def test_detect_files_are_deterministic(tmp_path):
    contents = []
    for _ in range(2):
        wl = workloads.Detect2q(tmp_path)
        wl.pool_size = 4
        wl.prepare(9)
        contents.append([open(p).read() for p, _ in wl.files])
        wl.close()
    assert contents[0] == contents[1]
    assert not list(tmp_path.iterdir())


def test_planted_entangled_state_is_counted_as_failed():
    wl = workloads.SeparableSweep()
    wl.pool_size = 4
    phi = np.zeros(6, dtype=complex)
    phi[0] = phi[4] = 1 / np.sqrt(2)  # |00> + |11> inside 2 x 3
    entangled = 0.9 * states.projector(phi) + 0.1 * np.eye(6) / 6
    wl.pool = [(entangled, (2, 3))] + [
        workloads.separable_input(1, 2 * i) for i in range(3)]
    args = argparse.Namespace(seconds=1e-3, trace=0, workload=wl.name, seed=1)
    result = run.measure(args, wl)
    assert result["attempted"] == run.MIN_STATES
    assert result["failed"] == run.MIN_STATES // 4
    assert result["record"]["failed_frac"] == 0.25
    assert result["record"]["failures"][0]["state"] == 0


def test_checks_reject_broken_invariants():
    rows = [(0, name, 0.0, name == "de-vicente")
            for name in workloads.cli.BENCHMARK_CRITERIA]
    assert workloads.check_chessboard(rows) == [
        "de-vicente detects but cmc-sv does not"]
    doc = [{"name": "ppt", "status": "ok", "detected": False},
           {"name": "cmc_filter", "status": "ok", "detected": False},
           {"name": "cmc_sdp_2q", "status": "ok", "detected": True,
            "details": {"lur_value": 0.5, "witness_value": 0.5}}]
    assert workloads.check_detect_2q(doc, separable=True) == [
        "SDP detects a PPT state", "cmc_sdp_2q flags a separable state"]


def test_self_times_on_synthetic_tree():
    spans = [
        ("state", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("state", 20.0, 30.0, -1, 1),
        ("c", 21.0, 25.0, 4, 1),    # c and d overlap on [23, 25]
        ("d", 23.0, 27.0, 4, 1),
        ("e", 29.0, 31.0, 4, 1),    # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 3.0, 4.0, 4.0, 2.0]


def test_tracer_rebinds_direct_imports_and_restores_them():
    tracer = tracing.Tracer()
    rho = states.random_separable(2, 3, n_terms=5, rng=np.random.default_rng(0))
    # looked up at call time, as the workloads do, so the wrapper is seen
    verdicts = tracer.run(0, lambda: criteria.run_all(rho, (2, 3)))
    assert criteria.hermitize is matlin.hermitize
    assert not hasattr(criteria.hermitize, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names.count("criteria.run_all") == 1
    assert len(verdicts) == 7
    # hermitize is imported into criteria directly and still traced there
    ppt_idx = names.index("criteria.ppt")
    assert any(s[0] == "matlin.hermitize" and s[3] == ppt_idx
               for s in tracer.spans)
    assert tracer.spans[ppt_idx][3] == names.index("criteria.run_all")
    assert len(tracer.sweeps) == 1
    metrics = {k: v for k, (v, _) in
               tracing.layer_metrics(tracer, [0.01], 0.0, 0).items()}
    total = metrics["trace.self_sum_ms_per_state"] + metrics[
        "trace.harness_self_ms_per_state"]
    assert abs(total - metrics["trace.traced_ms_per_state"]) < 1e-9
    assert metrics["trace.untraced_ms_per_state"] == 10.0
