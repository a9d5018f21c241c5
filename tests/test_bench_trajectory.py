"""Tests for the BENCH trajectory summarizer on synthetic run outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)

HOST = {"nproc": 2, "affinity_cpus": 2, "python": "3.11.7", "numpy": "2.4.6",
        "blas": "openblas 0.3", "threads": {"OPENBLAS_NUM_THREADS": "1"},
        "host_note": "test host"}


def write_run(path, workload, seed, commit, setup_s, digest="d0", failed=0,
              seconds=40.0, trace=0, rss=40.0):
    """What perfbench/run.py prints for one run, behind a line of noise."""
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "failed": failed, "verdict_digest": digest,
              "provenance": {**HOST, "seed": seed, "git_commit": commit}}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed,
              "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    path.write_text("warming up {not json}\n" + json.dumps({"record": record})
                    + "\n" + json.dumps(result) + "\n")
    return str(path)


def test_summary_of_paired_runs(tmp_path):
    parent, change = [], []
    for seed, (p, c) in zip((1, 2, 3), ((1.0, 0.3), (2.0, 0.2), (0.9, 1.2))):
        parent.append(write_run(tmp_path / f"p{seed}", "sweep", seed, "aaa", p))
        change.append(write_run(tmp_path / f"c{seed}", "sweep", seed, "bbb", c,
                                failed=seed == 3))
    out = tmp_path / "BENCH_t.json"
    argv = ["--label", "t", "--parent", *parent, "--change", *change]
    assert bench_trajectory.main([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "t"
    assert doc["commits"] == {"parent": "aaa", "change": "bbb"}
    assert doc["host"]["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1"}
    sweep = doc["workloads"]["sweep"]
    assert sweep["seeds"] == [1, 2, 3]
    assert sweep["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 1]}
    assert sweep["verdict_digests_match"]
    setup = sweep["metrics"]["setup_s"]
    assert setup["parent"] == {"median": 1.0, "q1": 0.95, "q3": 1.5,
                               "min": 0.9, "max": 2.0, "n": 3}
    assert setup["change"]["median"] == 0.3
    assert setup["delta_median"] == pytest.approx(-0.7)
    assert (setup["change_lower_pairs"], setup["pairs"]) == (2, 3)
    # the gate is BENCHMARK.json's
    assert (setup["better"], setup["bound"]) == ("lower", 0.25)
    assert setup["within_bound"] and not setup["gain_shown"]
    rss = sweep["metrics"]["peak_rss_mb"]
    assert rss["change_lower_pairs"] == 0
    assert (rss["bound"], rss["within_bound"], rss["gain_shown"]) == \
        (0.1, True, False)


def test_same_commit_and_digest_mismatch(tmp_path):
    runs = {"parent": [bench_trajectory.read_run(
                write_run(tmp_path / "p", "w", 5, "aaa", 1.0))],
            "change": [bench_trajectory.read_run(
                write_run(tmp_path / "c", "w", 5, "aaa", 1.0, digest="d1"))]}
    doc = bench_trajectory.summarize(runs, {})
    assert doc["commits"]["change"] == "uncommitted working tree over aaa"
    assert not doc["workloads"]["w"]["verdict_digests_match"]
    setup = doc["workloads"]["w"]["metrics"]["setup_s"]
    assert setup["parent"]["q1"] == 1.0
    assert "within_bound" not in setup  # not gated


def _judged(tmp_path, pairs, gate=(("setup_s", ("lower", 0.25)),),
            failed=None):
    """setup_s and peak_rss_mb of same-seed (parent, change) value pairs,
    with (parent, change) failure counts per pair (none by default)."""
    runs = {"parent": [], "change": []}
    failed = failed or [(0, 0)] * len(pairs)
    for seed, (((p, c), (prss, crss)), (pf, cf)) in enumerate(
            zip(pairs, failed, strict=True)):
        runs["parent"].append(bench_trajectory.read_run(
            write_run(tmp_path / f"p{seed}", "w", seed, "aaa", p, rss=prss,
                      failed=pf)))
        runs["change"].append(bench_trajectory.read_run(
            write_run(tmp_path / f"c{seed}", "w", seed, "bbb", c, rss=crss,
                      failed=cf)))
    return bench_trajectory.summarize(runs, dict(gate))["workloads"]["w"]["metrics"]


def test_gate_flags_a_regression(tmp_path):
    # setup_s +30% against a 25% bound; peak_rss_mb, better higher here,
    # -5% against a 10% bound
    metrics = _judged(tmp_path, [((1.0, 1.3), (40.0, 38.0)),
                                 ((1.1, 1.4), (40.0, 38.0)),
                                 ((0.9, 1.2), (40.0, 38.0))],
                      gate=(("setup_s", ("lower", 0.25)),
                            ("peak_rss_mb", ("higher", 0.1))))
    assert not metrics["setup_s"]["within_bound"]
    assert not metrics["setup_s"]["gain_shown"]
    assert metrics["peak_rss_mb"]["within_bound"]
    assert not metrics["peak_rss_mb"]["gain_shown"]


def test_gate_shows_a_gain_won_in_nine_of_ten_pairs(tmp_path):
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]
    change = [0.5] * 9 + [1.2]
    rss = [(40.0, 40.0)] * 10
    setup = _judged(tmp_path, list(zip(zip(parent, change), rss)))["setup_s"]
    assert setup["within_bound"] and setup["gain_shown"]
    # one more lost pair is below nine tenths
    change[0] = 1.2
    setup = _judged(tmp_path, list(zip(zip(parent, change), rss)))["setup_s"]
    assert setup["within_bound"] and not setup["gain_shown"]


def test_gate_shows_no_gain_where_the_change_fails_more(tmp_path):
    """A gain won in every pair is not shown once the change's runs fail
    more operations in all than the parent's; as many failures are fine."""
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]
    pairs = list(zip(zip(parent, [0.5] * 10), [(40.0, 40.0)] * 10))
    more = [(0, 0)] * 9 + [(0, 1)]
    setup = _judged(tmp_path, pairs, failed=more)["setup_s"]
    assert setup["within_bound"] and not setup["gain_shown"]
    same = [(1, 0)] * 2 + [(0, 1)] * 2 + [(0, 0)] * 6
    setup = _judged(tmp_path, pairs, failed=same)["setup_s"]
    assert setup["within_bound"] and setup["gain_shown"]


def test_gate_leaves_ties_and_small_gains_unresolved(tmp_path):
    rss = [(40.0, 40.0)] * 10
    # the change never reads worse, but 8 of 10 pairs tie
    ties = [(1.0, 1.0)] * 8 + [(1.0, 0.5), (1.2, 0.5)]
    setup = _judged(tmp_path, list(zip(ties, rss)))["setup_s"]
    assert setup["within_bound"] and not setup["gain_shown"]
    # better in every pair, by less than the parent's q3 - q1
    parent = [0.8, 0.9, 1.0, 1.1, 1.2] * 2
    small = [(p, p - 0.01) for p in parent]
    setup = _judged(tmp_path, list(zip(small, rss)))["setup_s"]
    assert setup["change_lower_pairs"] == 10
    assert setup["within_bound"] and not setup["gain_shown"]


@pytest.mark.parametrize("change_kw, message", [
    ({"seed": 6}, "without a partner"),
    ({"seconds": 10.0}, "run length"),
    ({"trace": 1}, "traced run"),
])
def test_runs_that_do_not_compare_are_refused(tmp_path, capsys, change_kw,
                                              message):
    p = write_run(tmp_path / "p", "w", 5, "aaa", 1.0)
    c = write_run(tmp_path / "c", "w", **{"seed": 5, "commit": "bbb",
                                          "setup_s": 1.0, **change_kw})
    out = tmp_path / "out.json"
    assert bench_trajectory.main(["--label", "x", "--parent", p, "--change", c,
                                  "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
