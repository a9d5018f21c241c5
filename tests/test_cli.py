"""Tests for the command-line interface and its file formats."""

import json
import multiprocessing
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from cmcsep import (cli, covariance, criteria, filtering, matlin, observables,
                    states)
from cmcsep.cli import (_worker_count, bisect_threshold, load_statefile, main,
                        run_benchmark, write_statefile)
from cmcsep.matlin import MatrixError


def run_cli(args):
    return main(args)


def test_gen_and_detect_singlet(tmp_path, capsys):
    path = tmp_path / "singlet.json"
    assert run_cli(["gen", "--family", "werner", "--p", "1.0",
                    "-o", str(path)]) == 0
    capsys.readouterr()
    assert run_cli(["detect", str(path)]) == 0
    verdicts = json.loads(capsys.readouterr().out)
    by_name = {v["name"]: v for v in verdicts}
    for name in ("ccnr", "de_vicente", "cmc_singular_values", "cmc_trace",
                 "cmc_schmidt", "cmc_kyfan_weyl_s1", "cmc_filter",
                 "cmc_sdp_2q"):
        assert by_name[name]["detected"], name


def test_detect_maximally_mixed_none(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_statefile(str(path), np.eye(4) / 4, (2, 2))
    assert run_cli(["detect", str(path)]) == 0
    verdicts = json.loads(capsys.readouterr().out)
    assert not any(v["detected"] for v in verdicts)


def test_detect_subset_of_criteria(tmp_path, capsys):
    path = tmp_path / "w.json"
    write_statefile(str(path), states.werner_2q(0.9), (2, 2))
    assert run_cli(["detect", str(path), "--criteria", "ppt,ccnr"]) == 0
    verdicts = json.loads(capsys.readouterr().out)
    assert [v["name"] for v in verdicts] == ["ppt", "ccnr"]


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2], "matrix": [[')
    assert run_cli(["detect", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


@pytest.mark.parametrize("text", ["5", "null", "true", '["dims", "matrix"]'])
def test_non_object_json_exit_code(tmp_path, capsys, text):
    """Valid JSON whose top level is not an object is bad input, not a crash."""
    path = tmp_path / "scalar.json"
    path.write_text(text)
    assert run_cli(["detect", str(path)]) == 2
    assert "state file must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["{}", '[[[{"a": 1}, 0]]]'])
def test_object_in_matrix_exit_code(tmp_path, capsys, matrix):
    """A JSON object where the matrix or one of its numbers belongs is bad
    input, not a crash."""
    path = tmp_path / "object.json"
    path.write_text('{"dims": [2, 2], "matrix": ' + matrix + '}')
    assert run_cli(["detect", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_state_exit_code(tmp_path, capsys):
    path = tmp_path / "nonpsd.json"
    bad = np.diag([1.5, -0.5, 0.0, 0.0])
    doc = {"dims": [2, 2],
           "matrix": np.stack([bad, np.zeros_like(bad)], axis=-1).tolist()}
    path.write_text(json.dumps(doc))
    assert run_cli(["detect", str(path)]) == 2


def test_unit_dimension_exit_code(tmp_path, capsys):
    path = tmp_path / "dim1.json"
    rho = np.eye(4) / 4
    doc = {"dims": [1, 4],
           "matrix": np.stack([rho, np.zeros_like(rho)], axis=-1).tolist()}
    path.write_text(json.dumps(doc))
    assert run_cli(["detect", str(path)]) == 2
    assert "dims must be two integers >= 2" in capsys.readouterr().err


def test_statefile_roundtrip(tmp_path):
    rng = np.random.default_rng(400)
    rho = states.random_density(6, rng=rng)
    path = tmp_path / "state.json"
    write_statefile(str(path), rho, (2, 3), {"family": "random"})
    back = load_statefile(str(path))
    assert back.dims == (2, 3)
    assert json.loads(path.read_text())["metadata"] == {"family": "random"}
    np.testing.assert_allclose(back.rho, rho, atol=1e-15)


@pytest.mark.parametrize("command, dims, expected",
                         [("detect", (2, 3), 2), ("detect", (3, 3), 2),
                          ("normal-form", (2, 3), 1), ("normal-form", (3, 3), 1)])
def test_state_file_checked_once(tmp_path, monkeypatch, capsys, command, dims,
                                 expected):
    """A state file is checked and diagonalized once: detect diagonalizes
    only the state and its partial transpose, normal-form only the state."""
    n = dims[0] * dims[1]
    path = tmp_path / "state.json"
    write_statefile(str(path), states.random_density(
        n, rng=np.random.default_rng(401)), dims)
    full = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.shape(a) == (n, n):
            full.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert run_cli([command, str(path)]) == 0
    capsys.readouterr()
    assert len(full) == expected


def test_gen_families(tmp_path):
    cases = [
        (["gen", "--family", "chessboard", "--seed", "5"], (3, 3)),
        (["gen", "--family", "chessboard", "--params", "1,1,1,1,1,1"], (3, 3)),
        (["gen", "--family", "upb", "--p", "0.9"], (3, 3)),
        (["gen", "--family", "rho-eps", "--eps", "0.9", "--r", "0.1"], (2, 2)),
        (["gen", "--family", "random", "--dims", "2,3", "--seed", "3"], (2, 3)),
        (["gen", "--family", "separable", "--dims", "2,2", "--seed", "3"], (2, 2)),
    ]
    for argv, dims in cases:
        path = tmp_path / f"{'-'.join(argv[2:4])}.json"
        assert run_cli(argv + ["-o", str(path)]) == 0
        assert load_statefile(str(path)).dims == dims


def test_witness_command(tmp_path, capsys):
    path = tmp_path / "w.json"
    write_statefile(str(path), states.werner_2q(0.8), (2, 2))
    assert run_cli(["witness", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["detected"] is True
    assert doc["details"]["witness_value"] < 1.0


def test_witness_requires_two_qubits(tmp_path, capsys):
    path = tmp_path / "big.json"
    write_statefile(str(path), np.eye(9) / 9, (3, 3))
    assert run_cli(["witness", str(path)]) == 2


def test_normal_form_command(tmp_path, capsys):
    path = tmp_path / "bd.json"
    write_statefile(str(path), states.bell_diagonal(0.5, -0.3, 0.2), (2, 2))
    assert run_cli(["normal-form", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"]
    np.testing.assert_allclose(sorted(doc["xi"], reverse=True),
                               [1.0, 0.6, 0.4], atol=1e-6)


def test_threshold_werner(capsys):
    p = bisect_threshold("werner", "ppt", 0.0, 1.0, tol=1e-4)
    assert abs(p - 1 / 3) < 2e-4


def test_threshold_requires_bracket():
    from cmcsep.cli import InputError

    with pytest.raises(InputError):
        bisect_threshold("werner", "ppt", 0.5, 1.0)  # detected at both ends


def test_threshold_without_verdict_is_input_error(capsys):
    """A criterion that does not apply to the family is rejected as such,
    not reported as an unbracketed detection."""
    assert run_cli(["threshold", "--family", "upb", "--criterion", "cmc-sdp"]) == 2
    assert "cmc-sdp gives no verdict on upb states" in capsys.readouterr().err


def test_benchmark_zero_samples(tmp_path, capsys):
    assert run_cli(["benchmark", "-n", "0", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_samples"] == 0
    assert all(v == 0.0 for v in doc["detection_fractions"].values())


def test_benchmark_csv_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["benchmark", "-n", "12", "--seed", "9",
            "--criteria", "ccnr,de-vicente"]
    os.environ["CMCSEP_THREADS"] = "2"
    try:
        assert run_cli(argv + ["--csv", str(a)]) == 0
        capsys.readouterr()
        os.environ["CMCSEP_THREADS"] = "1"
        assert run_cli(argv + ["--csv", str(b)]) == 0
        capsys.readouterr()
    finally:
        os.environ.pop("CMCSEP_THREADS", None)
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CMCSEP_THREADS", "100000")
    assert _worker_count() == 2
    monkeypatch.setenv("CMCSEP_THREADS", "0")
    assert _worker_count() == 1
    monkeypatch.delenv("CMCSEP_THREADS")
    assert _worker_count() == 2


def test_benchmark_pool_sized_to_samples(monkeypatch):
    """The pool is sized min(workers, n): one sample runs in-process and two
    ask for two workers, whatever CMCSEP_THREADS says.  A serial stand-in
    records the requested size, so no process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setenv("CMCSEP_THREADS", "100000")
    rows, fractions = run_benchmark(1, 3, ["ccnr"])
    assert len(rows) == 1 and set(fractions) == {"ccnr"}
    assert sizes == []
    rows, _ = run_benchmark(2, 3, ["ccnr"], workers=64)
    assert len(rows) == 2
    assert sizes == [2]


def test_benchmark_report_fields(tmp_path, capsys):
    assert run_cli(["benchmark", "-n", "5", "--seed", "2",
                    "--criteria", "ccnr"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 2
    assert doc["version"]
    assert set(doc["detection_fractions"]) == {"ccnr"}


def test_benchmark_rejects_two_qubit_sdp(tmp_path, capsys):
    """The SDP gives no verdict on the 3x3 ensemble, so asking for it is
    bad input rather than a 0.0 fraction with no rows behind it."""
    out = tmp_path / "k.csv"
    assert run_cli(["benchmark", "-n", "3", "--seed", "1",
                    "--criteria", "cmc-sdp,cmc-kyfan", "--csv", str(out)]) == 2
    assert not out.exists()


def test_benchmark_kyfan_rows_labelled_per_shift(tmp_path, capsys):
    """Each Ky-Fan shift gets its own CSV rows and its own fraction."""
    out = tmp_path / "k.csv"
    assert run_cli(["benchmark", "-n", "3", "--seed", "1",
                    "--criteria", "ccnr,cmc-kyfan", "--csv", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["detection_fractions"]) == [
        "ccnr", "cmc-kyfan-s1", "cmc-kyfan-s2"]
    lines = out.read_text().splitlines()[1:]
    labels = [line.split(",")[1] for line in lines]
    assert labels == ["ccnr", "cmc-kyfan-s1", "cmc-kyfan-s2"] * 3
    for label, fraction in doc["detection_fractions"].items():
        hits = [int(line.split(",")[3]) for line in lines
                if line.split(",")[1] == label]
        assert fraction == sum(hits) / 3


def test_fig1_command(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run_cli(["fig1", "--grid-step", "0.1", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,r,region"
    regions = {line.split(",")[2] for line in lines[1:]}
    assert regions <= {"Same", "Different", "NotAState"}


def test_unknown_criterion_rejected(tmp_path, capsys):
    path = tmp_path / "w.json"
    write_statefile(str(path), states.werner_2q(0.5), (2, 2))
    assert run_cli(["detect", str(path), "--criteria", "nope"]) == 2


@pytest.mark.parametrize("spec, message", [
    ("ppt,ppt", "repeated criteria: ppt"),
    ("ccnr, ppt,ccnr", "repeated criteria: ccnr"),
    (",", "no criterion in ','"),
    (" ", "no criterion in ' '"),
])
def test_repeated_or_empty_criteria_rejected(tmp_path, capsys, spec, message):
    """A repeated criterion would be run and counted twice, and an empty
    list would run nothing: both are bad input to every command taking a
    criterion list, and nothing is written."""
    path = tmp_path / "w.json"
    write_statefile(str(path), states.werner_2q(0.5), (2, 2))
    out = tmp_path / "out"
    for argv in (["detect", str(path), "--criteria", spec, "-o", str(out)],
                 ["threshold", "--family", "werner", "--criterion", spec],
                 ["benchmark", "-n", "1", "--seed", "1", "--criteria", spec,
                  "--csv", str(out)]):
        assert run_cli(argv) == 2, argv[0]
        assert message in capsys.readouterr().err, argv[0]
        assert not out.exists()


@pytest.mark.parametrize("dims, spec, spelling", [
    ((3, 3), "cmc-sdp", "cmc-sdp"),
    ((3, 3), "ppt,cmc-sdp", "cmc-sdp"),
    ((2, 3), "cmc-kyfan", "cmc-kyfan"),
    ((3, 2), "ccnr,cmc-kyfan,ppt", "cmc-kyfan"),
])
def test_detect_rejects_a_criterion_without_verdict(tmp_path, capsys, dims,
                                                    spec, spelling):
    """A criterion asked for by name that gives no verdict at the file's
    dims is bad input, in threshold's wording; ``all`` still skips it."""
    da, db = dims
    path = tmp_path / "s.json"
    write_statefile(str(path), states.random_density(
        da * db, rng=np.random.default_rng(119)), dims)
    out = tmp_path / "out.json"
    assert run_cli(["detect", str(path), "--criteria", spec, "-o", str(out)]) == 2
    assert (f"{spelling} gives no verdict on {da}x{db} states"
            in capsys.readouterr().err)
    assert not out.exists()
    assert run_cli(["detect", str(path), "-o", str(out)]) == 0
    names = [v["name"] for v in json.loads(out.read_text())]
    assert not any(n.startswith(criteria.CRITERIA[spelling]) for n in names)


def test_detect_with_cm_export(tmp_path, capsys):
    path = tmp_path / "w.json"
    write_statefile(str(path), states.werner_2q(0.5), (2, 2))
    assert run_cli(["detect", str(path), "--criteria", "ppt",
                    "--basis", "pauli"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"verdicts", "block_cm"}
    cm = doc["block_cm"]
    assert cm["kind"] == "symmetric"
    assert cm["basis"] == ["pauli", "pauli"]
    assert np.asarray(cm["matrix"]).shape == (8, 8)
    assert abs(cm["purity"]["a"] - 0.5) < 1e-12


@pytest.mark.parametrize("basis, dims, builds", [
    pytest.param("gellmann", (2, 2), 1, id="gellmann-1"),
    pytest.param("pauli", (2, 2), 1, id="pauli-1"),
    pytest.param("standard", (2, 2), 2, id="standard-2"),
    pytest.param("gellmann", (3, 2), 1, id="gellmann-3x2-1"),
])
def test_detect_basis_builds_block_cm(tmp_path, capsys, monkeypatch, basis,
                                      dims, builds):
    """detect --basis gellmann, or pauli (the d = 2 Gell-Mann-like basis),
    exports the block CM the criteria shared, with dA > dB that of the
    oriented state with its sides exchanged back; another basis needs a CM
    of its own.  The export matches a CM built directly on the input."""
    path = tmp_path / "w.json"
    rho = (states.werner_2q(0.5) if dims == (2, 2)
           else states.random_density(6, rng=np.random.default_rng(525)))
    write_statefile(str(path), rho, dims)
    built = []
    build = covariance.build_block_cm

    def counted(*args, **kwargs):
        built.append(args[1].kind)
        return build(*args, **kwargs)

    monkeypatch.setattr(covariance, "build_block_cm", counted)
    assert run_cli(["detect", str(path), "--basis", basis]) == 0
    cm = json.loads(capsys.readouterr().out)["block_cm"]
    assert cm["basis"] == [basis] * 2
    assert len(built) == builds
    want = build(rho, *[observables.make_basis(basis, d) for d in dims])
    np.testing.assert_allclose(cm["matrix"], want.assembled(), atol=1e-12)
    np.testing.assert_allclose(cm["first_moments"]["a"], want.moments_a,
                               atol=1e-12)
    np.testing.assert_allclose(cm["first_moments"]["b"], want.moments_b,
                               atol=1e-12)
    assert abs(cm["purity"]["a"] - want.purity_a) < 1e-12
    assert abs(cm["purity"]["b"] - want.purity_b) < 1e-12


def test_detect_cm_export_pauli_needs_qubits(tmp_path, capsys):
    path = tmp_path / "big.json"
    write_statefile(str(path), np.eye(9) / 9, (3, 3))
    assert run_cli(["detect", str(path), "--criteria", "ppt",
                    "--basis", "pauli"]) == 2


def test_parser_built_once_and_stateless(tmp_path, capsys, monkeypatch):
    """main reuses one parser; a later call sees none of an earlier call's
    subcommand or flags."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    path = tmp_path / "w.json"
    # not in normal form, so --max-iter 1 shows in the step count
    rho = states.random_density(4, rng=np.random.default_rng(248))
    write_statefile(str(path), rho, (2, 2))
    try:
        assert run_cli(["detect", str(path), "--criteria", "ppt"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run_cli(["normal-form", str(path), "--max-iter", "1"]) == 0
        nf = json.loads(capsys.readouterr().out)
        assert run_cli(["detect", str(path)]) == 0
        last = json.loads(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert [v["name"] for v in first] == ["ppt"]
    assert nf["iterations"] == 1
    assert [v["name"] for v in last] == [
        "ppt", "ccnr", "de_vicente", "cmc_singular_values", "cmc_trace",
        "cmc_schmidt", "cmc_kyfan_weyl_s1", "cmc_filter", "cmc_sdp_2q"]


def test_detect_reports_filter_noise(tmp_path, capsys):
    """The filter verdict in detect's JSON says how much white noise the
    filter mixed in."""
    path = tmp_path / "cb.json"
    write_statefile(str(path), states.chessboard(1.0, 0.5, 0.3, 0.2, 0.4, 0.1),
                    (3, 3))
    assert run_cli(["detect", str(path), "--criteria", "cmc-filter"]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)
    assert verdict["details"]["noise_eps"] == filtering.DEFAULT_NOISE_EPS


def test_threshold_out_of_range_exit_code(capsys):
    """A tolerance that is not positive, an empty or reversed p range, or
    not exactly one criterion is rejected before any state is evaluated."""
    for flags in (["--tol", "nan"], ["--tol", "0"], ["--tol", "-1"],
                  ["--p-lo", "0.6", "--p-hi", "0.5"], ["--p-hi", "1.5"],
                  ["--criterion", "ppt,ccnr"], ["--criterion", "nope"]):
        argv = ["threshold", "--family", "werner", "--criterion", "ppt"]
        assert run_cli(argv + flags) == 2, flags


@pytest.mark.parametrize("spelling", ["ppt,", " ppt"])
def test_threshold_normalizes_criterion_spelling(capsys, spelling):
    """A spelling that detect accepts runs, and is reported, as the bare
    criterion."""
    argv = ["threshold", "--family", "werner", "--criterion", spelling]
    assert run_cli(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"] == "ppt"
    assert doc["p_star"] == bisect_threshold("werner", "ppt", 0.0, 1.0, tol=1e-4)


def test_threshold_below_float_spacing_terminates():
    """A positive tol below the float spacing stops once the interval
    cannot be split any further."""
    p = bisect_threshold("werner", "ppt", 0.0, 1.0, tol=1e-300)
    assert abs(p - 1 / 3) < 1e-8  # ppt flags above p = 1/3 + 4e-9/3


def test_gen_out_of_range_exit_code(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "s.json")
    # a term count above the cap must be rejected before anything is drawn
    monkeypatch.setattr(states, "random_separable", None)
    for flags in (["--family", "werner", "--p", "2"],
                  ["--family", "upb", "--p", "-1"],
                  ["--family", "random", "--rank", "0"],
                  ["--family", "chessboard", "--params", "0,1,1,1,1,1"],
                  ["--family", "random", "--seed", "-1"],
                  ["--family", "separable", "--terms", "1000001"],
                  ["--family", "separable", "--terms", "100000000"]):
        assert run_cli(["gen", *flags, "-o", out]) == 2, flags
        assert "numerical failure" not in capsys.readouterr().err
    # so must a dimension above the cap
    monkeypatch.setattr(states, "random_density", None)
    for family in ("random", "separable"):
        for dims in ("17,16", "1000,1000"):
            assert run_cli(["gen", "--family", family, "--dims", dims,
                            "-o", out]) == 2, (family, dims)
            assert "above the cap of 256" in capsys.readouterr().err


def test_gen_separable_needs_a_term(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli(["gen", "--family", "separable", "--terms", "0",
                    "-o", str(out)]) == 2
    assert not out.exists()
    rng = np.random.default_rng(0)
    with pytest.raises(MatrixError):
        states.random_separable(2, 2, n_terms=0, rng=rng)
    for dims in ((0, 3), (-1, 2)):
        with pytest.raises(MatrixError, match="at least 1"):
            states.random_separable(*dims, rng=rng)


def test_normal_form_out_of_range_exit_code(tmp_path, capsys):
    path = tmp_path / "w.json"
    write_statefile(str(path), states.werner_2q(0.5), (2, 2))
    assert run_cli(["normal-form", str(path), "--max-iter", "-5"]) == 2


def test_fig1_out_of_range_exit_code(capsys, monkeypatch):
    """Steps outside [1e-3, 1] are rejected before any state is built; a
    step of 1e-12 would ask for ~10^24 grid points."""
    monkeypatch.setattr(states, "rho_epsilon", None)
    for step in ("-1", "0", "nan", "2", "1e-12", "1e-4"):
        assert run_cli(["fig1", "--grid-step", step]) == 2, step
        assert "outside [0.001, 1]" in capsys.readouterr().err


def test_fig1_checks_each_state_once(monkeypatch):
    """A grid point that reaches ppt checks rho_epsilon once, for
    bloch_invert and ppt alike, and its inversion once; a point that is
    not a state after inversion checks rho_epsilon only."""
    calls = []
    hermitize = matlin.hermitize
    monkeypatch.setattr(matlin, "hermitize",
                        lambda m: calls.append(1) or hermitize(m))
    rows = cli.fig1_scan(0.25)
    regions = [region for _, _, region in rows]
    reached = len(regions) - regions.count("NotAState")
    assert reached and regions.count("NotAState")
    assert len(calls) == 2 * reached + regions.count("NotAState")


def test_gen_rejects_non_finite_state(tmp_path, capsys):
    """Parameters whose projectors overflow give a NaN matrix, which the
    generator rejects instead of writing it."""
    out = tmp_path / "s.json"
    # the suite turns RuntimeWarning into an error, so none may be emitted
    for params in ("1e300,1,1,1,1,1", "1,1,1e300,1,1e300,1"):
        assert run_cli(["gen", "--family", "chessboard", "--params",
                        params, "-o", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_readme_command_lines_parse():
    """Every cmcsep line of README's command-line block parses."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = block.split("```sh")[1].split("```")[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [words for words in lines if words[:1] == ["cmcsep"]]
    assert len(lines) >= 7
    for words in lines:
        cli.build_parser().parse_args(words[1:])


def test_benchmark_negative_seed_exit_code(capsys):
    assert run_cli(["benchmark", "-n", "1", "--seed", "-1"]) == 2
