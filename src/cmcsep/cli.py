"""Command-line surface: state files, detection reports, threshold
bisection, the seeded chessboard benchmark, and the Bloch-inversion grid
scan.  All commands are deterministic given their flags and seed."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, covariance, criteria, filtering, observables, states
from .matlin import CheckedState, MatrixError, as_state, json_safe

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

BENCHMARK_CRITERIA = ("cmc-filter", "cmc-sv", "cmc-trace", "cmc-schmidt",
                      "ccnr", "de-vicente")

# Grid points of the monotonicity presweep before threshold bisection.
PRESWEEP = 20

# The (s, t) slice of the rho_epsilon family scanned by fig1_scan, and its
# smallest grid step: 1001^2 grid points, minutes of work.
FIG1_S, FIG1_T = 0.45, 1.0 / 16.0
FIG1_MIN_STEP = 1e-3

# Most terms gen draws for a separable state: the weights alone take 8 bytes
# per term, drawn before the first term is built.
MAX_SEPARABLE_TERMS = 10**6
# Largest dA dB gen draws a state for: a separable draw builds
# states.SEPARABLE_CHUNK n x n terms at once, 64 MiB at n = 256.
MAX_GEN_DIM = 256


class InputError(Exception):
    """Bad command-line input or state file; maps to exit code 2."""


def _spellings(spec: str) -> list[str]:
    """The CLI criterion spellings of a comma list, stripped and checked:
    at least one, each known and none repeated (a repeat would run and
    count its criterion twice)."""
    spellings = [x.strip() for x in spec.split(",") if x.strip()]
    if not spellings:
        raise InputError(f"no criterion in {spec!r}")
    unknown = [x for x in spellings if x not in criteria.CRITERIA]
    if unknown:
        raise InputError(f"unknown criteria: {', '.join(unknown)}")
    repeated = sorted({x for x in spellings if spellings.count(x) > 1})
    if repeated:
        raise InputError(f"repeated criteria: {', '.join(repeated)}")
    return spellings


def _verdicts(rho, dims: tuple[int, int], spelling: str, what: str) -> list:
    """run_all's verdicts of one criterion, named by its CLI spelling; bad
    input when it gives none on ``what`` states."""
    verdicts = criteria.run_all(rho, dims, criteria=[criteria.CRITERIA[spelling]])
    if not verdicts:
        raise InputError(f"{spelling} gives no verdict on {what} states")
    return verdicts


def load_statefile(path: str) -> CheckedState:
    """Parse a JSON state file into its state, checked here, so no later
    layer checks or diagonalizes it again."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: state file must be a JSON object")
    for key in ("dims", "matrix"):
        if key not in doc:
            raise InputError(f"{path}: missing required key {key!r}")
    dims = doc["dims"]
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(d, int) and d >= 2 for d in dims)):
        raise InputError(f"{path}: dims must be two integers >= 2")
    try:
        raw = np.asarray(doc["matrix"], dtype=float)
        if raw.ndim != 3 or raw.shape[2] != 2:
            raise ValueError(f"matrix must be n x n x [re, im], got {raw.shape}")
        st = states.validate_density(raw[..., 0] + 1j * raw[..., 1],
                                     (dims[0], dims[1]))
    except (ValueError, TypeError, MatrixError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return st


def write_statefile(path: str, rho: np.ndarray, dims: tuple[int, int],
                    metadata: dict | None = None) -> None:
    doc = {
        "dims": [int(dims[0]), int(dims[1])],
        "matrix": np.stack([rho.real, rho.imag], axis=-1).tolist(),
        "metadata": metadata or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, out: str | None) -> None:
    _write(json.dumps(doc, indent=1, sort_keys=True) + "\n", out)


def _csv(header: list[str], rows) -> str:
    """CSV text of a header row and the data rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _worker_count() -> int:
    """Worker processes from CMCSEP_THREADS, clamped to [1, cpu_count]."""
    cpus = max(1, os.cpu_count() or 1)
    env = os.environ.get("CMCSEP_THREADS", "")
    if env.strip():
        try:
            return min(max(1, int(env)), cpus)
        except ValueError:
            raise InputError(f"CMCSEP_THREADS={env!r} is not an integer")
    return cpus


def cmd_detect(args) -> int:
    st = load_statefile(args.statefile)
    dims = st.dims
    if args.criteria == "all":
        verdicts = criteria.run_all(st, dims)
    else:
        # a criterion asked for by name must apply at the file's dims
        verdicts = [v for x in _spellings(args.criteria)
                    for v in _verdicts(st, dims, x, f"{dims[0]}x{dims[1]}")]
    doc = [v.to_json() for v in verdicts]
    if args.basis:
        try:
            bases = [observables.make_basis(args.basis, d) for d in dims]
            if args.basis in ("gellmann", "pauli"):
                # the Gell-Mann-like bases (Pauli's at d = 2) give run_all's CM
                # of the oriented state, its sides exchanged back if dA > dB
                bcm = st.oriented.block_cm
                if st.oriented is not st:
                    bcm = replace(bcm, a=bcm.b, b=bcm.a, c=bcm.c.T, joint=bcm.joint.T,
                                  purity_a=bcm.purity_b, purity_b=bcm.purity_a,
                                  moments_a=bcm.moments_b, moments_b=bcm.moments_a)
                bcm = replace(bcm, basis_a=bases[0], basis_b=bases[1])
            else:
                bcm = covariance.build_block_cm(st, *bases, kind="symmetric")
        except MatrixError as exc:
            raise InputError(f"cannot build CM in basis {args.basis!r}: {exc}")
        doc = {"verdicts": doc, "block_cm": covariance.cm_to_json(bcm)}
    _emit(doc, args.output)
    return EXIT_OK


def cmd_witness(args) -> int:
    st = load_statefile(args.statefile)
    if st.dims != (2, 2):
        raise InputError("the witness command needs a two-qubit state")
    verdict = criteria.cmc_sdp_2q(st)
    if verdict.status != "ok":
        print(json.dumps({"status": verdict.status}), file=sys.stderr)
        return EXIT_NUMERICAL
    _emit(verdict.to_json(), args.output)
    return EXIT_OK


def cmd_normal_form(args) -> int:
    if args.max_iter < 0:
        raise InputError("--max-iter must be non-negative")
    st = load_statefile(args.statefile)
    nf = filtering.normal_form(st, st.dims, max_iter=args.max_iter)
    doc = {
        "xi": nf.xi,
        "xi_sum": float(np.sum(nf.xi)),
        "filter_a": nf.filter_a,
        "filter_b": nf.filter_b,
        "converged": nf.converged,
        "f_value": nf.f_value,
        "iterations": nf.iterations,
        "noise_eps": nf.noise_eps,
        "dims": st.dims,
        "schedule": "damped Newton, block-CM Hessian",
    }
    _emit(json_safe(doc), args.output)
    return EXIT_OK


def _gen_state(args) -> tuple[np.ndarray, tuple[int, int], dict]:
    family = args.family
    meta: dict = {"family": family}
    if family == "chessboard":
        if args.params:
            params = [float(x) for x in args.params.split(",")]
            if len(params) != 6:
                raise InputError("chessboard needs 6 comma-separated parameters")
            rho = states.chessboard(*params)
            meta["params"] = params
        else:
            rng = np.random.default_rng(args.seed)
            rho = states.sample_chessboard(rng)
            meta["seed"] = args.seed
        return rho, (3, 3), meta
    if family == "upb":
        rho = states.upb_tiles(args.p)
        meta["p"] = args.p
        return rho, (3, 3), meta
    if family == "rho-eps":
        rho = states.rho_epsilon(args.eps, args.r, args.s, args.t)
        meta.update(eps=args.eps, r=args.r, s=args.s, t=args.t)
        return rho, (2, 2), meta
    if family == "werner":
        rho = states.werner_2q(args.p)
        meta["p"] = args.p
        return rho, (2, 2), meta
    if family == "random":
        da, db = _parse_dims(args.dims)
        rng = np.random.default_rng(args.seed)
        rho = states.random_density(da * db, rank=args.rank, rng=rng)
        meta.update(seed=args.seed, rank=args.rank)
        return rho, (da, db), meta
    if family == "separable":
        if args.terms > MAX_SEPARABLE_TERMS:
            raise InputError(f"term count {args.terms} above the cap of "
                             f"{MAX_SEPARABLE_TERMS}")
        da, db = _parse_dims(args.dims)
        rng = np.random.default_rng(args.seed)
        rho = states.random_separable(da, db, n_terms=args.terms, rng=rng)
        meta.update(seed=args.seed, terms=args.terms)
        return rho, (da, db), meta
    raise InputError(f"unknown family {family!r}")


def _parse_dims(spec: str) -> tuple[int, int]:
    try:
        da, db = (int(x) for x in spec.split(","))
    except ValueError:
        raise InputError(f"dims must look like '2,3', got {spec!r}") from None
    if da < 2 or db < 2:
        raise InputError("local dimensions must be at least 2")
    if da * db > MAX_GEN_DIM:
        raise InputError(f"dA dB = {da * db} is above the cap of {MAX_GEN_DIM}")
    return da, db


def cmd_gen(args) -> int:
    try:
        rho, dims, meta = _gen_state(args)
    except (MatrixError, ValueError) as exc:
        raise InputError(f"cannot generate {args.family} state: {exc}") from exc
    meta["version"] = __version__
    write_statefile(args.output, rho, dims, meta)
    return EXIT_OK


def _threshold_eval(family: str, crit_name: str, p: float) -> bool:
    if family == "upb":
        rho, dims = states.upb_tiles(p), (3, 3)
    elif family == "werner":
        rho, dims = states.werner_2q(p), (2, 2)
    else:
        raise InputError(f"threshold scan supports upb and werner, not {family!r}")
    return any(v.detected for v in _verdicts(rho, dims, crit_name, family))


def bisect_threshold(family: str, crit_name: str, p_lo: float, p_hi: float,
                     tol: float = 1e-4) -> float:
    """Locate the detection onset by bisection after a monotonicity presweep."""
    if not (tol > 0 and 0.0 <= p_lo < p_hi <= 1.0):
        raise InputError(f"need tol > 0 and 0 <= p_lo < p_hi <= 1, got "
                         f"tol={tol}, p_lo={p_lo}, p_hi={p_hi}")
    grid = np.linspace(p_lo, p_hi, PRESWEEP)
    flags = [_threshold_eval(family, crit_name, p) for p in grid]
    if flags[0] or not flags[-1]:
        raise InputError(
            f"detection is not bracketed on [{p_lo}, {p_hi}] for {crit_name}")
    first = flags.index(True)
    if any(flags[i] and not flags[i + 1] for i in range(first, PRESWEEP - 1)):
        raise InputError("detection is not monotone on the requested interval")
    lo, hi = grid[first - 1], grid[first]
    mid = 0.5 * (lo + hi)
    # a tol below the float spacing stops once the interval cannot split
    while hi - lo > tol and lo < mid < hi:
        if _threshold_eval(family, crit_name, mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


def cmd_threshold(args) -> int:
    spellings = _spellings(args.criterion)
    if len(spellings) != 1:
        raise InputError(f"need one criterion, got {args.criterion!r}")
    p_star = bisect_threshold(args.family, spellings[0], args.p_lo, args.p_hi,
                              tol=args.tol)
    _emit({"family": args.family, "criterion": spellings[0],
           "p_star": p_star, "tol": args.tol, "version": __version__},
          args.output)
    return EXIT_OK


def _benchmark_labels(crit_names) -> list[str]:
    """Row labels of the criteria on the 3x3 ensemble: run_all gives the
    Ky-Fan family one verdict per shift s = 1, 2."""
    return [label for c in crit_names
            for label in ([f"{c}-s1", f"{c}-s2"] if c == "cmc-kyfan" else [c])]


def _benchmark_one(task) -> list[tuple[int, str, float, bool]]:
    seed, index, crit_names = task
    rho = states.sample_chessboard(np.random.default_rng([seed, index]))
    verdicts = criteria.run_all(rho, (3, 3),
                                criteria=[criteria.CRITERIA[c] for c in crit_names])
    return [(index, label, float(v.margin), bool(v.detected))
            for label, v in zip(_benchmark_labels(crit_names), verdicts,
                                strict=True)]


def run_benchmark(n: int, seed: int, crit_names: list[str],
                  workers: int | None = None):
    """Evaluate the chessboard ensemble; returns (rows, fractions).

    Rows are ordered by sample index whatever the worker count; each sample
    draws from its own rng stream keyed by (seed, index).  Rows and
    fractions are keyed by the labels of ``_benchmark_labels``.
    """
    if "cmc-sdp" in crit_names:
        raise InputError("cmc-sdp runs on two qubits only; the chessboard "
                         "ensemble is 3x3")
    workers = min(_worker_count() if workers is None else workers, n)
    tasks = [(seed, i, crit_names) for i in range(n)]
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            per_state = pool.map(_benchmark_one, tasks, chunksize=64)
    else:
        per_state = [_benchmark_one(t) for t in tasks]
    rows = [row for chunk in per_state for row in chunk]
    # every state gives one row per label
    fractions = {label: sum(r[3] for r in rows if r[1] == label) / n if n else 0.0
                 for label in _benchmark_labels(crit_names)}
    return rows, fractions


def cmd_benchmark(args) -> int:
    names = (list(BENCHMARK_CRITERIA) if args.criteria == "default"
             else _spellings(args.criteria))
    if args.n < 0:
        raise InputError("sample count must be non-negative")
    if args.seed < 0:
        raise InputError("seed must be non-negative")
    t0 = time.time()
    rows, fractions = run_benchmark(args.n, args.seed, names)
    wall = time.time() - t0
    if args.csv:
        # csv writes a float as its repr
        _write(_csv(["index", "criterion", "margin", "detected"],
                    ((i, c, m, int(d)) for i, c, m, d in rows)), args.csv)
    report = {
        "family": "chessboard",
        "n_samples": args.n,
        "seed": args.seed,
        "criteria": names,
        "detection_fractions": fractions,
        "wall_time_s": wall,
        "version": __version__,
    }
    _emit(report, args.output)
    return EXIT_OK


def fig1_scan(grid_step: float):
    """Classify the Bloch-inversion behaviour of rho_epsilon on an
    (epsilon, r) grid; parameter points that are not states are skipped."""
    if not FIG1_MIN_STEP <= grid_step <= 1.0:
        raise InputError(f"grid step {grid_step} outside [{FIG1_MIN_STEP:g}, 1]")
    rows = []
    grid = np.arange(0.0, 1.0 + 0.5 * grid_step, grid_step)
    for eps in grid:
        for r in grid:
            try:
                rho = as_state(states.rho_epsilon(eps, r, FIG1_S, FIG1_T), (2, 2))
            except MatrixError:
                continue
            inv, wmin = covariance.bloch_invert(rho, side="A")
            if wmin < -1e-12:
                region = "NotAState"
            else:
                ent = criteria.ppt(rho, (2, 2)).detected
                ent_inv = criteria.ppt(inv, (2, 2)).detected
                region = "Same" if ent == ent_inv else "Different"
            rows.append((float(eps), float(r), region))
    return rows


def cmd_fig1(args) -> int:
    _write(_csv(["epsilon", "r", "region"], fig1_scan(args.grid_step)),
           args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmcsep",
        description="Covariance-matrix separability tests for bipartite states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run separability criteria on a state file")
    p.add_argument("statefile")
    p.add_argument("--criteria", default="all",
                   help="comma-separated list (default: all applicable)")
    p.add_argument("--basis", default=None,
                   choices=["standard", "pauli", "gellmann", "weyl"],
                   help="also export the symmetric block CM in this basis "
                        "(criteria themselves are basis independent)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("witness", help="two-qubit CM-witness and LUR extraction")
    p.add_argument("statefile")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("normal-form", help="filter a state to its normal form")
    p.add_argument("statefile")
    p.add_argument("--max-iter", type=int, default=filtering.DEFAULT_MAX_ITER,
                   help="Newton steps (default %(default)d)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("gen", help="generate a state file")
    p.add_argument("--family", required=True,
                   choices=["chessboard", "upb", "rho-eps", "werner", "random",
                            "separable"])
    p.add_argument("--params", default=None, help="chessboard: m,n,a,b,c,d")
    p.add_argument("--p", type=float, default=1.0, help="upb/werner mixing")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--s", type=float, default=0.45)
    p.add_argument("--t", type=float, default=0.0625)
    p.add_argument("--dims", default="3,3")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("threshold", help="bisect a detection threshold in p")
    p.add_argument("--family", default="upb", choices=["upb", "werner"])
    p.add_argument("--criterion", required=True)
    p.add_argument("--p-lo", type=float, default=0.0)
    p.add_argument("--p-hi", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("benchmark", help="seeded chessboard detection fractions")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criteria", default="default")
    p.add_argument("--csv", default=None, help="per-sample margin CSV path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("fig1", help="Bloch-inversion region scan of rho_epsilon")
    p.add_argument("--grid-step", type=float, default=0.005)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fig1)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MatrixError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
