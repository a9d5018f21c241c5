"""The benchmark's three workloads: seeded inputs, the timed call into the
public API for one state, and the output checks that feed ``failed``.

Every check rests on an invariant of the paper, not on reference numbers, so
it holds on any seed:

* chessboard: de Vicente => CMC singular values, diagonal trace => CMC
  singular values, and CCNR => Schmidt trace test, sample by sample;
* separable_sweep: no criterion flags a separable-by-construction state;
* detect_2q: filter == PPT and SDP => PPT on two qubits, the extracted
  local-uncertainty value matches the witness value on every detection, and
  separable-by-construction states are never flagged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cmcsep import cli, criteria, states  # noqa: E402

# Warm-up states come from one fixed stream whatever the seed, so set-up
# time does not depend on which states the seed draws.
WARM_SEED = 0
WARM_INDEX = 1 << 20
WARMUP_STATES = 2
LUR_TOL = 1e-7


def reference_ms() -> float:
    """Time of a fixed kernel in the style of cmcsep's work: small LAPACK
    calls, path-optimized einsum contractions on 3x3x3x3 data, and a plain
    Python loop.  It shares no code with cmcsep.  Sampled through a run, its
    median tracks the host's speed at that time."""
    a, a3, r4, ops = _REF_DATA
    start = time.perf_counter()
    for _ in range(5):
        np.linalg.eigh(a)
        np.linalg.svd(a, compute_uv=False)
        np.einsum("abcd,ica,jdb->ij", r4, ops, ops, optimize=True)
        np.einsum("xa,abcd->xbcd", a3, r4, optimize=True)
        np.linalg.eigh(a3)
        np.kron(a3, a3)
    total = 0
    for i in range(3000):
        total += i * i
    return 1e3 * (time.perf_counter() - start)


def _reference_data():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    a = g @ g.conj().T
    ops = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
    return a, a[:3, :3].copy(), a.reshape(3, 3, 3, 3), ops


_REF_DATA = _reference_data()


def separable_input(seed: int, index: int):
    """Explicit separable mixture of 4-15 product terms; (2,3) and (3,3)
    alternate, so low term counts give rank-deficient (3,3) states."""
    dims = (2, 3) if index % 2 == 0 else (3, 3)
    rng = np.random.default_rng([seed, index])
    n_terms = int(rng.integers(4, 16))
    return states.random_separable(*dims, n_terms=n_terms, rng=rng), dims


def detect_input(seed: int, index: int):
    """Even indices: random full-rank two-qubit density; odd indices:
    separable mixture of 4-15 product terms.  Returns (rho, separable)."""
    rng = np.random.default_rng([seed, index])
    if index % 2 == 0:
        return states.random_density(4, rng=rng), False
    n_terms = int(rng.integers(4, 16))
    return states.random_separable(2, 2, n_terms=n_terms, rng=rng), True


def check_chessboard(rows) -> list[str]:
    flags = {cname: detected for _, cname, _, detected in rows}
    if sorted(flags) != sorted(cli.BENCHMARK_CRITERIA) or len(rows) != len(flags):
        return [f"unexpected rows {rows!r}"]
    problems = []
    for strong, weak in (("de-vicente", "cmc-sv"), ("cmc-trace", "cmc-sv"),
                         ("ccnr", "cmc-schmidt")):
        if flags[strong] and not flags[weak]:
            problems.append(f"{strong} detects but {weak} does not")
    return problems


def check_separable(verdicts) -> list[str]:
    """Verdicts are CriterionVerdict objects or their JSON form."""
    problems = []
    for v in verdicts:
        name, status, detected = (
            (v["name"], v["status"], v["detected"]) if isinstance(v, dict)
            else (v.name, v.status, v.detected))
        if status != "ok":
            problems.append(f"{name}: status {status}")
        elif detected:
            problems.append(f"{name} flags a separable state")
    return problems


def check_detect_2q(doc: list, separable: bool) -> list[str]:
    by_name = {v["name"]: v for v in doc}
    problems = [f"{name}: status {v['status']}" for name, v in by_name.items()
                if v["status"] != "ok"]
    if problems:
        return problems
    ppt, filt, sdp = by_name["ppt"], by_name["cmc_filter"], by_name["cmc_sdp_2q"]
    if filt["detected"] != ppt["detected"]:
        problems.append("filter and PPT disagree on two qubits")
    if sdp["detected"] and not ppt["detected"]:
        problems.append("SDP detects a PPT state")
    if sdp["detected"]:
        dev = abs(sdp["details"]["lur_value"] - sdp["details"]["witness_value"])
        if dev > LUR_TOL:
            problems.append(f"LUR value deviates from witness by {dev:.2e}")
    if separable:
        problems += check_separable(doc)
    return problems


class Chessboard:
    """cli.run_benchmark on one rank-4 chessboard state per call."""

    name = "chessboard"

    def prepare(self, seed: int) -> None:
        for w in range(WARMUP_STATES):
            self._run(WARM_SEED, WARM_INDEX + w)
        self.seed = seed

    def call(self, index: int):
        return self._run(self.seed, index)

    @staticmethod
    def _run(seed: int, index: int):
        # run_benchmark draws sample 0 from rng([key, 0]); a key per (seed,
        # index) gives every state its own stream.
        return cli.run_benchmark(1, (seed << 21) + index,
                                 list(cli.BENCHMARK_CRITERIA), workers=1)

    def check(self, index: int, result):
        rows, _ = result
        return check_chessboard(rows), tuple((r[1], r[3]) for r in rows)

    def close(self) -> None:
        pass


class SeparableSweep:
    """criteria.run_all over a pool of separable (2,3)/(3,3) mixtures."""

    name = "separable_sweep"
    pool_size = 1024

    def prepare(self, seed: int) -> None:
        self.pool = [separable_input(seed, i) for i in range(self.pool_size)]
        for w in range(WARMUP_STATES):
            criteria.run_all(*separable_input(WARM_SEED, WARM_INDEX + w))

    def call(self, index: int):
        rho, dims = self.pool[index % self.pool_size]
        return criteria.run_all(rho, dims)

    def check(self, index: int, verdicts):
        return (check_separable(verdicts),
                tuple((v.name, v.detected) for v in verdicts))

    def close(self) -> None:
        self.pool = []


class Detect2q:
    """In-process ``cmcsep detect FILE -o OUT`` on state files written in
    set-up; half random full-rank states, half separable mixtures."""

    name = "detect_2q"
    pool_size = 512

    def __init__(self, workdir: Path) -> None:
        self.parent = workdir
        self.dir = None

    def prepare(self, seed: int) -> None:
        self.close()
        self.parent.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="detect-", dir=self.parent))
        self.out = str(self.dir / "out.json")
        self.files = []
        inputs = [(seed, i) for i in range(self.pool_size)] + [
            (WARM_SEED, WARM_INDEX + w) for w in range(WARMUP_STATES)]
        for i, (s, index) in enumerate(inputs):
            rho, separable = detect_input(s, index)
            path = str(self.dir / f"state{i}.json")
            cli.write_statefile(path, rho, (2, 2), {"seed": s, "index": index})
            self.files.append((path, separable))
        for path, _ in self.files[self.pool_size:]:
            cli.main(["detect", path, "-o", self.out])

    def call(self, index: int):
        path, _ = self.files[index % self.pool_size]
        return cli.main(["detect", path, "-o", self.out])

    def check(self, index: int, code):
        if code != 0:
            return [f"exit code {code}"], ("exit", code)
        with open(self.out, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.output_bytes = os.path.getsize(self.out)
        separable = self.files[index % self.pool_size][1]
        return (check_detect_2q(doc, separable),
                tuple((v["name"], v["detected"]) for v in doc))

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def make(name: str, workdir: Path):
    if name == "chessboard":
        return Chessboard()
    if name == "separable_sweep":
        return SeparableSweep()
    if name == "detect_2q":
        return Detect2q(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("chessboard", "separable_sweep", "detect_2q")
