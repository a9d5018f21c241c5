"""Property tests: every two-qubit verdict is invariant under local unitaries
and under exchanging the subsystems.

Examples are derandomized, so the suite draws the same states on every run.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from cmcsep import matlin, states
from cmcsep.criteria import cmc_sdp_2q, run_all

LAMBDA_TOL = 1e-7

_settings = settings(derandomize=True, database=None, deadline=None,
                     max_examples=15)


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _two_qubit_state(seed: int, separable: bool) -> np.ndarray:
    rng = np.random.default_rng([95, seed])
    if separable:
        return states.random_separable(2, 2, int(rng.integers(4, 16)), rng=rng)
    return states.random_density(4, rng=rng)


def _flags(rho) -> list[tuple[str, bool]]:
    return [(v.name, v.detected) for v in run_all(rho, (2, 2))]


def _lambda_star(rho) -> float:
    v = cmc_sdp_2q(rho)
    assert v.status == "ok"
    return v.details["lambda_star"]


@_settings
@given(seed=st.integers(0, 2**31 - 1), separable=st.booleans())
def test_verdicts_invariant_under_local_unitaries(seed, separable):
    rho = _two_qubit_state(seed, separable)
    rng = np.random.default_rng([96, seed])
    u = np.kron(_haar_unitary(2, rng), _haar_unitary(2, rng))
    rotated = u @ rho @ u.conj().T
    assert _flags(rotated) == _flags(rho)
    assert abs(_lambda_star(rotated) - _lambda_star(rho)) <= LAMBDA_TOL


@_settings
@given(seed=st.integers(0, 2**31 - 1), separable=st.booleans())
def test_verdicts_invariant_under_subsystem_swap(seed, separable):
    rho = _two_qubit_state(seed, separable)
    swapped = matlin.swap_subsystems(rho, (2, 2))
    assert _flags(swapped) == _flags(rho)
    assert abs(_lambda_star(swapped) - _lambda_star(rho)) <= LAMBDA_TOL
