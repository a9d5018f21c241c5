"""Property tests: every two-qubit verdict is invariant under local unitaries
and under exchanging the subsystems.  So are the verdicts and margins at
larger dimensions: under local unitaries at (2,3), (3,3), (2,5) and (3,4), and under
the exchange at (2,3) and (3,4).  On those larger states no verdict flags a
separable mixture, in either orientation, and the implications between
criteria hold state by state.  The filter normal form, and so the filter
verdict, is invariant under local invertible filters.

Examples are derandomized, so the suite draws the same states on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmcsep import matlin, states
from cmcsep.criteria import cmc_filter, cmc_sdp_2q, run_all
from cmcsep.filtering import normal_form

LAMBDA_TOL = 1e-7
XI_TOL = 1e-7
SWAP_MARGIN_TOL = 1e-12
# The filter stops once both marginals are within 1e-9 of maximally mixed,
# so the coefficient sums of a state and of its local rotation agree only
# to that tolerance (at most 1.8e-9 on 120 states at (2,3), (3,3), (2,5))
LU_FILTER_MARGIN_TOL = 1e-8
SWAP_MARGIN_CRITERIA = ("ppt", "ccnr", "de_vicente", "cmc_singular_values",
                        "cmc_trace", "cmc_schmidt", "cmc_filter")

_settings = settings(derandomize=True, database=None, deadline=None,
                     max_examples=15)
# (stronger, weaker): a detection by the first implies one by the second
IMPLICATIONS = (("de_vicente", "cmc_singular_values"),
                ("cmc_trace", "cmc_singular_values"),
                ("ccnr", "cmc_schmidt"))


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _two_qubit_state(seed: int, separable: bool) -> np.ndarray:
    rng = np.random.default_rng([95, seed])
    if separable:
        return states.random_separable(2, 2, int(rng.integers(4, 16)), rng=rng)
    return states.random_density(4, rng=rng)


def _check_sound_and_ordered(verdicts, separable: bool) -> None:
    """No verdict flags a separable state, and every implication holds."""
    if separable:
        assert all(v.status == "ok" and not v.detected for v in verdicts), \
            [(v.name, v.status, v.margin) for v in verdicts if v.detected]
    flags = {v.name: v.detected for v in verdicts}
    for stronger, weaker in IMPLICATIONS:
        assert flags[weaker] or not flags[stronger], (stronger, weaker)


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


@pytest.mark.parametrize("dims", [(2, 3), (3, 4)])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**31 - 1), separable=st.booleans())
def test_uneven_verdicts_invariant_under_subsystem_swap(dims, seed, separable):
    """Every criterion reads the state as given, so the two orders of the
    sides are two different computations; they give the same margins to
    rounding, on separable mixtures of 1 term (a rank-deficient C) up."""
    da, db = dims
    rng = np.random.default_rng([97, da, db, seed])
    if separable:
        rho = states.random_separable(da, db, int(rng.integers(1, 16)), rng=rng)
    else:
        rho = states.random_density(da * db, rng=rng)
    here = run_all(rho, dims)
    there = run_all(matlin.swap_subsystems(rho, dims), (db, da))
    _check_sound_and_ordered(here, separable)
    _check_sound_and_ordered(there, separable)
    assert [(v.name, v.detected) for v in there] == \
        [(v.name, v.detected) for v in here]
    for v, w in zip(here, there):
        if v.name in SWAP_MARGIN_CRITERIA:
            assert abs(v.margin - w.margin) <= SWAP_MARGIN_TOL, v.name


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 5), (3, 4)])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**31 - 1), separable=st.booleans())
def test_verdicts_and_margins_invariant_under_local_unitaries(dims, seed, separable):
    """(U_A x U_B) rho (U_A x U_B)^dagger gets the same flags, and the same
    margins within SWAP_MARGIN_TOL (LU_FILTER_MARGIN_TOL for the filter),
    the Ky-Fan shifts included at d_A = d_B, the only dims they run at.
    Separable mixtures of few terms have a rank-deficient C, whose null
    space the uneven trace test must not read off an arbitrary basis."""
    da, db = dims
    rng = np.random.default_rng([99, da, db, seed])
    if separable:
        rho = states.random_separable(da, db, int(rng.integers(1, 16)), rng=rng)
    else:
        rho = states.random_density(da * db, rng=rng)
    u = np.kron(_haar_unitary(da, rng), _haar_unitary(db, rng))
    here = run_all(rho, dims)
    there = run_all(u @ rho @ u.conj().T, dims)
    _check_sound_and_ordered(here, separable)
    _check_sound_and_ordered(there, separable)
    assert [(v.name, v.detected) for v in there] == \
        [(v.name, v.detected) for v in here]
    compared = SWAP_MARGIN_CRITERIA + tuple(
        f"cmc_kyfan_weyl_s{s}" for s in range(1, da) if da == db)
    for v, w in zip(here, there):
        if v.name in compared:
            tol = LU_FILTER_MARGIN_TOL if v.name == "cmc_filter" else SWAP_MARGIN_TOL
            assert abs(v.margin - w.margin) <= tol, v.name


def _local_filter(d: int, rng: np.random.Generator) -> np.ndarray:
    """Invertible U diag(e^x) V with Haar U, V and x uniform in [-1, 1]."""
    return (_haar_unitary(d, rng) * np.exp(rng.uniform(-1.0, 1.0, d))
            ) @ _haar_unitary(d, rng)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 5)])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**31 - 1), separable=st.booleans())
def test_normal_form_invariant_under_local_filters(dims, seed, separable):
    """(F_A x F_B) rho (F_A x F_B)^dagger has the normal form of rho up to
    local unitaries: the same coefficients and the same filter verdict.

    The states are full rank: white noise mixed into a rank-deficient state
    does not commute with the filter, and its normal form depends on the
    noise."""
    da, db = dims
    rng = np.random.default_rng([98, da, db, seed])
    if separable:
        rho = states.random_separable(da, db, int(rng.integers(da * db, 16)),
                                      rng=rng)
    else:
        rho = states.random_density(da * db, rng=rng)
    f = np.kron(_local_filter(da, rng), _local_filter(db, rng))
    filtered = f @ rho @ f.conj().T
    filtered = (filtered + filtered.conj().T) / (2 * np.trace(filtered).real)
    here, there = normal_form(rho, dims), normal_form(filtered, dims)
    assert here.converged and there.converged
    assert here.noise_eps == there.noise_eps == 0.0
    assert np.max(np.abs(here.xi - there.xi)) <= XI_TOL
    assert cmc_filter(filtered, dims).detected == cmc_filter(rho, dims).detected
