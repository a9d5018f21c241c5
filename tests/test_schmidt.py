"""Tests for the operator Schmidt decomposition."""

import numpy as np
import pytest

from cmcsep import matlin, states
from cmcsep.criteria import cmc_schmidt
from cmcsep.schmidt import operator_schmidt


def test_product_state_rank_one():
    """A product state has a single coefficient |rho_A|_F |rho_B|_F."""
    rng = np.random.default_rng(60)
    ra = states.random_density(2, rng=rng)
    rb = states.random_density(3, rng=rng)
    dec = operator_schmidt(np.kron(ra, rb), 2, 3)
    assert np.sum(dec.lambdas > 1e-10) == 1
    expected = np.linalg.norm(ra) * np.linalg.norm(rb)
    assert abs(dec.lambdas[0] - expected) < 1e-12


def test_bell_state_coefficients():
    dec = operator_schmidt(states.bell_phi_plus(), 2, 2)
    np.testing.assert_allclose(dec.lambdas, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(np.sum(dec.lambdas) - 2.0) < 1e-12


def test_purity_identity():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rho = states.random_density(9, rng=rng)
        dec = operator_schmidt(rho, 3, 3)
        purity = float(np.real(np.trace(rho @ rho)))
        assert abs(np.sum(dec.lambdas**2) - purity) < 1e-10


def test_lambdas_match_realignment_singular_values():
    """Two routes to the same spectrum: coefficient-matrix SVD vs
    realignment SVD."""
    rng = np.random.default_rng(62)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        rho = states.random_density(dims[0] * dims[1], rng=rng)
        dec = operator_schmidt(rho, *dims)
        sv = np.linalg.svd(matlin.realign(rho, dims), compute_uv=False)
        np.testing.assert_allclose(dec.lambdas, sv[: len(dec.lambdas)],
                                   atol=1e-10)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 2), (2, 5)])
def test_trace_identities(dims):
    """The operator traces reproduce tr rho and both marginal purities:
    rho_A = sum l_k g_B,k G_k^A, and likewise for B, with orthonormal G."""
    da, db = dims
    rho = states.random_density(da * db, rng=np.random.default_rng([63, da, db]))
    dec = operator_schmidt(rho, da, db)
    lam, ga, gb = dec.lambdas, dec.g_a, dec.g_b
    rho_a = matlin.partial_trace(rho, dims, keep="A")
    rho_b = matlin.partial_trace(rho, dims, keep="B")
    purity = lambda m: float(np.real(np.trace(m @ m)))
    assert abs(np.sum(lam * ga * gb) - np.real(np.trace(rho))) <= 1e-12
    assert abs(np.sum(lam**2 * gb**2) - purity(rho_a)) <= 1e-12
    assert abs(np.sum(lam**2 * ga**2) - purity(rho_b)) <= 1e-12


def test_degenerate_permutation_leaves_margin():
    """Permuting coefficient-degenerate terms is a symmetry of the
    criterion value."""
    rho = states.werner_2q(0.7)
    dec = operator_schmidt(rho, 2, 2)
    lam, ga, gb = dec.lambdas, dec.g_a, dec.g_b
    margin = cmc_schmidt(rho, (2, 2)).margin

    groups = {}
    for k, val in enumerate(np.round(lam, 10)):
        groups.setdefault(val, []).append(k)
    assert any(len(g) > 1 for g in groups.values())
    perm = np.arange(len(lam))
    for g in groups.values():
        perm[g] = np.roll(g, 1)
    lam2, ga2, gb2 = lam[perm], ga[perm], gb[perm]
    lhs = 2 * np.sum(np.abs(lam2 - lam2**2 * ga2 * gb2))
    rhs = 2 - np.sum(lam2**2 * (ga2**2 + gb2**2))
    assert abs((lhs - rhs) - margin) < 1e-10
