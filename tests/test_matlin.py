"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from cmcsep import matlin
from cmcsep.matlin import MatrixError


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def reference_partial_transpose(rho, dims):
    """Element-by-element partial transpose over B, independent of the
    kernel."""
    da, db = dims
    out = np.zeros_like(rho)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out[i * db + l, k * db + j] = rho[i * db + j, k * db + l]
    return out


def test_hermitize_rejects_asymmetry():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MatrixError, match="asymmetry"):
        matlin.hermitize(m)


def test_trace_norm_against_gram_eigenvalues():
    """Oracle: singular values are the square roots of the nonzero Gram
    eigenvalues (small side, so no spurious zeros enter the square root)."""
    rng = np.random.default_rng(14)
    m = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    gram_eigs = np.linalg.eigvalsh(m @ m.conj().T)
    expected = np.sum(np.sqrt(np.clip(gram_eigs, 0.0, None)))
    assert abs(matlin.trace_norm(m) - expected) < 1e-10


def test_trace_norm_diag_half():
    assert abs(matlin.trace_norm(np.eye(4) / 2) - 2.0) < 1e-14


def test_ky_fan_direct():
    assert abs(matlin.ky_fan_norm(np.diag([3.0, 2.0, 1.0]), 2) - 5.0) < 1e-14


def test_ky_fan_monotone_in_k():
    rng = np.random.default_rng(15)
    for _ in range(100):
        m = rng.normal(size=(6, 6))
        vals = [matlin.ky_fan_norm(m, k) for k in range(1, 7)]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(5))


def test_ky_fan_range_check():
    with pytest.raises(MatrixError):
        matlin.ky_fan_norm(np.eye(3), 4)
    with pytest.raises(MatrixError):
        matlin.ky_fan_norm(np.eye(3), 0)


def test_norm_special_cases_agree():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert abs(matlin.operator_norm(m) - matlin.ky_fan_norm(m, 1)) < 1e-12
    assert abs(matlin.trace_norm(m) - matlin.ky_fan_norm(m, 5)) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(17)
    a = random_hermitian(2, rng)
    a = a @ a.conj().T
    a /= np.trace(a)
    b = random_hermitian(3, rng)
    b = b @ b.conj().T
    b /= np.trace(b)
    rho = np.kron(a, b)
    np.testing.assert_allclose(matlin.partial_trace(rho, (2, 3), "A"), a, atol=1e-12)
    np.testing.assert_allclose(matlin.partial_trace(rho, (2, 3), "B"), b, atol=1e-12)


def test_partial_trace_bell():
    """A maximally entangled state has maximally mixed marginals."""
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(v, v)
    np.testing.assert_allclose(matlin.partial_trace(rho, (2, 2), "A"),
                               np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(18)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    m = m @ m.conj().T
    m /= np.trace(m)
    assert abs(np.trace(matlin.partial_trace(m, (3, 3), "B")) - 1.0) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(MatrixError):
        matlin.partial_trace(np.eye(5), (2, 3))


def test_partial_transpose_matches_reference():
    rng = np.random.default_rng(19)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        n = dims[0] * dims[1]
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        np.testing.assert_allclose(matlin.partial_transpose(m, dims),
                                   reference_partial_transpose(m, dims), atol=1e-14)


def test_partial_transpose_separable_psd():
    rng = np.random.default_rng(20)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a @ a.conj().T
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = b @ b.conj().T
    rho = np.kron(a, b)
    rho /= np.trace(rho)
    w = np.linalg.eigvalsh(matlin.partial_transpose(rho, (2, 2)))
    assert w[0] > -1e-12


def test_partial_transpose_bell_eigenvalue():
    """PT of the Bell projector is SWAP/2 with minimal eigenvalue -1/2."""
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    pt = matlin.partial_transpose(np.outer(v, v), (2, 2))
    swap_half = np.array([[1, 0, 0, 0],
                          [0, 0, 1, 0],
                          [0, 1, 0, 0],
                          [0, 0, 0, 1]]) / 2.0
    np.testing.assert_allclose(pt, swap_half, atol=1e-14)
    assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12


def test_partial_transpose_involution(monkeypatch):
    monkeypatch.setattr(matlin, "DEFAULT_NOISE_EPS", 0.5)
    rng = np.random.default_rng(21)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    twice = matlin.partial_transpose(matlin.partial_transpose(m, (2, 3)), (2, 3))
    assert np.max(np.abs(twice - m)) < 1e-14
    # it permutes entries, so the PT of every source of CheckedState.rho
    # (a hermitized state, its noise mixture) is exactly Hermitian
    for dims in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (3, 4)]:
        n = dims[0] * dims[1]
        for rank in (1, n):
            g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            st = matlin.as_state(g @ g.conj().T / np.linalg.norm(g) ** 2, dims)
            mixed, eps = st.mixed()
            assert eps == 0.5
            for s in (st, mixed):
                pt = matlin.partial_transpose(s.rho, s.dims)
                assert np.array_equal(pt, pt.conj().T)


def test_realign_product_rank_one():
    rng = np.random.default_rng(22)
    a = random_hermitian(3, rng)
    b = random_hermitian(3, rng)
    r = matlin.realign(np.kron(a, b), (3, 3))
    s = np.linalg.svd(r, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == 1


def test_realign_bell_trace_norm():
    """Oracle: sqrt of Gram eigenvalues of the realigned Bell projector."""
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    r = matlin.realign(np.outer(v, v), (2, 2))
    gram = np.linalg.eigvalsh(r.conj().T @ r)
    assert abs(np.sum(np.sqrt(np.clip(gram, 0, None))) - 2.0) < 1e-12


def test_realign_frobenius_isometry():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(np.linalg.norm(matlin.realign(m, (2, 3)))
                   - np.linalg.norm(m)) < 1e-12


@pytest.mark.parametrize("da,db,ka,kb", [(2, 3, 3, 7), (3, 2, 9, 4), (2, 5, 4, 25)])
def test_joint_moments_matches_contraction(da, db, ka, kb):
    """Re tr(m (A_i x B_j)) for arbitrary complex m and non-Hermitian
    operator stacks of uneven sizes."""
    rng = np.random.default_rng([24, da, db])
    n = da * db
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ops_a = rng.normal(size=(ka, da, da)) + 1j * rng.normal(size=(ka, da, da))
    ops_b = rng.normal(size=(kb, db, db)) + 1j * rng.normal(size=(kb, db, db))
    expected = np.real(np.einsum("abcd,ica,jdb->ij", m.reshape(da, db, da, db),
                                 ops_a, ops_b))
    got = matlin.joint_moments(m, ops_a, ops_b)
    assert got.shape == (ka, kb)
    assert np.max(np.abs(got - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_swap_subsystems():
    rng = np.random.default_rng(24)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    np.testing.assert_allclose(matlin.swap_subsystems(np.kron(a, b), (2, 3)),
                               np.kron(b, a), atol=1e-14)
