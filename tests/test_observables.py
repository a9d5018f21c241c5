"""Tests for observable bases."""

import numpy as np
import pytest

from cmcsep import observables as obs
from cmcsep.matlin import MatrixError


def overlaps(basis):
    """Hilbert-Schmidt overlaps tr(M_i M_j)."""
    return np.real(np.einsum("iab,jba->ij", basis.ops, basis.ops))


def op_traces(basis):
    """Traces tr(M_i), real for Hermitian elements."""
    return np.real(np.einsum("iaa->i", basis.ops))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_standard_basis_gram(d):
    basis = obs.standard_basis(d)
    assert len(basis) == d * d
    np.testing.assert_allclose(overlaps(basis), np.eye(d * d), atol=1e-12)


def test_standard_basis_traceless_except_projectors():
    basis = obs.standard_basis(4)
    traces = op_traces(basis)
    np.testing.assert_allclose(traces[:4], 1.0, atol=1e-14)
    np.testing.assert_allclose(traces[4:], 0.0, atol=1e-14)
    herm = np.max(np.abs(basis.ops - basis.ops.conj().transpose(0, 2, 1)))
    assert herm < 1e-14


def test_standard_basis_rejects_d1():
    with pytest.raises(MatrixError):
        obs.standard_basis(1)


def test_pauli_basis_exact():
    basis = obs.pauli_basis()
    np.testing.assert_allclose(overlaps(basis), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(basis.ops[0], np.eye(2) / np.sqrt(2), atol=1e-15)
    assert abs(op_traces(basis)[0] - np.sqrt(2)) < 1e-14


def test_pauli_commutator():
    """[sigma_x, sigma_y]/2 = i sigma_z carries over to the normalized set."""
    m = obs.pauli_basis().ops
    comm = m[1] @ m[2] - m[2] @ m[1]
    np.testing.assert_allclose(comm, 1j * np.sqrt(2) * m[3], atol=1e-14)


def test_gellmann_matches_pauli_for_qubits():
    gm = obs.gellmann_like_basis(2)
    pauli = obs.pauli_basis()
    np.testing.assert_allclose(gm.ops[0], pauli.ops[0], atol=1e-15)
    # same traceless span, possibly reordered
    found = [any(np.allclose(g, p, atol=1e-12) for p in pauli.ops[1:])
             for g in gm.ops[1:]]
    assert all(found)


def test_gellmann_traceless_and_orthonormal():
    basis = obs.gellmann_like_basis(3)
    np.testing.assert_allclose(overlaps(basis), np.eye(9), atol=1e-12)
    np.testing.assert_allclose(op_traces(basis)[1:], 0.0, atol=1e-14)


def test_weyl_parity_basis_orthonormal():
    basis = obs.weyl_parity_basis(3)
    assert len(basis) == 9
    np.testing.assert_allclose(overlaps(basis), np.eye(9), atol=1e-12)


def test_weyl_parity_reflection_action():
    p0 = obs.parity_operator(5)
    for x in range(5):
        e = np.zeros(5)
        e[x] = 1.0
        out = p0 @ e
        expected = np.zeros(5)
        expected[(-x) % 5] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)


def test_weyl_parity_involutions():
    """Each displaced reflection squares to the identity before scaling."""
    basis = obs.weyl_parity_basis(3)
    for op in basis.ops:
        p = op * np.sqrt(3)
        np.testing.assert_allclose(p @ p, np.eye(3), atol=1e-12)


def test_weyl_parity_rejects_even():
    with pytest.raises(MatrixError):
        obs.weyl_parity_basis(4)


def test_make_basis_dispatch():
    assert obs.make_basis("pauli", 2).kind == "pauli"
    assert obs.make_basis("standard", 3).kind == "standard"
    assert obs.make_basis("gellmann", 4).kind == "gellmann"
    assert obs.make_basis("weyl", 3).kind == "weyl"
    with pytest.raises(MatrixError):
        obs.make_basis("pauli", 3)
    with pytest.raises(MatrixError):
        obs.make_basis("nope", 2)


@pytest.mark.parametrize("factory", [obs.standard_basis, obs.gellmann_like_basis])
def test_cached_basis_is_shared_and_read_only(factory):
    basis = factory(3)
    assert factory(3) is basis
    with pytest.raises(ValueError, match="read-only"):
        basis.ops[0, 0, 0] = 2.0
    np.testing.assert_array_equal(basis.ops, factory.__wrapped__(3).ops)


def test_pauli_basis_is_shared_and_read_only():
    basis = obs.pauli_basis()
    assert obs.pauli_basis() is basis
    with pytest.raises(ValueError, match="read-only"):
        basis.ops[1, 0, 1] = 2.0
    np.testing.assert_array_equal(basis.ops, obs.pauli_basis.__wrapped__().ops)
    np.testing.assert_array_equal(basis.ops, obs.gellmann_like_basis(2).ops)


def reference_standard_ops(d):
    """The standard basis as explicit per-family loops."""
    ops = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        ops.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            ops.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1j / np.sqrt(2)
            m[j, i] = -1j / np.sqrt(2)
            ops.append(m)
    return np.array(ops)


def reference_gellmann_ops(d):
    """The Gell-Mann-like basis as explicit per-family loops."""
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            ops.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            ops.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    return np.array(ops)


def bits(ops):
    """The raw float bits of a complex stack, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(ops).view(np.uint64)


@pytest.mark.parametrize("d", range(2, 8))
def test_bases_match_explicit_loops_bit_for_bit(d):
    """The shared pair builder reproduces the per-family loops, signed
    zeros included."""
    np.testing.assert_array_equal(bits(obs.standard_basis(d).ops),
                                  bits(reference_standard_ops(d)))
    np.testing.assert_array_equal(bits(obs.gellmann_like_basis(d).ops),
                                  bits(reference_gellmann_ops(d)))


def test_pauli_basis_matches_pauli_matrices_bit_for_bit():
    """{1, X, Y, Z}/sqrt2 from the literal Pauli matrices, whose -1j entry
    has a real part of -0.0."""
    ref = np.array([obs.PAULI[k] / np.sqrt(2) for k in "IXYZ"])
    assert np.signbit(ref[2, 0, 1].real)
    np.testing.assert_array_equal(bits(obs.pauli_basis().ops), bits(ref))
