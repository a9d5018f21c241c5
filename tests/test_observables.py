"""Tests for observable bases."""

import numpy as np
import pytest

from cmcsep import observables as obs
from cmcsep.matlin import MatrixError


@pytest.mark.parametrize("d", [2, 3, 4])
def test_standard_basis_gram(d):
    basis = obs.standard_basis(d)
    assert len(basis) == d * d
    np.testing.assert_allclose(basis.gram(), np.eye(d * d), atol=1e-12)


def test_standard_basis_traceless_except_projectors():
    basis = obs.standard_basis(4)
    traces = basis.traces()
    np.testing.assert_allclose(traces[:4], 1.0, atol=1e-14)
    np.testing.assert_allclose(traces[4:], 0.0, atol=1e-14)
    herm = np.max(np.abs(basis.ops - basis.ops.conj().transpose(0, 2, 1)))
    assert herm < 1e-14


def test_standard_basis_rejects_d1():
    with pytest.raises(MatrixError):
        obs.standard_basis(1)


def test_pauli_basis_exact():
    basis = obs.pauli_basis()
    np.testing.assert_allclose(basis.gram(), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(basis.ops[0], np.eye(2) / np.sqrt(2), atol=1e-15)
    assert abs(basis.traces()[0] - np.sqrt(2)) < 1e-14


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
    np.testing.assert_allclose(basis.gram(), np.eye(9), atol=1e-12)
    np.testing.assert_allclose(basis.traces()[1:], 0.0, atol=1e-14)


def test_weyl_parity_basis_orthonormal():
    basis = obs.weyl_parity_basis(3)
    assert len(basis) == 9
    np.testing.assert_allclose(basis.gram(), np.eye(9), atol=1e-12)


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
