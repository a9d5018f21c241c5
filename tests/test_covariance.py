"""Tests for covariance matrix construction, transformation, structure
theorems and Bloch inversion."""

import numpy as np
import pytest

from cmcsep import covariance as cov
from cmcsep import matlin, states
from cmcsep.matlin import MatrixError
from cmcsep.observables import (PAULI, ObservableBasis, gellmann_like_basis,
                                pauli_basis, standard_basis)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rotated(basis, o):
    """The basis K_i = sum_j O_ij M_j."""
    return ObservableBasis(basis.dim, np.einsum("ij,jab->iab", o, basis.ops),
                           "custom")


def random_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_maximally_mixed_qubit_cm():
    cm = cov.build_cm(np.eye(2) / 2, pauli_basis(), kind="symmetric")
    np.testing.assert_allclose(cm.matrix, np.diag([0, 0.5, 0.5, 0.5]), atol=1e-12)


def test_pure_qubit_cm_trace():
    rho = np.diag([1.0, 0.0])
    for kind in ("symmetric", "nonsymmetric"):
        cm = cov.build_cm(rho, pauli_basis(), kind=kind)
        assert abs(np.real(np.trace(cm.matrix)) - 1.0) < 1e-12


def test_cm_trace_equals_purity_deficit():
    rng = np.random.default_rng(40)
    basis = standard_basis(3)
    for _ in range(20):
        rho = states.random_density(3, rng=rng)
        purity = float(np.real(np.trace(rho @ rho)))
        for kind in ("symmetric", "nonsymmetric"):
            cm = cov.build_cm(rho, basis, kind=kind)
            assert abs(np.real(np.trace(cm.matrix)) - (3 - purity)) < 1e-10


def test_cm_operator_norm_bound():
    rng = np.random.default_rng(41)
    basis = gellmann_like_basis(3)
    for _ in range(20):
        rho = states.random_density(3, rng=rng)
        rho_norm = float(np.linalg.eigvalsh(rho)[-1])
        cm = cov.build_cm(rho, basis, kind="nonsymmetric")
        assert matlin.operator_norm(cm.matrix) <= rho_norm + 1e-10
        assert matlin.operator_norm(cm.linear_part) <= rho_norm + 1e-10


def test_cm_majorization_bound():
    """Ordered eigenvalue sums stay below min(k, d - delta/d)."""
    rng = np.random.default_rng(42)
    basis = standard_basis(3)
    for _ in range(20):
        rho = states.random_density(3, rng=rng)
        cm = cov.build_cm(rho, basis, kind="nonsymmetric")
        for mat, delta in ((cm.matrix, 1.0), (cm.linear_part, 0.0)):
            w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)[::-1]
            partial = np.cumsum(w)
            for k in range(1, 10):
                assert partial[k - 1] <= min(k, 3 - delta / 3) + 1e-9


def test_block_cm_product_state_uncorrelated():
    rng = np.random.default_rng(43)
    rho = np.kron(states.random_density(2, rng=rng),
                  states.random_density(3, rng=rng))
    bcm = cov.build_block_cm(rho, gellmann_like_basis(2), gellmann_like_basis(3))
    assert np.linalg.norm(bcm.c) < 1e-12


def test_block_cm_bell_cross_block():
    """Hand oracle: <sigma_i x sigma_j> of the Bell state is diag(1,-1,1)."""
    rho = states.bell_phi_plus()
    bcm = cov.build_block_cm(rho, pauli_basis(), pauli_basis())
    expected = np.zeros((4, 4))
    expected[1:, 1:] = np.diag([1.0, -1.0, 1.0]) / 2
    np.testing.assert_allclose(bcm.c, expected, atol=1e-12)


def test_block_cm_assembled_psd():
    rng = np.random.default_rng(44)
    basis = gellmann_like_basis(3)
    for _ in range(10):
        rho = states.random_density(9, rng=rng)
        bcm = cov.build_block_cm(rho, basis, basis)
        w = np.linalg.eigvalsh(bcm.assembled())
        assert w[0] > -1e-9


def test_transform_cm_identity():
    rng = np.random.default_rng(45)
    rho = states.random_density(2, rng=rng)
    cm = cov.build_cm(rho, pauli_basis())
    out = cov.build_cm(rho, rotated(pauli_basis(), np.eye(4)))
    np.testing.assert_allclose(out.matrix, cm.matrix, atol=1e-14)


def test_transform_block_cm_keeps_blocks():
    """Local basis changes O_A (+) O_B map the block CM to
    (O_A (+) O_B) gamma (O_A (+) O_B)^T, block by block."""
    rng = np.random.default_rng(46)
    rho = states.random_density(6, rng=rng)
    ba, bb = gellmann_like_basis(2), gellmann_like_basis(3)
    bcm = cov.build_block_cm(rho, ba, bb)
    oa = random_orthogonal(4, rng)
    ob = random_orthogonal(9, rng)
    rot = cov.build_block_cm(rho, rotated(ba, oa), rotated(bb, ob))
    big = np.zeros((13, 13))
    big[:4, :4] = oa
    big[4:, 4:] = ob
    np.testing.assert_allclose(rot.assembled(), big @ bcm.assembled() @ big.T,
                               atol=1e-12)


def test_transform_cm_spectrum_invariant():
    """The basis change K = O M maps the CM to O gamma O^T, of the same
    spectrum."""
    rng = np.random.default_rng(47)
    rho = states.random_density(3, rng=rng)
    cm = cov.build_cm(rho, standard_basis(3), kind="symmetric")
    o = random_orthogonal(9, rng)
    out = cov.build_cm(rho, rotated(standard_basis(3), o), kind="symmetric")
    np.testing.assert_allclose(out.matrix, o @ cm.matrix @ o.T, atol=1e-12)
    np.testing.assert_allclose(out.first_moments, o @ cm.first_moments,
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(out.matrix),
                               np.linalg.eigvalsh(cm.matrix), atol=1e-9)


def test_cm_transforms_with_unitary_conjugation():
    """gamma(U^dag rho U) = O gamma(rho) O^T for the O with
    U M_i U^dag = sum_j O_ij M_j, re-expanded as O_ij = Re tr(U M_i U^dag M_j)."""
    rng = np.random.default_rng(48)
    basis = standard_basis(3)
    rho = states.random_density(3, rng=rng)
    u = random_unitary(3, rng)
    conj = u @ basis.ops @ u.conj().T
    o = np.real(np.einsum("iab,jba->ij", conj, basis.ops))
    np.testing.assert_allclose(o @ o.T, np.eye(9), atol=1e-12)
    left = cov.build_cm(u.conj().T @ rho @ u, basis, kind="nonsymmetric").matrix
    right = o @ cov.build_cm(rho, basis, kind="nonsymmetric").matrix @ o.T
    assert np.max(np.abs(left - right)) < 1e-9


def cm_spectrum(cm):
    """Eigenvalues of a CM, non-increasing."""
    return np.linalg.eigvalsh((cm.matrix + cm.matrix.conj().T) / 2)[::-1]


def test_pure_cm_structure_qubit():
    """A pure state's non-symmetric CM is a rank d-1 projector; its
    symmetric CM has rank 2(d-1) with eigenvalues 1/2."""
    rho = np.diag([1.0, 0.0])
    cm = cov.build_cm(rho, standard_basis(2), kind="nonsymmetric")
    np.testing.assert_allclose(cm_spectrum(cm), [1, 0, 0, 0], atol=1e-10)
    assert np.linalg.norm(cm.matrix @ cm.matrix - cm.matrix) < 1e-8
    cm_s = cov.build_cm(rho, standard_basis(2), kind="symmetric")
    np.testing.assert_allclose(cm_spectrum(cm_s), [0.5, 0.5, 0, 0], atol=1e-10)


def test_pure_cm_structure_random_d4():
    rng = np.random.default_rng(52)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    cm = cov.build_cm(np.outer(v, v.conj()), standard_basis(4),
                      kind="nonsymmetric")
    w = cm_spectrum(cm)
    assert int(np.sum(w > 1e-6)) == 3
    assert abs(np.sum(w) - 3.0) < 1e-10
    assert np.linalg.norm(cm.matrix @ cm.matrix - cm.matrix) < 1e-8


def test_concavity_single_state():
    rng = np.random.default_rng(53)
    rho = states.random_density(3, rng=rng)
    val = cov.concavity_check([rho], [1.0], standard_basis(3))
    assert abs(val) < 1e-10


def test_concavity_two_projectors():
    rhos = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    val = cov.concavity_check(rhos, [0.5, 0.5], pauli_basis())
    assert val > -1e-12


def test_concavity_random_mixtures():
    rng = np.random.default_rng(54)
    basis = standard_basis(3)
    for _ in range(100):
        k = rng.integers(2, 5)
        rhos = [states.random_density(3, rng=rng) for _ in range(k)]
        p = rng.exponential(size=k)
        p /= p.sum()
        assert cov.concavity_check(rhos, p, basis) > -1e-9


def test_bloch_invert_centered_state_fixed():
    """States with vanishing A-side Bloch vector are fixed points."""
    rho = states.werner_2q(0.7)
    out, wmin = cov.bloch_invert(rho, side="A")
    np.testing.assert_allclose(out, rho, atol=1e-12)
    assert wmin > -1e-12


def pauli_table_bloch_invert(rho, side):
    """Bloch inversion through the 4x4 table <sigma_mu x sigma_nu>: flip the
    chosen side's Bloch vector, shift the correlations by -2 <s^A><s^B>, and
    rebuild the state term by term."""
    sig = [PAULI[k] for k in "IXYZ"]
    lam = np.array([[np.real(np.trace(rho @ np.kron(si, sj))) for sj in sig]
                    for si in sig])
    new = lam.copy()
    if side == "A":
        new[1:, 0] = -lam[1:, 0]
    else:
        new[0, 1:] = -lam[0, 1:]
    new[1:, 1:] = lam[1:, 1:] - 2.0 * np.outer(lam[1:, 0], lam[0, 1:])
    return sum(new[i, j] * np.kron(sig[i], sig[j])
               for i in range(4) for j in range(4)) / 4.0


@pytest.mark.parametrize("side", ["A", "B"])
def test_bloch_invert_matches_pauli_table(side):
    for i in range(50):
        rho = states.random_density(4, rng=np.random.default_rng([5, i]))
        out, wmin = cov.bloch_invert(rho, side=side)
        ref = pauli_table_bloch_invert(rho, side)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)
        assert abs(wmin - np.linalg.eigvalsh(ref)[0]) < 1e-14


def test_bloch_invert_preserves_block_cm():
    rng = np.random.default_rng(55)
    for _ in range(10):
        rho = states.random_density(4, rng=rng)
        out, wmin = cov.bloch_invert(rho, side="A")
        if wmin < 1e-10:
            continue
        basis = pauli_basis()
        a = cov.build_block_cm(rho, basis, basis)
        b = cov.build_block_cm(out, basis, basis)
        assert np.max(np.abs(a.assembled() - b.assembled())) < 1e-10


def test_double_bloch_flip_is_isospectral():
    rng = np.random.default_rng(56)
    rho = states.random_density(4, rng=rng)
    step, _ = cov.bloch_invert(rho, side="A")
    both, _ = cov.bloch_invert(step, side="B")
    np.testing.assert_allclose(np.linalg.eigvalsh(both),
                               np.linalg.eigvalsh(rho), atol=1e-9)


def test_bloch_invert_can_leave_state_cone():
    """Part of the rho_epsilon family inverts to a non-positive matrix."""
    hits = 0
    for eps in np.arange(0.55, 1.0, 0.05):
        for r in np.arange(0.0, 0.45, 0.05):
            if not states.rho_epsilon_valid(eps, r, 0.45, 1 / 16):
                continue
            _, wmin = cov.bloch_invert(
                states.rho_epsilon(eps, r, 0.45, 1 / 16), side="A")
            hits += wmin < -1e-12
    assert hits > 0


def test_symmetric_equals_transpose_iff_mixed_marginals():
    """gamma = gamma^T in the standard basis forces 1/d marginals; states
    with maximally mixed marginals give a symmetric block CM."""
    rho = states.bell_phi_plus()
    basis = standard_basis(2)
    bcm = cov.build_block_cm(rho, basis, basis, kind="nonsymmetric")
    full = bcm.assembled()
    assert np.max(np.abs(full - full.T)) < 1e-10

    rng = np.random.default_rng(57)
    rho2 = states.random_density(4, rng=rng)
    marg = matlin.partial_trace(rho2, (2, 2), "A")
    if np.max(np.abs(marg - np.eye(2) / 2)) > 1e-3:
        bcm2 = cov.build_block_cm(rho2, basis, basis, kind="nonsymmetric")
        full2 = bcm2.assembled()
        assert np.max(np.abs(full2 - full2.T)) > 1e-8


def test_two_qubit_effective_cm_shape():
    ge = cov.two_qubit_effective_cm(states.werner_2q(0.5))
    assert ge.shape == (6, 6)
    w = np.linalg.eigvalsh(ge)
    assert w[0] > -1e-10


def test_build_cm_rejects_bad_kind():
    with pytest.raises(MatrixError):
        cov.build_cm(np.eye(2) / 2, pauli_basis(), kind="weird")


def test_cm_json_export():
    import json

    rng = np.random.default_rng(58)
    rho = states.random_density(4, rng=rng)
    cm = cov.build_cm(rho, standard_basis(4), kind="nonsymmetric")
    doc = json.loads(json.dumps(cov.cm_to_json(cm)))
    assert doc["kind"] == "nonsymmetric"
    assert doc["basis"] == "standard"
    re = np.asarray(doc["matrix"]["re"])
    im = np.asarray(doc["matrix"]["im"])
    np.testing.assert_allclose(re + 1j * im, cm.matrix, atol=1e-15)

    bcm = cov.build_block_cm(rho, pauli_basis(), pauli_basis())
    bdoc = json.loads(json.dumps(cov.cm_to_json(bcm)))
    assert np.asarray(bdoc["blocks"]["c"]).shape == (4, 4)
    assert bdoc["first_moments"]["a"] is not None


def reference_second_moments(rho, ops):
    """<M_i M_j> as the former path-optimized einsum pair."""
    rm = np.einsum("ab,ibc->iac", rho, ops, optimize=True)
    return np.einsum("iab,jba->ij", rm, ops, optimize=True)


def reference_first_moments(rho, ops):
    return np.real(np.einsum("ab,iba->i", rho, ops, optimize=True))


@pytest.mark.parametrize("d,k", [(2, 3), (3, 9), (4, 5)])
def test_moments_match_einsum_on_non_hermitian_stacks(d, k):
    rng = np.random.default_rng([110, d])
    for _ in range(10):
        ops = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        np.testing.assert_allclose(cov.second_moments(rho, ops),
                                   reference_second_moments(rho, ops),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(cov.first_moments(rho, ops),
                                   reference_first_moments(rho, ops),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_build_cm_matches_einsum_reference(kind, d):
    """Both CM kinds from the matmul moments equal those from the einsum,
    bit for bit on the Gell-Mann-like basis and to rounding on the
    standard basis."""
    rng = np.random.default_rng([111, d])
    for basis, exact in ((gellmann_like_basis(d), True), (standard_basis(d), False)):
        for _ in range(10):
            rho = matlin.hermitize(states.random_density(d, rng=rng))
            g = reference_second_moments(rho, basis.ops)
            m = reference_first_moments(rho, basis.ops)
            ref = (np.real(g) - np.outer(m, m) if kind == "symmetric"
                   else g - np.outer(m, m))
            got = cov.build_cm(rho, basis, kind=kind).matrix
            if exact:
                np.testing.assert_array_equal(got, ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)


def test_effective_cm_is_traceless_part_of_gellmann_block_cm():
    """On two qubits the Gell-Mann-like basis is the Pauli basis, so the
    effective CM cut from the Gell-Mann block CM is the same array."""
    rng = np.random.default_rng(112)
    keep = np.ix_([1, 2, 3, 5, 6, 7], [1, 2, 3, 5, 6, 7])
    for _ in range(10):
        rho = states.random_density(4, rng=rng)
        gm = cov.build_block_cm(rho, gellmann_like_basis(2),
                                gellmann_like_basis(2), kind="symmetric")
        pauli = cov.build_block_cm(rho, pauli_basis(), pauli_basis(),
                                   kind="symmetric")
        np.testing.assert_array_equal(gm.traceless_part(),
                                      pauli.assembled()[keep])
        np.testing.assert_array_equal(cov.two_qubit_effective_cm(rho),
                                      pauli.assembled()[keep])


@pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
def test_block_cm_checks_positivity_once(kind, monkeypatch):
    """The marginal CMs are principal submatrices of the block CM, so its
    one check rejects a state whose A marginal has a Bloch vector of length
    2, as build_cm does on that marginal."""
    rho = np.diag([1.5, 0.0, 0.0, -0.5]).astype(complex)
    with pytest.raises(MatrixError, match="block covariance matrix"):
        cov.build_block_cm(rho, pauli_basis(), pauli_basis(), kind=kind)
    marginal = matlin.partial_trace(rho, (2, 2), keep="A")
    with pytest.raises(MatrixError, match="covariance matrix has eigenvalue"):
        cov.build_cm(marginal, pauli_basis(), kind=kind)

    checks = []
    check = cov._check_cm_psd
    monkeypatch.setattr(cov, "_check_cm_psd",
                        lambda m, what: checks.append(what) or check(m, what))
    cov.build_block_cm(states.werner_2q(0.5), pauli_basis(), pauli_basis(),
                       kind=kind)
    assert checks == [f"{kind} block covariance matrix"]
