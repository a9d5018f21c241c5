"""Covariance matrices of observable sets: construction, block form,
concavity, Bloch inversion, and state reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import STATE_RTOL, MatrixError, as_matrix, hermitize
from .observables import ObservableBasis, pauli_basis

# Accumulated rounding across d^2-term sums; eigenvalues below this floor
# signal an invalid input state rather than a detection result.
PSD_FLOOR = -1e-9

RECONSTRUCTION_TOL = 1e-8


class InconsistentCovarianceError(ValueError):
    """No physical state reproduces the given covariance matrix."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance matrix of a full observable basis on one system.

    ``kind`` is ``symmetric`` (real, anticommutator convention) or
    ``nonsymmetric`` (complex Hermitian, operator-ordered).  The linear part
    <M_i M_j> (symmetrized for the symmetric kind) rides along for criteria
    that need second moments alone.
    """

    kind: str
    matrix: np.ndarray = field(repr=False)
    basis: ObservableBasis = field(repr=False)
    first_moments: np.ndarray = field(repr=False)
    linear_part: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class BlockCovarianceMatrix:
    """Covariance matrix over {A_k x 1, 1 x B_k}, stored by blocks.

    ``a`` and ``b`` are the local covariance matrices of the reduced states,
    ``c`` the cross-correlation block <A_i x B_j> - <A_i><B_j> (real in any
    Hermitian product basis).
    """

    kind: str
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    basis_a: ObservableBasis = field(repr=False)
    basis_b: ObservableBasis = field(repr=False)
    purity_a: float = 0.0
    purity_b: float = 0.0
    moments_a: np.ndarray | None = field(default=None, repr=False)
    moments_b: np.ndarray | None = field(default=None, repr=False)

    def assembled(self) -> np.ndarray:
        top = np.hstack([self.a, self.c.astype(self.a.dtype)])
        bot = np.hstack([self.c.T.astype(self.b.dtype), self.b])
        return np.vstack([top, bot])

    def traceless_part(self) -> np.ndarray:
        """Assembled CM without the rows and columns of each basis's first
        element; for bases led by the identity these vanish."""
        na = len(self.basis_a)
        keep = [i for i in range(na + len(self.basis_b)) if i not in (0, na)]
        return self.assembled()[np.ix_(keep, keep)]


def second_moments(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Matrix of <M_i M_j> = tr(rho M_i M_j), as one matmul of the
    flattened M_j against the flattened (rho M_i)^T.

    Summing over (b, a) in that order reproduces the former einsum bit for
    bit on the sparse Gell-Mann-like bases."""
    k, d = ops.shape[:2]
    prod_t = (rho @ ops).transpose(0, 2, 1).reshape(k, d * d)
    return (ops.reshape(k, d * d) @ prod_t.T).T


def first_moments(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Vector of Re tr(rho M_i)."""
    k, d = ops.shape[:2]
    return np.real(ops.transpose(0, 2, 1).reshape(k, d * d) @ rho.ravel())


def _check_cm_psd(matrix: np.ndarray, what: str) -> None:
    wmin = float(np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)[0])
    if wmin < PSD_FLOOR:
        raise MatrixError(
            f"{what} has eigenvalue {wmin:.3e} below {PSD_FLOOR:.0e}; "
            "input state is numerically invalid"
        )


def build_cm(rho, basis: ObservableBasis, kind: str = "symmetric") -> CovarianceMatrix:
    """Covariance matrix gamma_ij = <M_i M_j> - <M_i><M_j> of ``rho``.

    The symmetric kind replaces the first term by the anticommutator mean
    and is real; both kinds are positive semidefinite for valid states.
    """
    r = hermitize(rho, rtol=STATE_RTOL)
    d = basis.dim
    if r.shape != (d, d):
        raise MatrixError(f"state shape {r.shape} does not match basis dim {d}")
    cm = _cm(r, basis, kind)
    _check_cm_psd(cm.matrix, f"{kind} covariance matrix")
    return cm


def _cm(r: np.ndarray, basis: ObservableBasis, kind: str) -> CovarianceMatrix:
    g = second_moments(r, basis.ops)
    m = first_moments(r, basis.ops)
    if kind == "symmetric":
        lin = np.real(g)
        cm = lin - np.outer(m, m)
    elif kind == "nonsymmetric":
        lin = g
        cm = g - np.outer(m, m).astype(complex)
    else:
        raise MatrixError(f"kind must be 'symmetric' or 'nonsymmetric', got {kind!r}")
    return CovarianceMatrix(kind=kind, matrix=cm, basis=basis,
                            first_moments=m, linear_part=lin)


def build_block_cm(rho, basis_a: ObservableBasis, basis_b: ObservableBasis,
                   kind: str = "symmetric") -> BlockCovarianceMatrix:
    """Block covariance matrix of a bipartite state over local bases."""
    da, db = basis_a.dim, basis_b.dim
    r = hermitize(rho, rtol=STATE_RTOL)
    if r.shape != (da * db, da * db):
        raise MatrixError(
            f"state shape {r.shape} does not match dims {da}x{db}"
        )
    # marginals of an exactly Hermitian matrix are exactly Hermitian
    rho_a = matlin.partial_trace(r, (da, db), keep="A")
    rho_b = matlin.partial_trace(r, (da, db), keep="B")
    cm_a = _cm(rho_a, basis_a, kind)
    cm_b = _cm(rho_b, basis_b, kind)
    joint = matlin.joint_moments(r, basis_a.ops, basis_b.ops)
    c = joint - np.outer(cm_a.first_moments, cm_b.first_moments)
    bcm = BlockCovarianceMatrix(
        kind=kind, a=cm_a.matrix, b=cm_b.matrix, c=c,
        basis_a=basis_a, basis_b=basis_b,
        purity_a=float(np.real(np.trace(rho_a @ rho_a))),
        purity_b=float(np.real(np.trace(rho_b @ rho_b))),
        moments_a=cm_a.first_moments, moments_b=cm_b.first_moments,
    )
    # the marginal CMs are principal submatrices, so by eigenvalue
    # interlacing this one check also covers both of them
    _check_cm_psd(bcm.assembled(), f"{kind} block covariance matrix")
    return bcm


def _moments_from_commutators(gamma: np.ndarray, basis: ObservableBasis) -> tuple[np.ndarray, float]:
    """First moments from the antisymmetric part of a non-symmetric CM.

    gamma_ij - gamma_ji = <[M_i, M_j]> is linear in the moments; together
    with tr(rho) = 1 this is an (overdetermined) real linear system.
    Returns the moments and the least-squares residual of that system.
    """
    ops = basis.ops
    n = len(basis)
    comm = np.einsum("iab,jbc->ijac", ops, ops) - np.einsum("jab,ibc->ijac", ops, ops)
    # [M_i, M_j] = i sum_k f_ijk M_k with real f
    f = np.real(np.einsum("ijab,kba->ijk", comm, ops) / 1j)
    iu, ju = np.triu_indices(n, k=1)
    amat = np.vstack([f[iu, ju, :], basis.traces()[None, :]])
    target = np.concatenate([
        2.0 * np.imag(gamma[iu, ju]),
        [1.0],
    ])
    m, *_ = np.linalg.lstsq(amat, target, rcond=None)
    residual = float(np.linalg.norm(amat @ m - target))
    return m, residual


def reconstruct_state(cm: CovarianceMatrix | BlockCovarianceMatrix) -> np.ndarray:
    """Rebuild the density matrix determined by a non-symmetric CM.

    Needs the standard basis, whose commutator relations close on the basis
    itself.  For a block CM both marginals are reconstructed first and the
    product moments follow from the cross block.  Raises
    InconsistentCovarianceError when no state reproduces the input to
    RECONSTRUCTION_TOL.
    """
    if isinstance(cm, BlockCovarianceMatrix):
        return _reconstruct_block(cm)
    if cm.kind != "nonsymmetric":
        raise MatrixError("reconstruction needs the non-symmetric covariance kind")
    if cm.basis.kind != "standard":
        raise MatrixError("reconstruction is defined for the standard basis; "
                          "build the CM in that basis")
    moments, lin_res = _moments_from_commutators(cm.matrix, cm.basis)
    rho = np.einsum("i,iab->ab", moments, cm.basis.ops)
    rho = (rho + rho.conj().T) / 2
    check = build_cm(rho, cm.basis, kind="nonsymmetric")
    residual = float(np.linalg.norm(check.matrix - cm.matrix)) + lin_res
    if residual > RECONSTRUCTION_TOL * max(1.0, float(np.linalg.norm(cm.matrix))):
        raise InconsistentCovarianceError("covariance matrix is not reproduced "
                                          "by any state", residual)
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < PSD_FLOOR:
        raise InconsistentCovarianceError("reconstructed matrix is not positive "
                                          "semidefinite", -wmin)
    return rho


def _reconstruct_block(bcm: BlockCovarianceMatrix) -> np.ndarray:
    if bcm.kind != "nonsymmetric":
        raise MatrixError("reconstruction needs the non-symmetric covariance kind")
    if bcm.basis_a.kind != "standard" or bcm.basis_b.kind != "standard":
        raise MatrixError("block reconstruction is defined for standard bases")
    ma, res_a = _moments_from_commutators(bcm.a, bcm.basis_a)
    mb, res_b = _moments_from_commutators(bcm.b, bcm.basis_b)
    joint = bcm.c + np.outer(ma, mb)
    rho = np.einsum("ij,iab,jcd->acbd", joint, bcm.basis_a.ops, bcm.basis_b.ops,
                    optimize=True)
    n = bcm.basis_a.dim * bcm.basis_b.dim
    rho = rho.reshape(n, n)
    rho = (rho + rho.conj().T) / 2
    check = build_block_cm(rho, bcm.basis_a, bcm.basis_b, kind="nonsymmetric")
    residual = (float(np.linalg.norm(check.assembled() - bcm.assembled()))
                + res_a + res_b)
    if residual > RECONSTRUCTION_TOL * max(1.0, float(np.linalg.norm(bcm.assembled()))):
        raise InconsistentCovarianceError("block covariance matrix is not "
                                          "reproduced by any state", residual)
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < PSD_FLOOR:
        raise InconsistentCovarianceError("reconstructed matrix is not positive "
                                          "semidefinite", -wmin)
    return rho


def concavity_check(rhos, probs, basis: ObservableBasis,
                    kind: str = "nonsymmetric") -> float:
    """Minimal eigenvalue of gamma(sum p_k rho_k) - sum p_k gamma(rho_k).

    Non-negative (to rounding) for any valid mixture.
    """
    probs = np.asarray(probs, dtype=float)
    if len(rhos) != len(probs) or len(rhos) == 0:
        raise MatrixError("need matching, non-empty state and weight lists")
    if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
        raise MatrixError("weights must form a probability distribution")
    mixture = sum(p * as_matrix(r) for p, r in zip(probs, rhos))
    gamma_mix = build_cm(mixture, basis, kind).matrix
    gamma_avg = sum(p * build_cm(r, basis, kind).matrix
                    for p, r in zip(probs, rhos))
    diff = gamma_mix - gamma_avg
    return float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])


def bloch_invert(rho, side: str = "A") -> tuple[np.ndarray, float]:
    """Flip the Bloch vector of one qubit while keeping the block CM fixed.

    <sigma_i> of the chosen side changes sign and the joint moments shift by
    -2<sigma_i^A><sigma_j^B>, which leaves every entry of the symmetric
    block CM invariant.  In closed form the A-side flip is
    rho - (2 rho_A - 1) x rho_B, and the B-side flip rho - rho_A x (2 rho_B - 1).
    The output need not be positive semidefinite; its minimal eigenvalue is
    returned alongside.
    """
    r = hermitize(rho, rtol=STATE_RTOL)
    if r.shape != (4, 4):
        raise MatrixError("Bloch inversion is defined for two-qubit states")
    if side not in ("A", "B"):
        raise MatrixError(f"side must be 'A' or 'B', got {side!r}")
    rho_a = matlin.partial_trace(r, (2, 2), keep="A")
    rho_b = matlin.partial_trace(r, (2, 2), keep="B")
    if side == "A":
        out = r - np.kron(2.0 * rho_a - np.eye(2), rho_b)
    else:
        out = r - np.kron(rho_a, 2.0 * rho_b - np.eye(2))
    return out, float(np.linalg.eigvalsh(out)[0])


def two_qubit_effective_cm(rho) -> np.ndarray:
    """6x6 symmetric block CM of a two-qubit state over the traceless Pauli
    observables sigma_k/sqrt2 (identity rows and columns vanish)."""
    basis = pauli_basis()
    return build_block_cm(rho, basis, basis, kind="symmetric").traceless_part()


def _matrix_to_json(m: np.ndarray):
    if np.iscomplexobj(m):
        return {"re": m.real.tolist(), "im": m.imag.tolist()}
    return m.tolist()


def cm_to_json(cm: CovarianceMatrix | BlockCovarianceMatrix) -> dict:
    """JSON-serializable export: kind, basis tag, dense matrix, moments."""
    if isinstance(cm, BlockCovarianceMatrix):
        return {
            "kind": cm.kind,
            "basis": [cm.basis_a.kind, cm.basis_b.kind],
            "blocks": {
                "a": _matrix_to_json(cm.a),
                "b": _matrix_to_json(cm.b),
                "c": _matrix_to_json(cm.c),
            },
            "matrix": _matrix_to_json(cm.assembled()),
            "first_moments": {
                "a": None if cm.moments_a is None else cm.moments_a.tolist(),
                "b": None if cm.moments_b is None else cm.moments_b.tolist(),
            },
            "purity": {"a": cm.purity_a, "b": cm.purity_b},
        }
    return {
        "kind": cm.kind,
        "basis": cm.basis.kind,
        "matrix": _matrix_to_json(cm.matrix),
        "first_moments": cm.first_moments.tolist(),
    }
