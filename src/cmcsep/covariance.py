"""Covariance matrices of observable sets: construction, block form,
concavity and Bloch inversion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import MatrixError, as_matrix, as_state, hermitize
from .observables import ObservableBasis

# Accumulated rounding across d^2-term sums; eigenvalues below this floor
# signal an invalid input state rather than a detection result.
PSD_FLOOR = -1e-9


@dataclass(frozen=True)
class BlockCovarianceMatrix:
    """Covariance matrix over {A_k x 1, 1 x B_k}, stored by blocks.

    ``a`` and ``b`` are the local covariance matrices of the reduced states,
    ``c`` the cross-correlation block <A_i x B_j> - <A_i><B_j> (real in any
    Hermitian product basis), and ``joint`` the joint moments <A_i x B_j>
    it is built from.
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
    joint: np.ndarray | None = field(default=None, repr=False)

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


def build_cm(rho, basis: ObservableBasis, kind: str = "symmetric") -> np.ndarray:
    """Covariance matrix gamma_ij = <M_i M_j> - <M_i><M_j> of ``rho``.

    The symmetric kind replaces the first term by the anticommutator mean
    and is real; both kinds are positive semidefinite for valid states.
    """
    r = hermitize(rho)
    d = basis.dim
    if r.shape != (d, d):
        raise MatrixError(f"state shape {r.shape} does not match basis dim {d}")
    cm, _ = _cm(r, basis, kind)
    _check_cm_psd(cm, f"{kind} covariance matrix")
    return cm


def _cm(r: np.ndarray, basis: ObservableBasis,
        kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The covariance matrix of ``r`` and its first moments, unchecked."""
    g = second_moments(r, basis.ops)
    m = first_moments(r, basis.ops)
    if kind == "symmetric":
        cm = np.real(g) - np.outer(m, m)
    elif kind == "nonsymmetric":
        cm = g - np.outer(m, m).astype(complex)
    else:
        raise MatrixError(f"kind must be 'symmetric' or 'nonsymmetric', got {kind!r}")
    return cm, m


def build_block_cm(rho, basis_a: ObservableBasis, basis_b: ObservableBasis,
                   kind: str = "symmetric") -> BlockCovarianceMatrix:
    """Block covariance matrix of a bipartite state over local bases; over
    the Gell-Mann-like ones its ``joint`` is the state's ``joint``."""
    da, db = basis_a.dim, basis_b.dim
    st = as_state(rho, (da, db))
    # marginals of an exactly Hermitian matrix are exactly Hermitian
    rho_a = matlin.partial_trace(st.rho, (da, db), keep="A")
    rho_b = matlin.partial_trace(st.rho, (da, db), keep="B")
    cm_a, m_a = _cm(rho_a, basis_a, kind)
    cm_b, m_b = _cm(rho_b, basis_b, kind)
    joint = (st.joint if basis_a.kind == basis_b.kind == "gellmann"
             else matlin.joint_moments(st.rho, basis_a.ops, basis_b.ops))
    c = joint - np.outer(m_a, m_b)
    bcm = BlockCovarianceMatrix(
        kind=kind, a=cm_a, b=cm_b, c=c,
        basis_a=basis_a, basis_b=basis_b,
        purity_a=float(np.real(np.trace(rho_a @ rho_a))),
        purity_b=float(np.real(np.trace(rho_b @ rho_b))),
        moments_a=m_a, moments_b=m_b, joint=joint,
    )
    # the marginal CMs are principal submatrices, so by eigenvalue
    # interlacing this one check also covers both of them
    _check_cm_psd(bcm.assembled(), f"{kind} block covariance matrix")
    return bcm


def concavity_check(rhos, probs, basis: ObservableBasis) -> float:
    """Minimal eigenvalue of gamma(sum p_k rho_k) - sum p_k gamma(rho_k) for
    the nonsymmetric CM.

    Non-negative (to rounding) for any valid mixture.
    """
    probs = np.asarray(probs, dtype=float)
    if len(rhos) != len(probs) or len(rhos) == 0:
        raise MatrixError("need matching, non-empty state and weight lists")
    if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
        raise MatrixError("weights must form a probability distribution")
    mixture = sum(p * as_matrix(r) for p, r in zip(probs, rhos))
    gamma_mix = build_cm(mixture, basis, "nonsymmetric")
    gamma_avg = sum(p * build_cm(r, basis, "nonsymmetric")
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
    r = as_state(rho, (2, 2)).rho
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
    observables sigma_k/sqrt2: the traceless part of the state's shared
    block CM, whose Gell-Mann-like basis for d = 2 is the Pauli basis."""
    return as_state(rho, (2, 2)).block_cm.traceless_part()


def cm_to_json(cm: BlockCovarianceMatrix) -> dict:
    """JSON-serializable export of a block CM: kind, basis tags, blocks,
    dense matrix, moments and purities."""
    return matlin.json_safe({
        "kind": cm.kind,
        "basis": [cm.basis_a.kind, cm.basis_b.kind],
        "blocks": {"a": cm.a, "b": cm.b, "c": cm.c},
        "matrix": cm.assembled(),
        "first_moments": {"a": cm.moments_a, "b": cm.moments_b},
        "purity": {"a": cm.purity_a, "b": cm.purity_b},
    })
