"""Covariance matrices of observable sets: construction, block form,
concavity and Bloch inversion."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import MatrixError, as_matrix, as_state, hermitize
from .observables import ObservableBasis, gellmann_like_basis

# Accumulated rounding across d^2-term sums; eigenvalues below this floor
# signal an invalid input state rather than a detection result.
PSD_FLOOR = -1e-9

# Largest local-generator layout, in entries of its (k, n^2) stack, that the
# block CM is read off.  The layout's memory grows as (dA dB)^3 (dA^2 + dB^2)
# and its k n^3 matmul overtakes the per-side contraction near 1e4 entries:
# a block CM took 0.84 times the contraction's time at (4,4) (7680 entries),
# 0.97 at (3,6) (13932) and 1.2 at (2,8) (16896), one BLAS thread.
LAYOUT_MAX_ENTRIES = 10_000


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


@functools.lru_cache(maxsize=32)
def local_generators(da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat layouts of the n x n local operators L_k = G_k x 1, then 1 x G_k,
    over the traceless Gell-Mann-like elements G_k of each side: the (k n, n)
    row stack of the L_k and the (k, n^2) stack of the transposed L_k, so
    each product over them is one 2-D matmul.

    Cached per dims; the returned arrays are read-only."""
    ga = gellmann_like_basis(da).ops[1:]
    gb = gellmann_like_basis(db).ops[1:]
    ops = np.array([np.kron(g, np.eye(db)) for g in ga]
                   + [np.kron(np.eye(da), g) for g in gb])
    k, n = ops.shape[:2]
    out = (ops.reshape(k * n, n), ops.transpose(0, 2, 1).reshape(k, n * n))
    for arr in out:
        arr.flags.writeable = False
    return out


def local_moments(r: np.ndarray, dims: tuple[int, int]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First moments Re tr(r L_k), second moments Re tr(r L_k L_l) and the
    symmetric CM of the n x n matrix ``r`` over the local generators of
    ``dims``, in two matmuls over their cached layouts.  The second moments
    of an A and a B generator are the joint moments tr(r (G_i x G_j)).

    At unit trace the first moments and the CM are the gradient and the
    Hessian of h -> log tr[e^(X/2) r e^(X/2)] at h = 0, X = sum_k h_k L_k:
    the filter's Newton system.  There the first moments of each side are
    also the coordinates of its marginal less 1/d over its G_k, the
    filter's stopping test, and the joint moments give the filter's xi."""
    rows, cols = local_generators(*dims)
    k, nn = cols.shape
    m = (rows @ r).reshape(k, nn)
    first = np.real(m[:, ::r.shape[0] + 1].sum(axis=1))
    second = np.real(cols @ m.T)
    return first, second, second - first[:, None] * first


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
    """Block covariance matrix of a bipartite state over local bases.

    The symmetric CM over the Gell-Mann-like bases (Pauli's at d = 2) of a
    unit-trace state is read off the local moments of ``local_moments``,
    while the layout has at most ``LAYOUT_MAX_ENTRIES`` entries: its
    traceless blocks are the second moments less the products of the
    first, and the identity rows and columns of A, B and C are zero.  Other
    bases, the nonsymmetric kind, other traces and larger dims contract the
    marginals and the joint moments of the state."""
    da, db = basis_a.dim, basis_b.dim
    st = as_state(rho, (da, db))
    gellmann = ("gellmann", "pauli")
    if (kind == "symmetric" and basis_a.kind in gellmann
            and basis_b.kind in gellmann
            and (da * da + db * db - 2) * (da * db) ** 2 <= LAYOUT_MAX_ENTRIES):
        tr = float(np.real(np.trace(st.rho)))
        # the identity rows and columns vanish only at unit trace
        if abs(tr - 1.0) <= matlin.TRACE_ATOL:
            return _gellmann_block_cm(st, tr, basis_a, basis_b)
    # marginals of an exactly Hermitian matrix are exactly Hermitian
    rho_a = matlin.partial_trace(st.rho, (da, db), keep="A")
    rho_b = matlin.partial_trace(st.rho, (da, db), keep="B")
    cm_a, m_a = _cm(rho_a, basis_a, kind)
    cm_b, m_b = _cm(rho_b, basis_b, kind)
    joint = matlin.joint_moments(st.rho, basis_a.ops, basis_b.ops)
    bcm = BlockCovarianceMatrix(
        kind=kind, a=cm_a, b=cm_b, c=joint - np.outer(m_a, m_b),
        basis_a=basis_a, basis_b=basis_b,
        purity_a=float(np.real(np.trace(rho_a @ rho_a))),
        purity_b=float(np.real(np.trace(rho_b @ rho_b))),
        moments_a=m_a, moments_b=m_b, joint=joint,
    )
    # the marginal CMs are principal submatrices, so by eigenvalue
    # interlacing this one check also covers both of them
    _check_cm_psd(bcm.assembled(), f"{kind} block covariance matrix")
    return bcm


def _gellmann_block_cm(st: matlin.CheckedState, tr: float,
                       basis_a: ObservableBasis,
                       basis_b: ObservableBasis) -> BlockCovarianceMatrix:
    da, db = st.dims
    ka, na, nb = da * da - 1, da * da, db * db
    first, second, traceless = local_moments(st.rho, st.dims)
    # the assembled CM is this one bordered by zeros, so this one check
    # covers it and, by interlacing, both marginal CMs
    _check_cm_psd(traceless, "symmetric block covariance matrix")
    m_a = np.concatenate(([tr / np.sqrt(da)], first[:ka]))
    m_b = np.concatenate(([tr / np.sqrt(db)], first[ka:]))
    a, b, c, joint = (np.zeros(shape) for shape in
                      ((na, na), (nb, nb), (na, nb), (na, nb)))
    a[1:, 1:] = traceless[:ka, :ka]
    b[1:, 1:] = traceless[ka:, ka:]
    c[1:, 1:] = traceless[:ka, ka:]
    joint[1:, 1:] = second[:ka, ka:]
    joint[0] = m_b / np.sqrt(da)
    joint[:, 0] = m_a / np.sqrt(db)
    joint[0, 0] = tr / np.sqrt(da * db)
    # over an orthonormal basis tr rho_A^2 is the squared norm of the moments
    return BlockCovarianceMatrix(
        kind="symmetric", a=a, b=b, c=c, basis_a=basis_a, basis_b=basis_b,
        purity_a=float(m_a @ m_a), purity_b=float(m_b @ m_b),
        moments_a=m_a, moments_b=m_b, joint=joint)


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
