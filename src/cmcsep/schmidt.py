"""Schmidt decomposition of bipartite density matrices in operator space."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matlin import as_state, joint_moments
from .observables import standard_basis


@dataclass(frozen=True)
class SchmidtOperatorDecomposition:
    """rho = sum_k lambda_k G_k^A (x) G_k^B over orthonormal Hermitian
    operator families, with lambda non-negative and non-increasing.

    ``g_a``/``g_b`` carry the operator traces tr(G_k).  There are
    min(d_A^2, d_B^2) terms.
    """

    lambdas: np.ndarray
    ops_a: np.ndarray = field(repr=False)
    ops_b: np.ndarray = field(repr=False)
    g_a: np.ndarray = field(repr=False)
    g_b: np.ndarray = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        da = self.ops_a.shape[1]
        db = self.ops_b.shape[1]
        out = np.einsum("k,kab,kcd->acbd", self.lambdas, self.ops_a, self.ops_b,
                        optimize=True)
        return out.reshape(da * db, da * db)


def operator_schmidt(rho, d_a: int, d_b: int) -> SchmidtOperatorDecomposition:
    """Singular value decomposition of the operator-basis coefficient matrix.

    The coefficients lambda_k equal the singular values of the realignment of
    rho; signs are absorbed into the B-side operators.
    """
    r = as_state(rho, (d_a, d_b)).rho
    basis_a = standard_basis(d_a)
    basis_b = standard_basis(d_b)
    xi = joint_moments(r, basis_a.ops, basis_b.ops)
    # full SVD: a reduced one picks other singular vectors, moving cmc_schmidt
    u, s, vt = np.linalg.svd(xi)
    k = len(s)
    ops_a = np.einsum("ik,iab->kab", u[:, :k], basis_a.ops)
    ops_b = np.einsum("jk,jab->kab", vt[:k].T, basis_b.ops)
    g_a = np.real(np.einsum("kaa->k", ops_a))
    g_b = np.real(np.einsum("kaa->k", ops_b))
    return SchmidtOperatorDecomposition(lambdas=s, ops_a=ops_a, ops_b=ops_b,
                                        g_a=g_a, g_b=g_b)
