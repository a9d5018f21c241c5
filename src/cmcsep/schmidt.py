"""Schmidt decomposition of bipartite density matrices in operator space."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matlin import as_state


@dataclass(frozen=True)
class SchmidtOperatorDecomposition:
    """rho = sum_k lambda_k G_k^A (x) G_k^B over orthonormal Hermitian
    operator families, with lambda non-negative and non-increasing.

    ``g_a``/``g_b`` carry the operator traces tr(G_k).  There are
    min(d_A^2, d_B^2) terms.
    """

    lambdas: np.ndarray
    g_a: np.ndarray = field(repr=False)
    g_b: np.ndarray = field(repr=False)


def operator_schmidt(rho, d_a: int, d_b: int) -> SchmidtOperatorDecomposition:
    """Singular value decomposition of the state's joint moments over the
    Gell-Mann-like bases, read from its shared block CM.

    The coefficients lambda_k equal the singular values of the realignment of
    rho; signs are absorbed into the B-side operators.  Only each basis's
    leading element 1/sqrt(d) has a trace, sqrt(d), so the operator traces
    are the identity row of U and column of V, scaled by sqrt(d).
    """
    xi = as_state(rho, (d_a, d_b)).block_cm.joint
    # full SVD: a reduced one picks other singular vectors, moving cmc_schmidt
    u, s, vt = np.linalg.svd(xi)
    k = len(s)
    return SchmidtOperatorDecomposition(lambdas=s,
                                        g_a=np.sqrt(d_a) * u[0, :k],
                                        g_b=np.sqrt(d_b) * vt[:k, 0])
