"""Dense linear-algebra kernel: the Hermiticity check, unitarily invariant
norms, and the bipartite reshuffles (partial trace, partial transpose,
realignment) everything else is built on.

All functions are pure and operate on plain ``numpy`` arrays; matrices are
complex row-major throughout.  Singular-value routines are deterministic
for a fixed input, so seeded runs reproduce exactly.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance under which an input must be Hermitian before it is
# symmetrized and handed to the eigensolver.
HERMITICITY_RTOL = 1e-12

# Looser tolerance for density matrices, which arrive from state files and
# generators with accumulated rounding.
STATE_RTOL = 1e-10


class MatrixError(ValueError):
    """An input matrix violates a kernel precondition."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise MatrixError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise MatrixError("matrix contains non-finite entries")
    return a


def hermitize(m, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Check Hermiticity to ``rtol`` (relative) and return (m + m^dagger)/2.

    Downstream code then sees exactly Hermitian data.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise MatrixError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    scale = max(float(np.max(np.abs(a))), 1e-300)
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > rtol * max(scale, 1.0):
        raise MatrixError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} "
            f"exceeds {rtol:.0e} (relative)"
        )
    return (a + a.conj().T) / 2


def ky_fan_norm(m, k: int) -> float:
    """Sum of the k largest singular values."""
    a = as_matrix(m)
    kmax = min(a.shape)
    if not 1 <= k <= kmax:
        raise MatrixError(f"Ky-Fan order k={k} out of range [1, {kmax}]")
    s = np.linalg.svd(a, compute_uv=False)
    return float(np.sum(s[:k]))


def trace_norm(m) -> float:
    """Sum of all singular values (largest Ky-Fan norm)."""
    a = as_matrix(m)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def operator_norm(m) -> float:
    """Largest singular value (Ky-Fan norm with k = 1)."""
    a = as_matrix(m)
    return float(np.max(np.linalg.svd(a, compute_uv=False))) if a.size else 0.0


def _check_bipartite(rho: np.ndarray, dims: tuple[int, int]) -> tuple[int, int]:
    da, db = int(dims[0]), int(dims[1])
    if da < 1 or db < 1:
        raise MatrixError(f"invalid local dimensions {dims}")
    n = da * db
    if rho.shape != (n, n):
        raise MatrixError(
            f"matrix shape {rho.shape} does not match dims {da}x{db} (need {n}x{n})"
        )
    return da, db


def partial_trace(rho, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Trace out one subsystem of a bipartite matrix; preserves the trace."""
    a = as_matrix(rho)
    da, db = _check_bipartite(a, dims)
    r = a.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ibjb->ij", r)
    if keep == "B":
        return np.einsum("aiaj->ij", r)
    raise MatrixError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, dims: tuple[int, int], side: str = "B") -> np.ndarray:
    """Transpose one tensor factor; an involution that preserves trace and
    Hermiticity."""
    a = as_matrix(rho)
    da, db = _check_bipartite(a, dims)
    r = a.reshape(da, db, da, db)
    if side == "B":
        out = r.transpose(0, 3, 2, 1)
    elif side == "A":
        out = r.transpose(2, 1, 0, 3)
    else:
        raise MatrixError(f"side must be 'A' or 'B', got {side!r}")
    return np.ascontiguousarray(out.reshape(da * db, da * db))


def realign(m, dims: tuple[int, int]) -> np.ndarray:
    """Realignment map: row (i,j) over A-indices, column (k,l) over B-indices.

    R(m)[(i,j),(k,l)] = m[(i,k),(j,l)].  An isometry in Frobenius norm; for a
    product matrix X (x) Y the result is the rank-one vec(X) vec(Y)^T.
    """
    a = as_matrix(m)
    da, db = _check_bipartite(a, dims)
    r = a.reshape(da, db, da, db)
    return np.ascontiguousarray(r.transpose(0, 2, 1, 3).reshape(da * da, db * db))


def joint_moments(rho, ops_a, ops_b) -> np.ndarray:
    """Real parts of tr(rho (A_i x B_j)) for operator stacks of shape
    (k, d, d), as one matmul chain over the realignment of rho."""
    ka, da = ops_a.shape[:2]
    kb, db = ops_b.shape[:2]
    ga = ops_a.transpose(0, 2, 1).reshape(ka, da * da)
    gb = ops_b.transpose(0, 2, 1).reshape(kb, db * db)
    return np.real(ga @ realign(rho, (da, db)) @ gb.T)


def swap_subsystems(rho, dims: tuple[int, int]) -> np.ndarray:
    """Exchange the two tensor factors of a bipartite matrix."""
    a = as_matrix(rho)
    da, db = _check_bipartite(a, dims)
    r = a.reshape(da, db, da, db)
    return np.ascontiguousarray(r.transpose(1, 0, 3, 2).reshape(da * db, da * db))
