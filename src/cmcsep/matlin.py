"""Dense linear-algebra kernel: the Hermiticity check, the checked
bipartite state, unitarily invariant norms, the bipartite reshuffles
(partial trace, partial transpose, realignment) everything else is built on,
and the JSON form of complex arrays.

All functions are pure and operate on plain ``numpy`` arrays; matrices are
complex row-major throughout.  Singular-value routines are deterministic
for a fixed input, so seeded runs reproduce exactly.
"""

from __future__ import annotations

import functools

import numpy as np

# Relative tolerance under which an input must be Hermitian before it is
# symmetrized and handed to the eigensolver; density matrices arrive from
# state files and generators with accumulated rounding.
STATE_RTOL = 1e-10
# Largest |tr rho - 1| of a state taken as a density matrix.
TRACE_ATOL = 1e-10
# White noise mixed into a state whose smallest eigenvalue is below it, by
# CheckedState.mixed, before the filter and the two-qubit SDP run on it.
DEFAULT_NOISE_EPS = 1e-9


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


def json_safe(obj):
    """``obj`` with its numpy arrays and scalars made JSON-serializable,
    also inside dicts, lists and tuples; a complex array becomes
    {"re": ..., "im": ...}."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def hermitize(m) -> np.ndarray:
    """Check Hermiticity to STATE_RTOL and return (m + m^dagger)/2.

    Downstream code then sees exactly Hermitian data.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise MatrixError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    scale = max(float(np.max(np.abs(a))), 1e-300)
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > STATE_RTOL * max(scale, 1.0):
        raise MatrixError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} "
            f"exceeds {STATE_RTOL:.0e} (relative)"
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


def partial_transpose(rho, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the B factor; an involution that preserves trace and
    Hermiticity.  The transpose over A is the transpose of this one."""
    a = as_matrix(rho)
    da, db = _check_bipartite(a, dims)
    out = a.reshape(da, db, da, db).transpose(0, 3, 2, 1)
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


class CheckedState:
    """A bipartite state, checked Hermitian and of shape dA dB x dA dB on
    first use of ``rho``; its spectrum, its oriented form and the
    quantities several criteria share are computed on first use and kept.
    Functions that take a state accept one in place of ``rho``, so a state
    is checked once however many of them it reaches."""

    # set on the oriented form of a state whose first system is the larger
    swapped = False

    def __init__(self, rho, dims: tuple[int, int]):
        self._raw = rho
        self.dims = (int(dims[0]), int(dims[1]))

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """The state, checked and made exactly Hermitian."""
        r = hermitize(self._raw)
        _check_bipartite(r, self.dims)
        return r

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the state, non-decreasing."""
        return np.linalg.eigvalsh(self.rho)

    @property
    def oriented(self) -> CheckedState:
        """The state with the smaller system first: itself when dA <= dB,
        else its swap, kept (keeping self would be a reference cycle)."""
        return self if self.dims[0] <= self.dims[1] else self._swap

    @functools.cached_property
    def _swap(self) -> CheckedState:
        # a swapped exactly Hermitian matrix is exactly Hermitian: no re-check
        da, db = self.dims
        out = _checked(swap_subsystems(self.rho, self.dims), (db, da))
        out.swapped = True
        return out

    def mixed(self) -> tuple[CheckedState, float]:
        """The state and 0.0 when its smallest eigenvalue is at least
        eps = DEFAULT_NOISE_EPS; else (1 - eps) rho + eps 1/n, exactly
        Hermitian and so not checked again, and eps."""
        eps = DEFAULT_NOISE_EPS
        if self.eigenvalues[0] >= eps:
            return self, 0.0
        n = self.rho.shape[0]
        mix = (1.0 - eps) * self.rho + eps * np.eye(n) / n
        return _checked(mix, self.dims), eps

    @functools.cached_property
    def pt_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the partial transpose over B.  It permutes
        the entries of an exactly Hermitian matrix, so it is one too."""
        pt = partial_transpose(self.rho, self.dims)
        return float(np.linalg.eigvalsh(pt)[0])

    @functools.cached_property
    def block_cm(self):
        """Symmetric block CM over the Gell-Mann-like bases of both sides."""
        from . import covariance, observables

        da, db = self.dims
        return covariance.build_block_cm(
            self, observables.gellmann_like_basis(da),
            observables.gellmann_like_basis(db), kind="symmetric")

    @functools.cached_property
    def schmidt(self):
        """Operator Schmidt decomposition, the SVD of ``block_cm.joint``."""
        from . import schmidt

        return schmidt.operator_schmidt(self, *self.dims)

    # Spectra of the real CM blocks, each one real SVD, non-increasing and
    # read-only (verdict details hold them); the norm helpers above would
    # check each block again and cast it to complex.

    @functools.cached_property
    def c_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Singular values of the traceless cross block ``C[1:, 1:]`` (the
        Gell-Mann-like bases lead with the identity, whose row and column of
        C vanish) and its V^T, from one full SVD."""
        _, s, vt = np.linalg.svd(self.block_cm.c[1:, 1:])
        return _read_only(s), _read_only(vt)

    @functools.cached_property
    def local_cm_norms(self) -> tuple[float, float]:
        """Operator norms of the block CM's local blocks A and B."""
        bcm = self.block_cm
        return tuple(float(np.linalg.svd(m, compute_uv=False)[0])
                     for m in (bcm.a, bcm.b))

    @functools.cached_property
    def bloch_singular_values(self) -> np.ndarray:
        """Singular values of the traceless-sector joint moments
        ``joint[1:, 1:]`` (the Gell-Mann-like bases lead with the identity),
        read through ``block_cm``, so the state's CM is checked first."""
        return _read_only(np.linalg.svd(self.block_cm.joint[1:, 1:],
                                        compute_uv=False))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _checked(r: np.ndarray, dims: tuple[int, int]) -> CheckedState:
    """An exactly Hermitian matrix of the right shape as a CheckedState,
    without a second check."""
    out = CheckedState(r, dims)
    out.rho = r
    return out


def as_state(rho, dims: tuple[int, int]) -> CheckedState:
    """A CheckedState passed through once its dims match; anything else
    wrapped in one, and so checked on first use of ``rho``."""
    if not isinstance(rho, CheckedState):
        return CheckedState(rho, dims)
    if rho.dims != (int(dims[0]), int(dims[1])):
        raise MatrixError(f"state has dims {rho.dims}, not {tuple(dims)}")
    return rho
