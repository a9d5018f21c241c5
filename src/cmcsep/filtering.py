"""Local filtering to the normal form: both marginals maximally mixed,
obtained by minimizing the determinant-normalized overlap functional."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import STATE_RTOL, MatrixError, hermitize
from .observables import gellmann_like_basis

# Largest deviation of a reduced state from maximally mixed (max-abs entry
# of rho_red - 1/d) accepted as converged; comfortably inside the 1e-7
# guarantee on the emitted normal form.
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000
DEFAULT_NOISE_EPS = 1e-9


@dataclass(frozen=True)
class NormalForm:
    """Filter normal form of a full-rank bipartite state.

    rho_tilde = (F_A x F_B) rho (F_A x F_B)^dagger / norm with unit
    determinant filters; ``xi`` holds the non-increasing correlation
    coefficients over orthonormal traceless local observables, so the
    separability thresholds downstream are exactly d^2 - d and friends.
    """

    xi: np.ndarray
    filter_a: np.ndarray = field(repr=False)
    filter_b: np.ndarray = field(repr=False)
    rho_tilde: np.ndarray = field(repr=False)
    converged: bool
    f_value: float
    iterations: int
    f_history: np.ndarray = field(repr=False)
    noise_eps: float = 0.0
    dims: tuple[int, int] = (0, 0)


def f_rho(rho, rho_a, rho_b) -> float:
    """Overlap tr[rho (rho_A x rho_B)] over the determinant normalizers
    (det rho_A)^(1/d_A) (det rho_B)^(1/d_B); diverges on the boundary."""
    r = hermitize(rho, rtol=STATE_RTOL)
    ra = hermitize(rho_a, rtol=STATE_RTOL)
    rb = hermitize(rho_b, rtol=STATE_RTOL)
    da, db = ra.shape[0], rb.shape[0]
    if r.shape != (da * db, da * db):
        raise MatrixError("state shape does not match the marginal dimensions")
    wa = np.linalg.eigvalsh(ra)
    wb = np.linalg.eigvalsh(rb)
    if wa[0] <= 1e-12 or wb[0] <= 1e-12:
        raise MatrixError("marginals must be strictly positive definite")
    overlap = float(np.real(np.trace(r @ np.kron(ra, rb))))
    denom = float(np.exp(np.sum(np.log(wa)) / da + np.sum(np.log(wb)) / db))
    return overlap / denom


def _balancing_filter(marginal: np.ndarray) -> np.ndarray:
    """Determinant-one Hermitian filter T making T marg T^dagger uniform.

    T = det(marg)^(1/2d) marg^(-1/2) is the exact minimizer of the objective
    over one side with the other held fixed.
    """
    w, v = np.linalg.eigh(marginal)
    if w[0] <= 0.0:
        raise MatrixError("encountered a singular marginal during filtering; "
                          "input state is effectively rank deficient")
    d = marginal.shape[0]
    scale = np.exp(np.sum(np.log(w)) / (2 * d))
    return (v * (scale / np.sqrt(w))) @ v.conj().T


def _marginal_a(r: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("abcb->ac", r.reshape(da, db, da, db))


def _marginal_b(r: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("abad->bd", r.reshape(da, db, da, db))


def normal_form(rho, dims: tuple[int, int], tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                noise_eps: float = DEFAULT_NOISE_EPS) -> NormalForm:
    """Alternating minimization of f_rho; each half sweep renders one
    marginal exactly maximally mixed, so the objective never increases.

    The run has converged, by the definition of the normal form, once every
    entry of both marginals is within ``tol`` of maximally mixed; an input
    already there takes no sweep.  Rank-deficient inputs are mixed with
    noise_eps of white noise first.  A state that exhausts ``max_iter``
    sweeps is returned with converged=False and the last iterate;
    downstream criteria stay valid, only weaker.
    """
    da, db = int(dims[0]), int(dims[1])
    n = da * db
    r = hermitize(rho, rtol=STATE_RTOL)
    if r.shape != (n, n):
        raise MatrixError(f"state shape {r.shape} does not match dims {dims}")
    applied_eps = 0.0
    if float(np.linalg.eigvalsh(r)[0]) < noise_eps:
        r = (1.0 - noise_eps) * r + noise_eps * np.eye(n) / n
        applied_eps = noise_eps

    r = r / np.real(np.trace(r))
    f_a = np.eye(da, dtype=complex)
    f_b = np.eye(db, dtype=complex)
    f_val = 1.0
    history = [1.0]
    eye_a = np.eye(da) / da
    eye_b = np.eye(db) / db
    sweeps = 0
    while True:
        # B was balanced by the previous half sweep, so its marginal is only
        # contracted once A is within tol
        marg_a = _marginal_a(r, da, db)
        converged = bool(
            np.max(np.abs(marg_a - eye_a)) <= tol
            and np.max(np.abs(_marginal_b(r, da, db) - eye_b)) <= tol)
        if converged or sweeps >= max_iter:
            break
        sweeps += 1
        # (T x 1) r (T x 1)^dagger as two matmuls over the A row/column index
        t_a = _balancing_filter(marg_a)
        r = (t_a.conj() @ (t_a @ r.reshape(da, db * n)).reshape(n, da, db)
             ).reshape(n, n)
        tr = float(r.trace().real)
        f_val *= tr
        r /= tr
        f_a = t_a @ f_a

        # (1 x T) r (1 x T)^dagger, batched over the A row index
        t_b = _balancing_filter(_marginal_b(r, da, db))
        r = ((t_b @ r.reshape(da, db, n)).reshape(n, da, db) @ t_b.conj().T
             ).reshape(n, n)
        tr = float(r.trace().real)
        f_val *= tr
        r /= tr
        f_b = t_b @ f_b

        history.append(f_val)

    rho_tilde = (r + r.conj().T) / 2
    return NormalForm(
        xi=normal_form_coefficients(rho_tilde, (da, db)),
        filter_a=f_a,
        filter_b=f_b,
        rho_tilde=rho_tilde,
        converged=converged,
        f_value=f_val,
        iterations=sweeps,
        f_history=np.array(history),
        noise_eps=applied_eps,
        dims=(da, db),
    )


def normal_form_coefficients(rho_tilde: np.ndarray,
                             dims: tuple[int, int]) -> np.ndarray:
    """Singular values, scaled by d_A d_B, of the correlation matrix over
    orthonormal traceless local observables."""
    da, db = dims
    xi_mat = matlin.joint_moments(rho_tilde, gellmann_like_basis(da).ops[1:],
                                  gellmann_like_basis(db).ops[1:])
    return da * db * np.linalg.svd(xi_mat, compute_uv=False)
