"""Local filtering to the normal form: both marginals maximally mixed,
obtained by minimizing the determinant-normalized overlap functional."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import covariance, matlin
# DEFAULT_NOISE_EPS is matlin's, the noise the normal form reports
from .matlin import DEFAULT_NOISE_EPS, MatrixError, as_state
from .observables import gellmann_like_basis

# Largest deviation of a reduced state from maximally mixed (max-abs entry
# of rho_red - 1/d) accepted as converged; comfortably inside the 1e-7
# guarantee on the emitted normal form.
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100

# Newton step: largest coefficient of a step in the max norm (a full step
# can overflow exp far from the optimum), the Armijo constant, the rounding
# slack on log tr, and the smallest fraction of the step tried.
STEP_CAP = 4.0
ARMIJO_C = 0.25
LOG_SLACK = 1e-14
MIN_STEP = 1e-12


@dataclass(frozen=True)
class NormalForm:
    """Filter normal form of a full-rank bipartite state.

    ``state`` is rho_tilde = (F_A x F_B) rho (F_A x F_B)^dagger / norm with
    unit determinant filters; ``xi`` holds the non-increasing coefficients
    d_A d_B svd(J), J_ij = tr(rho_tilde (G_i x G_j)) over the traceless
    Gell-Mann-like G of each side, read off the last iterate's local second
    moments, so the separability thresholds downstream are exactly d^2 - d
    and friends.
    """

    xi: np.ndarray
    filter_a: np.ndarray = field(repr=False)
    filter_b: np.ndarray = field(repr=False)
    state: matlin.CheckedState = field(repr=False)
    converged: bool
    f_value: float
    iterations: int
    f_history: np.ndarray = field(repr=False)
    noise_eps: float = 0.0


def normal_form(rho, dims: tuple[int, int],
                max_iter: int = DEFAULT_MAX_ITER) -> NormalForm:
    """Damped Newton minimization of log tr[(A x B) rho (A x B)^dagger] over
    A = exp(H_A/2), B = exp(H_B/2) with H traceless Hermitian.

    Each step solves with the iterate's own symmetric block covariance
    matrix as the Hessian, caps the step at ``STEP_CAP`` in the max norm and
    halves it until the Armijo condition holds, so the objective never
    increases.  The run has converged, by the definition of the normal form,
    once every entry of both marginals is within ``DEFAULT_TOL`` of
    maximally mixed; an input already there takes no step.  Each iterate,
    the last one included, is contracted once, by ``local_moments``.
    Rank-deficient inputs are mixed with ``DEFAULT_NOISE_EPS`` of white
    noise first (see ``CheckedState.mixed``).  A state that exhausts
    ``max_iter`` steps is returned with converged=False and the last
    iterate; downstream criteria stay valid, only weaker.
    """
    st, applied_eps = as_state(rho, dims).mixed()
    da, db = st.dims
    n = da * db
    r = st.rho / np.real(np.trace(st.rho))
    ka = da * da - 1
    # the flattened traceless G_k of each side, so H_A and H_B are one
    # matmul each
    flat_a = gellmann_like_basis(da).ops[1:].reshape(ka, da * da)
    flat_b = gellmann_like_basis(db).ops[1:].reshape(db * db - 1, db * db)
    f_a = np.eye(da, dtype=complex)
    f_b = np.eye(db, dtype=complex)
    f_val = 1.0
    history = [1.0]
    steps = 0
    while True:
        # gradient <L_k>, the A-B moments (xi) and the Hessian, the block CM
        # of r on the traceless rows; at unit trace rho_A - 1/dA is
        # sum_k <G_k x 1> G_k, so the gradient also gives the stopping test
        grad, second, hess = covariance.local_moments(r, (da, db))
        converged = bool(
            np.abs(grad[:ka] @ flat_a).max() <= DEFAULT_TOL
            and np.abs(grad[ka:] @ flat_b).max() <= DEFAULT_TOL)
        if converged or steps >= max_iter:
            break
        steps += 1
        try:
            h = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise MatrixError("singular Hessian during filtering; input state "
                              "is effectively rank deficient") from None
        h *= min(1.0, STEP_CAP / np.max(np.abs(h)))
        slope = float(grad @ h)
        # exp(t H/2) = V e^(t w/2) V^dagger for every trial t of the search
        wa, va = np.linalg.eigh((h[:ka] @ flat_a).reshape(da, da))
        wb, vb = np.linalg.eigh((h[ka:] @ flat_b).reshape(db, db))
        va_h, vb_h = va.conj().T, vb.conj().T
        t = 1.0
        while True:
            a = (va * np.exp(t * wa / 2)) @ va_h
            b = (vb * np.exp(t * wb / 2)) @ vb_h
            k = (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)
            nxt = k @ r @ k
            tr = float(nxt.trace().real)
            # the slack admits steps whose decrease is below rounding, so a
            # run near the optimum still moves the marginals
            if np.log(tr) <= ARMIJO_C * t * slope + LOG_SLACK or t < MIN_STEP:
                break
            t /= 2
        f_val *= tr
        # A and B are Hermitian, so only rounding breaks the symmetry of
        # k r k; it is removed every step, or ill-conditioned runs drift
        r = (nxt + nxt.conj().T) / (2 * tr)
        f_a = a @ f_a
        f_b = b @ f_b
        history.append(f_val)

    return NormalForm(
        xi=da * db * np.linalg.svd(second[:ka, ka:], compute_uv=False),
        filter_a=f_a,
        filter_b=f_b,
        # every iterate is exactly Hermitian: no second check, and no block CM
        state=matlin._checked(r, (da, db)),
        converged=converged,
        f_value=f_val,
        iterations=steps,
        f_history=np.array(history),
        noise_eps=applied_eps,
    )

