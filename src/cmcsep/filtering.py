"""Local filtering to the normal form: both marginals maximally mixed,
obtained by minimizing the determinant-normalized overlap functional."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import matlin
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
    d_A d_B state.bloch_singular_values over traceless local observables, so
    the separability thresholds downstream are exactly d^2 - d and friends.
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


@functools.lru_cache(maxsize=32)
def _local_generators(da: int, db: int) -> tuple[np.ndarray, ...]:
    """Flat layouts of the n x n local operators L_k = G_k x 1, then 1 x G_k,
    over the traceless Gell-Mann-like elements G_k of each side: the (k n, n)
    row stack of the L_k, the (k, n^2) stack of the transposed L_k, and the
    flattened G_k of A and of B, so each Newton product is one 2-D matmul.

    Cached per dims; the returned arrays are read-only."""
    ga = gellmann_like_basis(da).ops[1:]
    gb = gellmann_like_basis(db).ops[1:]
    ops = np.array([np.kron(g, np.eye(db)) for g in ga]
                   + [np.kron(np.eye(da), g) for g in gb])
    k, n = ops.shape[:2]
    out = (ops.reshape(k * n, n), ops.transpose(0, 2, 1).reshape(k, n * n),
           ga.reshape(len(ga), -1), gb.reshape(len(gb), -1))
    for arr in out:
        arr.flags.writeable = False
    return out


def newton_system(r: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of h -> log tr[e^(X/2) r e^(X/2)] at h = 0, with
    X = sum_k h_k L_k over the generator layouts ``rows``, ``cols`` and tr r = 1.

    The gradient is <L_k> and the Hessian Re<L_k L_l> - <L_k><L_l>: the
    symmetric block covariance matrix of r on the traceless rows."""
    k, nn = cols.shape
    m = (rows @ r).reshape(k, nn)
    grad = np.real(m[:, ::r.shape[0] + 1].sum(axis=1))
    hess = np.real(cols @ m.T)
    return grad, hess - grad[:, None] * grad


def normal_form(rho, dims: tuple[int, int],
                max_iter: int = DEFAULT_MAX_ITER) -> NormalForm:
    """Damped Newton minimization of log tr[(A x B) rho (A x B)^dagger] over
    A = exp(H_A/2), B = exp(H_B/2) with H traceless Hermitian.

    Each step solves with the iterate's own symmetric block covariance
    matrix as the Hessian, caps the step at ``STEP_CAP`` in the max norm and
    halves it until the Armijo condition holds, so the objective never
    increases.  The run has converged, by the definition of the normal form,
    once every entry of both marginals is within ``DEFAULT_TOL`` of
    maximally mixed; an input already there takes no step.  Rank-deficient
    inputs are mixed with ``DEFAULT_NOISE_EPS`` of white noise first (see
    ``CheckedState.mixed``).  A state that exhausts ``max_iter``
    steps is returned with converged=False and the last iterate;
    downstream criteria stay valid, only weaker.
    """
    st, applied_eps = as_state(rho, dims).mixed()
    da, db = st.dims
    n = da * db
    r = st.rho / np.real(np.trace(st.rho))
    rows, cols, flat_a, flat_b = _local_generators(da, db)
    ka = da * da - 1
    f_a = np.eye(da, dtype=complex)
    f_b = np.eye(db, dtype=complex)
    f_val = 1.0
    history = [1.0]
    eye_a = np.eye(da) / da
    eye_b = np.eye(db) / db
    steps = 0
    while True:
        r4 = r.reshape(da, db, da, db)
        converged = bool(
            np.abs(r4.trace(axis1=1, axis2=3) - eye_a).max() <= DEFAULT_TOL
            and np.abs(r4.trace(axis1=0, axis2=2) - eye_b).max() <= DEFAULT_TOL)
        if converged or steps >= max_iter:
            break
        steps += 1
        grad, hess = newton_system(r, rows, cols)
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

    # every iterate is exactly Hermitian: no second check
    state = matlin._checked(r, (da, db))
    return NormalForm(
        xi=da * db * state.bloch_singular_values,
        filter_a=f_a,
        filter_b=f_b,
        state=state,
        converged=converged,
        f_value=f_val,
        iterations=steps,
        f_history=np.array(history),
        noise_eps=applied_eps,
    )

