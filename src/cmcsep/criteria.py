"""Separability criteria built on covariance matrices, plus the PPT
baseline; every test returns a CriterionVerdict whose margin is positive
exactly when the state is flagged entangled."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import covariance, filtering, matlin, sdpsolve
from .matlin import MatrixError, as_state, hermitize
from .observables import pauli_basis

EPS_MARGIN = 1e-9
SDP_EPS_MARGIN = 1e-7
# Witness eigenvalues at or below this carry no local uncertainty observable.
WITNESS_CUTOFF = 1e-12
# Singular values of C at most this times max(1, s_0) are zero for the
# uneven trace test: on 2700 states at 9 dims pairs the numerical zeros were
# at most 1.0e-14 s_0 and the smallest nonzero value 8.1e-5 s_0.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one separability test.

    ``margin`` is the left-hand side minus the bound of the defining
    inequality; detection means margin above ``eps_margin``.  ``status`` is
    ``ok`` unless the underlying solver failed, in which case ``detected``
    is None (undetermined, distinct from undetected).
    """

    name: str
    detected: bool | None
    margin: float
    details: dict = field(default_factory=dict, repr=False)
    eps_margin: float = EPS_MARGIN
    status: str = "ok"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "detected": self.detected,
            "margin": self.margin,
            "eps_margin": self.eps_margin,
            "status": self.status,
            "details": matlin.json_safe(self.details),
        }


def _verdict(name: str, margin: float, details: dict,
             eps: float = EPS_MARGIN) -> CriterionVerdict:
    return CriterionVerdict(name=name, detected=bool(margin > eps),
                            margin=float(margin), details=details,
                            eps_margin=eps)


def ppt(rho, dims: tuple[int, int]) -> CriterionVerdict:
    """Positivity of the partial transpose; margin is minus its smallest
    eigenvalue."""
    wmin = as_state(rho, dims).pt_min_eigenvalue
    return _verdict("ppt", -wmin, {"min_eigenvalue": wmin})


def ccnr(rho, dims: tuple[int, int]) -> CriterionVerdict:
    """Realignment test: the operator Schmidt coefficients of a separable
    state sum to at most one."""
    total = float(np.sum(as_state(rho, dims).schmidt.lambdas))
    return _verdict("ccnr", total - 1.0, {"schmidt_sum": total})


def de_vicente(rho, dims: tuple[int, int]) -> CriterionVerdict:
    """Bloch-representation test: trace norm of the traceless-sector joint
    moments against sqrt((1-1/dA)(1-1/dB))."""
    st = as_state(rho, dims)
    da, db = st.dims
    norm = float(np.sum(st.bloch_singular_values))
    bound = np.sqrt((1.0 - 1.0 / da) * (1.0 - 1.0 / db))
    return _verdict("de_vicente", norm - bound,
                    {"bloch_trace_norm": norm, "bound": float(bound)})


def cmc_singular_values(rho, dims: tuple[int, int]) -> CriterionVerdict:
    """||C||_tr^2 <= (1 - tr rho_A^2)(1 - tr rho_B^2) for separable states;
    basis independent by local orthogonal invariance of the trace norm."""
    st = as_state(rho, dims)
    bcm = st.block_cm
    norm = float(np.sum(st.c_svd[1]))
    bound = np.sqrt(max((1.0 - bcm.purity_a) * (1.0 - bcm.purity_b), 0.0))
    return _verdict("cmc_singular_values", norm - bound,
                    {"c_trace_norm": norm, "bound": float(bound),
                     "purity_a": bcm.purity_a, "purity_b": bcm.purity_b})


def cmc_trace(rho, dims: tuple[int, int]) -> CriterionVerdict:
    """Trace test 2 sum |C_ii| against the purity deficits, after rotating
    both local bases so the cross block is diagonal.

    The identities pair with each other and add 0 to both sides (C_00 =
    A_00 = B_00 = 0), so the rotation acts on the traceless blocks alone.  For
    d_A != d_B only the n = min(d_A, d_B)^2 - 1 rotated diagonal entries of
    the larger side paired with the singular values of C enter; the
    matching bound then keeps the smaller side's full purity deficit but
    can no longer subtract the larger side's pure-state trace, so that term
    stays at the bare diagonal sum over them (a valid, weaker bound).  Only
    the directions of nonzero singular values are fixed by C; the remaining
    slots take any orthonormal directions in its null space, so they take
    the smallest eigenvalues of the larger side's rotated block compressed
    there, the tightest such choice and one the state determines.
    """
    st = as_state(rho, dims)
    da, db = st.dims
    bcm = st.block_cm
    u, sing, vt = st.c_svd
    n = len(sing)
    lhs = 2.0 * float(np.sum(sing))  # |diag(U^T C V^T)|, largest first
    if da == db:
        rhs = (1.0 - bcm.purity_a) + (1.0 - bcm.purity_b)
    else:
        deficit, big, rot = ((1.0 - bcm.purity_a, bcm.b, vt) if da < db
                             else (1.0 - bcm.purity_b, bcm.a, u.T))
        m = rot @ big[1:, 1:] @ rot.T
        paired = np.diag(m)[:n]
        r = int(np.sum(sing > RANK_RTOL * np.max(sing, initial=1.0)))
        if r < n:
            paired = np.concatenate(
                (paired[:r], np.linalg.eigvalsh(m[r:, r:])[:n - r]))
        rhs = deficit + float(np.sum(paired))
    # lhs and rhs are on twice the scale of the singular-value test's, so
    # the threshold doubles with them and trace => SV holds at the threshold
    return _verdict("cmc_trace", lhs - rhs,
                    {"lhs": lhs, "bound": rhs,
                     "c_singular_values": sing,
                     "index_set": list(range(n))},
                    eps=2 * EPS_MARGIN)


def cmc_schmidt(rho, dims: tuple[int, int]) -> CriterionVerdict:
    """Trace test in the operator Schmidt basis:
    2 sum |l_k - l_k^2 gA_k gB_k| <= 2 - sum l_k^2 (gA_k^2 + gB_k^2)."""
    dec = as_state(rho, dims).schmidt
    lam, ga, gb = dec.lambdas, dec.g_a, dec.g_b
    lhs = 2.0 * float(np.sum(np.abs(lam - lam**2 * ga * gb)))
    rhs = 2.0 - float(np.sum(lam**2 * (ga**2 + gb**2)))
    return _verdict("cmc_schmidt", lhs - rhs,
                    {"lhs": lhs, "bound": rhs, "lambdas": lam})


def cmc_kyfan_weyl(rho, dims: tuple[int, int], s: int = 1) -> CriterionVerdict:
    """Ky-Fan refinement for equal dimensions: with k = d^2 - d + 1 + s the
    product (k ||A|| - s)(k ||B|| - s) dominates ||C||_KF(k)^2 on separable
    states."""
    da, db = dims
    if da != db:
        raise MatrixError("Ky-Fan refinement needs equal local dimensions")
    if not 1 <= s <= da - 1:
        raise MatrixError(f"shift s={s} outside [1, {da - 1}]")
    st = as_state(rho, dims)
    k = da * da - da + 1 + s
    c_norm = float(np.sum(st.c_svd[1][:k]))
    norm_a, norm_b = st.local_cm_norms
    a_term = k * norm_a - s
    b_term = k * norm_b - s
    return _verdict(f"cmc_kyfan_weyl_s{s}", c_norm**2 - a_term * b_term,
                    {"k": k, "s": s, "c_kyfan_norm": c_norm,
                     "a_term": a_term, "b_term": b_term})


def filter_xi_bound(dims: tuple[int, int], converged: bool = True) -> float:
    """Largest sum of normal-form coefficients compatible with separability.

    The de Vicente bound holds for any filtered iterate; the tighter "drop"
    bound for uneven dimensions is only proven for a converged normal form
    (both marginals maximally mixed), so an unconverged iterate gets the
    de Vicente bound alone."""
    da, db = min(dims), max(dims)
    if da == db:
        return float(da * da - da)
    bound_bloch = float(np.sqrt(da * db * (da - 1.0) * (db - 1.0)))
    if not converged:
        return bound_bloch
    bound_drop = 0.5 * da * db * (1.0 - 1.0 / da + (da * da - 1.0) / db
                                  + min(0.0, -(db - 1.0) + (db * db - da * da) / db))
    return min(bound_drop, bound_bloch)


def cmc_filter(rho, dims: tuple[int, int],
               max_iter: int = filtering.DEFAULT_MAX_ITER) -> CriterionVerdict:
    """Bring the state to its filter normal form and test the coefficient
    sum against d^2 - d (equal dimensions) or the two uneven-dimension
    bounds; necessary and sufficient for two qubits.

    A PPT state of rank at most max(dA, dB) is separable (Horodecki,
    Lewenstein, Vidal & Cirac 2000), so such a state is not filtered: its
    margin is that of the unfiltered coefficients against the de Vicente
    bound, with ``details["separable_by"] = "low_rank_ppt"``.
    """
    st = as_state(rho, dims)
    da, db = st.dims
    low_rank_ppt = (int(np.sum(st.eigenvalues > matlin.DEFAULT_NOISE_EPS))
                    <= max(da, db) and not ppt(st, st.dims).detected)
    if low_rank_ppt:
        # xi of rho / tr rho itself
        xi = da * db * st.bloch_singular_values / np.real(np.trace(st.rho))
        run = {"converged": False, "iterations": 0, "noise_eps": 0.0,
               "separable_by": "low_rank_ppt"}
    else:
        nf = filtering.normal_form(st, st.dims, max_iter=max_iter)
        xi = nf.xi
        run = {"converged": nf.converged, "iterations": nf.iterations,
               "noise_eps": nf.noise_eps, "f_value": nf.f_value,
               "filter_a": nf.filter_a, "filter_b": nf.filter_b}
    total = float(np.sum(xi))
    bound = filter_xi_bound((da, db), run["converged"])
    return CriterionVerdict(
        name="cmc_filter", margin=total - bound,
        detected=not low_rank_ppt and total - bound > EPS_MARGIN,
        details={"xi": xi, "xi_sum": total, "bound": bound, **run})


def _traceless_sym_basis_3() -> list[np.ndarray]:
    mats = [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0])]
    for i in range(3):
        for j in range(i + 1, 3):
            e = np.zeros((3, 3))
            e[i, j] = e[j, i] = 1.0
            mats.append(e)
    return mats


@functools.lru_cache(maxsize=1)
def _two_qubit_program() -> sdpsolve.SdpProblem:
    """Program: maximize lambda over kappa_A/B = ((1+lambda)1 - rho_{A,B})/2
    with rho_{A,B} symmetric of trace 1+lambda, subject to kappa_A/B >= 0 and
    gamma_eff - kappa_A (+) kappa_B >= 0.

    The trace equalities are eliminated affinely, rho = (1+lambda)/3 1 +
    traceless part, leaving 11 variables over blocks 6 (+) 3 (+) 3; splitting
    them into scalar inequality pairs instead makes the central path
    degenerate and the gap tolerance unreachable.  kappa then reads
    (1+lambda)/3 1 - traceless/2, so the lambda column carries -1/3 on the
    big block and +1/3 on the kappa blocks, and F0 is gamma_eff - 1/3 (+)
    1/3 (+) 1/3.  Only F0 depends on the state, so the program is built
    once per process and shared, read-only, by every solve.
    """
    basis = _traceless_sym_basis_3()
    m = 11
    c = np.zeros(m)
    c[0] = -1.0  # min -lambda

    fi = [np.zeros((m, 6, 6)), np.zeros((m, 3, 3)), np.zeros((m, 3, 3))]
    fi[0][0] = -np.eye(6) / 3.0
    fi[1][0] = np.eye(3) / 3.0
    fi[2][0] = np.eye(3) / 3.0
    for k, e in enumerate(basis):
        ia, ib = 1 + k, 6 + k
        fi[0][ia, :3, :3] = 0.5 * e
        fi[0][ib, 3:, 3:] = 0.5 * e
        fi[1][ia] = -0.5 * e
        fi[2][ib] = -0.5 * e
    return sdpsolve.SdpProblem(c=c, fi_blocks=fi)


def extract_lur_from_witness(z1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a CM-witness into local uncertainty
    observables A_k = sqrt(l_k) sum alpha_l sigma_l / sqrt2 and likewise for
    B, returned as (ops_a, ops_b), reproducing tr(gamma_eff Z1) as the
    variance sum, which is at least 1 on every separable state."""
    w, v = np.linalg.eigh((z1 + z1.T) / 2)
    keep = w > WITNESS_CUTOFF
    # rows of coeff alternate the A and B halves of each scaled eigenvector
    coeff = (v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, 3)
    ops = (coeff @ pauli_basis().ops[1:].reshape(3, 4)).reshape(-1, 2, 2, 2)
    return ops[:, 0], ops[:, 1]


def lur_value(rho, ops_a, ops_b) -> float:
    """sum_k Var(A_k x 1 + 1 x B_k) on the given state, expanded as
    <A_k^2> + <B_k^2> + 2 <A_k x B_k> - (<A_k> + <B_k>)^2: the local moments
    come from the marginals, the cross terms from the diagonal of the
    joint-moment matrix."""
    r = hermitize(rho)
    ops_a = np.asarray(ops_a, dtype=complex)
    ops_b = np.asarray(ops_b, dtype=complex)
    if len(ops_a) != len(ops_b):
        raise MatrixError("need matching observable lists")
    if len(ops_a) == 0:
        return 0.0
    dims = (ops_a.shape[1], ops_b.shape[1])
    sides = [(matlin.partial_trace(r, dims, keep=keep), ops)
             for keep, ops in (("A", ops_a), ("B", ops_b))]
    mean = sum(covariance.first_moments(x, ops) for x, ops in sides)
    sq = sum(np.real(np.diagonal(covariance.second_moments(x, ops)))
             for x, ops in sides)
    cross = np.diagonal(matlin.joint_moments(r, ops_a, ops_b))
    return float(np.sum(sq + 2 * cross - mean**2))


def cmc_sdp_2q(rho, max_iter: int = sdpsolve.DEFAULT_MAX_ITER) -> CriterionVerdict:
    """Exact two-qubit covariance-matrix test as a semidefinite program; the
    dual solution doubles as a CM-witness and yields violating local
    uncertainty observables for every detected state.

    On a state with an eigenvalue below ``matlin.DEFAULT_NOISE_EPS``,
    such as a pure one, the solve can stall short of the gap tolerance, so
    that state is mixed with that much white noise first.  A detection of
    the mixture is one of the state, since mixing in noise keeps a
    separable state separable.  The witness and LUR values are those of the
    state solved on; ``details["noise_eps"]`` is the noise (0.0 when none).
    """
    st, noise_eps = as_state(rho, (2, 2)).mixed()
    gamma_eff = covariance.two_qubit_effective_cm(st)
    third = np.eye(3) / 3.0
    sol = sdpsolve.solve(_two_qubit_program(),
                         [gamma_eff - np.eye(6) / 3.0, third, third],
                         max_iter=max_iter)
    if sol.status != "optimal":
        return CriterionVerdict(
            name="cmc_sdp_2q", detected=None, margin=float("nan"),
            details={"solver_status": sol.status,
                     "iterations": sol.iterations, "noise_eps": noise_eps},
            eps_margin=SDP_EPS_MARGIN, status="undetermined")
    lam_star = float(sol.x[0])
    z1 = sol.z_blocks[0]
    ops_a, ops_b = extract_lur_from_witness(z1)
    details = {
        "lambda_star": lam_star,
        "witness_z1": z1,
        "witness_value": float(np.tensordot(gamma_eff, z1, axes=2)),
        "lur_ops_a": ops_a,
        "lur_ops_b": ops_b,
        "lur_bound": 1.0,
        "lur_value": lur_value(st.rho, ops_a, ops_b),
        "gap": sol.gap,
        "iterations": sol.iterations,
        "noise_eps": noise_eps,
    }
    return _verdict("cmc_sdp_2q", -lam_star, details, SDP_EPS_MARGIN)


# The criterion family in evaluation order: CLI spelling -> criterion name.
CRITERIA = {
    "ppt": "ppt",
    "ccnr": "ccnr",
    "de-vicente": "de_vicente",
    "cmc-sv": "cmc_singular_values",
    "cmc-trace": "cmc_trace",
    "cmc-schmidt": "cmc_schmidt",
    "cmc-kyfan": "cmc_kyfan_weyl",
    "cmc-filter": "cmc_filter",
    "cmc-sdp": "cmc_sdp_2q",
}


def run_all(rho, dims: tuple[int, int],
            criteria: list[str] | None = None) -> list[CriterionVerdict]:
    """Evaluate every applicable criterion in a fixed order, or each of
    ``criteria`` (known and none repeated) in the order given, all on one
    CheckedState.

    The Ky-Fan family expands to one verdict per shift s; the SDP only runs
    on two qubits.
    """
    st = as_state(rho, dims)
    da, db = st.dims
    wanted = list(CRITERIA.values() if criteria is None else criteria)
    for name in wanted:
        if name not in CRITERIA.values():
            raise MatrixError(f"unknown criterion {name!r}")
        if wanted.count(name) > 1:
            raise MatrixError(f"repeated criterion {name!r}")
    out: list[CriterionVerdict] = []
    for name in wanted:
        # looked up by name at call time, so rebinding a criterion applies
        if name == "cmc_kyfan_weyl":
            if da == db:
                out += [cmc_kyfan_weyl(st, st.dims, s=s) for s in range(1, da)]
        elif name == "cmc_sdp_2q":
            if (da, db) == (2, 2):
                out.append(cmc_sdp_2q(st))
        else:
            out.append(globals()[name](st, st.dims))
    return out
