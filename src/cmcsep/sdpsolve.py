"""Small dense semidefinite-program solver for block-diagonal problems.

Solves  min c^T x  subject to  F(x) = F_0 + sum_i x_i F_i >= 0  together
with the Lagrangian dual  max -tr(F_0 Z)  s.t.  tr(F_i Z) = c_i, Z >= 0,
via an infeasible-start primal-dual path-following method (HKM direction
with a Mehrotra-style corrector).  Problem sizes here are tiny (tens of
variables, blocks of a few rows), so robustness is favored throughout.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200

# Fraction of the step to the positive-definite boundary actually taken.
_STEP_FRACTION = 0.98
# Farkas-type margin: a near-feasible dual ray with objective this far above
# zero certifies primal infeasibility.
_INFEASIBILITY_MARGIN = 1e-6


class SdpError(ValueError):
    """Malformed SDP data."""


def _data(a, what: str) -> np.ndarray:
    """A read-only float copy of ``a``; non-finite entries are rejected."""
    out = np.array(a, dtype=float)
    if not np.all(np.isfinite(out)):
        raise SdpError(f"{what} has a non-finite entry")
    out.flags.writeable = False
    return out


class SdpProblem:
    """Objective vector c and symmetric block-diagonal constraint matrices.

    ``f0_blocks[b]`` is the constant block; ``fi_blocks[b]`` stacks the m
    coefficient blocks as an (m, n_b, n_b) array.  The problem also holds
    what the solver iterates on: F0 and the F_i embedded as dense
    block-diagonal matrices, ``amat`` = the F_i flattened into rows, the
    objective ``scale`` and the Gram projector ``proj``.  Every array is a
    read-only copy, so ``with_f0`` can share all that does not depend on F0.
    """

    def __init__(self, c, f0_blocks, fi_blocks):
        self.c = _data(c, "c").ravel()
        self.fi_blocks = fi = [_data(b, "an Fi block stack") for b in fi_blocks]
        if not fi:
            raise SdpError("need at least one block")
        m = self.n_vars
        for bi in fi:
            if bi.ndim != 3 or bi.shape[0] != m or bi.shape[1] != bi.shape[2]:
                raise SdpError(f"Fi block stack has shape {bi.shape}, expected "
                               f"({m}, n, n)")
            if bi.size and np.max(np.abs(bi - bi.transpose(0, 2, 1))) > 1e-12:
                raise SdpError("an Fi block is not symmetric")
        ends = np.cumsum([bi.shape[1] for bi in fi]).tolist()
        self.blocks = [slice(e - bi.shape[1], e) for e, bi in zip(ends, fi)]
        self.fi = self._embed(fi, (m,))
        self.amat = self.fi.reshape(m, ends[-1] ** 2)
        self.scale = None
        self._set_f0(f0_blocks)

    def _embed(self, mats, lead: tuple) -> np.ndarray:
        """The blocks ``mats`` (leading axes ``lead``) as one read-only array."""
        ntot = self.blocks[-1].stop
        dense = np.zeros((*lead, ntot, ntot))
        for sl, b in zip(self.blocks, mats):
            dense[..., sl, sl] = b
        dense.flags.writeable = False
        return dense

    def _set_f0(self, f0_blocks) -> None:
        """Check and embed F0; the projector is rebuilt only when F0 moves
        ``scale`` off the stored one."""
        f0 = [_data(b, "an F0 block") for b in f0_blocks]
        if len(f0) != len(self.blocks):
            raise SdpError("need one F0 block per Fi block stack")
        for b0, sl in zip(f0, self.blocks):
            nb = sl.stop - sl.start
            if b0.shape != (nb, nb):
                raise SdpError(f"F0 block has shape {b0.shape}, expected "
                               f"({nb}, {nb})")
            if np.max(np.abs(b0 - b0.T)) > 1e-12 * max(1.0, np.max(np.abs(b0))):
                raise SdpError("F0 block is not symmetric")
        self.f0_blocks, self.f0 = f0, self._embed(f0, ())
        m = self.n_vars
        scale = max(1.0, float(np.max(np.abs(self.f0))),
                    float(np.max(np.abs(self.c))) if m else 1.0)
        if scale != self.scale:
            # amat^T gram^-1 (gram is symmetric)
            gram = self.amat @ self.amat.T + 1e-12 * scale**2 * np.eye(m)
            self.proj = np.linalg.solve(gram, self.amat).T
            self.proj.flags.writeable = False
            self.scale = scale

    def with_f0(self, f0_blocks) -> SdpProblem:
        """The same program with another constant term F0."""
        out = copy.copy(self)
        out._set_f0(f0_blocks)
        return out

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def block_dims(self) -> list[int]:
        return [b.shape[0] for b in self.f0_blocks]


@dataclass(frozen=True)
class SdpSolution:
    """Primal point, dual certificate, objectives and convergence data."""

    x: np.ndarray
    z_blocks: list = field(repr=False)
    s_blocks: list = field(repr=False)
    primal_objective: float
    dual_objective: float
    gap: float
    status: str  # optimal | infeasible | max_iter
    iterations: int
    primal_residual: float
    dual_residual: float


def _step_factor(s: np.ndarray) -> np.ndarray:
    """V diag(w)^-1/2 from the eigendecomposition of a symmetric matrix.

    Eigenvalues are floored at 1e-14 of the largest eigenvalue of the whole
    block-diagonal matrix, so that iterates grazing the cone boundary
    (rounding-level negative eigenvalues) do not abort the solve.
    """
    w, v = np.linalg.eigh(s)
    floor = max(abs(w[-1]), 1e-300) * 1e-14
    return v / np.sqrt(np.maximum(w, floor))


def _max_step(f: np.ndarray, d: np.ndarray) -> float:
    """Step fraction of the largest alpha with s + alpha d > 0, capped at 1,
    via the eigenproblem scaled by the step factor f of s."""
    wmin = float(np.linalg.eigvalsh(f.T @ d @ f)[0])
    return min(1.0, _STEP_FRACTION / -wmin) if wmin < 0 else 1.0


def solve(problem: SdpProblem, max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Run the interior-point iteration until the duality gap and both
    feasibility residuals drop below ``DEFAULT_TOL``.

    A run that stalls or exhausts ``max_iter`` returns its best iterate
    with status ``max_iter``.
    """
    m = problem.n_vars
    c, blocks, scale = problem.c, problem.blocks, problem.scale
    ntot = blocks[-1].stop
    # S, Z and the F_i are iterated as dense block-diagonal ntot x ntot
    # matrices.  Products and eigendecompositions keep the off-block entries
    # exactly zero, and the step tests need only eigenvalues, which are
    # those of the blocks together.  F(x) = F0 + x @ amat and
    # A*(Z) = amat @ vec(Z).  Dual steps are re-projected onto A*(dZ) = rd
    # exactly (proj is amat^T gram^-1), so roundoff from the (increasingly
    # ill-conditioned) Schur solves never accumulates in the dual residual.
    f0, fi, amat, proj = problem.f0, problem.fi, problem.amat, problem.proj
    f0vec = f0.ravel()

    def sym(a):
        return (a + a.T) / 2

    def project_dz(dz, target):
        d = dz.ravel()
        return sym((d + proj @ (target - amat @ d)).reshape(ntot, ntot))

    def residuals(xv, sv, zv):
        return f0 + (xv @ amat).reshape(ntot, ntot) - sv, c - amat @ zv.ravel()

    # keep mu above what the gap tolerance needs; driving it further
    # amplifies the Schur system and erodes dual feasibility
    mu_floor = 0.1 * DEFAULT_TOL * scale / ntot
    ridge = 1e-13 * scale * np.eye(m)
    x = np.zeros(m)
    s = scale * np.eye(ntot)
    z = s.copy()
    status = "max_iter"
    it = 0
    best_metric = np.inf
    best_state = None
    since_best = 0
    for it in range(1, max_iter + 1):
        rp, rd = residuals(x, s, z)
        mu = float(np.vdot(s, z)) / ntot
        rd_norm = float(np.max(np.abs(rd))) if m else 0.0
        gap = float(c @ x + f0vec @ z.ravel())
        # np.max, unlike max(), passes a NaN on, which never converges
        metric = float(np.max((np.max(np.abs(rp)), rd_norm, abs(gap)))) / scale
        if metric < best_metric:
            best_metric = metric
            best_state = (x, s, z)  # iterates are replaced, never mutated
            since_best = 0
        else:
            since_best += 1
        if metric <= DEFAULT_TOL:
            status = "optimal"
            break
        if mu < 1e-13 * scale or since_best >= 30:
            break  # numerical floor reached; fall back to the best iterate

        # Farkas check: a scaled dual ray with A*(Z) ~ 0 and tr(F0 Z) < 0
        # bounds the primal objective away from every feasible value.  The
        # block norms sum to at most ntot max|Z|, so that bound screens them.
        if ntot * float(np.max(np.abs(z))) > 1e8 * scale:
            znorm = sum(float(np.linalg.norm(z[sl, sl])) for sl in blocks)
            zray = z / znorm
            if (znorm > 1e8 * scale
                    and float(np.max(np.abs(amat @ zray.ravel()))) <= 1e-9
                    and f0vec @ zray.ravel() < -_INFEASIBILITY_MARGIN):
                z = zray
                status = "infeasible"
                break

        # step-length factors of the current S and Z, shared by all
        # directions; S^-1 = sfac sfac^T from the same eigendecomposition
        sfac, zfac = _step_factor(s), _step_factor(z)
        sinv = sfac @ sfac.T
        # G_j = S^-1 F_j Z.  Schur complement M_ij = tr(F_i G_j), contracted
        # as amat against vec(G_j) (the F_i are symmetric), symmetrized,
        # and inverted once for every direction
        g = (sinv @ fi @ z).reshape(m, ntot * ntot)
        mmat = sym(amat @ g.T) + ridge
        try:
            minv = np.linalg.inv(mmat)
        except np.linalg.LinAlgError:
            minv = None
        # HKM: dZ = sym W(dS) with W(D) = sigma_mu S^-1 - Z - S^-1 D Z
        # [- S^-1 corr] and dS = dx @ F + Rp, where S^-1 (dx @ F) Z = dx @ G;
        # dx solves M dx = A*(W(Rp)) - rd.  As A*(Z) + rd = c, the parts that
        # no direction changes are w0 = -Z - S^-1 Rp Z of W and
        # -c - A*(S^-1 Rp Z) of the right-hand side.
        srz = sinv @ rp @ z
        w0 = -z - srz
        a_sinv = amat @ sinv.ravel()
        rhs0 = -c - amat @ srz.ravel()

        def direction(sigma_mu, corr=None):
            w = sigma_mu * sinv + w0
            rhs = sigma_mu * a_sinv + rhs0
            if corr is not None:
                sc = sinv @ corr
                w -= sc
                rhs -= amat @ sc.ravel()
            if minv is None:
                dx = np.linalg.lstsq(mmat, rhs, rcond=None)[0]
            else:
                dx = minv @ rhs
                dx += minv @ (rhs - mmat @ dx)  # refinement
            ds = (dx @ amat).reshape(ntot, ntot) + rp
            return dx, ds, project_dz(w - (dx @ g).reshape(ntot, ntot), rd)

        def steps(ds, dz):
            return _max_step(sfac, ds), _max_step(zfac, dz)

        # predictor
        dx_a, ds_a, dz_a = direction(0.0)
        ap, ad = steps(ds_a, dz_a)
        mu_aff = float(np.vdot(s + ap * ds_a, z + ad * dz_a)) / ntot
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-6)) if mu > 0 else 0.1
        dx, ds, dz = direction(max(sigma * mu, mu_floor), corr=ds_a @ dz_a)
        ap, ad = steps(ds, dz)
        if min(ap, ad) < 0.05:
            # iterate has drifted off the central path and the Mehrotra step
            # collapsed; restore centrality with a pure sigma = 1 step
            dx, ds, dz = direction(max(mu, mu_floor))
            ap, ad = steps(ds, dz)
        if not (np.isfinite(ap) and np.isfinite(ad)
                and np.all(np.isfinite(ds)) and np.all(np.isfinite(dz))):
            break
        x = x + ap * dx
        s = s + ap * ds
        z = z + ad * dz

    if status != "infeasible" and best_state is not None:
        x, s, z = best_state
    rp, rd = residuals(x, s, z)
    primal_obj = float(c @ x)
    dual_obj = -float(f0vec @ z.ravel())
    return SdpSolution(
        x=x,
        z_blocks=[z[sl, sl] for sl in blocks],
        s_blocks=[s[sl, sl] for sl in blocks],
        primal_objective=primal_obj,
        dual_objective=dual_obj,
        gap=primal_obj - dual_obj,
        status=status,
        iterations=it,
        primal_residual=float(np.max(np.abs(rp))),
        dual_residual=float(np.max(np.abs(rd))) if m else 0.0,
    )
