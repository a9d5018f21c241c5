"""Small dense semidefinite-program solver for block-diagonal problems.

Solves  min c^T x  subject to  F(x) = F_0 + sum_i x_i F_i >= 0  together
with the Lagrangian dual  max -tr(F_0 Z)  s.t.  tr(F_i Z) = c_i, Z >= 0,
via an infeasible-start primal-dual path-following method (HKM direction
with a Mehrotra-style corrector).  Problem sizes here are tiny (tens of
variables, blocks of a few rows), so robustness is favored throughout.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SdpProblem:
    """Objective vector c and symmetric block-diagonal constraint matrices.

    ``f0_blocks[b]`` is the constant block; ``fi_blocks[b]`` stacks the m
    coefficient blocks as an (m, n_b, n_b) array.
    """

    c: np.ndarray
    f0_blocks: list = field(repr=False)
    fi_blocks: list = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        object.__setattr__(self, "c", c)
        f0 = [np.asarray(b, dtype=float) for b in self.f0_blocks]
        fi = [np.asarray(b, dtype=float) for b in self.fi_blocks]
        if len(f0) != len(fi) or not f0:
            raise SdpError("need matching, non-empty F0 and Fi block lists")
        for b0, bi in zip(f0, fi):
            nb = b0.shape[0]
            if b0.shape != (nb, nb):
                raise SdpError(f"F0 block has shape {b0.shape}, expected square")
            if bi.shape != (len(c), nb, nb):
                raise SdpError(
                    f"Fi block stack has shape {bi.shape}, expected "
                    f"({len(c)}, {nb}, {nb})")
            if np.max(np.abs(b0 - b0.T)) > 1e-12 * max(1.0, np.max(np.abs(b0))):
                raise SdpError("F0 block is not symmetric")
            if bi.size and np.max(np.abs(bi - bi.transpose(0, 2, 1))) > 1e-12:
                raise SdpError("an Fi block is not symmetric")
        object.__setattr__(self, "f0_blocks", f0)
        object.__setattr__(self, "fi_blocks", fi)

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


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Run the interior-point iteration until the duality gap and both
    feasibility residuals drop below ``tol``.

    A run that stalls or exhausts ``max_iter`` returns its best iterate
    with status ``max_iter``.
    """
    m = problem.n_vars
    c = problem.c
    ntot = sum(problem.block_dims)
    ends = np.cumsum(problem.block_dims).tolist()
    blocks = [slice(e - nb, e) for e, nb in zip(ends, problem.block_dims)]

    # S, Z and the F_i are iterated as dense block-diagonal ntot x ntot
    # matrices.  Products and inverses keep the off-block entries exactly
    # zero, and the step tests need only eigenvalues, which are those of
    # the blocks together.
    def embed(mats, lead=()):
        out = np.zeros(lead + (ntot, ntot))
        for sl, b in zip(blocks, mats):
            out[..., sl, sl] = b
        return out

    f0 = embed(problem.f0_blocks)
    fi = embed(problem.fi_blocks, (m,))
    # Constraint matrix of the dual equalities tr(F_i Z) = c_i over vec(Z),
    # so F(x) = F0 + x @ amat and A*(Z) = amat @ vec(Z).  Dual steps are
    # re-projected onto it exactly, so roundoff from the (increasingly
    # ill-conditioned) Schur solves never accumulates in the dual residual.
    f0vec = f0.ravel()
    amat = fi.reshape(m, ntot * ntot)
    scale = max(1.0, float(np.max(np.abs(f0vec))),
                float(np.max(np.abs(c))) if m else 1.0)
    gram = amat @ amat.T + 1e-12 * scale**2 * np.eye(m)
    # amat^T gram^-1, factored once per solve (gram is symmetric)
    proj = np.linalg.solve(gram, amat).T

    def sym(a):
        return (a + a.T) / 2

    def project_dz(dz, target):
        d = dz.ravel()
        return sym((d + proj @ (target - amat @ d)).reshape(ntot, ntot))

    def residuals(xv, sv, zv):
        return f0 + (xv @ amat).reshape(ntot, ntot) - sv, c - amat @ zv.ravel()

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
        metric = max(float(np.max(np.abs(rp))), rd_norm, abs(gap)) / scale
        if metric < best_metric:
            best_metric = metric
            best_state = (x, s, z)  # iterates are replaced, never mutated
            since_best = 0
        else:
            since_best += 1
        if metric <= tol:
            status = "optimal"
            break
        if mu < 1e-13 * scale or since_best >= 30:
            break  # numerical floor reached; fall back to the best iterate

        # Farkas check: a scaled dual ray with A*(Z) ~ 0 and tr(F0 Z) < 0
        # bounds the primal objective away from every feasible value.
        znorm = sum(float(np.linalg.norm(z[sl, sl])) for sl in blocks)
        if znorm > 1e8 * scale:
            zray = z / znorm
            if (float(np.max(np.abs(amat @ zray.ravel()))) <= 1e-9
                    and f0vec @ zray.ravel() < -_INFEASIBILITY_MARGIN):
                z = zray
                status = "infeasible"
                break

        sinv = np.linalg.inv(s)
        # Schur complement M_ij = tr(F_i S^-1 F_j Z), contracted as amat
        # against vec(S^-1 F_j Z) (the F_i are symmetric), symmetrized
        mmat = sym(amat @ (sinv @ fi @ z).reshape(m, ntot * ntot).T)
        mmat += 1e-13 * scale * np.eye(m)
        # step-length factors of the current S and Z, shared by all directions
        sfac, zfac = _step_factor(s), _step_factor(z)

        def direction(sigma_mu, corr=None):
            # HKM: W(D) = sigma_mu S^-1 - Z - S^-1 D Z [- S^-1 corr]; the
            # right-hand side is A*(W(Rp)) - rd and dZ = sym W(dS).  As the
            # F_i are symmetric, tr(F_i W^T) = amat[i] @ vec(W).
            base = sigma_mu * sinv - z
            if corr is not None:
                base = base - sinv @ corr
            rhs = amat @ (base - sinv @ rp @ z).ravel() - rd
            try:
                dx = np.linalg.solve(mmat, rhs)
                dx += np.linalg.solve(mmat, rhs - mmat @ dx)  # refinement
            except np.linalg.LinAlgError:
                dx = np.linalg.lstsq(mmat, rhs, rcond=None)[0]
            ds = (dx @ amat).reshape(ntot, ntot) + rp
            return dx, ds, project_dz(sym(base - sinv @ ds @ z), rd)

        def steps(ds, dz):
            return _max_step(sfac, ds), _max_step(zfac, dz)

        # predictor
        dx_a, ds_a, dz_a = direction(0.0)
        ap, ad = steps(ds_a, dz_a)
        mu_aff = float(np.vdot(s + ap * ds_a, z + ad * dz_a)) / ntot
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-6)) if mu > 0 else 0.1
        # keep mu above what the gap tolerance needs; driving it further
        # amplifies the Schur system and erodes dual feasibility
        mu_floor = 0.1 * tol * scale / ntot
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
