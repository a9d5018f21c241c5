"""Tests for the block-diagonal semidefinite-program solver."""

import numpy as np
import pytest

from cmcsep import criteria, matlin, sdpsolve, states
from cmcsep.covariance import two_qubit_effective_cm
from cmcsep.criteria import SDP_EPS_MARGIN, _two_qubit_program, cmc_sdp_2q
from cmcsep.sdpsolve import SdpProblem, SdpError, solve


def _reference_min_eig_step(s: np.ndarray, ds: np.ndarray) -> float:
    """Largest alpha with s + alpha ds > 0, via the scaled eigenproblem.

    Eigendecomposition-based so that iterates grazing the cone boundary
    (rounding-level negative eigenvalues) do not abort the solve.
    """
    if s.shape[0] == 1:
        if ds[0, 0] >= 0:
            return np.inf
        return max(s[0, 0], 0.0) / -ds[0, 0]
    w, v = np.linalg.eigh(s)
    floor = max(abs(w[-1]), 1e-300) * 1e-14
    w = np.maximum(w, floor)
    isqrt = v / np.sqrt(w)
    wmin = float(np.linalg.eigvalsh(isqrt.T @ ds @ isqrt)[0])
    if wmin >= 0:
        return np.inf
    return -1.0 / wmin


def _reference_step(blocks, dirs) -> float:
    return min(1.0, sdpsolve._STEP_FRACTION * min(
        _reference_min_eig_step(b, d) for b, d in zip(blocks, dirs)))


def reference_solve_core(problem: SdpProblem, f0, tol: float,
                          max_iter: int) -> sdpsolve.SdpSolution:
    """The interior-point iteration with per-block tensordot and einsum
    contractions, kept to check the stacked-matrix solver against."""
    m = problem.n_vars
    fi = problem.fi_blocks
    dims = [b.shape[1] for b in fi]
    ntot = sum(dims)
    nblocks = len(dims)
    scale = max(1.0, max(float(np.max(np.abs(b))) for b in f0),
                float(np.max(np.abs(problem.c))) if m else 1.0)
    fi_scale = max(1.0, max(float(np.max(np.abs(b))) for b in fi))

    x = np.zeros(m)
    s = [scale * np.eye(nb) for nb in dims]
    z = [scale * np.eye(nb) for nb in dims]

    # Constraint matrix of the dual equalities tr(F_i Z) = c_i over the
    # vectorized blocks.  Dual steps are re-projected onto it exactly, so
    # roundoff from the (increasingly ill-conditioned) Schur solves never
    # accumulates in the dual residual.
    amat = np.hstack([fi[b].reshape(m, dims[b] * dims[b]) for b in range(nblocks)])
    gram = amat @ amat.T + 1e-12 * fi_scale**2 * np.eye(m)

    def project_dz(dz, target):
        vec = np.concatenate([d.ravel() for d in dz])
        shift = amat.T @ np.linalg.solve(gram, target - amat @ vec)
        out = []
        pos = 0
        for b in range(nblocks):
            nb2 = dims[b] * dims[b]
            blk = dz[b] + shift[pos:pos + nb2].reshape(dims[b], dims[b])
            out.append((blk + blk.T) / 2)
            pos += nb2
        return out

    def fx_blocks(xv):
        return [f0[b] + np.tensordot(xv, fi[b], axes=(0, 0)) for b in range(nblocks)]

    def residuals(xv, sb, zb):
        rp = [f + 0.0 for f in fx_blocks(xv)]
        for b in range(nblocks):
            rp[b] -= sb[b]
        rd = problem.c - np.array([
            sum(np.tensordot(fi[b][i], zb[b], axes=2) for b in range(nblocks))
            for i in range(m)
        ])
        return rp, rd

    status = "max_iter"
    it = 0
    best_metric = np.inf
    best_state = None
    since_best = 0
    for it in range(1, max_iter + 1):
        rp, rd = residuals(x, s, z)
        mu = sum(np.tensordot(s[b], z[b], axes=2) for b in range(nblocks)) / ntot
        rp_norm = max(float(np.max(np.abs(b))) for b in rp)
        rd_norm = float(np.max(np.abs(rd))) if m else 0.0
        gap = float(np.dot(problem.c, x)
                    + sum(np.tensordot(f0[b], z[b], axes=2) for b in range(nblocks)))
        metric = max(rp_norm, rd_norm, abs(gap)) / scale
        if metric < best_metric:
            best_metric = metric
            best_state = (x.copy(), [b.copy() for b in s], [b.copy() for b in z])
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
        znorm = sum(float(np.linalg.norm(b)) for b in z)
        if znorm > 1e8 * scale:
            zray = [b / znorm for b in z]
            ray_feas = float(np.max(np.abs(np.array([
                sum(np.tensordot(fi[b][i], zray[b], axes=2) for b in range(nblocks))
                for i in range(m)]))))
            ray_obj = sum(np.tensordot(f0[b], zray[b], axes=2) for b in range(nblocks))
            if ray_feas <= 1e-9 and ray_obj < -sdpsolve._INFEASIBILITY_MARGIN:
                z = zray
                status = "infeasible"
                break

        sinv = [np.linalg.inv(b) for b in s]
        # Schur complement M_ij = sum_b tr(F_i S^-1 F_j Z), symmetrized
        mmat = np.zeros((m, m))
        for b in range(nblocks):
            g = np.einsum("ab,jbc,cd->jad", sinv[b], fi[b], z[b], optimize=True)
            mmat += np.einsum("iab,jba->ij", fi[b], g, optimize=True)
        mmat = (mmat + mmat.T) / 2
        mmat += 1e-13 * scale * np.eye(m)

        def direction(sigma_mu, corr=None):
            rhs = -rd.copy() if m else np.zeros(0)
            for b in range(nblocks):
                w = sigma_mu * sinv[b] - z[b] - sinv[b] @ rp[b] @ z[b]
                if corr is not None:
                    w -= sinv[b] @ corr[b]
                rhs += np.einsum("iab,ba->i", fi[b], w, optimize=True)
            try:
                dx = np.linalg.solve(mmat, rhs)
                dx += np.linalg.solve(mmat, rhs - mmat @ dx)  # refinement
            except np.linalg.LinAlgError:
                dx = np.linalg.lstsq(mmat, rhs, rcond=None)[0]
            ds = []
            dz = []
            for b in range(nblocks):
                dsb = np.tensordot(dx, fi[b], axes=(0, 0)) + rp[b]
                w = sigma_mu * sinv[b] - z[b] - sinv[b] @ dsb @ z[b]
                if corr is not None:
                    w -= sinv[b] @ corr[b]
                dzb = (w + w.T) / 2
                ds.append(dsb)
                dz.append(dzb)
            return dx, ds, project_dz(dz, rd)

        # predictor
        dx_a, ds_a, dz_a = direction(0.0)
        ap = _reference_step(s, ds_a)
        ad = _reference_step(z, dz_a)
        mu_aff = sum(np.tensordot(s[b] + ap * ds_a[b], z[b] + ad * dz_a[b], axes=2)
                     for b in range(nblocks)) / ntot
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-6)) if mu > 0 else 0.1
        # keep mu above what the gap tolerance needs; driving it further
        # amplifies the Schur system and erodes dual feasibility
        mu_floor = 0.1 * tol * scale / ntot
        corr = [ds_a[b] @ dz_a[b] for b in range(nblocks)]
        dx, ds, dz = direction(max(sigma * mu, mu_floor), corr=corr)
        ap = _reference_step(s, ds)
        ad = _reference_step(z, dz)
        if min(ap, ad) < 0.05:
            # iterate has drifted off the central path and the Mehrotra step
            # collapsed; restore centrality with a pure sigma = 1 step
            dx, ds, dz = direction(max(mu, mu_floor))
            ap = _reference_step(s, ds)
            ad = _reference_step(z, dz)
        if not (np.isfinite(ap) and np.isfinite(ad)
                and all(np.all(np.isfinite(d)) for d in ds)
                and all(np.all(np.isfinite(d)) for d in dz)):
            break
        x = x + ap * dx
        s = [s[b] + ap * ds[b] for b in range(nblocks)]
        z = [z[b] + ad * dz[b] for b in range(nblocks)]

    if status != "infeasible" and best_state is not None:
        x, s, z = best_state
    rp, rd = residuals(x, s, z)
    primal_obj = float(np.dot(problem.c, x))
    dual_obj = float(-sum(np.tensordot(f0[b], z[b], axes=2) for b in range(nblocks)))
    return sdpsolve.SdpSolution(
        x=x,
        z_blocks=z,
        s_blocks=s,
        primal_objective=primal_obj,
        dual_objective=dual_obj,
        gap=primal_obj - dual_obj,
        status=status,
        iterations=it,
        primal_residual=max(float(np.max(np.abs(b))) for b in rp),
        dual_residual=float(np.max(np.abs(rd))) if m else 0.0,
    )


def test_trivial_feasibility():
    """F0 = 1 with a null objective is solved at gap zero."""
    prob = SdpProblem(c=np.zeros(1), fi_blocks=[np.eye(3)[None, :, :]])
    sol = solve(prob, [np.eye(3)])
    assert sol.status == "optimal"
    assert abs(sol.gap) <= 1e-8


def test_program_without_variables():
    """With no F_i, the solve only checks that F0 >= 0: F0 = 1 is optimal."""
    prob = SdpProblem(c=np.zeros(0), fi_blocks=[np.zeros((0, 2, 2))])
    sol = solve(prob, [np.eye(2)])
    assert sol.status == "optimal" and sol.x.shape == (0,)
    assert abs(sol.gap) <= 1e-8


def test_embedded_lp():
    """min x subject to x >= 2."""
    prob = SdpProblem(c=np.array([1.0]), fi_blocks=[np.ones((1, 1, 1))])
    sol = solve(prob, [np.array([[-2.0]])])
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 2.0) < 1e-6
    assert abs(sol.gap) <= 1e-8


def test_two_block_projection_problem():
    """min t with t 1 - A >= 0 solves the largest eigenvalue."""
    rng = np.random.default_rng(90)
    a = rng.normal(size=(4, 4))
    a = (a + a.T) / 2
    prob = SdpProblem(c=np.array([1.0]), fi_blocks=[np.eye(4)[None, :, :]])
    sol = solve(prob, [-a])
    assert sol.status == "optimal"
    assert abs(sol.x[0] - np.linalg.eigvalsh(a)[-1]) < 1e-6


def test_weak_duality_and_dual_feasibility():
    rng = np.random.default_rng(91)
    a = rng.normal(size=(3, 3))
    a = (a + a.T) / 2
    prob = SdpProblem(c=np.array([1.0]), fi_blocks=[np.eye(3)[None, :, :]])
    sol = solve(prob, [-a])
    # c^T x + tr(F0 Z) = tr(F(x) Z) >= 0 up to solver tolerance
    assert sol.gap >= -1e-7
    for i, fi in enumerate([np.eye(3)]):
        assert abs(np.tensordot(fi, sol.z_blocks[0], axes=2)
                   - prob.c[i]) < 1e-7
    assert np.linalg.eigvalsh(sol.z_blocks[0])[0] > -1e-9


def test_complementary_slackness():
    prob = SdpProblem(c=np.array([1.0]), fi_blocks=[np.eye(2)[None, :, :]])
    sol = solve(prob, [np.diag([-2.0, -1.0])])
    prod = sol.s_blocks[0] @ sol.z_blocks[0]
    assert np.linalg.norm(prod) <= 10 * 1e-8 * 10  # scale slack on tiny blocks


def test_infeasible_problem_certificate():
    """x >= 2 and x <= 0 simultaneously has a Farkas dual ray."""
    f0 = np.diag([-2.0, 0.0])
    f1 = np.array([np.diag([1.0, -1.0])])
    sol = solve(SdpProblem(c=np.zeros(1), fi_blocks=[f1]), [f0])
    assert sol.status == "infeasible"
    zray = sol.z_blocks[0]
    assert abs(np.tensordot(f1[0], zray, axes=2)) < 1e-6
    assert np.tensordot(f0, zray, axes=2) < 0


def _lp_and_eigen_problem(a: np.ndarray, lp_first: bool):
    """min t subject to t >= 2 (a 1x1 block) and t 1 - A >= 0 (a 3x3 block),
    whose optimum is max(2, lambda_max(A)), and its F0 blocks."""
    blocks = [(np.array([[-2.0]]), np.ones((1, 1, 1))),
              (-a, np.eye(3)[None, :, :])]
    if not lp_first:
        blocks.reverse()
    return (SdpProblem(c=np.array([1.0]), fi_blocks=[b[1] for b in blocks]),
            [b[0] for b in blocks])


@pytest.mark.parametrize("lp_first", [True, False])
@pytest.mark.parametrize("shift", [-3.0, 3.0])
def test_mixed_lp_and_matrix_blocks(lp_first, shift):
    """A 1x1 block next to a 3x3 block, with the active constraint in either
    one; the blocks come back in the problem's order and shapes."""
    g = np.random.default_rng(94).normal(size=(3, 3))
    a = (g + g.T) / 2
    a += (shift - np.linalg.eigvalsh(a)[-1]) * np.eye(3)  # lambda_max = shift
    prob, f0_blocks = _lp_and_eigen_problem(a, lp_first)
    sol = solve(prob, f0_blocks)
    assert sol.status == "optimal"
    assert abs(sol.x[0] - max(2.0, shift)) < 1e-6
    assert abs(sol.gap) <= 1e-8
    shapes = [(1, 1), (3, 3)] if lp_first else [(3, 3), (1, 1)]
    assert [b.shape for b in sol.s_blocks] == shapes
    assert [b.shape for b in sol.z_blocks] == shapes
    for f0, fi, sb, zb in zip(f0_blocks, prob.fi_blocks,
                              sol.s_blocks, sol.z_blocks):
        assert np.max(np.abs(f0 + sol.x[0] * fi[0] - sb)) < 1e-7
        assert np.linalg.eigvalsh(zb)[0] > -1e-9
    # the dual weight sits on the active block: tr(Z_lp) + tr(Z_eig) = 1
    z_lp, z_eig = sol.z_blocks if lp_first else sol.z_blocks[::-1]
    active, idle = (z_lp, z_eig) if shift < 2 else (z_eig, z_lp)
    assert abs(np.trace(active) - 1.0) < 1e-6
    assert abs(np.trace(idle)) < 1e-6
    ref = reference_solve_core(prob, f0_blocks, sdpsolve.DEFAULT_TOL,
                               sdpsolve.DEFAULT_MAX_ITER)
    assert ref.status == sol.status
    assert abs(ref.x[0] - sol.x[0]) <= 1e-7


def test_singlet_cmc_negative_lambda():
    """The singlet must violate the two-qubit CMC; cross-checked against
    the partial-transpose and filter verdicts."""
    from cmcsep.criteria import cmc_filter, ppt

    rho = states.werner_2q(1.0)
    v = cmc_sdp_2q(rho)
    assert v.detected
    assert v.details["lambda_star"] < -1e-7
    assert ppt(rho, (2, 2)).detected
    assert cmc_filter(rho, (2, 2)).detected


def _two_qubit_f0(rho) -> list[np.ndarray]:
    """cmc_sdp_2q's F0 blocks for a state: gamma_eff - 1/3 (+) 1/3 (+) 1/3."""
    third = np.eye(3) / 3.0
    return [two_qubit_effective_cm(rho) - np.eye(6) / 3.0, third, third]


def test_random_solves_reach_gap():
    rng = np.random.default_rng(92)

    for _ in range(30):
        rho = states.random_density(4, rng=rng)
        sol = solve(_two_qubit_program(), _two_qubit_f0(rho))
        assert sol.status == "optimal"
        assert abs(sol.gap) <= 1e-8 * 1.5
        assert sol.primal_residual < 1e-7
        assert sol.dual_residual < 1e-7


def test_problem_validation():
    with pytest.raises(SdpError):
        SdpProblem(c=np.zeros(1), fi_blocks=[])
    with pytest.raises(SdpError):
        SdpProblem(c=np.zeros(2), fi_blocks=[np.zeros((1, 2, 2))])
    with pytest.raises(SdpError, match="not symmetric"):
        SdpProblem(c=np.zeros(1), fi_blocks=[np.triu(np.ones((2, 2)))[None]])
    # F0 is checked by solve: one symmetric block of the right shape per
    # Fi block stack
    prob = SdpProblem(c=np.zeros(1), fi_blocks=[np.zeros((1, 2, 2))])
    for f0, message in [([], "one F0 block per"),
                        ([np.eye(2), np.eye(2)], "one F0 block per"),
                        ([np.eye(3)], "F0 block has shape"),
                        ([np.array([[0.0, 1.0], [0.0, 0.0]])], "not symmetric")]:
        with pytest.raises(SdpError, match=message):
            solve(prob, f0)
    # non-finite data: a NaN in c used to come back "optimal" with a NaN gap
    for c, f0, f1 in [([np.nan], [[1.0]], 1.0), ([1.0], [[np.inf]], 1.0),
                      ([1.0], [[1.0]], np.nan)]:
        with pytest.raises(SdpError, match="non-finite"):
            solve(SdpProblem(c=c, fi_blocks=[np.full((1, 1, 1), f1)]), [f0])


def _two_qubit_problems(n: int) -> list[tuple[SdpProblem, list]]:
    """Seeded CMC programs with their F0: n random full-rank states
    alternating with separable mixtures, so both verdicts occur, then a
    pure, a product, a rank-2 and a rank-3 state.  The last four are
    noise-mixed as cmc_sdp_2q mixes them, so their gamma_eff is near
    singular."""
    rng = np.random.default_rng(93)
    rhos = [states.random_density(4, rng=rng) if i % 2 == 0 else
            states.random_separable(2, 2, int(rng.integers(4, 16)), rng=rng)
            for i in range(n)]
    rhos += [states.werner_2q(1.0), np.diag([0.0, 1.0, 0.0, 0.0]),
             states.random_density(4, rank=2, rng=rng),
             states.random_density(4, rank=3, rng=rng)]
    return [(_two_qubit_program(),
             _two_qubit_f0(matlin.as_state(rho, (2, 2)).mixed()[0]))
            for rho in rhos]


def _small_problems() -> list[tuple[SdpProblem, list]]:
    """The embedded LP, the top-eigenvalue program and an infeasible one,
    with their F0."""
    a = np.random.default_rng(90).normal(size=(4, 4))
    return [
        (SdpProblem(c=np.array([1.0]), fi_blocks=[np.ones((1, 1, 1))]),
         [np.array([[-2.0]])]),
        (SdpProblem(c=np.array([1.0]), fi_blocks=[np.eye(4)[None, :, :]]),
         [-(a + a.T) / 2]),
        (SdpProblem(c=np.zeros(1), fi_blocks=[np.array([np.diag([1.0, -1.0])])]),
         [np.diag([-2.0, 0.0])]),
    ]


def test_solver_matches_contraction_reference():
    """Same status, verdict and optimum as the per-block reference.  Only
    lambda* = x[0] is compared on the CMC programs: the other coordinates
    span a near-degenerate optimal face and differ at the 1e-5 level under
    any change of rounding.  Iteration counts may differ in the end phase."""
    tol, max_iter = sdpsolve.DEFAULT_TOL, sdpsolve.DEFAULT_MAX_ITER
    verdicts = set()
    for prob, f0 in _two_qubit_problems(60) + _small_problems():
        new = solve(prob, f0, max_iter=max_iter)
        ref = reference_solve_core(prob, f0, tol, max_iter)
        assert new.status == ref.status
        assert abs(new.x[0] - ref.x[0]) <= 1e-7
        if prob.n_vars == 11:
            verdicts.add(bool(new.x[0] < -SDP_EPS_MARGIN))
            assert (new.x[0] < -SDP_EPS_MARGIN) == (ref.x[0] < -SDP_EPS_MARGIN)
        if new.status == "optimal":
            assert abs(new.gap) <= 1e-8 and abs(ref.gap) <= 1e-8
    assert verdicts == {True, False}


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
def test_early_iterates_match_contraction_reference(max_iter):
    """Before the end phase the trajectory is deterministic, so truncated
    runs must agree with the reference to rounding in x, S and Z."""
    for prob, f0 in _two_qubit_problems(6) + _small_problems():
        new = solve(prob, f0, max_iter=max_iter)
        ref = reference_solve_core(prob, f0, sdpsolve.DEFAULT_TOL, max_iter)
        assert new.iterations == ref.iterations
        assert np.max(np.abs(new.x - ref.x)) <= 1e-11
        for got, want in zip(new.s_blocks + new.z_blocks,
                             ref.s_blocks + ref.z_blocks):
            assert np.max(np.abs(got - want)) <= 1e-11


def test_two_qubit_program_is_built_once(monkeypatch):
    """Two cmc_sdp_2q calls solve the one constant program, whose
    state-independent data (c, the F_i, their embedding, amat and the Gram
    projector) is all read-only; only the F0 passed to solve differs."""
    solved = []

    def record(problem, f0_blocks, **kwargs):
        solved.append((problem, f0_blocks))
        return solve(problem, f0_blocks, **kwargs)

    monkeypatch.setattr(sdpsolve, "solve", record)
    cmc_sdp_2q(states.werner_2q(0.5))
    cmc_sdp_2q(states.werner_2q(0.2))
    (first, f0_first), (second, f0_second) = solved
    assert first is second is criteria._two_qubit_program()
    for name in ("c", "fi", "amat", "proj"):
        assert not getattr(first, name).flags.writeable
    assert not any(b.flags.writeable for b in first.fi_blocks)
    assert not np.array_equal(f0_first[0], f0_second[0])
    with pytest.raises(ValueError):
        first.amat[0, 0] = 1.0


def test_solve_leaves_the_projector_alone():
    """The Gram projector depends on the F_i alone: a solve at an F0 of
    scale 5 (5 - lambda/3 >= 0 on the big block, so lambda* = 15) runs on
    the program's projector, equal to that of a freshly built problem, and
    changes nothing on it."""
    program = criteria._two_qubit_program()
    proj = program.proj
    before = proj.copy()
    third = np.eye(3) / 3.0
    sol = solve(program, [5.0 * np.eye(6), third, third])
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 15.0) < 1e-6
    assert program.proj is proj and not proj.flags.writeable
    np.testing.assert_array_equal(proj, before)
    fresh = SdpProblem(c=program.c, fi_blocks=program.fi_blocks)
    np.testing.assert_array_equal(fresh.proj, proj)


def test_unconverged_solve_is_undetermined():
    """A solve cut short returns max_iter, and the SDP verdict is then
    undetermined rather than a flag either way."""
    assert solve(*_two_qubit_problems(1)[0], max_iter=1).status == "max_iter"
    v = cmc_sdp_2q(states.werner_2q(1.0), max_iter=1)
    assert v.status == "undetermined"
    assert v.detected is None
    assert v.details["solver_status"] == "max_iter"
