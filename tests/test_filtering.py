"""Tests for the filter normal form."""

import time

import numpy as np
import pytest

from cmcsep import covariance, filtering, matlin, states
from cmcsep.covariance import build_block_cm
from cmcsep.criteria import cmc_filter
from cmcsep.filtering import normal_form
from cmcsep.matlin import MatrixError, hermitize
from cmcsep.observables import ObservableBasis, gellmann_like_basis


def _reference_balancing_filter(marginal):
    """Determinant-one Hermitian T = det(marg)^(1/2d) marg^(-1/2), which
    makes T marg T^dagger maximally mixed."""
    w, v = np.linalg.eigh(marginal)
    scale = np.exp(np.sum(np.log(w)) / (2 * marginal.shape[0]))
    return (v * (scale / np.sqrt(w))) @ v.conj().T


def reference_normal_form(rho, dims, tol=filtering.DEFAULT_TOL,
                          max_iter=10000,
                          noise_eps=filtering.DEFAULT_NOISE_EPS):
    """The alternating filter sweep as index contractions on the
    (a, b, a', b') tensor, each half sweep balancing one marginal; returns
    (converged, xi) for comparison with the Newton kernel."""
    da, db = dims
    n = da * db
    r = hermitize(rho)
    if float(np.linalg.eigvalsh(r)[0]) < noise_eps:
        r = (1.0 - noise_eps) * r + noise_eps * np.eye(n) / n
    rho4 = (r / np.real(np.trace(r))).reshape(da, db, da, db)
    sweeps = 0
    while True:
        marg_a = np.einsum("abcb->ac", rho4)
        dev_a = np.max(np.abs(marg_a - np.eye(da) / da))
        dev_b = np.max(np.abs(np.einsum("abad->bd", rho4) - np.eye(db) / db))
        if max(dev_a, dev_b) <= tol or sweeps == max_iter:
            break
        sweeps += 1
        t = _reference_balancing_filter(marg_a)
        out = np.einsum("xa,abcd->xbcd", t, rho4, optimize=True)
        rho4 = np.einsum("xbcd,yc->xbyd", out, t.conj(), optimize=True)
        rho4 /= float(np.real(np.einsum("abab->", rho4)))
        t = _reference_balancing_filter(np.einsum("abad->bd", rho4))
        out = np.einsum("xb,abcd->axcd", t, rho4, optimize=True)
        rho4 = np.einsum("axcd,yd->axcy", out, t.conj(), optimize=True)
        rho4 /= float(np.real(np.einsum("abab->", rho4)))
    rt = rho4.reshape(n, n)
    rt = ((rt + rt.conj().T) / 2).reshape(da, db, da, db)
    ga = gellmann_like_basis(da).ops[1:]
    gb = gellmann_like_basis(db).ops[1:]
    xi_mat = np.real(np.einsum("abcd,ica,jdb->ij", rt, ga, gb, optimize=True))
    return max(dev_a, dev_b) <= tol, da * db * np.linalg.svd(xi_mat, compute_uv=False)


def _reference_newton_system(r, ops):
    """Gradient and Hessian of the Newton step from the (k, n, n) stack of
    local generators, by one batched matmul."""
    k, n = ops.shape[:2]
    m = (ops @ r).reshape(k, n * n)
    grad = np.real(m[:, ::n + 1].sum(axis=1))
    hess = np.real(ops.transpose(0, 2, 1).reshape(k, n * n) @ m.T)
    return grad, hess - np.outer(grad, grad)


# Largest difference accepted between xi (and the filter margin built from
# it) read off the local second moments and off the realigned joint moments:
# a few ulps of the O(1) coefficients, which sum at most d^2 terms.
XI_ATOL = 1e-14


def reference_newton_normal_form(rho, dims, tol=filtering.DEFAULT_TOL,
                                 max_iter=filtering.DEFAULT_MAX_ITER,
                                 noise_eps=filtering.DEFAULT_NOISE_EPS):
    """The damped Newton loop on the (k, n, n) generator stack with
    ``np.tensordot`` for H_A and H_B, its stopping test on partial traces and
    xi from the realigned ``joint_moments``: the pinned form of
    ``normal_form``, whose output the flat-layout kernel must reproduce bit
    for bit, xi within XI_ATOL (the kernel reads it off the local moments,
    an independent contraction)."""
    da, db = int(dims[0]), int(dims[1])
    n = da * db
    r = hermitize(rho)
    if r.shape != (n, n):
        raise MatrixError(f"state shape {r.shape} does not match dims {dims}")
    applied_eps = 0.0
    if float(np.linalg.eigvalsh(r)[0]) < noise_eps:
        r = (1.0 - noise_eps) * r + noise_eps * np.eye(n) / n
        applied_eps = noise_eps

    r = r / np.real(np.trace(r))
    ga = gellmann_like_basis(da).ops[1:]
    gb = gellmann_like_basis(db).ops[1:]
    ops = np.array([np.kron(g, np.eye(db)) for g in ga]
                   + [np.kron(np.eye(da), g) for g in gb])
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
            np.max(np.abs(np.einsum("abcb->ac", r4) - eye_a)) <= tol
            and np.max(np.abs(np.einsum("abad->bd", r4) - eye_b)) <= tol)
        if converged or steps >= max_iter:
            break
        steps += 1
        grad, hess = _reference_newton_system(r, ops)
        try:
            h = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise MatrixError("singular Hessian during filtering; input state "
                              "is effectively rank deficient") from None
        h *= min(1.0, filtering.STEP_CAP / np.max(np.abs(h)))
        slope = float(grad @ h)
        wa, va = np.linalg.eigh(np.tensordot(h[:ka], ga, axes=1))
        wb, vb = np.linalg.eigh(np.tensordot(h[ka:], gb, axes=1))
        t = 1.0
        while True:
            a = (va * np.exp(t * wa / 2)) @ va.conj().T
            b = (vb * np.exp(t * wb / 2)) @ vb.conj().T
            k = (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)
            nxt = k @ r @ k
            tr = float(nxt.trace().real)
            if (np.log(tr) <= filtering.ARMIJO_C * t * slope + filtering.LOG_SLACK
                    or t < filtering.MIN_STEP):
                break
            t /= 2
        f_val *= tr
        r = (nxt + nxt.conj().T) / (2 * tr)
        f_a = a @ f_a
        f_b = b @ f_b
        history.append(f_val)

    xi_mat = matlin.joint_moments(r, ga, gb)
    return filtering.NormalForm(
        xi=da * db * np.linalg.svd(xi_mat, compute_uv=False),
        filter_a=f_a,
        filter_b=f_b,
        state=matlin._checked(r, (da, db)),
        converged=converged,
        f_value=f_val,
        iterations=steps,
        f_history=np.array(history),
        noise_eps=applied_eps,
    )


def test_normal_form_identity_state():
    nf = normal_form(np.eye(9) / 9, (3, 3))
    assert nf.converged
    np.testing.assert_allclose(nf.xi, 0.0, atol=1e-10)
    np.testing.assert_allclose(nf.filter_a, np.eye(3), atol=1e-8)


def test_normal_form_bell_diagonal_fixed_point():
    """Bell-diagonal states are already in normal form: the filters stay
    unitary and the coefficients come back."""
    c = (0.5, -0.3, 0.2)
    rho = states.bell_diagonal(*c)
    nf = normal_form(rho, (2, 2))
    assert nf.converged
    expected = np.sort(2.0 * np.abs(np.array(c)))[::-1]
    np.testing.assert_allclose(nf.xi, expected, atol=1e-7)
    for f in (nf.filter_a, nf.filter_b):
        np.testing.assert_allclose(f.conj().T @ f, np.eye(2), atol=1e-6)


def test_normal_form_marginals_maximally_mixed():
    rng = np.random.default_rng(72)
    for _ in range(10):
        rho = states.random_density(9, rng=rng)
        nf = normal_form(rho, (3, 3))
        assert nf.converged
        rt = nf.state.rho
        ra = matlin.partial_trace(rt, (3, 3), "A")
        rb = matlin.partial_trace(rt, (3, 3), "B")
        assert np.max(np.abs(ra - np.eye(3) / 3)) < 1e-7
        assert np.max(np.abs(rb - np.eye(3) / 3)) < 1e-7


def test_normal_form_objective_monotone():
    rng = np.random.default_rng(73)
    for _ in range(10):
        rho = states.random_density(6, rng=rng)
        nf = normal_form(rho, (2, 3))
        diffs = np.diff(nf.f_history)
        assert np.all(diffs <= 1e-12)


def test_normal_form_filter_determinants():
    rng = np.random.default_rng(74)
    rho = states.random_density(6, rng=rng)
    nf = normal_form(rho, (2, 3))
    assert abs(np.linalg.det(nf.filter_a) - 1.0) < 1e-8
    assert abs(np.linalg.det(nf.filter_b) - 1.0) < 1e-8


def test_normal_form_reproduces_filtered_state():
    rng = np.random.default_rng(75)
    rho = states.random_density(6, rng=rng)
    nf = normal_form(rho, (2, 3))
    filt = np.kron(nf.filter_a, nf.filter_b)
    mapped = filt @ rho @ filt.conj().T
    mapped /= np.real(np.trace(mapped))
    assert np.linalg.norm(mapped - nf.state.rho) < 1e-8


def test_normal_form_idempotent_up_to_local_unitaries():
    rng = np.random.default_rng(76)
    rho = states.random_density(9, rng=rng)
    first = normal_form(rho, (3, 3))
    second = normal_form(first.state, (3, 3))
    np.testing.assert_allclose(second.xi, first.xi, atol=1e-6)


def test_normal_form_ppt_invariant():
    """Filtering never changes the partial-transposition verdict."""
    rng = np.random.default_rng(77)
    from cmcsep.criteria import ppt
    for _ in range(10):
        rho = 0.5 * states.random_density(4, rng=rng) \
            + 0.5 * states.random_separable(2, 2, rng=rng)
        nf = normal_form(rho, (2, 2))
        assert ppt(rho, (2, 2)).detected == ppt(nf.state, (2, 2)).detected


def test_normal_form_max_iter_graceful():
    rng = np.random.default_rng(78)
    rho = states.random_density(9, rng=rng)
    nf = normal_form(rho, (3, 3), max_iter=1)
    assert not nf.converged
    assert nf.iterations == 1
    assert np.all(np.isfinite(nf.xi))


def test_normal_form_mixes_in_noise_for_rank_deficient_input():
    rng = np.random.default_rng(79)
    rho = states.random_density(9, rank=4, rng=rng)
    nf = normal_form(rho, (3, 3))
    assert nf.noise_eps == filtering.DEFAULT_NOISE_EPS
    assert np.all(np.isfinite(nf.xi))


def test_normal_form_singular_input_without_noise_raises(monkeypatch):
    """With no noise mixed in, a pure product state has a singular Hessian,
    which is reported as a MatrixError."""
    monkeypatch.setattr(matlin, "DEFAULT_NOISE_EPS", 0.0)
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(MatrixError, match="rank deficient"):
        normal_form(rho, (2, 2))


def test_normal_form_speed_and_convergence(monkeypatch):
    """Full-rank 3x3 states settle at tol 1e-10 well under a second."""
    monkeypatch.setattr(filtering, "DEFAULT_TOL", 1e-10)
    rng = np.random.default_rng(80)
    for _ in range(5):
        rho = states.random_density(9, rng=rng)
        start = time.perf_counter()
        nf = normal_form(rho, (3, 3))
        assert time.perf_counter() - start < 1.0
        assert nf.converged


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (2, 5)])
def test_normal_form_matches_contraction_reference(dims):
    """Newton reaches the normal form of the index-contraction sweep: the
    same coefficients, on full-rank and noise-mixed low-rank input."""
    da, db = dims
    rng = np.random.default_rng([81, da, db])
    for rank in (None, None, da * db // 2, da * db // 2):
        rho = states.random_density(da * db, rank=rank, rng=rng)
        nf = normal_form(rho, dims)
        converged, xi = reference_normal_form(rho, dims)
        assert nf.noise_eps == (0.0 if rank is None else filtering.DEFAULT_NOISE_EPS)
        assert nf.converged and converged
        assert np.max(np.abs(nf.xi - xi)) < 1e-8


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_newton_hessian_is_block_cm(dims):
    """The Newton system at an iterate, read off the local moments, is its
    traceless local moments and its symmetric block CM on the traceless
    rows and columns, as the generic contraction over the same operators
    builds it."""
    da, db = dims
    rng = np.random.default_rng([83, da, db])
    rho = states.random_density(da * db, rng=rng)
    iterate = normal_form(rho, dims, max_iter=1).state.rho
    ga, gb = (ObservableBasis(g.dim, g.ops, "custom")
              for g in (gellmann_like_basis(da), gellmann_like_basis(db)))
    grad, _, hess = covariance.local_moments(iterate, dims)
    bcm = build_block_cm(iterate, ga, gb, kind="symmetric")
    assert np.max(np.abs(hess - bcm.traceless_part())) < 1e-12
    np.testing.assert_allclose(
        grad, np.concatenate([bcm.moments_a[1:], bcm.moments_b[1:]]), atol=1e-14)


def test_normal_form_rank_deficient_2x5_converges():
    """Rank-4 separable (2,5) states, whose filter is ill-conditioned,
    converge in few steps to an exactly Hermitian normal form."""
    for i in range(10):
        rho = states.random_separable(2, 5, 4, rng=np.random.default_rng([104, i]))
        nf = normal_form(rho, (2, 5))
        assert nf.noise_eps == filtering.DEFAULT_NOISE_EPS
        assert nf.converged and nf.iterations <= 50
        assert np.max(np.abs(nf.state.rho - nf.state.rho.conj().T)) <= 1e-14
        assert np.all(np.diff(nf.f_history) <= 1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
def test_normal_form_is_a_checked_state(monkeypatch, dims):
    """rho_tilde comes back as a CheckedState of the input's dims, with no
    second Hermiticity check, no block CM and no joint-moment contraction:
    xi is read off the last iterate's local moments, and matches the
    contraction of rho_tilde's joint moments to rounding, as a block CM of
    the state does."""
    calls = []
    for module, name in ((matlin, "hermitize"), (matlin, "joint_moments"),
                         (covariance, "build_block_cm")):
        monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name),
                            _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    da, db = dims
    rho = states.random_density(da * db, rng=np.random.default_rng([109, da, db]))
    st = matlin.CheckedState(rho, dims)
    st.rho  # checked here, before normal_form sees it
    for given, checks in ((rho, ["hermitize"]), (st, [])):
        calls.clear()
        nf = normal_form(given, dims)
        assert calls == checks
        assert isinstance(nf.state, matlin.CheckedState)
        assert nf.state.dims == dims
    ga, gb = gellmann_like_basis(da).ops, gellmann_like_basis(db).ops
    joint = matlin.joint_moments(nf.state.rho, ga, gb)
    np.testing.assert_allclose(
        nf.xi, da * db * np.linalg.svd(joint[1:, 1:], compute_uv=False),
        rtol=0, atol=XI_ATOL)
    for state in (st, nf.state):
        np.testing.assert_allclose(
            state.block_cm.joint, matlin.joint_moments(state.rho, ga, gb),
            rtol=0, atol=1e-15)


def test_chessboard_filter_runs_bounded():
    """Every filter run on seeded chessboard states converges in at most
    50 Newton steps."""
    for i in range(200):
        rho = states.sample_chessboard(np.random.default_rng([105, i]))
        v = cmc_filter(rho, (3, 3))
        assert v.details["iterations"] <= 50
        assert v.details["converged"] or v.details.get("separable_by")


def _marginal_deviation(rho, dims):
    da, db = dims
    return max(
        np.max(np.abs(matlin.partial_trace(rho, dims, "A") - np.eye(da) / da)),
        np.max(np.abs(matlin.partial_trace(rho, dims, "B") - np.eye(db) / db)))


@pytest.mark.parametrize("rho, dims", [
    (np.eye(9) / 9, (3, 3)),
    (states.werner_2q(0.9), (2, 2)),
    (states.bell_diagonal(0.5, -0.3, 0.2), (2, 2)),
], ids=["maximally_mixed", "werner", "bell_diagonal"])
def test_normal_form_input_takes_no_sweep(rho, dims):
    """Both marginals already maximally mixed: converged before any step,
    with identity filters and the objective untouched."""
    nf = normal_form(rho, dims)
    assert nf.converged
    assert nf.iterations == 0
    np.testing.assert_array_equal(nf.filter_a, np.eye(dims[0]))
    np.testing.assert_array_equal(nf.filter_b, np.eye(dims[1]))
    np.testing.assert_array_equal(nf.f_history, [1.0])


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (2, 5)])
def test_normal_form_stops_on_marginal_tolerance(monkeypatch, dims, tol):
    """DEFAULT_TOL, read at call time, bounds every entry of both marginals
    of the result off maximally mixed, by partial traces independent of the
    first moments the loop stops on, also on a noise-mixed input; one Newton
    step is not enough to get there."""
    monkeypatch.setattr(filtering, "DEFAULT_TOL", tol)
    da, db = dims
    rng = np.random.default_rng([82, da, db])
    for rank in (None, None, None, da * db // 2):
        rho = states.random_density(da * db, rank=rank, rng=rng)
        nf = normal_form(rho, dims)
        assert nf.noise_eps == (0.0 if rank is None else filtering.DEFAULT_NOISE_EPS)
        assert nf.converged
        assert _marginal_deviation(nf.state.rho, dims) <= tol + 1e-15
        one = normal_form(rho, dims, max_iter=1)
        assert not one.converged
        assert _marginal_deviation(one.state.rho, dims) > tol


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
def test_normal_form_takes_one_contraction_per_iterate(monkeypatch, dims):
    """Each Newton iterate, the last one included, is contracted once, by
    ``covariance.local_moments``, which gives the stopping test, the step
    and xi: no partial trace and no joint-moment contraction."""
    calls = []
    for module, name in ((covariance, "local_moments"),
                         (matlin, "joint_moments"), (matlin, "partial_trace")):
        monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name),
                            _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    da, db = dims
    n = da * db
    rng = np.random.default_rng([110, da, db])
    runs = [(states.random_density(n, rng=rng), {}),
            (states.random_density(n, rank=n // 2, rng=rng), {}),
            (states.random_density(n, rng=rng), {"max_iter": 1}),
            (states.random_density(n, rng=rng), {"max_iter": 0}),
            (np.eye(n) / n, {})]
    steps = []
    for rho, kw in runs:
        calls.clear()
        nf = normal_form(rho, dims, **kw)
        assert calls == ["local_moments"] * (nf.iterations + 1)
        steps.append(nf.iterations)
    assert steps[0] > 1 and steps[2:] == [1, 0, 0]


def _assert_same_normal_form(nf, ref):
    np.testing.assert_allclose(nf.xi, ref.xi, rtol=0, atol=XI_ATOL)
    for name in ("filter_a", "filter_b", "f_history"):
        assert np.array_equal(getattr(nf, name), getattr(ref, name)), name
    assert np.array_equal(nf.state.rho, ref.state.rho)
    assert (nf.iterations, nf.converged, nf.noise_eps, nf.f_value) \
        == (ref.iterations, ref.converged, ref.noise_eps, ref.f_value)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (2, 5)])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_normal_form_pinned_to_reference_loop(dims, rank):
    """The flat-layout Newton kernel reproduces the pinned loop bit for
    bit (filters, normal form, objective history and steps) and its
    coefficients to rounding."""
    da, db = dims
    for i in range(6):
        rng = np.random.default_rng([106, da, db, i])
        rho = states.random_density(
            da * db, rank=None if rank == "full" else da * db // 2 - i % 2, rng=rng)
        _assert_same_normal_form(normal_form(rho, dims),
                                 reference_newton_normal_form(rho, dims))


@pytest.mark.parametrize(
    "rho", [states.upb_tiles(0.5), states.upb_tiles(1.0)]
    + [states.sample_chessboard(np.random.default_rng([107, i])) for i in range(100)],
    ids=["upb_0.5", "upb_1"] + [f"chessboard_{i}" for i in range(100)])
def test_normal_form_pinned_on_bound_entangled_states(rho):
    _assert_same_normal_form(normal_form(rho, (3, 3)),
                             reference_newton_normal_form(rho, (3, 3)))


def test_cmc_filter_pinned_on_swapped_dims(monkeypatch):
    """At (3, 2) cmc_filter filters the state as given; its verdict is the
    same with the pinned loop in place of normal_form, its coefficients and
    margin to rounding."""
    rhos = [states.random_density(6, rank=rank, rng=np.random.default_rng([108, i]))
            for i, rank in enumerate([None, None, None, 4, 5])]
    got = [cmc_filter(rho, (3, 2)) for rho in rhos]
    monkeypatch.setattr(filtering, "normal_form", lambda st, dims, **kw:
                        reference_newton_normal_form(st.rho, dims, **kw))
    for rho, v in zip(rhos, got):
        ref = cmc_filter(rho, (3, 2))
        assert "separable_by" not in v.details
        assert v.detected == ref.detected
        assert abs(v.margin - ref.margin) <= XI_ATOL
        np.testing.assert_allclose(v.details["xi"], ref.details["xi"],
                                   rtol=0, atol=XI_ATOL)
        for key in ("filter_a", "filter_b"):
            assert np.array_equal(v.details[key], ref.details[key]), key
        for key in ("iterations", "converged", "noise_eps", "f_value"):
            assert v.details[key] == ref.details[key], key


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 4)])
def test_local_generator_layouts_are_read_only(dims):
    da, db = dims
    n, k = da * db, da * da + db * db - 2
    layouts = covariance.local_generators(da, db)
    assert [a.shape for a in layouts] == [(k * n, n), (k, n * n)]
    for arr in layouts:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert covariance.local_generators(da, db) is layouts
