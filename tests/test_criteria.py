"""Tests for the separability criteria and their relations."""

import sys

import numpy as np
import pytest

from cmcsep import (covariance, criteria, filtering, matlin, observables,
                    schmidt, states)
from cmcsep.criteria import (ccnr, cmc_filter, cmc_kyfan_weyl, cmc_schmidt,
                             cmc_sdp_2q, cmc_singular_values, cmc_trace,
                             de_vicente, extract_lur_from_witness, lur_value,
                             ppt, run_all)
from cmcsep.matlin import MatrixError


def product_state(rng, da=2, db=2):
    return np.kron(states.random_density(da, rng=rng),
                   states.random_density(db, rng=rng))


def test_ppt_product_undetected():
    rng = np.random.default_rng(100)
    assert not ppt(product_state(rng), (2, 2)).detected


def test_ppt_singlet_margin():
    v = ppt(states.werner_2q(1.0), (2, 2))
    assert v.detected
    assert abs(v.margin - 0.5) < 1e-12


def test_ppt_werner_crossing():
    """Analytic minimal PT eigenvalue (1 - 3p)/4 fixes the p > 1/3 onset."""
    for p in np.linspace(0.0, 1.0, 21):
        v = ppt(states.werner_2q(p), (2, 2))
        assert abs(v.margin - (3 * p - 1) / 4) < 1e-10
        assert v.detected == (p > 1 / 3 + 1e-9)


def test_ccnr_product_undetected():
    rng = np.random.default_rng(101)
    assert not ccnr(product_state(rng, 3, 3), (3, 3)).detected


def test_ccnr_bell_margin_one():
    v = ccnr(states.bell_phi_plus(), (2, 2))
    assert abs(v.margin - 1.0) < 1e-12


def test_ccnr_upb_threshold_neighborhood():
    assert ccnr(states.upb_tiles(0.8902), (3, 3)).detected
    assert not ccnr(states.upb_tiles(0.8892), (3, 3)).detected


def test_de_vicente_werner_closed_form():
    """Bloch correlation norm of the Werner family is 3p/2 against 1/2."""
    for p in (0.1, 0.3, 0.5, 0.9):
        v = de_vicente(states.werner_2q(p), (2, 2))
        assert abs(v.margin - (1.5 * p - 0.5)) < 1e-10
        assert v.detected == (p > 1 / 3 + 1e-9)


def test_de_vicente_upb_threshold_neighborhood():
    assert de_vicente(states.upb_tiles(0.9498), (3, 3)).detected
    assert not de_vicente(states.upb_tiles(0.9488), (3, 3)).detected


def test_singular_values_upb_threshold_neighborhood():
    assert cmc_singular_values(states.upb_tiles(0.8827), (3, 3)).detected
    assert not cmc_singular_values(states.upb_tiles(0.8817), (3, 3)).detected


def test_trace_auto_equals_singular_route_on_upb():
    """With C diagonalized the trace test crosses at the same p as the
    singular-value test on this family."""
    assert cmc_trace(states.upb_tiles(0.8827), (3, 3)).detected
    assert not cmc_trace(states.upb_tiles(0.8817), (3, 3)).detected


def test_trace_uneven_dims_both_orders():
    """The trace test relabels sides so the smaller system comes first."""
    rng = np.random.default_rng(107)
    rho = states.random_separable(2, 3, n_terms=8, rng=rng)
    small_first = cmc_trace(rho, (2, 3))
    from cmcsep.matlin import swap_subsystems

    big_first = cmc_trace(swap_subsystems(rho, (2, 3)), (3, 2))
    assert big_first.details["swapped"]
    assert abs(small_first.margin - big_first.margin) < 1e-10
    assert not small_first.detected


def test_schmidt_upb_threshold_neighborhood():
    assert cmc_schmidt(states.upb_tiles(0.8839), (3, 3)).detected
    assert not cmc_schmidt(states.upb_tiles(0.8829), (3, 3)).detected


def test_schmidt_product_undetected():
    rng = np.random.default_rng(102)
    assert not cmc_schmidt(product_state(rng, 3, 3), (3, 3)).detected


def test_kyfan_bell_margin():
    """Hand-derived blocks: ||C||_KF4 = 3/2 and (4||A|| - 1) = 1 per side."""
    v = cmc_kyfan_weyl(states.bell_phi_plus(), (2, 2), s=1)
    assert v.detected
    assert abs(v.margin - 1.25) < 1e-10


def test_kyfan_product_undetected_all_shifts():
    rng = np.random.default_rng(103)
    rho = product_state(rng, 3, 3)
    for s in (1, 2):
        assert not cmc_kyfan_weyl(rho, (3, 3), s=s).detected


def test_kyfan_chessboard_sweep_with_separable_controls():
    """Verdicts evaluate cleanly on the bound entangled family for both
    shifts and never fire on isotropic-noise separable controls."""
    for i in range(40):
        rng = np.random.default_rng([201, i])
        rho = states.sample_chessboard(rng)
        for s in (1, 2):
            v = cmc_kyfan_weyl(rho, (3, 3), s=s)
            assert np.isfinite(v.margin)
        sep = 0.6 * states.random_separable(3, 3, rng=rng) + 0.4 * np.eye(9) / 9
        for s in (1, 2):
            assert not cmc_kyfan_weyl(sep, (3, 3), s=s).detected


def test_kyfan_validation():
    with pytest.raises(MatrixError):
        cmc_kyfan_weyl(states.random_separable(2, 3, rng=np.random.default_rng(0)),
                       (2, 3), s=1)
    with pytest.raises(MatrixError):
        cmc_kyfan_weyl(states.werner_2q(0.5), (2, 2), s=2)


def test_filter_werner_matches_ppt():
    for p in np.linspace(0.05, 0.95, 10):
        rho = states.werner_2q(p)
        assert cmc_filter(rho, (2, 2)).detected == ppt(rho, (2, 2)).detected


def test_filter_upb_threshold_neighborhood():
    assert cmc_filter(states.upb_tiles(0.8728), (3, 3)).detected
    assert not cmc_filter(states.upb_tiles(0.8718), (3, 3)).detected


def test_filter_swapped_dims():
    rng = np.random.default_rng(104)
    rho = states.random_separable(3, 2, n_terms=8, rng=rng)
    v = cmc_filter(rho, (3, 2))
    assert v.details["swapped"]
    assert not v.detected


def test_filter_reports_filters_by_input_sides():
    """At (3, 2) the filters of the swapped state's normal form are reported
    by the input's sides: kron(filter_a, filter_b) brings rho itself to
    maximally mixed marginals."""
    rho = states.random_density(6, rng=np.random.default_rng(526))
    v = cmc_filter(rho, (3, 2))
    fa, fb = v.details["filter_a"], v.details["filter_b"]
    assert v.details["swapped"] and v.details["converged"]
    assert fa.shape == (3, 3) and fb.shape == (2, 2)
    k = np.kron(fa, fb)
    out = k @ rho @ k.conj().T
    out /= np.trace(out)
    for keep, d in (("A", 3), ("B", 2)):
        marginal = matlin.partial_trace(out, (3, 2), keep=keep)
        assert np.max(np.abs(marginal - np.eye(d) / d)) < 1e-7


def test_filter_uneven_bound_value():
    """d_A=2, d_B=3 bound is min(3.5, sqrt(12))."""
    assert abs(criteria.filter_xi_bound((2, 3)) - np.sqrt(12.0)) < 1e-12
    assert abs(criteria.filter_xi_bound((3, 3)) - 6.0) < 1e-12
    assert abs(criteria.filter_xi_bound((2, 2)) - 2.0) < 1e-12


def test_filter_unconverged_uneven_uses_de_vicente_bound():
    """The (2,5) drop bound 5.5 needs a converged normal form; one Newton
    step leaves an iterate that is only held to sqrt(dA dB (dA-1)(dB-1))."""
    assert abs(criteria.filter_xi_bound((2, 5)) - 5.5) < 1e-12
    rng = np.random.default_rng(107)
    rho = states.random_density(10, rng=rng)
    v = cmc_filter(rho, (2, 5), max_iter=1)
    assert not v.details["converged"]
    assert abs(v.details["bound"] - np.sqrt(40.0)) < 1e-12
    assert abs(v.margin - (v.details["xi_sum"] - np.sqrt(40.0))) < 1e-12
    assert cmc_filter(rho, (2, 5)).details["bound"] == 5.5


def test_sdp_detection_implies_ppt_detection():
    """PPT is necessary and sufficient on two qubits, so the covariance
    SDP can flag only states with a negative partial transpose."""
    rng = np.random.default_rng(108)
    sdp_hits = ppt_hits = 0
    for i in range(40):
        rho = states.random_density(4, rng=rng)
        if i % 2:
            rho = 0.5 * rho + 0.5 * states.random_separable(2, 2, rng=rng)
        sdp = cmc_sdp_2q(rho)
        assert sdp.status == "ok"
        pt = ppt(rho, (2, 2))
        if sdp.detected:
            assert pt.detected
        sdp_hits += sdp.detected
        ppt_hits += pt.detected
    assert 0 < sdp_hits <= ppt_hits < 40


def test_sdp_identity_feasible():
    v = cmc_sdp_2q(np.eye(4) / 4)
    assert v.status == "ok"
    assert not v.detected
    assert v.details["lambda_star"] > -1e-7


def test_sdp_singlet_detected_with_witness():
    v = cmc_sdp_2q(states.werner_2q(1.0))
    assert v.detected
    assert v.details["witness_value"] < 1.0
    assert ppt(states.werner_2q(1.0), (2, 2)).detected
    z1 = v.details["witness_z1"]
    assert np.linalg.eigvalsh(z1)[0] > -1e-9


def test_sdp_lur_identity():
    """Variance sum of the extracted observables equals tr(gamma_eff Z1)."""
    rng = np.random.default_rng(105)
    for _ in range(10):
        rho = states.random_density(4, rng=rng)
        v = cmc_sdp_2q(rho)
        assert v.status == "ok"
        assert v.details["noise_eps"] == 0.0
        assert abs(v.details["lur_value"] - v.details["witness_value"]) < 1e-7


def test_sdp_witness_sound_on_separable_states():
    rng = np.random.default_rng(106)
    wit = cmc_sdp_2q(states.werner_2q(1.0))
    z1 = wit.details["witness_z1"]
    from cmcsep.covariance import two_qubit_effective_cm
    for _ in range(50):
        sep = states.random_separable(2, 2, rng=rng)
        val = float(np.tensordot(two_qubit_effective_cm(sep), z1, axes=2))
        assert val >= 1.0 - 1e-7


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (3, 4)])
def test_run_all_on_pure_states(dims):
    """Every criterion returns a determined verdict on random pure states;
    the two-qubit SDP solves them with white noise mixed in, and its LUR
    value matches its witness value on each detection."""
    da, db = dims
    for i in range(60):
        rho = states.random_density(da * db, rank=1,
                                    rng=np.random.default_rng([16, da, db, i]))
        verdicts = run_all(rho, dims)
        assert [v.name for v in verdicts if v.status != "ok"] == []
        for v in verdicts:
            if v.name == "cmc_sdp_2q":
                assert v.details["noise_eps"] == filtering.DEFAULT_NOISE_EPS
                if v.detected:
                    assert abs(v.details["lur_value"]
                               - v.details["witness_value"]) < 1e-7


def test_lur_value_empty():
    assert lur_value(states.werner_2q(0.5), np.zeros((0, 2, 2)),
                     np.zeros((0, 2, 2))) == 0.0


def test_lur_value_singlet_pauli_pairs():
    """A_k = B_k = sigma_k/sqrt2 gives zero total variance on the singlet."""
    paulis = np.array([m for m in
                       (np.array([[0, 1], [1, 0]], dtype=complex),
                        np.array([[0, -1j], [1j, 0]]),
                        np.array([[1, 0], [0, -1]], dtype=complex))]) / np.sqrt(2)
    val = lur_value(states.werner_2q(1.0), paulis, paulis)
    assert abs(val) < 1e-12
    assert val < 1.0  # violates the separable bound


def test_extract_lur_shapes():
    v = cmc_sdp_2q(states.werner_2q(0.8))
    ops_a, ops_b = extract_lur_from_witness(v.details["witness_z1"])
    assert ops_a.shape[1:] == (2, 2) and ops_b.shape == ops_a.shape
    assert v.details["lur_bound"] == 1.0
    herm = np.max(np.abs(ops_a - ops_a.conj().transpose(0, 2, 1)))
    assert herm < 1e-12


def _reference_lur_value(rho, ops_a, ops_b) -> float:
    """The variance sum with two Kronecker products per observable pair."""
    da, db = ops_a.shape[1], ops_b.shape[1]
    total = 0.0
    for a, b in zip(ops_a, ops_b):
        joint = np.kron(a, np.eye(db)) + np.kron(np.eye(da), b)
        mean = float(np.real(np.trace(rho @ joint)))
        total += float(np.real(np.trace(rho @ joint @ joint))) - mean**2
    return total


def _reference_extract_lur(z1, cutoff=1e-12):
    """One einsum per kept eigenvalue of the witness."""
    w, v = np.linalg.eigh((z1 + z1.T) / 2)
    paulis = np.array([observables.PAULI[k] / np.sqrt(2) for k in "XYZ"])
    ops_a, ops_b = [], []
    for k in range(6):
        if w[k] > cutoff:
            coeff = np.sqrt(w[k]) * v[:, k]
            ops_a.append(np.einsum("l,lab->ab", coeff[:3], paulis))
            ops_b.append(np.einsum("l,lab->ab", coeff[3:], paulis))
    return np.array(ops_a).reshape(-1, 2, 2), np.array(ops_b).reshape(-1, 2, 2)


def test_lur_value_matches_kron_reference():
    """Marginal and joint-moment evaluation equals the per-observable
    Kronecker loop, on witness-derived sets and on random (also
    non-Hermitian) operator stacks at uneven dimensions."""
    rng = np.random.default_rng(107)
    checked = 0
    for i in range(12):
        rho = states.random_density(4, rng=rng)
        v = cmc_sdp_2q(rho)
        a, b = v.details["lur_ops_a"], v.details["lur_ops_b"]
        assert abs(lur_value(rho, a, b) - _reference_lur_value(rho, a, b)) <= 1e-12
        checked += len(a) > 0
    assert checked > 0
    for da, db in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        rho = states.random_density(da * db, rng=rng)
        for k in (1, 4):
            a = rng.normal(size=(k, da, da)) + 1j * rng.normal(size=(k, da, da))
            b = rng.normal(size=(k, db, db)) + 1j * rng.normal(size=(k, db, db))
            for ops_a, ops_b in [(a, b), (a + a.conj().transpose(0, 2, 1),
                                          b + b.conj().transpose(0, 2, 1))]:
                got = lur_value(rho, ops_a, ops_b)
                assert abs(got - _reference_lur_value(rho, ops_a, ops_b)) <= 1e-12


def test_lur_value_mismatched_lists():
    paulis = np.array([np.eye(2)] * 2, dtype=complex)
    with pytest.raises(MatrixError):
        lur_value(states.werner_2q(0.5), paulis, paulis[:1])


def test_extract_lur_matches_einsum_reference():
    rng = np.random.default_rng(108)
    witnesses = [cmc_sdp_2q(states.random_density(4, rng=rng)).details.get(
        "witness_z1") for _ in range(8)]
    g = rng.normal(size=(6, 3))
    witnesses += [g @ g.T, np.zeros((6, 6))]  # rank 3 and empty sets
    for z1 in witnesses:
        if z1 is None:
            continue
        ops_a, ops_b = extract_lur_from_witness(z1)
        ref_a, ref_b = _reference_extract_lur(z1)
        assert ops_a.shape == ref_a.shape and ops_b.shape == ref_b.shape
        if len(ref_a):
            assert np.max(np.abs(ops_a - ref_a)) <= 1e-12
            assert np.max(np.abs(ops_b - ref_b)) <= 1e-12
    assert len(extract_lur_from_witness(g @ g.T)[0]) == 3


def test_hierarchy_on_chessboard_samples():
    """de Vicente and diagonal-trace detections are subsets of the
    singular-value test; CCNR detections are subsets of the Schmidt test.
    The last seed is a nearly pure state with trace margin 1.54e-9 and SV
    margin 8.0e-10, where the trace test's doubled scale shows."""
    count = 0
    seeds = [[200, i] for i in range(150)] + [[(4110 << 21) + 8781, 0]]
    for seed in seeds:
        rho = states.sample_chessboard(np.random.default_rng(seed))
        sv = cmc_singular_values(rho, (3, 3)).detected
        if de_vicente(rho, (3, 3)).detected:
            assert sv
        if cmc_trace(rho, (3, 3)).detected:
            assert sv
        if ccnr(rho, (3, 3)).detected:
            assert cmc_schmidt(rho, (3, 3)).detected
            count += 1
    assert count > 0


def test_hierarchy_on_werner_family():
    for p in np.linspace(0.0, 1.0, 21):
        rho = states.werner_2q(p)
        sv = cmc_singular_values(rho, (2, 2)).detected
        if de_vicente(rho, (2, 2)).detected:
            assert sv
        if cmc_trace(rho, (2, 2)).detected:
            assert sv
        if ccnr(rho, (2, 2)).detected:
            assert cmc_schmidt(rho, (2, 2)).detected


def test_run_all_ordering_and_coverage():
    verdicts = run_all(states.werner_2q(0.9), (2, 2))
    names = [v.name for v in verdicts]
    assert names == ["ppt", "ccnr", "de_vicente", "cmc_singular_values",
                     "cmc_trace", "cmc_schmidt", "cmc_kyfan_weyl_s1",
                     "cmc_filter", "cmc_sdp_2q"]
    assert all(v.detected for v in verdicts)

    verdicts = run_all(states.random_separable(2, 3,
                                               rng=np.random.default_rng(1)),
                       (2, 3))
    names = [v.name for v in verdicts]
    assert "cmc_sdp_2q" not in names  # only defined for two qubits
    assert not any(n.startswith("cmc_kyfan") for n in names)
    assert not any(v.detected for v in verdicts)


def test_run_all_rejects_unknown():
    """An unknown name is rejected, and so is a repeated one, which would
    be run and returned twice."""
    with pytest.raises(MatrixError):
        run_all(states.werner_2q(0.5), (2, 2), criteria=["bogus"])
    with pytest.raises(MatrixError, match="repeated criterion 'ppt'"):
        run_all(states.werner_2q(0.5), (2, 2), criteria=["ppt", "ppt"])


def test_verdict_json_roundtrip():
    import json

    v = cmc_sdp_2q(states.werner_2q(0.9))
    doc = json.dumps(v.to_json())
    back = json.loads(doc)
    assert back["name"] == "cmc_sdp_2q"
    assert back["detected"] is True
    assert isinstance(back["details"]["witness_z1"], list)


STANDALONE = {"ppt": ppt, "ccnr": ccnr, "de_vicente": de_vicente,
              "cmc_singular_values": cmc_singular_values,
              "cmc_trace": cmc_trace, "cmc_schmidt": cmc_schmidt,
              "cmc_filter": cmc_filter}


def standalone(name, rho, dims):
    if name.startswith("cmc_kyfan_weyl_s"):
        return cmc_kyfan_weyl(rho, dims, s=int(name[len("cmc_kyfan_weyl_s"):]))
    if name == "cmc_sdp_2q":
        return cmc_sdp_2q(rho)
    return STANDALONE[name](rho, dims)


def seeded_states(dims, count=4):
    """Full-rank random states, separable mixtures, and rank-deficient
    states of each kind, drawn from one stream per dims."""
    da, db = dims
    rng = np.random.default_rng([113, da, db])
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            out.append(states.random_density(da * db, rng=rng))
        elif kind == 1:
            out.append(states.random_separable(da, db, n_terms=10, rng=rng))
        elif kind == 2:
            out.append(states.random_density(da * db, rank=2, rng=rng))
        else:
            out.append(states.random_separable(da, db, n_terms=2, rng=rng))
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_run_all_matches_each_criterion_alone(dims):
    for rho in seeded_states(dims):
        for shared in run_all(rho, dims):
            alone = standalone(shared.name, rho, dims)
            assert shared.detected == alone.detected, shared.name
            assert abs(shared.margin - alone.margin) <= 1e-12, shared.name
            if shared.name == "cmc_sdp_2q":
                assert shared.margin == alone.margin


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name from every cmcsep module holding it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "cmcsep":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 2)])
def test_run_all_builds_shared_quantities_once(monkeypatch, dims):
    bcm_calls = count_calls(monkeypatch, covariance, "build_block_cm")
    schmidt_calls = count_calls(monkeypatch, schmidt, "operator_schmidt")
    rho = seeded_states(dims, count=1)[0]
    verdicts = run_all(rho, dims)
    assert len(verdicts) == (9 if dims[0] == dims[1] else 7)
    assert len(schmidt_calls) == 1
    # with d_A > d_B every criterion shares the CM of the swapped state
    assert len(bcm_calls) == 1


# np.linalg.svd calls per full-rank state: the operator Schmidt SVD, the one
# full SVD of C's traceless block, the operator norms of A and B when the
# Ky-Fan shifts run (d_A = d_B), and the Bloch singular values of rho (de
# Vicente) and of the filter normal form.  The singular-value, trace and
# Ky-Fan tests share C's.
SVD_CALLS = {(2, 2): 6, (2, 3): 4, (3, 2): 4, (3, 3): 6}


@pytest.mark.parametrize("dims", list(SVD_CALLS))
def test_run_all_takes_each_spectrum_once(monkeypatch, dims):
    """run_all takes each block-CM spectrum once per state, and at d_A = d_B
    the trace test's lhs is exactly twice the singular-value test's norm,
    both summing the one spectrum of C."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    da, db = dims
    for i in range(3):
        rho = states.random_density(da * db, rng=np.random.default_rng([8, i]))
        calls.clear()
        verdicts = {v.name: v for v in run_all(rho, dims)}
        assert len(calls) == SVD_CALLS[dims]
        if da == db:
            assert (verdicts["cmc_trace"].details["lhs"]
                    == 2 * verdicts["cmc_singular_values"].details["c_trace_norm"])


def test_sdp_cm_is_cut_from_the_shared_block_cm(monkeypatch):
    """On a full-rank two-qubit state run_all builds one block CM, and the
    SDP takes its effective CM from it, once."""
    cm_calls = count_calls(monkeypatch, covariance, "two_qubit_effective_cm")
    bcm_calls = count_calls(monkeypatch, covariance, "build_block_cm")
    rho = states.random_density(4, rng=np.random.default_rng(116))
    run_all(rho, (2, 2))
    assert (len(cm_calls), len(bcm_calls)) == (1, 1)


def test_sdp_cm_is_that_of_the_noise_mixed_state(monkeypatch):
    """On a rank-1 two-qubit state the SDP solves on the 1e-9 noise mixture,
    and the effective CM it reads is the mixture's."""
    seen = []
    original = covariance.two_qubit_effective_cm

    def spy(state):
        seen.append(state)
        return original(state)

    monkeypatch.setattr(covariance, "two_qubit_effective_cm", spy)
    pure = states.random_density(4, rank=1, rng=np.random.default_rng(117))
    v = cmc_sdp_2q(pure)
    assert v.details["noise_eps"] == filtering.DEFAULT_NOISE_EPS == 1e-9
    [state] = seen
    mix = (1 - 1e-9) * matlin.hermitize(pure) + 1e-9 * np.eye(4) / 4
    np.testing.assert_array_equal(state.rho, mix)
    assert v.details["witness_value"] == float(
        np.tensordot(original(mix), v.details["witness_z1"], axes=2))


# per state, keyed by (dA, dB) at full rank and (dA, dB, rank) below it:
# hermitize, build_block_cm, swap_subsystems and joint_moments calls.  The
# SDP at (2, 2) checks its LUR state once more; on a rank-1 state it solves
# on the noise-mixed state, which is not checked again but has its own
# block CM.  A block CM reads its joint moments off the local moments, with
# no contraction of its own, and serves de Vicente and the operator Schmidt
# decomposition; the filter reads the xi of its normal form rho~ off its
# Newton iterates' local moments, so the one contraction is the LUR value's.
CHECKS_AND_ORIENTS = {(2, 2): (2, 1, 0, 1), (2, 3): (1, 1, 0, 0),
                      (2, 5): (1, 1, 0, 0), (3, 2): (1, 1, 1, 0),
                      (3, 3): (1, 1, 0, 0), (2, 2, 1): (2, 2, 0, 1)}


@pytest.mark.parametrize("dims", list(CHECKS_AND_ORIENTS))
def test_run_all_checks_and_orients_once(monkeypatch, dims):
    """run_all checks each state once, swaps it at most once, builds one
    block CM per state it solves on and reads de Vicente's joint moments
    from it."""
    counts = [count_calls(monkeypatch, module, name)
              for module, name in ((matlin, "hermitize"),
                                   (covariance, "build_block_cm"),
                                   (matlin, "swap_subsystems"),
                                   (matlin, "joint_moments"))]
    for i in range(3):
        rho = states.random_density(dims[0] * dims[1], *dims[2:],
                                    rng=np.random.default_rng([7, i]))
        for calls in counts:
            calls.clear()
        run_all(rho, dims[:2])
        assert tuple(map(len, counts)) == CHECKS_AND_ORIENTS[dims]


def test_low_rank_ppt_state_contracts_once(monkeypatch):
    """A PPT state of rank <= max(dA, dB) skips the filter, and every
    criterion reads its joint moments from the one shared block CM, which
    takes them off the local moments with no joint-moment contraction."""
    calls = count_calls(monkeypatch, matlin, "joint_moments")
    rho = states.random_separable(3, 3, n_terms=2, rng=np.random.default_rng(118))
    verdicts = run_all(rho, (3, 3))
    assert verdicts[-1].details["separable_by"] == "low_rank_ppt"
    assert len(calls) == 0


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3)])
def test_criteria_accept_a_checked_state(dims):
    """Every criterion, run_all and the SDP take a plain CheckedState in
    place of rho and return the verdicts of the bare matrix."""
    rho = seeded_states(dims, count=1)[0]
    for name in [v.name for v in run_all(rho, dims)]:
        got = standalone(name, matlin.CheckedState(rho, dims), dims)
        assert got.to_json() == standalone(name, rho, dims).to_json(), name
    shared = run_all(matlin.CheckedState(rho, dims), dims)
    bare = run_all(rho, dims)
    assert [v.to_json() for v in shared] == [v.to_json() for v in bare]


def test_run_all_looks_criteria_up_at_call_time(monkeypatch):
    """A criterion or the SDP solver rebound on its module after import is
    the one run_all calls."""
    from cmcsep import sdpsolve

    ccnr_calls = count_calls(monkeypatch, criteria, "ccnr")
    solve_calls = count_calls(monkeypatch, sdpsolve, "solve")
    run_all(states.werner_2q(0.9), (2, 2))
    assert ccnr_calls == ["ccnr"]
    assert solve_calls == ["solve"]


def test_filter_skips_pure_product_state():
    """|0>|1> is PPT of rank 1 <= 3: separable without a single filter step."""
    psi = np.kron(np.eye(3)[0], np.eye(3)[1]).astype(complex)
    v = cmc_filter(np.outer(psi, psi.conj()), (3, 3))
    assert v.details["iterations"] == 0
    assert v.details["separable_by"] == "low_rank_ppt"
    assert not v.detected
    assert v.details["bound"] == criteria.filter_xi_bound((3, 3), converged=False)
    assert v.margin == v.details["xi_sum"] - v.details["bound"] <= 1e-12


def test_filter_agrees_with_ppt_on_rank_two_two_qubit_states():
    rng = np.random.default_rng(114)
    for _ in range(10):
        rho = states.random_separable(2, 2, n_terms=2, rng=rng)
        assert np.sum(np.linalg.eigvalsh(rho) > 1e-9) == 2
        v = cmc_filter(rho, (2, 2))
        assert v.details["separable_by"] == "low_rank_ppt"
        assert not v.detected and not ppt(rho, (2, 2)).detected


def test_filter_still_detects_low_rank_npt_states():
    phi3 = np.eye(9)[[0, 4, 8]].sum(axis=0) / np.sqrt(3)
    psi_plus = states.projector(states.ket([0, 1, 1, 0]) / np.sqrt(2))
    bell_mix = 0.7 * states.bell_phi_plus() + 0.3 * psi_plus  # rank 2
    for rho, dims in ((states.bell_phi_plus(), (2, 2)), (bell_mix, (2, 2)),
                      (np.outer(phi3, phi3).astype(complex), (3, 3))):
        assert ppt(rho, dims).detected
        v = cmc_filter(rho, dims)
        assert "separable_by" not in v.details
        assert v.detected


def test_filter_reports_noise_mixed_in():
    """details["noise_eps"] is the white noise the filter mixed in: the
    default on a rank-4 chessboard state, none on a full-rank state, and
    none on a low-rank PPT state, which is not filtered at all."""
    cb = states.chessboard(1.0, 0.5, 0.3, 0.2, 0.4, 0.1)
    v = cmc_filter(cb, (3, 3))
    assert "separable_by" not in v.details
    assert v.details["noise_eps"] == filtering.DEFAULT_NOISE_EPS
    rho = states.random_density(9, rng=np.random.default_rng(115))
    assert cmc_filter(rho, (3, 3)).details["noise_eps"] == 0.0
    psi = np.kron(np.eye(3)[0], np.eye(3)[1]).astype(complex)
    v = cmc_filter(np.outer(psi, psi.conj()), (3, 3))
    assert v.details["separable_by"] == "low_rank_ppt"
    assert v.details["noise_eps"] == 0.0
