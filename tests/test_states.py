"""Tests for the state generators."""

import numpy as np
import pytest

from cmcsep import states
from cmcsep.criteria import cmc_filter, ppt
from cmcsep.matlin import MatrixError
from cmcsep.states import (bell_diagonal, chessboard, random_density,
                           random_separable, rho_epsilon, sample_chessboard,
                           upb_tiles, validate_density, werner_2q)


def test_chessboard_unit_parameters_valid():
    rho = chessboard(1, 1, 1, 1, 1, 1)
    validate_density(rho, (3, 3))
    rank = np.sum(np.linalg.eigvalsh(rho) > 1e-12)
    assert rank <= 4


def test_chessboard_samples_are_ppt():
    """The family is bound entangled: positive partial transpose for every
    parameter draw."""
    for i in range(25):
        rng = np.random.default_rng([300, i])
        rho = sample_chessboard(rng)
        validate_density(rho, (3, 3))
        assert not ppt(rho, (3, 3)).detected


def test_chessboard_degenerate_a_zero():
    rho = chessboard(1.0, 2.0, 0.0, 0.5, -1.0, 0.7)
    validate_density(rho, (3, 3))


def test_chessboard_rejects_zero_m_or_n():
    with pytest.raises(MatrixError):
        chessboard(0.0, 1, 1, 1, 1, 1)
    with pytest.raises(MatrixError):
        chessboard(1, 0.0, 1, 1, 1, 1)


def test_chessboard_stream_reproducible():
    a = sample_chessboard(np.random.default_rng([17, 4]))
    b = sample_chessboard(np.random.default_rng([17, 4]))
    assert np.array_equal(a, b)


def test_upb_projector_sum_trace():
    """The five tile vectors are normalized, so their projector sum has
    trace five, leaving rho_BE with trace one."""
    rho_be = upb_tiles(1.0)
    validate_density(rho_be, (3, 3))
    # reconstruct the projector sum from the definition of rho_BE
    proj_sum = np.eye(9) - 4.0 * rho_be
    assert abs(np.trace(proj_sum) - 5.0) < 1e-12


def test_upb_maximally_mixed_end():
    rho = upb_tiles(0.0)
    np.testing.assert_allclose(rho, np.eye(9) / 9, atol=1e-14)
    for name in ("ccnr", "de_vicente", "cmc_singular_values"):
        from cmcsep import criteria
        assert not getattr(criteria, name)(rho, (3, 3)).detected


def test_upb_bound_entangled_endpoint():
    """p = 1 is invisible to partial transposition yet filter-detected."""
    rho = upb_tiles(1.0)
    assert not ppt(rho, (3, 3)).detected
    assert cmc_filter(rho, (3, 3)).detected


def test_upb_rejects_out_of_range():
    with pytest.raises(MatrixError):
        upb_tiles(1.5)


def test_rho_epsilon_ppt_line():
    """epsilon = 1, t = 0 stays PPT along r."""
    for r in np.linspace(0.0, 0.45, 10):
        rho = rho_epsilon(1.0, r, 0.45, 0.0)
        validate_density(rho, (2, 2))
        assert not ppt(rho, (2, 2)).detected


def test_rho_epsilon_zero_is_projector():
    rho = rho_epsilon(0.0, 0.2, 0.45, 0.0625)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-14)


def test_rho_epsilon_rejects_invalid():
    with pytest.raises(MatrixError):
        rho_epsilon(1.0, 0.9, 0.45, 0.0625)  # s - r < 0


def test_rho_epsilon_grid_has_three_regions():
    from cmcsep.cli import fig1_scan

    regions = {region for _, _, region in fig1_scan(0.05)}
    assert regions == {"Same", "Different", "NotAState"}


def test_random_density_properties():
    rng = np.random.default_rng(301)
    rho = random_density(6, rng=rng)
    validate_density(rho, (2, 3))
    low = random_density(6, rank=2, rng=rng)
    assert np.sum(np.linalg.eigvalsh(low) > 1e-10) == 2
    with pytest.raises(MatrixError):
        random_density(4, rank=9, rng=rng)


def test_random_generators_need_an_explicit_rng():
    """No generator falls back to an unseeded stream."""
    with pytest.raises(TypeError, match="rng"):
        random_density(4)
    with pytest.raises(TypeError, match="rng"):
        random_separable(2, 2)


def test_random_separable_never_ppt_detected():
    for i in range(30):
        rng = np.random.default_rng([302, i])
        rho = random_separable(2, 3, n_terms=6, rng=rng)
        validate_density(rho, (2, 3))
        assert not ppt(rho, (2, 3)).detected


def _separable_by_term(d_a, d_b, n_terms, rng):
    """random_separable as it was written before its array draw: one term at
    a time.  Frozen here as the reference the array draw must match."""
    def random_pure(d):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    weights = rng.exponential(size=n_terms)
    weights /= weights.sum()
    rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        va = random_pure(d_a)
        vb = random_pure(d_b)
        p = np.kron(va, vb)
        rho += w * np.outer(p, p.conj())
    return rho


@pytest.mark.parametrize("dims", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (2, 5)])
def test_random_separable_matches_per_term_draw(dims):
    """Byte-identical output and rng stream on both sides of each chunk
    boundary; (1, 1) is where summing the stack with add.reduce would not."""
    chunk = states.SEPARABLE_CHUNK
    for n_terms in (1, 15, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        seed = [304, *dims, n_terms]
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = _separable_by_term(*dims, n_terms, ref_rng)
        rho = random_separable(*dims, n_terms=n_terms, rng=rng)
        assert rho.tobytes() == ref.tobytes(), n_terms
        assert rng.random() == ref_rng.random(), n_terms
        assert rho.flags.owndata and rho.flags.c_contiguous


def test_werner_singlet_projector():
    rho = werner_2q(1.0)
    v = np.array([0, 1, -1, 0]) / np.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(v, v), atol=1e-14)
    with pytest.raises(MatrixError):
        werner_2q(-0.1)


def test_bell_diagonal_separable_ball():
    """Coefficients inside the octahedron |c1|+|c2|+|c3| <= 1 are separable
    for both the transposition test and the filter test."""
    rng = np.random.default_rng(303)
    for _ in range(10):
        c = rng.uniform(-1, 1, size=3)
        c *= rng.uniform(0, 0.98) / np.sum(np.abs(c))
        rho = bell_diagonal(*c)
        assert not ppt(rho, (2, 2)).detected
        assert not cmc_filter(rho, (2, 2)).detected


def test_bell_diagonal_rejects_outside_tetrahedron():
    with pytest.raises(MatrixError):
        bell_diagonal(1.0, 1.0, 1.0)


def test_validate_density_rejections():
    with pytest.raises(MatrixError):
        validate_density(np.eye(3) / 3, (2, 2))
    with pytest.raises(MatrixError):
        validate_density(np.eye(2), (1, 2))  # trace 2
    bad = np.diag([1.5, -0.5])
    with pytest.raises(MatrixError):
        validate_density(bad, (1, 2))
