"""Generators for the bound-entangled families under study and for random
test ensembles.  Every generator takes an explicit rng where randomness is
involved; sampling streams are reproducible from the seed alone."""

from __future__ import annotations

import numpy as np

from .matlin import TRACE_ATOL, CheckedState, MatrixError, as_matrix, as_state

# Eigenvalues in (-PSD_CLIP, 0) are treated as rounding and clipped; anything
# more negative is a generator error.
PSD_CLIP = 1e-12
# Terms random_separable draws per array pass; its working memory is at most
# SEPARABLE_CHUNK (d_a d_b)^2 complex entries whatever the term count.
SEPARABLE_CHUNK = 64


def validate_density(rho, dims: tuple[int, int]) -> CheckedState:
    """Check Hermiticity, shape, unit trace and positivity; returns the
    checked state, its spectrum kept."""
    st = as_state(rho, dims)
    tr = complex(np.trace(st.rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise MatrixError(f"density matrix trace {tr} differs from 1")
    wmin = float(st.eigenvalues[0])
    if wmin < -1e-9:
        raise MatrixError(f"density matrix has eigenvalue {wmin:.3e} < 0")
    return st


def _normalize_psd(mat) -> np.ndarray:
    """The generators' one check: reject a non-finite matrix or one with an
    eigenvalue below -PSD_CLIP (relative), clip tiny negative eigenvalues
    and normalize the trace to one."""
    a = as_matrix(mat)
    h = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(h)
    if w[0] < -PSD_CLIP * max(1.0, abs(w[-1])):
        raise MatrixError(f"parameters give eigenvalue {w[0]:.3e} < 0")
    w = np.clip(w, 0.0, None)
    h = (v * w) @ v.conj().T
    return h / np.real(np.trace(h))


def ket(entries) -> np.ndarray:
    return np.asarray(entries, dtype=complex).ravel()


def projector(vec: np.ndarray) -> np.ndarray:
    v = ket(vec)
    return np.outer(v, v.conj())


def chessboard(m: float, n: float, a: float, b: float, c: float,
               dpar: float) -> np.ndarray:
    """3x3 bound entangled chessboard state from four unnormalized vectors.

    Positive partial transpose for all real parameters; requires m, n != 0
    because two vector entries carry 1/m and 1/n.
    """
    if abs(m) < 1e-12 or abs(n) < 1e-12:
        raise MatrixError("chessboard parameters m and n must be nonzero")
    # an overflow gives inf or NaN entries, which _normalize_psd rejects
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = ket([m, 0, a * c / n, 0, n, 0, 0, 0, 0])
        v2 = ket([0, a, 0, b, 0, c, 0, 0, 0])
        v3 = ket([n, 0, 0, 0, -m, 0, a * dpar / m, 0, 0])
        v4 = ket([0, b, 0, -a, 0, 0, 0, dpar, 0])
        rho = sum(projector(v) for v in (v1, v2, v3, v4))
    return _normalize_psd(rho)


def sample_chessboard(rng: np.random.Generator) -> np.ndarray:
    """Chessboard state with parameters drawn from N(0, 2)."""
    params = rng.normal(0.0, 2.0, size=6)
    return chessboard(*params)


def upb_tiles(p: float) -> np.ndarray:
    """Tiles unextendible-product-basis state mixed with white noise.

    p = 1 is the bound entangled projector complement, p = 0 the maximally
    mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise MatrixError(f"mixing parameter p={p} outside [0, 1]")
    s2 = 1 / np.sqrt(2)
    e = np.eye(3)
    psis = [
        s2 * np.kron(e[0], e[0] - e[1]),
        s2 * np.kron(e[0] - e[1], e[2]),
        s2 * np.kron(e[2], e[1] - e[2]),
        s2 * np.kron(e[1] - e[2], e[0]),
        np.kron(e[0] + e[1] + e[2], e[0] + e[1] + e[2]) / 3.0,
    ]
    rho_be = (np.eye(9) - sum(projector(v) for v in psis)) / 4.0
    return p * rho_be + (1.0 - p) * np.eye(9) / 9.0


def rho_epsilon(eps: float, r: float, s: float, t: float) -> np.ndarray:
    """Two-block two-qubit family whose Bloch-inverted partner can change
    separability class; rejected when the parameters leave the state cone."""
    block = np.array([
        [1 + r, 0, 0, t],
        [0, 0, 0, 0],
        [0, 0, s - r, 0],
        [t, 0, 0, 1 - s],
    ], dtype=float)
    rest = np.zeros((4, 4))
    rest[1, 1] = 1.0
    return _normalize_psd((eps / 2.0) * block + (1.0 - eps) * rest)


def random_density(d: int, rank: int | None = None, *,
                   rng: np.random.Generator) -> np.ndarray:
    """Random density matrix G G^dagger / tr with Gaussian G of given rank."""
    rank = d if rank is None else rank
    if not 1 <= rank <= d:
        raise MatrixError(f"rank {rank} outside [1, {d}]")
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_separable(d_a: int, d_b: int, n_terms: int = 10, *,
                     rng: np.random.Generator) -> np.ndarray:
    """Explicit convex mixture of product pure states; separable by
    construction, used as the soundness oracle.

    Terms are drawn SEPARABLE_CHUNK at a time as arrays, and the output and
    the rng stream are those of a draw of one term after another: per term
    the real and imaginary parts of A's vector, then of B's, each vector
    divided by its norm, and the weighted projectors added in term order."""
    if n_terms < 1:
        raise MatrixError(f"need at least one term, got n_terms={n_terms}")
    if d_a < 1 or d_b < 1:
        raise MatrixError(
            f"local dimensions must be at least 1, got ({d_a}, {d_b})")
    weights = rng.exponential(size=n_terms)
    weights /= weights.sum()
    n = d_a * d_b
    rho = np.zeros((n, n), dtype=complex)
    for start in range(0, n_terms, SEPARABLE_CHUNK):
        w = weights[start:start + SEPARABLE_CHUNK]
        g = rng.normal(size=(len(w), 2 * (d_a + d_b)))
        va, vb = _unit_rows(g[:, :2 * d_a]), _unit_rows(g[:, 2 * d_a:])
        prod = (va[:, :, None] * vb[:, None, :]).reshape(len(w), n)
        terms = w[:, None, None] * (prod[:, :, None] * prod.conj()[:, None, :])
        terms[0] += rho
        # accumulate adds in term order for every n; add.reduce would sum a
        # stack of 1x1 matrices pairwise.
        rho = np.add.accumulate(terms, out=terms)[-1].copy()
    return rho


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """Complex vectors Re + i Im from the two halves of each row of g, each
    divided by its 2-norm.  The squared norm is two BLAS dot products on the
    strided real and imaginary views, the sum np.linalg.norm forms for one
    complex vector, so every row is bit-identical to normalizing it on its
    own (einsum, sum(axis) and norm(axis=1) sum in other orders)."""
    d = g.shape[1] // 2
    v = g[:, :d] + 1j * g[:, d:]
    re, im = v.real[:, None, :], v.imag[:, None, :]
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return v / np.sqrt(sq[:, 0])


def singlet() -> np.ndarray:
    return projector(ket([0, 1, -1, 0]) / np.sqrt(2))


def bell_phi_plus() -> np.ndarray:
    return projector(ket([1, 0, 0, 1]) / np.sqrt(2))


def werner_2q(p: float) -> np.ndarray:
    """p |psi-><psi-| + (1-p) 1/4; entangled exactly for p > 1/3."""
    if not 0.0 <= p <= 1.0:
        raise MatrixError(f"Werner parameter p={p} outside [0, 1]")
    return p * singlet() + (1.0 - p) * np.eye(4) / 4.0


def bell_diagonal(c1: float, c2: float, c3: float) -> np.ndarray:
    """(1 + sum_k c_k sigma_k x sigma_k)/4; parameters must stay inside the
    Bell-diagonal tetrahedron."""
    from .observables import PAULI

    rho = np.eye(4, dtype=complex)
    for coeff, key in zip((c1, c2, c3), "XYZ"):
        rho += coeff * np.kron(PAULI[key], PAULI[key])
    return _normalize_psd(rho / 4.0)
