"""Orthonormal Hermitian observable bases."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .matlin import MatrixError


@dataclass(frozen=True)
class ObservableBasis:
    """Ordered set of d^2 Hilbert-Schmidt-orthonormal Hermitian d x d matrices.

    ``kind`` is one of ``standard``, ``pauli``, ``gellmann``, ``weyl``,
    ``custom``.  For ``pauli`` and ``gellmann`` the first element is
    identity/sqrt(d); the ``weyl`` basis has no identity element (its first
    element is the reflection operator over sqrt(d)).
    """

    dim: int
    ops: np.ndarray = field(repr=False)  # shape (d^2, d, d), complex
    kind: str = "custom"

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=complex)
        if ops.shape != (self.dim**2, self.dim, self.dim):
            raise MatrixError(
                f"basis needs {self.dim ** 2} matrices of shape "
                f"{(self.dim, self.dim)}, got {ops.shape}"
            )
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return self.ops.shape[0]


def _read_only(ops: list) -> np.ndarray:
    # cached bases are shared by every caller, so their data must not change
    arr = np.array(ops)
    arr.flags.writeable = False
    return arr


def _pairs(d: int, upper: complex) -> list:
    """(|i><j|+|j><i|)/sqrt2, then (upper |i><j| - upper |j><i|)/sqrt2, each
    family in lexicographic (i, j) order."""
    sym, anti = [], []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            sym.append(m)
            # -upper, not its conjugate: the literal -1j has a real part of
            # -0.0, which conj(1j) does not
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = upper / np.sqrt(2)
            m[j, i] = -upper / np.sqrt(2)
            anti.append(m)
    return sym + anti


@functools.lru_cache(maxsize=32)
def standard_basis(d: int) -> ObservableBasis:
    """Projectors |i><i|, then (|i><j|+|j><i|)/sqrt2, then the imaginary
    antisymmetric pairs i(|i><j|-|j><i|)/sqrt2, each family in
    lexicographic (i, j) order.

    Cached per d; the returned ``ops`` array is read-only."""
    if d < 2:
        raise MatrixError(f"standard basis needs d >= 2, got {d}")
    ops = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        ops.append(m)
    ops += _pairs(d, 1j)
    return ObservableBasis(dim=d, ops=_read_only(ops), kind="standard")


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@functools.lru_cache(maxsize=1)
def pauli_basis() -> ObservableBasis:
    """{1, sigma_x, sigma_y, sigma_z} / sqrt(2), in that order: the
    Gell-Mann-like basis for d = 2.

    Cached; the returned ``ops`` array is read-only."""
    return ObservableBasis(dim=2, ops=gellmann_like_basis(2).ops, kind="pauli")


@functools.lru_cache(maxsize=32)
def gellmann_like_basis(d: int) -> ObservableBasis:
    """Identity/sqrt(d) followed by d^2 - 1 traceless orthonormal Hermitians
    (symmetric pairs, antisymmetric pairs, then diagonal generators).

    Cached per d; the returned ``ops`` array is read-only."""
    if d < 2:
        raise MatrixError(f"basis needs d >= 2, got {d}")
    # sign convention of the Gell-Mann matrices (sigma_y for d = 2)
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)] + _pairs(d, -1j)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        m = np.diag(diag).astype(complex) / np.sqrt(l * (l + 1))
        ops.append(m)
    return ObservableBasis(dim=d, ops=_read_only(ops), kind="gellmann")


def _weyl_shift(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=complex)
    for k in range(d):
        x[(k + 1) % d, k] = 1.0
    return x


def _weyl_clock(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def parity_operator(d: int) -> np.ndarray:
    """Reflection |x> -> |-x mod d>."""
    p = np.zeros((d, d), dtype=complex)
    for x in range(d):
        p[(-x) % d, x] = 1.0
    return p


def weyl_parity_basis(d: int) -> ObservableBasis:
    """Displaced reflections P(q,p) = W(q,p) P(0,0) W(q,p)^dagger, normalized
    by 1/sqrt(d) so that tr(P P') = delta; requires odd d."""
    if d < 3 or d % 2 == 0:
        raise MatrixError(f"Weyl parity basis needs odd d >= 3, got {d}")
    xs = _weyl_shift(d)
    zs = _weyl_clock(d)
    p0 = parity_operator(d)
    ops = []
    for q in range(d):
        wq = np.linalg.matrix_power(xs, q)
        for p in range(d):
            w = wq @ np.linalg.matrix_power(zs, p)
            ops.append(w @ p0 @ w.conj().T / np.sqrt(d))
    return ObservableBasis(dim=d, ops=np.array(ops), kind="weyl")


BASIS_FACTORIES = {
    "standard": standard_basis,
    "gellmann": gellmann_like_basis,
    "weyl": weyl_parity_basis,
}


def make_basis(kind: str, d: int) -> ObservableBasis:
    """Construct a named basis for local dimension d."""
    if kind == "pauli":
        if d != 2:
            raise MatrixError("pauli basis is only defined for d = 2")
        return pauli_basis()
    try:
        factory = BASIS_FACTORIES[kind]
    except KeyError:
        raise MatrixError(f"unknown basis kind {kind!r}") from None
    return factory(d)
