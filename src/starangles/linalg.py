"""Dense complex linear algebra kernel.

Norms, Hermitian functional calculus, Kronecker products, orthonormal
spans, the central tolerance policy used everywhere else, and the one
batching rule of stacked checks (``batches``: 4 MB, at least 128 matrices).

Operator norms have one kernel, ``op_norms``: each matrix of a stack is
scaled by its largest entry, and its norm is the square root of the top
eigenvalue of its Gram matrix ``x* x``, with one ``eigvalsh`` call (no SVD)
for the whole stack. ``op_norm`` is that kernel on a stack of one, and
``max_op_norm`` screens it with Frobenius norms.

Conventions
-----------
- Matrices are square ``numpy.ndarray`` of ``complex128`` unless stated.
- Matrix equality is decided in operator norm against ``eq_tol``.
- The Hilbert-Schmidt inner product is normalized,
  ``<x, y> = tr(x* y) / n`` for ``n x n`` matrices, and is used only for
  coordinates and orthonormal spans; reported norms of algebra elements are
  operator norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from .errors import ArgumentError, DimensionError, ShapeError, SingularityError

PSDFunction = Literal["sqrt", "pinv_sqrt", "inv"]


@dataclass(frozen=True)
class Tolerances:
    """Central numerical policy.

    Parameters
    ----------
    eq_tol : float
        Operator-norm threshold for matrix equality.
    rank_tol : float
        Eigenvalue cutoff for pseudo-inverses and rank decisions; fixes the
        support projections used by the partial-isometry normalization.
    angle_tol : float
        Agreement threshold between independent angle computation paths.
    """

    eq_tol: float = 1e-9
    rank_tol: float = 1e-10
    angle_tol: float = 1e-8

    def __post_init__(self):
        if not all(0.0 < t < np.inf for t in (self.eq_tol, self.rank_tol, self.angle_tol)):
            raise ArgumentError("tolerances must be finite and strictly positive")
        if self.rank_tol > self.eq_tol:
            raise ArgumentError("rank_tol must not exceed eq_tol")


DEFAULT_TOLERANCES = Tolerances()


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting empty or ragged input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionError("matrix is empty")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def op_norm(m) -> float:
    """Largest singular value of ``m``.

    Raises
    ------
    DimensionError
        If the matrix is empty or not two-dimensional.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError("op_norm requires a nonempty matrix")
    return float(op_norms(a[None])[0])


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack: the square root of the
    top eigenvalue of its Gram matrix, one ``eigvalsh`` call for the stack.

    Each matrix is divided by its largest entry first, so its Gram neither
    underflows nor overflows; the top eigenvalue keeps the relative accuracy
    of the Gram's entries.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim != 3 or a.size == 0:
        raise DimensionError("op_norms requires a nonempty stack of matrices")
    scale = np.abs(a).max(axis=(1, 2), keepdims=True)
    y = a / np.where(scale > 0.0, scale, 1.0)
    y_h = np.conj(y).swapaxes(1, 2)
    gram = y_h @ y if a.shape[2] <= a.shape[1] else y @ y_h
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)) * scale[:, 0, 0]


def max_op_norm(stack: np.ndarray, bound: float) -> float:
    """Largest operator norm in a stack, or an upper bound below ``bound``.

    While every Frobenius norm (an upper bound, far cheaper than ``op_norms``)
    stays below ``bound`` the largest is returned, so any comparison with
    ``bound`` decides as the exact value would.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim != 3 or a.shape[0] == 0:
        raise DimensionError("max_op_norm requires a nonempty stack of matrices")
    frobenius = float(np.linalg.norm(a, axis=(1, 2)).max())
    return frobenius if frobenius < bound else float(op_norms(a).max())


# 4 MB of complex entries per temporary, but at least 128 matrices per batch: smaller
# batches re-read a large operand (a basis, a value table) too often
_BATCH_ENTRIES, _BATCH_MIN_MATRICES = 1 << 18, 128


def batches(count: int, entries: int, matrices: int = 1) -> Iterator[slice]:
    """Slices of ``range(count)`` for a stack of items of ``matrices`` matrices of
    ``entries`` entries each: the one batching rule of every stacked check. The
    largest ``max_op_norm`` over the batches decides as one call on the whole stack
    would, and equals that call's value once it reaches ``bound``.
    """
    step = max(-(-_BATCH_MIN_MATRICES // matrices), _BATCH_ENTRIES // (entries * matrices))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def psd_calculus(
    h, func: PSDFunction, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Apply ``func`` to the eigenvalues of a positive semidefinite matrix.

    Parameters
    ----------
    h : array_like
        Hermitian matrix with eigenvalues >= ``-rank_tol``.
    func : {"sqrt", "pinv_sqrt", "inv"}
        ``sqrt`` maps eigenvalues to their square roots (negatives within
        tolerance are clamped to zero); ``pinv_sqrt`` maps eigenvalues
        <= ``rank_tol`` to 0 and the rest to ``lam**-0.5``; ``inv``
        requires every eigenvalue > ``rank_tol``.

    Raises
    ------
    ShapeError
        If ``h`` is not Hermitian within ``eq_tol``.
    SingularityError
        If ``inv`` is requested and ``h`` is singular.
    ArgumentError
        If ``h`` has an eigenvalue below ``-rank_tol`` or ``func`` is unknown.
    """
    a = as_square_matrix(h)
    if op_norm(a - adjoint(a)) > tol.eq_tol:
        raise ShapeError("psd_calculus requires a Hermitian matrix")
    a = (a + adjoint(a)) / 2.0
    w, v = np.linalg.eigh(a)
    if w[0] < -tol.rank_tol:
        raise ArgumentError(f"matrix is not positive semidefinite (min eig {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    if func == "sqrt":
        fw = np.sqrt(w)
    elif func == "pinv_sqrt":
        fw = np.where(w > tol.rank_tol, 1.0 / np.sqrt(np.where(w > tol.rank_tol, w, 1.0)), 0.0)
    elif func == "inv":
        if w[0] <= tol.rank_tol:
            raise SingularityError(f"inverse of singular matrix (min eig {w[0]:.3e})")
        fw = 1.0 / w
    else:
        raise ArgumentError(f"unknown spectral function {func!r}")
    return (v * fw) @ adjoint(v)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def orthonormal_span(
    mats: Iterable[np.ndarray] | np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Orthonormal basis of the span of the given matrices.

    Returns a stack of matrices orthonormal for the normalized
    Hilbert-Schmidt inner product, spanning the same subspace. Rank is
    decided by singular values relative to the largest, at ``rank_tol``.
    """
    stack = np.asarray(list(mats) if not isinstance(mats, np.ndarray) else mats, dtype=complex)
    if stack.ndim != 3:
        raise DimensionError("expected a stack of matrices")
    k, n, n2 = stack.shape
    if n != n2:
        raise DimensionError("matrices must be square")
    rows = stack.reshape(k, n * n) / np.sqrt(n)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] <= tol.rank_tol:
        return np.zeros((0, n, n), dtype=complex)
    rank = int(np.sum(s > tol.rank_tol * s[0]))
    return (vh[:rank] * np.sqrt(n)).reshape(rank, n, n)
