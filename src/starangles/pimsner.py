"""Orthonormal module bases of partial isometries and the Watatani index.

The big algebra of an inclusion is a right module over the small one with
inner product ``<x, y> = E(x* y)``. In finite dimensions that module has
a finite orthonormal basis of partial isometries, every such basis is an
exact quasi-basis (``x = sum_j m_j E(m_j* x)``), and the index
``sum_j m_j m_j*`` is a positive invertible central element independent
of the basis chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import ArgumentError, ConstructionError, InvariantError
from .expectation import CondExpectation
from .linalg import DEFAULT_TOLERANCES, Tolerances, adjoint, max_op_norm, op_norm, op_norms


@dataclass(frozen=True)
class ModuleBasis:
    """Orthonormal basis of partial isometries for the module over B."""

    expectation: CondExpectation
    elements: np.ndarray = field(repr=False)
    support_projections: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class WatataniIndex:
    """Index value; ``scalar`` is set when the value is a multiple of 1.

    The residual ``max_s |[Ind, a_s]|`` and least eigenvalue it was verified with.
    """

    value: np.ndarray = field(repr=False)
    scalar: float | None
    centrality_residual: float
    min_eigenvalue: float

    @property
    def norm(self) -> float:
        return op_norm(self.value)

    def inverse(self, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        return linalg.psd_calculus(self.value, "inv", tol)


def orthonormal_basis(exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES) -> ModuleBasis:
    """Greedy construction of an orthonormal module basis.

    Iterates over the big algebra's linear basis in its stored order: the
    residual of each vector against the module span built so far is
    normalized into a partial isometry via the pseudo-inverse square root
    of its self-inner-product and appended when nonzero. Sweeps repeat
    until every residual falls below ``eq_tol``; each accepted element
    strictly enlarges the module span, so termination is guaranteed for a
    faithful expectation. Another basis order gives another module basis
    with the same index: build the algebra on the permuted basis.
    """
    a = exp.big
    ms: list[np.ndarray] = []

    def residual_of(x: np.ndarray) -> np.ndarray:
        r = x
        for m in ms:
            r = r - m @ exp.apply(adjoint(m) @ r)
        return r

    for _ in range(a.dim + 2):
        for x in a.basis:
            r = residual_of(x)
            h = exp.apply(adjoint(r) @ r)
            if op_norm(h) > tol.eq_tol:
                ms.append(r @ linalg.psd_calculus(h, "pinv_sqrt", tol))
        worst = max(op_norm(residual_of(x)) for x in a.basis)
        if worst < tol.eq_tol:
            break
    else:
        raise ConstructionError(
            "module basis sweeps", worst, "residuals did not decay; is E faithful?"
        )

    elements = np.stack(ms)
    elements_h = np.conj(elements.transpose(0, 2, 1))
    eq = tol.eq_tol
    supports = exp.apply_many(elements_h @ elements)
    idem = supports @ supports - supports
    herm = np.conj(supports.transpose(0, 2, 1)) - supports
    if max_op_norm(np.concatenate([idem, herm]), eq) > eq:
        errs = np.maximum(op_norms(idem), op_norms(herm))
        j = int(np.argmax(errs > eq))
        raise ConstructionError("support projection", float(errs[j]), f"element {j}")
    first, second = np.triu_indices(len(ms), 1)
    if first.size:
        overlaps = exp.apply_many(elements_h[first] @ elements[second])
        if max_op_norm(overlaps, eq) > eq:
            errs = op_norms(overlaps)
            i = int(np.argmax(errs > eq))
            raise ConstructionError(
                "mutual orthogonality", float(errs[i]), f"pair ({first[i]}, {second[i]})"
            )
    return ModuleBasis(expectation=exp, elements=elements, support_projections=supports)


def watatani_index(basis: ModuleBasis, tol: Tolerances = DEFAULT_TOLERANCES) -> WatataniIndex:
    """Index ``sum_j m_j m_j*`` with centrality and positivity verified."""
    exp = basis.expectation
    a = exp.big
    value = np.tensordot(basis.elements, np.conj(basis.elements), axes=([0, 2], [0, 2]))
    herm = op_norm(value - adjoint(value))
    if herm > tol.eq_tol:
        raise InvariantError(f"index is not self-adjoint (residual {herm:.3e})")
    value = (value + adjoint(value)) / 2.0
    centrality = max(
        float(op_norms(value @ a.basis[part] - a.basis[part] @ value).max())
        for part in linalg.batches(a.dim, a.ambient_dim**2)
    )
    if centrality > tol.eq_tol:
        raise InvariantError(
            f"index is not central (residual {centrality:.3e}); defective module basis"
        )
    eigs = np.linalg.eigvalsh(value)
    if eigs[0] <= tol.rank_tol:
        raise InvariantError(f"index is not invertible (min eig {eigs[0]:.3e})")
    mean = float(np.trace(value).real / a.ambient_dim)
    scalar = mean if op_norm(value - mean * a.unit) < tol.eq_tol else None
    return WatataniIndex(value, scalar, float(centrality), float(eigs[0]))


def verify_quasi_basis(
    exp: CondExpectation,
    candidate: Sequence[np.ndarray] | np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Maximal reconstruction residual ``|x - sum_i u_i E(u_i* x)|`` over the
    big algebra's basis.

    The map ``x -> x - sum_i u_i E(u_i* x)`` is linear, so its values on the
    basis decide it on the whole algebra: the check is exhaustive.
    """
    a = exp.big
    mats = [np.asarray(u, dtype=complex) for u in candidate]
    for u in mats:
        member, resid = a.contains(u, tol)
        if not member:
            raise ArgumentError(
                f"candidate element leaves the algebra (residual {resid:.3e})"
            )
    residual = a.basis.copy()
    for u in mats:
        residual -= u @ exp.apply_many(adjoint(u) @ a.basis)
    return float(op_norms(residual).max())
