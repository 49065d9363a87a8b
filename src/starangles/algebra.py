"""Finite-dimensional *-algebras as concrete unital subalgebras of M_n(C).

A ``StarAlgebra`` is stored by an orthonormal linear basis (normalized
Hilbert-Schmidt inner product) inside a fixed ambient matrix algebra.
Every algebra carries the ambient identity as its unit; the faithful
reference state on an ambient is always the normalized matrix trace.

Constructors: generated algebras, group algebras in the left regular
representation, crossed products by finite permutation-group actions,
fixed-point algebras, tensoring by a matrix factor, relative commutants.
No constructor builds an expectation: a fixed-point algebra's averaging map
is the trace-preserving one (``expectation.trace_preserving``).
Stacked span, closure and generation work runs in ``linalg.batches``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    ArgumentError,
    ConstructionError,
    ContainmentError,
    DimensionError,
    InvariantError,
)
from .groups import Perm, PermGroup, identity_perm
from .linalg import DEFAULT_TOLERANCES, Tolerances, adjoint, as_square_matrix


class StarAlgebra:
    """Unital *-closed subalgebra of an ambient matrix algebra.

    Parameters
    ----------
    ambient_dim : int
        The algebra lives inside ``ambient_dim x ambient_dim`` matrices.
    basis : array_like
        Stack of matrices, orthonormal under ``<x, y> = tr(x* y) / n``,
        spanning the algebra. Validated on construction.

    Attributes
    ----------
    adjoint_coverage, product_coverage : tuple[int, int]
        Basis adjoints and basis-pair products (drawn with replacement when
        sampled) the closure checks tested, of ``dim`` and ``dim**2``.
    """

    def __init__(self, ambient_dim: int, basis, tol: Tolerances = DEFAULT_TOLERANCES):
        stack = np.asarray(basis, dtype=complex)
        if stack.ndim != 3 or stack.shape[1:] != (ambient_dim, ambient_dim):
            raise DimensionError(
                f"basis stack shape {stack.shape} does not match ambient {ambient_dim}"
            )
        if stack.shape[0] == 0:
            raise ArgumentError("algebra needs a nonempty basis")
        self.ambient_dim = int(ambient_dim)
        self.basis = stack
        self._flat = stack.reshape(stack.shape[0], -1)
        self.basis.setflags(write=False)
        self._validate(tol)

    # -- linear structure ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def unit(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of ``x`` in the orthonormal basis."""
        return self.coords_many(np.asarray(x, dtype=complex).reshape(1, -1))[0]

    def coords_many(self, stack: np.ndarray) -> np.ndarray:
        # conjugating the argument, not the basis, keeps no copy of the basis
        flat = np.asarray(stack, dtype=complex).reshape(stack.shape[0], -1)
        return np.conj(np.conj(flat) @ self._flat.T) / self.ambient_dim

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return (np.asarray(coeffs, dtype=complex) @ self._flat).reshape(
            self.ambient_dim, self.ambient_dim
        )

    def contains(self, x, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[bool, float]:
        """Membership test; returns ``(member, projection residual)``."""
        a = as_square_matrix(x)
        if a.shape[0] != self.ambient_dim:
            return False, float("inf")
        residual = self._max_span_residual(a[None])
        return residual < tol.eq_tol, residual

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return self.reconstruct(c / np.sqrt(2.0))

    # -- validation ------------------------------------------------------

    def _validate(self, tol: Tolerances):
        parts = linalg.batches(self.dim, self.ambient_dim**2)
        gram = np.concatenate([self.coords_many(self._flat[p]) for p in parts])  # transposed
        gram_err = linalg.max_op_norm((gram - np.eye(self.dim))[None], tol.eq_tol)
        if gram_err > tol.eq_tol:
            raise ConstructionError("basis orthonormality", gram_err)
        ok, resid = self.contains(self.unit, tol)
        if not ok:
            raise ConstructionError("unit membership", resid)
        pick = np.arange(self.dim)
        if self.dim > 256:
            pick = np.random.default_rng(20_260_403).choice(self.dim, 256, replace=False)
        self.adjoint_coverage = (len(pick), self.dim)
        adj_resid = self._max_span_residual(np.conj(np.transpose(self.basis[pick], (0, 2, 1))))
        if adj_resid > tol.eq_tol:
            raise ConstructionError("adjoint closure", adj_resid)
        prod_resid = self._product_closure_residual()
        if prod_resid > tol.eq_tol:
            raise ConstructionError("product closure", prod_resid)

    def _max_span_residual(self, stack: np.ndarray) -> float:
        """Largest normalized Hilbert-Schmidt distance from a member of ``stack`` to the span."""
        n = self.ambient_dim
        flat = stack.reshape(-1, n * n)
        worst = 0.0
        for part in linalg.batches(len(flat), n * n):
            diffs = flat[part] - self.coords_many(flat[part]) @ self._flat
            worst = max(worst, float(np.linalg.norm(diffs, axis=1).max() / np.sqrt(n)))
        return worst

    def _product_closure_residual(self) -> float:
        """Largest span residual of ``a_i a_j`` over the pairs in ``product_coverage``."""
        d = self.dim
        # the check costs O(pairs * dim * ambient^2); keep it within a flop budget
        count = max(512, int(2.5e8 / (d * self.ambient_dim**2)))
        if d * d <= count:
            left, right = np.divmod(np.arange(d * d), d)
        else:
            rng = np.random.default_rng(20_260_401)
            left, right = rng.integers(0, d, count), rng.integers(0, d, count)
        self.product_coverage = (len(left), d * d)
        return max(
            self._max_span_residual(self.basis[left[part]] @ self.basis[right[part]])
            for part in linalg.batches(len(left), self.ambient_dim**2)
        )

    def __repr__(self) -> str:
        return f"StarAlgebra(ambient={self.ambient_dim}, dim={self.dim})"


def same_span(a: StarAlgebra, b: StarAlgebra, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Whether two algebras in the same ambient coincide as linear spans."""
    if a is b:
        return True
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return a._max_span_residual(b.basis) < tol.eq_tol


def spans_subset(
    small: StarAlgebra, big: StarAlgebra, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Whether ``small``'s span is contained in ``big``'s span."""
    if small.ambient_dim != big.ambient_dim:
        return False
    return big._max_span_residual(small.basis) < tol.eq_tol


@dataclass(frozen=True)
class Inclusion:
    """Unital inclusion ``small`` inside ``big``, containment checked at ``tol``."""

    big: StarAlgebra
    small: StarAlgebra
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False, compare=False)

    def __post_init__(self):
        if self.big.ambient_dim != self.small.ambient_dim:
            raise ArgumentError("inclusion requires a common ambient algebra")
        if not spans_subset(self.small, self.big, self.tol):
            raise ContainmentError("small algebra is not contained in the big one")


def from_span(
    ambient_dim: int, matrices: Sequence[np.ndarray], tol: Tolerances = DEFAULT_TOLERANCES
) -> StarAlgebra:
    """Algebra spanned by the given matrices (span must already be an algebra)."""
    mats = [as_square_matrix(m) for m in matrices]
    for m in mats:
        if m.shape[0] != ambient_dim:
            raise DimensionError("span matrix does not match the ambient dimension")
    basis = linalg.orthonormal_span(np.stack(mats), tol)
    return StarAlgebra(ambient_dim, basis, tol)


def _project_off(rows: np.ndarray, onb_rows: np.ndarray) -> np.ndarray:
    if onb_rows.shape[0] == 0:
        return rows
    return rows - (rows @ np.conj(onb_rows).T) @ onb_rows


def from_generators(
    ambient_dim: int, gens: Sequence[np.ndarray], tol: Tolerances = DEFAULT_TOLERANCES
) -> StarAlgebra:
    """Smallest unital *-closed subalgebra containing the generators.

    Orbit closure: starting from the span of the unit and the (normalized)
    generators and their adjoints, repeatedly multiply new directions by
    the generators and keep whatever leaves the current span. Dimension
    must stabilize within ``ambient_dim**2`` sweeps.
    """
    n = int(ambient_dim)
    mats = []
    for g in gens:
        m = as_square_matrix(g)
        if m.shape[0] != n:
            raise ArgumentError(f"generator shape {m.shape} does not match ambient {n}")
        norm = linalg.op_norm(m)
        if norm > tol.rank_tol:
            mats.append(m / norm)
    gen_stack = (
        np.stack(mats + [adjoint(m) for m in mats])
        if mats
        else np.zeros((0, n, n), dtype=complex)
    )
    seed = np.concatenate([np.eye(n, dtype=complex)[None], gen_stack], axis=0)
    basis = linalg.orthonormal_span(seed, tol)

    def rows_of(stack: np.ndarray) -> np.ndarray:
        return stack.reshape(stack.shape[0], -1) / np.sqrt(n)

    def mats_of(rows: np.ndarray) -> np.ndarray:
        return rows.reshape(-1, n, n) * np.sqrt(n)

    q_rows = rows_of(basis)
    new = basis
    sweeps = 0
    while new.shape[0] > 0 and gen_stack.shape[0] > 0:
        sweeps += 1
        if sweeps > n * n:
            raise ConstructionError("closure stabilization", detail="sweep limit exceeded")
        survivors = np.zeros((0, q_rows.shape[1]), dtype=complex)
        for part in linalg.batches(len(gen_stack) * len(new), n * n):
            g, m = np.divmod(np.arange(part.start, part.stop), len(new))
            rows = rows_of(gen_stack[g] @ new[m])
            rows = _project_off(rows, q_rows)
            rows = _project_off(rows, survivors)
            norms = np.linalg.norm(rows, axis=1)
            kept = rows[norms > max(tol.eq_tol, 1e-12)]
            if kept.shape[0]:
                fresh = rows_of(linalg.orthonormal_span(mats_of(kept), tol))
                # second projection pass guards against drift in one-pass GS
                fresh = _project_off(fresh, q_rows)
                fresh = _project_off(fresh, survivors)
                fresh = fresh[np.linalg.norm(fresh, axis=1) > 0.5]
                fresh /= np.linalg.norm(fresh, axis=1)[:, None]
                survivors = np.concatenate([survivors, fresh], axis=0)
        if survivors.shape[0] == 0:
            break
        if q_rows.shape[0] + survivors.shape[0] > n * n:
            raise ConstructionError("closure dimension", detail="exceeds ambient dimension")
        q_rows = np.concatenate([q_rows, survivors], axis=0)
        new = mats_of(survivors)
    return StarAlgebra(n, linalg.orthonormal_span(mats_of(q_rows), tol), tol)


def commutant_within(
    algebra: StarAlgebra,
    constraints: Sequence[np.ndarray],
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> StarAlgebra:
    """Elements of ``algebra`` commuting with every constraint matrix.

    The commutant is the null space of ``x -> ([x, m])_m`` on the algebra's
    coordinates. A singular value of that map is ``(sum_m |[x, m]|_F^2)^(1/2)``
    for an ``x`` of unit coordinates, so a direction counts toward its rank
    only above ``rank_tol`` times the largest and above an absolute floor,
    ``eq_tol`` times the constraints' Frobenius norm ``(sum_m |m|_F^2)^(1/2)``:
    an ``x`` whose commutators are that small relative to the constraints
    commutes within the library's equality. Without the floor, commutators
    that vanish up to rounding (every constraint central, or scalar) would
    count their noise as rank.
    """
    n = algebra.ambient_dim
    mats = [as_square_matrix(c) for c in constraints]
    if any(m.shape[0] != n for m in mats):
        raise ArgumentError("constraint matrix does not match the ambient dimension")
    if not mats:
        return algebra
    blocks = [(algebra.basis @ m - m @ algebra.basis).reshape(algebra.dim, -1) for m in mats]
    system = np.concatenate(blocks, axis=1).T  # (constraints*n^2, dim)
    floor = tol.eq_tol * float(np.linalg.norm(np.stack(mats)))
    # tall (n^2 >= dim), so the thin vh still has all dim rows
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    rank = int(np.sum(s > max(tol.rank_tol * s[0], floor)))
    null = np.conj(vh[rank:])
    mats = [algebra.reconstruct(c) for c in null]
    if not mats:  # pragma: no cover - identity always commutes
        raise InvariantError("commutant lost the unit")
    return from_span(n, mats, tol)


def relative_commutant(
    big: StarAlgebra, other: StarAlgebra, tol: Tolerances = DEFAULT_TOLERANCES
) -> StarAlgebra:
    """Relative commutant ``{x in big : xb = bx for all b in other}``."""
    if big.ambient_dim != other.ambient_dim:
        raise ArgumentError("relative commutant requires a common ambient")
    return commutant_within(big, list(other.basis), tol)


def tensor_by_factor(
    algebra: StarAlgebra, k: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> StarAlgebra:
    """Tensor with a full ``k x k`` matrix factor inside the enlarged ambient."""
    if k < 1:
        raise ArgumentError("matrix factor size must be >= 1")
    if k == 1:
        return algebra
    n = algebra.ambient_dim
    units = np.zeros((k * k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            units[i * k + j, i, j] = 1.0
    mats = [
        np.sqrt(k) * linalg.kron(b, e)
        for b in algebra.basis
        for e in units
    ]
    return StarAlgebra(n * k, np.stack(mats), tol)


# -- group algebras and actions ------------------------------------------


def regular_representation(group: PermGroup) -> dict[Perm, np.ndarray]:
    """Left regular representation; permutation matrix per group element."""
    order = len(group)
    out: dict[Perm, np.ndarray] = {}
    for g, row in zip(group.elements, group.mul):
        mat = np.zeros((order, order), dtype=complex)
        mat[row, range(order)] = 1.0
        out[g] = mat
    return out


@dataclass(frozen=True)
class GroupAlgebra:
    """Group algebra C[G] acting on itself by left translation."""

    group: PermGroup
    algebra: StarAlgebra
    unitaries: dict[Perm, np.ndarray] = field(repr=False)

    def unitary(self, g: Perm) -> np.ndarray:
        return self.unitaries[g]

    def subalgebra(self, subgroup: PermGroup, tol: Tolerances = DEFAULT_TOLERANCES) -> StarAlgebra:
        """Span of the translations by a subgroup, inside the same ambient."""
        if not subgroup.is_subgroup_of(self.group):
            raise ContainmentError("not a subgroup of the represented group")
        return from_span(len(self.group), [self.unitaries[k] for k in subgroup.elements], tol)


def group_algebra(group: PermGroup, tol: Tolerances = DEFAULT_TOLERANCES) -> GroupAlgebra:
    """C[G] in the left regular representation on C^{|G|}.

    The translation matrices are already orthonormal for the normalized
    Hilbert-Schmidt inner product, so they serve as the basis directly.
    """
    rep = regular_representation(group)
    basis = np.stack([rep[g] for g in group.elements])
    return GroupAlgebra(group, StarAlgebra(len(group), basis, tol), rep)


@dataclass(frozen=True)
class GroupAction:
    """Finite group acting by unitary conjugation, its unitaries checked at ``tol``."""

    group: PermGroup
    unitaries: dict[Perm, np.ndarray] = field(repr=False)
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False, compare=False)

    def __post_init__(self):
        tol = self.tol
        ident = identity_perm(self.group.degree)
        if set(self.unitaries) != set(self.group.elements):
            raise ArgumentError("action must assign a unitary to every group element")
        n = self.unitaries[ident].shape[0]
        eye = np.eye(n)
        if linalg.op_norm(self.unitaries[ident] - eye) > tol.eq_tol:
            raise ArgumentError("identity element must act as the identity matrix")
        for g, u in self.unitaries.items():
            if u.shape != (n, n):
                raise ArgumentError("action unitaries must share one dimension")
            if linalg.op_norm(u @ adjoint(u) - eye) > tol.eq_tol:
                raise ArgumentError(f"matrix for {g.images} is not unitary")
        for g in self.group.elements:
            for h in self.group.elements:
                err = linalg.op_norm(
                    self.unitaries[g] @ self.unitaries[h] - self.unitaries[g * h]
                )
                if err > tol.eq_tol:
                    raise ArgumentError("unitaries do not define a group homomorphism")

    @property
    def ambient_dim(self) -> int:
        return self.unitaries[identity_perm(self.group.degree)].shape[0]

    def conjugate(self, g: Perm, x: np.ndarray) -> np.ndarray:
        u = self.unitaries[g]
        return u @ x @ adjoint(u)

    def normalizes(self, algebra: StarAlgebra, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        for g in self.group.elements:
            moved = self.unitaries[g] @ algebra.basis @ adjoint(self.unitaries[g])
            if algebra._max_span_residual(moved) > tol.eq_tol:
                return False
        return True


def action_from_generators(
    group: PermGroup,
    generator_unitaries: dict[Perm, np.ndarray],
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GroupAction:
    """Extend unitaries on generators to the whole group by word closure."""
    ident = identity_perm(group.degree)
    n = None
    for u in generator_unitaries.values():
        n = as_square_matrix(u).shape[0]
        break
    if n is None:
        raise ArgumentError("at least one generator unitary is required")
    table: dict[Perm, np.ndarray] = {ident: np.eye(n, dtype=complex)}
    for g, u in generator_unitaries.items():
        if g not in group:
            raise ArgumentError("generator is not a group element")
        table[g] = as_square_matrix(u)
    frontier = list(table)
    while frontier:
        nxt = []
        for x in frontier:
            for g, u in generator_unitaries.items():
                y = g * x
                cand = as_square_matrix(u) @ table[x]
                if y in table:
                    if linalg.op_norm(table[y] - cand) > tol.eq_tol:
                        raise ArgumentError("generator unitaries are inconsistent")
                else:
                    table[y] = cand
                    nxt.append(y)
        frontier = nxt
    if set(table) != set(group.elements):
        raise ArgumentError("generator unitaries do not reach the whole group")
    return GroupAction(group, table, tol)


@dataclass(frozen=True)
class CrossedProduct:
    """Crossed product in the regular covariant representation."""

    base: StarAlgebra
    action: GroupAction
    algebra: StarAlgebra
    _pi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    unitaries: dict[Perm, np.ndarray] = field(repr=False)

    def embed(self, m: np.ndarray) -> np.ndarray:
        return self._pi(m)

    def unitary(self, g: Perm) -> np.ndarray:
        return self.unitaries[g]

    def subalgebra(self, subgroup: PermGroup, tol: Tolerances = DEFAULT_TOLERANCES) -> StarAlgebra:
        """Crossed product by a subgroup inside the same representation."""
        if not subgroup.is_subgroup_of(self.action.group):
            raise ContainmentError("not a subgroup of the acting group")
        mats = [
            self._pi(b) @ self.unitaries[k]
            for b in self.base.basis
            for k in subgroup.elements
        ]
        return from_span(self.algebra.ambient_dim, mats, tol)


def crossed_product(
    base: StarAlgebra, action: GroupAction, tol: Tolerances = DEFAULT_TOLERANCES
) -> CrossedProduct:
    """Crossed product of ``base`` by a unitary action of a finite group.

    Represented on (ambient of ``base``) tensor C^{|G|}: the base embeds
    diagonally twisted by the action, the group by translation on the
    group leg. The embeddings satisfy the covariance rule
    ``u_g pi(m) u_g* = pi(alpha_g(m))``.
    """
    if action.ambient_dim != base.ambient_dim:
        raise ArgumentError("action does not act on the base algebra's ambient space")
    if not action.normalizes(base, tol):
        raise ArgumentError("action does not normalize the base algebra")
    group = action.group
    order = len(group)
    n = base.ambient_dim
    idx = {g: i for i, g in enumerate(group.elements)}
    translation = regular_representation(group)

    def pi(m: np.ndarray) -> np.ndarray:
        out = np.zeros((n * order, n * order), dtype=complex)
        for g in group.elements:
            block = action.conjugate(g.inverse(), np.asarray(m, dtype=complex))
            i = idx[g]
            e = np.zeros((order, order), dtype=complex)
            e[i, i] = 1.0
            out += linalg.kron(block, e)
        return out

    unitaries = {
        g: linalg.kron(np.eye(n, dtype=complex), translation[g]) for g in group.elements
    }
    mats = [pi(b) @ unitaries[g] for b in base.basis for g in group.elements]
    algebra = from_span(n * order, mats, tol)
    if algebra.dim != base.dim * order:
        raise InvariantError(
            f"crossed product dimension {algebra.dim} != {base.dim * order}"
        )
    return CrossedProduct(base, action, algebra, pi, unitaries)


def fixed_point(
    base: StarAlgebra, action: GroupAction, tol: Tolerances = DEFAULT_TOLERANCES
) -> StarAlgebra:
    """Fixed-point subalgebra of a unitary action: the span of the averages
    ``sum_g u_g x u_g* / |G|`` over the base's basis.

    Averaging is idempotent onto the fixed points, and it is Hilbert-Schmidt
    self-adjoint, as ``g -> g^-1`` permutes G. So it is the trace-preserving
    expectation onto them: ``trace_preserving(Inclusion(base, fixed))``.
    """
    if action.ambient_dim != base.ambient_dim:
        raise ArgumentError("action does not act on the base algebra's ambient space")
    if not action.normalizes(base, tol):
        raise ArgumentError("action does not normalize the base algebra")
    order = len(action.group)
    averaged = (
        sum(
            action.unitaries[g] @ base.basis @ adjoint(action.unitaries[g])
            for g in action.group.elements
        )
        / order
    )
    return from_span(base.ambient_dim, list(averaged), tol)
