"""Antidistinguishable sets from finite-group unitary representations.

An orbit of a pure state under a representation that acts irreducibly on
the orbit span sums to a scalar multiple of the span projector.  That
scalar certifies uniform weights 1/c, and ``conditions.build_povm`` on them
gives a covariant measurement.  The span-projector formulation also covers
reducible representations restricted to an invariant subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import linalg, qubit
from .errors import FixedPoint, NotScalarOnSupport, TooLarge, WrongDimension
from .states import PureState, StateSet, first_match, projectors_of, unit_rows


class GroupRep:
    """Finite set of distinct unitaries closed under multiplication, with the identity."""

    __slots__ = ("dim", "elements", "labels")

    def __init__(self, elements, labels=None, tol: float = linalg.DEFAULT_TOL):
        mats = [np.asarray(u, dtype=complex) for u in elements]
        if not mats:
            raise ValueError("a representation needs at least one element")
        d = mats[0].shape[0]
        for idx, u in enumerate(mats):
            if u.ndim != 2 or u.shape != (d, d):
                raise ValueError(f"element {idx} is not {d}x{d}")
        stack, eye = np.stack(mats), np.eye(d)
        unitary = np.linalg.norm(stack.conj().transpose(0, 2, 1) @ stack - eye, axis=(1, 2)) <= tol
        if not unitary.all():
            raise ValueError(f"element {int(np.argmin(unitary))} is not unitary within tolerance")
        if labels is None:
            labels = [f"g{k}" for k in range(len(mats))]
        labels = [str(x) for x in labels]
        if len(labels) != len(mats):
            raise ValueError("one label per element required")

        if first_match(stack, eye[None])[0] < 0:
            raise ValueError("representation does not contain the identity")
        first = first_match(stack, stack)
        repeats = np.flatnonzero(first != np.arange(len(mats)))
        if repeats.size:
            j = repeats[0]
            raise ValueError(f"elements {first[j]} and {j} coincide; list each element once")
        for g in stack:
            if (first_match(stack, g @ stack) < 0).any():
                raise ValueError("representation is not closed under multiplication")

        self.dim = d
        self.elements = tuple(mats)
        self.labels = tuple(labels)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"GroupRep(dim={self.dim}, order={self.order})"


@dataclass
class Orbit:
    """Distinct images of a base state under a representation."""

    base: PureState
    members: StateSet
    stabilizer_order: int


def orbit(rep: GroupRep, base: PureState) -> Orbit:
    """Orbit of a pure state, deduplicated as projectors."""
    if base.dim != rep.dim:
        raise WrongDimension("base state and representation dimensions differ")
    images = np.stack(rep.elements) @ base.vector
    ops = projectors_of(unit_rows(images))
    first = first_match(ops, ops)
    keep = np.flatnonzero(first == np.arange(len(ops)))
    if keep.size < 2:
        raise FixedPoint("the base state is fixed by every group element")
    if rep.order % keep.size != 0:
        raise ValueError("orbit size does not divide the group order; check tolerances")
    return Orbit(base, StateSet(images[keep]), rep.order // keep.size)


def schur_sum(orb: Orbit, tol: float = linalg.DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Verify that the orbit projectors sum to c times the span projector.

    Returns (c, R) with c = orbit size / rank(R).  Raises
    NotScalarOnSupport when the representation is not irreducible on the
    span of the orbit.
    """
    total = orb.members.projectors.sum(axis=0)
    r_proj = linalg.span_projector(orb.members.vectors, tol)
    rank = int(round(np.trace(r_proj).real))
    c = orb.members.n / rank
    if linalg.frobenius(total - c * r_proj) > linalg.RESIDUAL_TOL:
        raise NotScalarOnSupport("orbit sum is not proportional to the span projector")
    return c, r_proj


def builtin_quaternion() -> GroupRep:
    """The eight-element quaternion representation on qubits:
    +-1 -> +-identity, +-i -> +-i sigma_x, +-j -> -+i sigma_y, +-k -> +-i sigma_z."""
    eye = np.eye(2, dtype=complex)
    elems = [
        eye,
        -eye,
        1j * qubit.PAULI_X,
        -1j * qubit.PAULI_X,
        -1j * qubit.PAULI_Y,
        1j * qubit.PAULI_Y,
        1j * qubit.PAULI_Z,
        -1j * qubit.PAULI_Z,
    ]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return GroupRep(elems, labels)


def builtin_symmetric_permutation(n: int) -> GroupRep:
    """Permutation matrices of the symmetric group on n letters (3 <= n <= 6)."""
    if n < 3:
        raise ValueError("the permutation representation needs n >= 3")
    if n > 6:
        raise TooLarge("permutation groups beyond n = 6 are not supported")
    perms = list(permutations(range(n)))
    # the matrix of perm sends e_src to e_perm[src]
    mats = [np.eye(n, dtype=complex)[:, list(perm)] for perm in perms]
    return GroupRep(mats, ["".join(map(str, perm)) for perm in perms])


def standard_subspace_vectors(n: int) -> list[np.ndarray]:
    """Orthonormal basis of the zero-coordinate-sum subspace of C^n."""
    if n < 2:
        raise ValueError("the zero-sum subspace needs n >= 2")
    # column k - 1 is e_0 - e_k; Gram-Schmidt keeps the first one as psi1
    diffs = np.vstack([np.ones(n - 1), -np.eye(n - 1)])
    return list(linalg.orthonormal_columns(diffs).T)


def tetrahedral_state() -> PureState:
    """Qubit state with Bloch vector (1, 1, 1)/sqrt(3)."""
    return qubit.state_from_bloch(np.ones(3) / np.sqrt(3.0))
