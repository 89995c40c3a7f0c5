"""Antidistinguishable sets from finite-group unitary representations.

An orbit of a pure state under a representation that acts irreducibly on
the orbit span sums to a scalar multiple of the span projector.  That
scalar certifies uniform weights 1/c, and the generic sum-condition
measurement becomes covariant.  The span-projector formulation also covers
reducible representations restricted to an invariant subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import conditions, linalg, qubit
from .errors import FixedPoint, NotScalarOnSupport, TooLarge, WrongDimension
from .states import Povm, PureState, StateSet, same_state

#: distance within which two group elements coincide
CLOSURE_TOL = 1e-7

#: Frobenius tolerance for "orbit sum = c * span projector"
SCHUR_TOL = 1e-8


def _hash_key(u: np.ndarray) -> bytes:
    # +0.0 collapses -0.0 so equal matrices hash equally
    return (np.round(u, 6) + 0.0).tobytes()


class GroupRep:
    """Finite set of unitaries closed under multiplication, with the identity."""

    __slots__ = ("dim", "elements", "labels")

    def __init__(self, elements, labels=None, tol: float = linalg.DEFAULT_TOL):
        mats = [np.asarray(u, dtype=complex) for u in elements]
        if not mats:
            raise ValueError("a representation needs at least one element")
        d = mats[0].shape[0]
        eye = np.eye(d)
        for idx, u in enumerate(mats):
            if u.ndim != 2 or u.shape != (d, d):
                raise ValueError(f"element {idx} is not {d}x{d}")
            if linalg.frobenius(linalg.adjoint(u) @ u - eye) > tol:
                raise ValueError(f"element {idx} is not unitary within tolerance")
        if labels is None:
            labels = [f"g{k}" for k in range(len(mats))]
        labels = [str(x) for x in labels]
        if len(labels) != len(mats):
            raise ValueError("one label per element required")

        stack = np.stack(mats)
        index: dict[bytes, list[int]] = {}
        for k, u in enumerate(mats):
            index.setdefault(_hash_key(u), []).append(k)

        def find(m: np.ndarray) -> int | None:
            for k in index.get(_hash_key(m), []):
                if linalg.frobenius(mats[k] - m) <= CLOSURE_TOL:
                    return k
            dists = np.linalg.norm(stack - m, axis=(1, 2))
            k = int(np.argmin(dists))
            return k if dists[k] <= CLOSURE_TOL else None

        if find(eye) is None:
            raise ValueError("representation does not contain the identity")
        for g in mats:
            for h in mats:
                if find(g @ h) is None:
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
    members: tuple[PureState, ...]
    stabilizer_order: int

    def to_state_set(self) -> StateSet:
        return StateSet(self.members)


def orbit(rep: GroupRep, base: PureState, tol: float = linalg.DEFAULT_TOL) -> Orbit:
    """Orbit of a pure state, deduplicated as projectors."""
    if base.dim != rep.dim:
        raise WrongDimension("base state and representation dimensions differ")
    members: list[PureState] = []
    for u in rep.elements:
        cand = PureState(u @ base.vector, tol)
        if not any(same_state(cand, m) for m in members):
            members.append(cand)
    if len(members) < 2:
        raise FixedPoint("the base state is fixed by every group element")
    if rep.order % len(members) != 0:
        raise ValueError("orbit size does not divide the group order; check tolerances")
    return Orbit(base, tuple(members), rep.order // len(members))


def schur_sum(orb: Orbit, tol: float = linalg.DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Verify that the orbit projectors sum to c times the span projector.

    Returns (c, R) with c = orbit size / rank(R).  Raises
    NotScalarOnSupport when the representation is not irreducible on the
    span of the orbit.
    """
    total = sum(m.projector for m in orb.members)
    r_proj = linalg.span_projector([m.vector for m in orb.members], tol)
    rank = int(round(np.trace(r_proj).real))
    c = len(orb.members) / rank
    if linalg.frobenius(total - c * r_proj) > SCHUR_TOL:
        raise NotScalarOnSupport("orbit sum is not proportional to the span projector")
    return c, r_proj


def covariant_povm(
    orb: Orbit, c: float, r_proj: np.ndarray, tol: float = linalg.DEFAULT_TOL
) -> Povm:
    """Excluding measurement for an orbit with uniform weights 1/c."""
    members = orb.to_state_set()
    rank = int(round(np.trace(r_proj).real))
    result = conditions.SumConditionResult(
        weights=np.full(members.n, 1.0 / c),
        projector_r=r_proj,
        rank_r=rank,
        satisfied=True,
    )
    return conditions.build_povm(members, result, tol)


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
    mats, labels = [], []
    for perm in permutations(range(n)):
        m = np.zeros((n, n), dtype=complex)
        for src, dst in enumerate(perm):
            m[dst, src] = 1.0
        mats.append(m)
        labels.append("".join(str(x) for x in perm))
    return GroupRep(mats, labels)


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
