"""Value types: pure states, density matrices, POVMs, state sets, certificates.

Global phase is quotiented out by working with projectors.  Sameness has
one test, ``first_match``: two states or group elements are the same when
their operators lie within the fixed Frobenius distance ``DUPLICATE_TOL``,
which neither ``tol`` arguments nor the CLI's ``--tolerance`` move.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    DuplicateState,
    MixedStateInput,
    NormOutOfRange,
    NotNormalized,
    NotPsd,
    ZeroVector,
)
from .linalg import DUPLICATE_TOL, NORM_SLACK


def first_match(known, ops) -> np.ndarray:
    """For each operator q of the (k, d, d) stack ``ops``, the index of the first
    operator a of the (m, d, d) stack ``known`` with |q - a|_F <= ``DUPLICATE_TOL``,
    or -1.  One product of the flattened stacks shortlists the pairs through
    |a - q|^2 = |a|^2 + |q|^2 - 2 Re<a, q>; the exact |q - a| decides on the shortlist.
    """
    # real views: Re<a, q> of the complex entries is the dot product of [re, im] pairs
    a = np.ascontiguousarray(known, dtype=complex).reshape(len(known), -1).view(float)
    q = np.ascontiguousarray(ops, dtype=complex).reshape(len(ops), -1).view(float)
    # shrinking the norms by 4 (n + 2) eps covers the rounding of the three sums of
    # n products and of the two additions, so rounding never drops a true match
    shrink = 1.0 - 4 * (a.shape[1] + 2) * np.finfo(float).eps
    gap = q @ (-2.0 * a.T)
    gap += shrink * (q * q).sum(axis=1, keepdims=True)
    gap += shrink * (a * a).sum(axis=1)
    rows, cols = np.divmod(np.flatnonzero(gap <= DUPLICATE_TOL**2), len(a))
    hit = np.linalg.norm(q[rows] - a[cols], axis=1) <= DUPLICATE_TOL
    out = np.full(len(q), len(a))
    np.minimum.at(out, rows[hit], cols[hit])
    out[out == len(a)] = -1
    return out


class Verdict(str, Enum):
    YES = "AntidistYes"
    NO = "AntidistNo"
    UNKNOWN = "Unknown"


class Method(str, Enum):
    PAIRWISE_ORTHOGONAL = "PairwiseOrthogonal"
    SUM_PROJECTION = "SumProjection"
    QUBIT_BLOCH = "QubitBloch"
    CHART = "Chart"
    CHART_WITNESS = "ChartWitness"
    GROUP_ORBIT = "GroupOrbit"
    FIDELITY_VIOLATION = "FidelityViolation"
    UNION = "Union"
    TWO_N = "TwoNConstruction"


def _as_finite_complex(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


class PureState:
    """A unit vector together with its cached rank-1 projector."""

    __slots__ = ("dim", "vector", "projector")

    def __init__(self, vector, tol: float = linalg.DEFAULT_TOL):
        v = _as_finite_complex(vector, "state vector").reshape(-1)
        nrm = float(np.linalg.norm(v))
        if nrm <= tol:
            raise ZeroVector("state vector has zero norm")
        if abs(nrm - 1.0) > NORM_SLACK:
            raise NormOutOfRange(f"vector norm {nrm:.9f} deviates from 1 by more than {NORM_SLACK}")
        v = v / nrm
        self.dim = v.size
        self.vector = v
        self.projector = np.outer(v, v.conj())

    def density(self) -> np.ndarray:
        return self.projector

    def overlap(self, other: "PureState") -> float:
        """tr(P Q), the squared modulus of the inner product."""
        return float(abs(np.vdot(self.vector, other.vector)) ** 2)

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class DensityMatrix:
    """Positive trace-one operator; carries the mixed states of constructions."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix, tol: float = linalg.DEFAULT_TOL):
        m = _as_finite_complex(matrix, "density matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not linalg.is_psd(m, tol):
            raise ValueError("density matrix must be Hermitian and positive semidefinite")
        if abs(float(np.trace(m).real) - 1.0) > linalg.RESIDUAL_TOL:
            raise ValueError("density matrix must have unit trace")
        self.dim = m.shape[0]
        self.matrix = m

    def density(self) -> np.ndarray:
        return self.matrix

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class Povm:
    """Finite list of positive effects summing to the identity."""

    __slots__ = ("dim", "effects")

    def __init__(self, effects, tol: float = linalg.DEFAULT_TOL):
        mats = [_as_finite_complex(e, "POVM effect") for e in effects]
        if not mats:
            raise ValueError("a POVM needs at least one effect")
        d = mats[0].shape[0]
        for idx, e in enumerate(mats):
            if e.ndim != 2 or e.shape != (d, d):
                raise ValueError(f"effect {idx} is not {d}x{d}")
        stack = np.stack(mats)
        failing = ~linalg.is_psd(stack, tol)
        if failing.any():
            raise NotPsd(int(np.argmax(failing)))
        residual = linalg.frobenius(stack.sum(axis=0) - np.eye(d))
        if residual > linalg.RESIDUAL_TOL:
            raise NotNormalized(residual)
        self.dim = d
        self.effects = tuple(mats)

    def __len__(self):
        return len(self.effects)

    def __repr__(self):
        return f"Povm(dim={self.dim}, outcomes={len(self.effects)})"


class StateSet:
    """States sharing a dimension, pairwise distinct as operators."""

    __slots__ = ("dim", "states")

    def __init__(self, states):
        members = tuple(states)
        if not members:
            raise ValueError("a state set needs at least one state")
        d = members[0].dim
        if any(s.dim != d for s in members):
            raise ValueError("all states must share a dimension")
        ops = np.stack([s.density() for s in members])
        first = first_match(ops, ops)
        later = np.flatnonzero(first < np.arange(len(members)))
        if later.size:
            # the first pair in row order: its i is the least first match of a later row
            i = first[later].min()
            j = later[first[later] == i][0]
            raise DuplicateState(f"states {i} and {j} coincide up to global phase")
        self.dim = d
        self.states = members

    @property
    def n(self) -> int:
        return len(self.states)

    def densities(self) -> list[np.ndarray]:
        return [s.density() for s in self.states]

    def all_pure(self) -> bool:
        return all(isinstance(s, PureState) for s in self.states)

    def require_pure(self, what: str = "this operation"):
        if not self.all_pure():
            raise MixedStateInput(f"{what} requires pure states")

    def vectors(self) -> list[np.ndarray]:
        self.require_pure("vector access")
        return [s.vector for s in self.states]

    def __repr__(self):
        return f"StateSet(dim={self.dim}, n={self.n})"


@dataclass
class Certificate:
    """Portable evidence object from which a verdict can be re-verified."""

    verdict: Verdict
    method: Method | None = None
    weights: np.ndarray | None = None
    projector_r: np.ndarray | None = None
    povm: Povm | None = None
    bloch_weights: np.ndarray | None = None
    added_state: np.ndarray | None = None
    added_bloch: np.ndarray | None = None
    witness: np.ndarray | None = None
    notes: str = ""
