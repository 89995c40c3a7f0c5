"""Value types: state sets, POVMs, certificates.

Every state is pure, and there is one state type.  A ``StateSet`` is one
(n, d) array of unit rows with the (n, d, d) stack of their projectors, and a
single state is a set with one row; a ``Povm`` is one (k, d, d) stack of
effects.  ``unit_rows`` validates and normalizes every state vector that
enters.  Global phase is quotiented out by working with projectors.  Sameness has
one test, ``first_match``: two states or group elements are the same when
their operators lie within the fixed Frobenius distance ``DUPLICATE_TOL``,
which neither ``tol`` arguments nor the CLI's ``--tolerance`` move.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import DuplicateState, NormOutOfRange, NotNormalized, NotPsd, ZeroVector
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
    ONE_HERMITIAN = "OneHermitian"
    CHART = "Chart"
    CHART_WITNESS = "ChartWitness"
    GROUP_ORBIT = "GroupOrbit"
    FIDELITY_VIOLATION = "FidelityViolation"
    TWO_N = "TwoNConstruction"


def unit_rows(rows) -> np.ndarray:
    """The (n, d) complex array ``rows`` with every row divided by its norm.

    Raises ValueError for a non-finite entry, ZeroVector for a zero row and
    NormOutOfRange for a norm further than ``NORM_SLACK`` from 1, each naming
    the first bad row as "state k".
    """
    v = np.asarray(rows, dtype=complex)
    if v.ndim != 2:
        raise ValueError("states must be vectors of one length")
    finite = np.isfinite(v).all(axis=1)
    # per row the two real dot products that np.linalg.norm forms for one vector,
    # so a row normalizes to the same bits alone or in a batch
    re, im = v.real[:, None, :], v.imag[:, None, :]
    norms = np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0, 0]
    bad = ~finite | (np.abs(norms - 1.0) > NORM_SLACK)
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise ValueError(f"state {k}: non-finite entries")
        if norms[k] == 0:
            raise ZeroVector(f"state {k}: zero norm")
        raise NormOutOfRange(f"state {k}: norm {norms[k]:.9f} deviates from 1 by more than {NORM_SLACK}")
    return v / norms[:, None]


def projectors_of(vectors: np.ndarray) -> np.ndarray:
    """The (n, d, d) stack of |v><v| for the rows v of an (n, d) array (the
    same product as ``np.outer``, which an einsum would round differently)."""
    return vectors[:, :, None] * vectors.conj()[:, None, :]


class Povm:
    """Positive effects summing to the identity: ``effects`` is their (k, d, d) stack."""

    __slots__ = ("dim", "effects")

    def __init__(self, effects, tol: float = linalg.DEFAULT_TOL):
        try:
            stack = np.array(effects, dtype=complex)
        except ValueError:  # numpy rejects matrices of unequal shapes
            raise ValueError("POVM effects must be square matrices of one size") from None
        if not stack.size:
            raise ValueError("a POVM needs at least one effect")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("POVM effects must be square matrices of one size")
        if not np.isfinite(stack).all():
            raise ValueError("POVM effect contains non-finite entries")
        failing = ~linalg.is_psd(stack, tol)
        if failing.any():
            raise NotPsd(int(np.argmax(failing)))
        d = stack.shape[1]
        residual = linalg.frobenius(stack.sum(axis=0) - np.eye(d))
        if residual > linalg.RESIDUAL_TOL:
            raise NotNormalized(residual)
        self.dim = d
        self.effects = stack

    def __len__(self):
        return len(self.effects)

    def __repr__(self):
        return f"Povm(dim={self.dim}, outcomes={len(self.effects)})"


class StateSet:
    """Pure states sharing a dimension, pairwise distinct up to global phase:
    ``vectors`` holds their unit rows, (n, d), and ``projectors`` the (n, d, d)
    stack of |v><v|.  A single state is a set of one.

    The constructor takes a sequence of vectors; ``unit_rows`` validates every
    row and divides it by its norm.  ``span`` is the one basis of their span.
    """

    __slots__ = ("vectors", "projectors", "_svd")

    def __init__(self, rows):
        rows = list(rows)
        if not rows:
            raise ValueError("a state set needs at least one state")
        try:
            rows = np.array(rows, dtype=complex)
        except ValueError:  # numpy rejects rows of unequal shapes
            raise ValueError("states must be vectors of one length") from None
        self._take(unit_rows(rows))

    @classmethod
    def join(cls, *parts: StateSet) -> StateSet:
        """The members of the sets ``parts``, in order, as one set.  Their
        vectors are unit already and are kept bit for bit, since a second
        division by the norm can move the last bits."""
        joined = cls.__new__(cls)
        joined._take(np.vstack([p.vectors for p in parts]))
        return joined

    def _take(self, vectors: np.ndarray) -> None:
        ops = projectors_of(vectors)
        first = first_match(ops, ops)
        later = np.flatnonzero(first < np.arange(len(ops)))
        if later.size:
            # the first pair in row order: its i is the least first match of a later row
            i = first[later].min()
            j = later[first[later] == i][0]
            raise DuplicateState(f"states {i} and {j} coincide up to global phase")
        self.vectors = vectors
        self.projectors = ops
        self._svd = None

    def span(self, tol: float = linalg.DEFAULT_TOL) -> np.ndarray:
        """(d, r) orthonormal columns spanning the states: the left singular vectors
        of the (d, n) matrix of the vectors whose singular values exceed ``tol``, so
        r is the rank.  The SVD is taken once per set, on first use."""
        if self._svd is None:
            self._svd = np.linalg.svd(self.vectors.T)[:2]
        u, s = self._svd
        return u[:, : int((s > tol).sum())]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n(self) -> int:
        return len(self.vectors)

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
    added_state: np.ndarray | None = None
    witness: np.ndarray | None = None
    notes: str = ""
