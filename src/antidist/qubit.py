"""Exact Bloch-sphere decision and one-state completion for pure qubit sets.

A pure qubit set is antidistinguishable exactly when some strictly positive
weights make the Bloch vectors sum to zero, i.e. when the origin lies in the
relative interior of their convex hull.  One linear program decides it:

    maximize s  subject to  sum_j t_j r_j = 0,  sum_j t_j = 1,  t_j >= s,

with t and s free.  The set is antidistinguishable iff the margin s* is
positive; s* is -inf when no weights summing to one cancel the vectors (the
origin lies outside their affine hull).  The solver meets the equalities only
to its own tolerance, so the optimal t is projected back onto them by one
least-squares step before it is rescaled to sum 2 and used as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import WrongDimension
from .states import PureState, StateSet, first_match

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


@dataclass
class QubitVerdict:
    """Feasibility verdict; weights sum to 2 when feasible, and ``margin`` is the
    LP optimum s* that ``qubit_decide`` sets."""

    feasible: bool
    weights: np.ndarray | None = None
    added_state: np.ndarray | None = None
    margin: float | None = None


def _bloch(vectors: np.ndarray) -> np.ndarray:
    """Rows v_j^dagger sigma_k v_j for an (n, 2) stack of unit vectors."""
    return np.einsum("ni,kij,nj->nk", vectors.conj(), _PAULI, vectors).real


def bloch_from_state(state: PureState) -> np.ndarray:
    """Bloch vector r with components tr(P sigma_k); unit length for pure states."""
    if state.dim != 2:
        raise WrongDimension("Bloch vectors exist for dimension 2 only")
    return _bloch(state.vector[np.newaxis])[0]


def state_from_bloch(r) -> PureState:
    """Pure state with the given unit Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("a Bloch vector has three components")
    nrm = float(np.linalg.norm(r))
    if abs(nrm - 1.0) > linalg.NORM_SLACK:
        raise ValueError("a pure state needs a unit Bloch vector")
    x, y, z = r / nrm
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return PureState([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def bloch_vectors(states: StateSet) -> np.ndarray:
    """n x 3 array of Bloch vectors for a pure qubit set."""
    if states.dim != 2:
        raise WrongDimension("Bloch vectors exist for dimension 2 only")
    return _bloch(states.vectors)


def _max_min_weights(rvecs: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The LP margin s* and its weights t, polished and rescaled to sum 2.

    Returns (-inf, None) when the LP is infeasible.
    """
    from scipy.optimize import linprog  # here, since loading it costs more than most commands

    n = rvecs.shape[0]
    a_eq = np.vstack([rvecs.T, np.ones(n)])
    b_eq = np.array([0.0, 0.0, 0.0, 1.0])
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=np.hstack([-np.eye(n), np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([a_eq, np.zeros((4, 1))]),
        b_eq=b_eq,
        bounds=(None, None),
        method="highs",
    )
    if res.status == 2:
        return -np.inf, None
    if res.status != 0:
        raise RuntimeError(f"qubit LP failed: {res.message}")
    t = res.x[:n]
    t = t - np.linalg.lstsq(a_eq, a_eq @ t - b_eq, rcond=None)[0]
    return float(res.x[-1]), 2.0 * t / t.sum()


def qubit_decide(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> QubitVerdict:
    """Decide whether strictly positive weights cancel the Bloch vectors.

    Feasible verdicts carry weights normalized to sum 2: then sum_j t_j P_j = I,
    the sum condition with R = I, and ``conditions.build_povm(states, t, I)``
    is the excluding measurement {t_j (1 - P_j)}.
    """
    margin, weights = _max_min_weights(bloch_vectors(states))
    if margin <= tol or weights.min() <= tol:
        return QubitVerdict(False, margin=margin)
    return QubitVerdict(True, weights=weights, margin=margin)


def qubit_complete(states: StateSet, tol: float = linalg.DEFAULT_TOL):
    """Make a pure qubit set antidistinguishable by adding at most one state.

    Returns (added, verdict).  If the set is already feasible, added is
    None and the verdict is the set's own.  Otherwise the summed Bloch
    vector r is nonzero and the state with Bloch vector -r/|r| completes
    the set; the returned verdict certifies the enlarged set with weights
    (1/|r|, ..., 1/|r|, 1) rescaled to sum 2.  ValueError when the tolerance
    is at or above s* of a set whose Bloch vectors positive weights cancel.
    """
    verdict = qubit_decide(states, tol)
    if verdict.feasible:
        return None, verdict
    total = bloch_vectors(states).sum(axis=0)
    nrm = float(np.linalg.norm(total))
    added = state_from_bloch(-total / nrm) if nrm > tol else None
    if added is None or first_match(states.projectors, added.projector[None])[0] >= 0:
        # a zero Bloch sum, or a completion that is a member, means positive weights cancel
        raise ValueError(
            f"no completion at tolerance {tol:g}: the LP margin s* = {verdict.margin:.3g} "
            "does not exceed it, yet positive weights cancel the Bloch vectors; lower the tolerance"
        )
    weights = np.full(states.n + 1, 1.0 / nrm)
    weights[-1] = 1.0
    weights *= 2.0 / weights.sum()
    return added, QubitVerdict(True, weights=weights, added_state=-total / nrm)
