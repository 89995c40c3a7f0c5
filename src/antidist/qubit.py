"""Exact Bloch-sphere decision and one-state completion for pure qubit sets.

A pure qubit set is antidistinguishable exactly when some strictly positive
weights make the Bloch vectors sum to zero.  At desk scale the decision is
made by enumerating basic solutions of the four-equation system
(three zero-sum components plus the normalization sum t = 2) over all
supports of size at most four: a strictly positive solution exists iff
every coordinate is positive in at least one basic nonnegative solution,
and then the average of all of them is such a solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .errors import WrongDimension
from .states import Povm, PureState, StateSet, same_state

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: strict-positivity threshold defining "positive real numbers"
FEAS_EPS = 1e-9

_RESIDUAL_TOL = 1e-9


@dataclass
class QubitVerdict:
    """Feasibility verdict; weights sum to 2 when feasible."""

    feasible: bool
    weights: np.ndarray | None = None
    added_state: np.ndarray | None = None


def bloch_from_state(state: PureState) -> np.ndarray:
    """Bloch vector r with components tr(P sigma_k); unit length for pure states."""
    if state.dim != 2:
        raise WrongDimension("Bloch vectors exist for dimension 2 only")
    p = state.projector
    return np.array(
        [
            np.trace(p @ PAULI_X).real,
            np.trace(p @ PAULI_Y).real,
            np.trace(p @ PAULI_Z).real,
        ]
    )


def state_from_bloch(r) -> PureState:
    """Pure state with the given unit Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("a Bloch vector has three components")
    nrm = float(np.linalg.norm(r))
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError("a pure state needs a unit Bloch vector")
    x, y, z = r / nrm
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return PureState([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def bloch_vectors(states: StateSet) -> np.ndarray:
    """n x 3 array of Bloch vectors for a pure qubit set."""
    if states.dim != 2:
        raise WrongDimension("Bloch vectors exist for dimension 2 only")
    states.require_pure("the qubit decision")
    return np.array([bloch_from_state(s) for s in states.states])


def _basic_nonnegative_solutions(rvecs: np.ndarray) -> list[np.ndarray]:
    """Nonnegative solutions of [r_j; 1] t = (0, 0, 0, 2) with support <= 4."""
    n = rvecs.shape[0]
    a = np.vstack([rvecs.T, np.ones(n)])
    b = np.array([0.0, 0.0, 0.0, 2.0])
    found = []
    for size in range(1, min(n, 4) + 1):
        for support in combinations(range(n), size):
            cols = a[:, support]
            t, *_ = np.linalg.lstsq(cols, b, rcond=None)
            if np.linalg.norm(cols @ t - b) > _RESIDUAL_TOL:
                continue
            if t.min() < -1e-12:
                continue
            full = np.zeros(n)
            full[list(support)] = np.clip(t, 0.0, None)
            found.append(full)
    return found


def qubit_decide(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> QubitVerdict:
    """Decide whether strictly positive weights cancel the Bloch vectors.

    Feasible verdicts carry weights normalized to sum 2, so that
    {t_j (1 - P_j)} is an excluding measurement.
    """
    rvecs = bloch_vectors(states)
    solutions = _basic_nonnegative_solutions(rvecs)
    if not solutions:
        return QubitVerdict(False)
    stacked = np.array(solutions)
    if not (stacked > FEAS_EPS).any(axis=0).all():
        return QubitVerdict(False)
    weights = stacked.mean(axis=0)
    weights *= 2.0 / weights.sum()
    return QubitVerdict(True, weights=weights)


def exclusion_povm(states: StateSet, weights) -> Povm:
    """The measurement {t_j (1 - P_j)} certified by a feasible verdict."""
    if states.dim != 2:
        raise WrongDimension("the orthocomplement measurement is qubit-specific")
    weights = np.asarray(weights, dtype=float)
    eye = np.eye(2)
    return Povm([w * (eye - s.projector) for w, s in zip(weights, states.states)])


def qubit_complete(states: StateSet, tol: float = linalg.DEFAULT_TOL):
    """Make a pure qubit set antidistinguishable by adding at most one state.

    Returns (added, verdict).  If the set is already feasible, added is
    None and the verdict is the set's own.  Otherwise the summed Bloch
    vector r is nonzero and the state with Bloch vector -r/|r| completes
    the set; the returned verdict certifies the enlarged set with weights
    (1/|r|, ..., 1/|r|, 1) rescaled to sum 2.
    """
    verdict = qubit_decide(states, tol)
    if verdict.feasible:
        return None, verdict
    rvecs = bloch_vectors(states)
    total = rvecs.sum(axis=0)
    nrm = float(np.linalg.norm(total))
    if nrm <= FEAS_EPS:
        raise RuntimeError("zero Bloch sum contradicts the infeasible verdict")
    direction = -total / nrm
    added = state_from_bloch(direction)
    if any(same_state(added, s) for s in states.states):
        raise RuntimeError("completion coincides with a member; set should be feasible")
    weights = np.full(states.n + 1, 1.0 / nrm)
    weights[-1] = 1.0
    weights *= 2.0 / weights.sum()
    return added, QubitVerdict(True, weights=weights, added_state=direction)
