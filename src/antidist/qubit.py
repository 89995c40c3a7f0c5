"""Exact Bloch-sphere decision and one-state completion for pure qubit sets.

A pure qubit set is antidistinguishable exactly when some strictly positive
weights make the Bloch vectors sum to zero, i.e. when the origin lies in the
relative interior of their convex hull.  The margin

    s* = max s  subject to  sum_j t_j r_j = 0,  sum_j t_j = 1,  t_j >= s

decides it: the set is antidistinguishable iff s* is positive.  The linear
program has a closed form.  With m the mean of the r_j, c_j = r_j - m and
t_j = s + u_j, it reads min sum_j u_j subject to sum_j u_j c_j = -m, u >= 0,
and s* = (1 - min sum_j u_j) / n.  The c_j sum to zero, so their cone is their
span and the minimum is the gauge of -m with respect to conv{c_j}: the largest
ratio normal.(-m) / offset over the facets of that hull.  One SVD gives the
span and one qhull call the facets.  s* is -inf when the origin lies so far
from the affine hull of the r_j that no weights meet sum_j t_j P_j = I within
``linalg.RESIDUAL_TOL``, the threshold of every operator identity.  The
optimal t is projected onto the equalities by one least-squares step before
it is rescaled to sum 2 and used as a certificate.  A single state, such as
the one ``state_from_bloch`` makes and ``qubit_complete`` adds, is a one-row
``StateSet``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import WrongDimension
from .states import StateSet, first_match

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


@dataclass
class QubitVerdict:
    """Feasibility verdict; weights sum to 2 when feasible, and ``margin`` is the
    margin s* that ``qubit_decide`` sets."""

    feasible: bool
    weights: np.ndarray | None = None
    margin: float | None = None


def _bloch(vectors: np.ndarray) -> np.ndarray:
    """Rows v_j^dagger sigma_k v_j for an (n, 2) stack of unit vectors."""
    return np.einsum("ni,kij,nj->nk", vectors.conj(), _PAULI, vectors).real


def state_from_bloch(r) -> StateSet:
    """The one-row set of the pure state with the given unit Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("a Bloch vector has three components")
    nrm = float(np.linalg.norm(r))
    if abs(nrm - 1.0) > linalg.NORM_SLACK:
        raise ValueError("a pure state needs a unit Bloch vector")
    x, y, z = r / nrm
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return StateSet([[np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]])


def bloch_vectors(states: StateSet) -> np.ndarray:
    """n x 3 array of Bloch vectors r_j, with components tr(P_j sigma_k), for a
    pure qubit set; ``bloch_vectors(s)[0]`` is the one of a single state."""
    if states.dim != 2:
        raise WrongDimension("Bloch vectors exist for dimension 2 only")
    return _bloch(states.vectors)


def _max_min_weights(rvecs: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The margin s* and its weights t, polished and rescaled to sum 2.

    Returns (-inf, None) when -m lies so far from the span of the centred
    vectors that no weights meet sum_j t_j P_j = I within ``RESIDUAL_TOL``: a
    distance delta leaves sum_j t_j P_j - I = v.sigma with |v| = delta, whose
    Frobenius norm is sqrt(2) delta.

    The span coordinates are the left singular vectors of c: a linear image of
    conv{c_j}, so the gauge is kept, and a point cloud of unit spread in every
    direction however thin the set, so qhull meets no flat simplex.  A singular
    value counts toward the span when it exceeds ``PIVOT_FLOOR`` times the
    largest, not ``tol``: a set tilted out of a plane by less than ``tol`` is
    decided on its own thin hull, whose weights meet the equalities, not on the
    plane's, whose weights the polish would move by O(1).
    """
    n = rvecs.shape[0]
    mean = rvecs.mean(axis=0)
    u, sing, vt = np.linalg.svd(rvecs - mean, full_matrices=False)
    rank = int((sing > linalg.PIVOT_FLOOR * sing[0]).sum())
    pts, along = u[:, :rank], vt[:rank] @ mean
    if np.sqrt(2.0) * np.linalg.norm(mean - vt[:rank].T @ along) > linalg.RESIDUAL_TOL:
        return -np.inf, None
    w = -along / sing[:rank]  # -m in the coordinates of pts
    lam = np.zeros(n)
    # rank <= 1 only for n <= 2 (a line meets the sphere twice), where m is
    # orthogonal to r_1 - r_2: then w = 0 and so is every lam_j
    if rank > 1:
        from scipy.spatial import ConvexHull  # here, since loading it costs more than most commands

        hull = ConvexHull(pts)  # qhull's Qt is always on: every facet is a simplex
        ratios = hull.equations[:, :-1] @ w / -hull.equations[:, -1]
        f = int(np.argmax(ratios))  # the facet that the ray to w crosses, at w / ratios[f]
        facet = hull.simplices[f]
        lam[facet] = np.linalg.lstsq(np.vstack([pts[facet].T, np.ones(rank)]),
                                     np.append(w, ratios[f]), rcond=None)[0]
    margin = (1.0 - lam.sum()) / n
    t = margin + lam
    a_eq = np.vstack([rvecs.T, np.ones(n)])
    t = t - np.linalg.lstsq(a_eq, a_eq @ t - np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)[0]
    return margin, 2.0 * t / t.sum()


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

    Returns (added, verdict), with added a one-row set.  If the set is
    already feasible, added is None and the verdict is the set's own.
    Otherwise the summed Bloch vector r is nonzero and the state with Bloch
    vector -r/|r| completes the set; the returned verdict certifies the
    enlarged set with weights (1/|r|, ..., 1/|r|, 1) rescaled to sum 2.
    ValueError when the tolerance is at or above s* of a set whose Bloch
    vectors positive weights cancel.
    """
    verdict = qubit_decide(states, tol)
    if verdict.feasible:
        return None, verdict
    total = bloch_vectors(states).sum(axis=0)
    nrm = float(np.linalg.norm(total))
    added = state_from_bloch(-total / nrm) if nrm > tol else None
    if added is None or first_match(states.projectors, added.projectors)[0] >= 0:
        # a zero Bloch sum, or a completion that is a member, means positive weights cancel
        raise ValueError(
            f"no completion at tolerance {tol:g}: the LP margin s* = {verdict.margin:.3g} "
            "does not exceed it, yet positive weights cancel the Bloch vectors; lower the tolerance"
        )
    weights = np.full(states.n + 1, 1.0 / nrm)
    weights[-1] = 1.0
    weights *= 2.0 / weights.sum()
    return added, QubitVerdict(True, weights=weights)
