"""Algebraic exclusion conditions and constructions on pure state sets.

Covers pairwise-orthogonality (distinguishability), verification of an
excluding measurement, the weighted sum-equals-projection certificate and
the one measurement its weights determine (every weighted YES verdict, from
the qubit Bloch test, a rank-2 span, a group orbit or a completion, is an
instance of it), the one-Hermitian measurement with free effect shapes and
no weights, the pairwise-fidelity necessary bound (for pure states the
fidelity is the overlap tr(P_j P_k)), and the two set constructions (disjoint
union, and adding at most n pure states to make n states excludable).  Every
function works on the arrays of a ``StateSet`` and the effect stack of a
``Povm``; the span projector R, its rank and the one-Hermitian solve's basis
all come from the one basis ``StateSet.span``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CountMismatch, DimensionOne, OverlappingSets, RankTooSmall, WrongDimension
from .states import Povm, StateSet, first_match, projectors_of


@dataclass
class SumConditionResult:
    """Outcome of testing whether sum_j t_j P_j is the span projector R."""

    weights: np.ndarray
    projector_r: np.ndarray
    rank_r: int
    satisfied: bool


@dataclass
class FidelityBound:
    """lhs = sum of pairwise fidelities over ordered pairs, rhs = n(n-2)."""

    lhs: float
    rhs: float
    violated: bool


def is_distinguishable(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> bool:
    """True iff the pure states are pairwise orthogonal."""
    return bool(np.triu(gram_overlaps(states), 1).max() <= tol)


def swap_povm(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> Povm:
    """Excluding measurement for a pairwise-orthogonal set: outcome j looks
    for state j+1, with the span complement spread uniformly."""
    if states.n < 2:
        raise CountMismatch("outcome swapping needs at least two states")
    if not is_distinguishable(states, tol):
        raise ValueError("swap_povm needs pairwise orthogonal states")
    span = states.span(tol)
    comp = np.eye(states.dim) - span @ linalg.adjoint(span)
    return Povm(np.roll(states.projectors, -1, axis=0) + comp / states.n, tol)


def verify_antidistinguishing(states: StateSet, m: Povm, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Check both defining conditions of an excluding measurement:
    tr(rho_j M(j)) = 0 and sum_k tr(rho_k M(j)) > 0 for every outcome j."""
    if len(m.effects) != states.n:
        raise CountMismatch(f"{len(m.effects)} effects for {states.n} states")
    if m.dim != states.dim:
        raise WrongDimension("POVM and states live in different dimensions")
    # probs[k, j] = tr(rho_k M(j))
    probs = np.einsum("kab,jba->kj", states.projectors, m.effects).real
    return bool((np.abs(np.diagonal(probs)) <= tol).all() and (probs.sum(axis=0) > tol).all())


def gram_overlaps(states: StateSet) -> np.ndarray:
    """Symmetric matrix of pairwise overlaps p_jk = tr(P_j P_k) = |<psi_j|psi_k>|^2."""
    v = states.vectors
    return np.abs(v.conj() @ v.T) ** 2


def solve_weights(states: StateSet) -> np.ndarray:
    """Candidate weights from the Gram system sum_k p_jk t_k = 1.

    The solution may contain non-positive entries; callers must test it
    with check_sum_condition.  Raises SingularSystem for degenerate sets.
    """
    p = gram_overlaps(states)
    return linalg.solve_linear(p, np.ones(states.n))


def check_sum_condition(
    states: StateSet, weights, tol: float = linalg.DEFAULT_TOL
) -> SumConditionResult:
    """Test whether sum_j t_j P_j equals the projector onto the span."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (states.n,):
        raise CountMismatch("one weight per state required")
    span = states.span(tol)
    r_proj = span @ linalg.adjoint(span)
    total = (weights[:, None, None] * states.projectors).sum(axis=0)
    satisfied = bool(weights.min() > tol) and linalg.frobenius(total - r_proj) <= linalg.RESIDUAL_TOL
    return SumConditionResult(weights, r_proj, span.shape[1], satisfied)


def build_povm(states: StateSet, weights, r_proj: np.ndarray, tol: float = linalg.DEFAULT_TOL) -> Povm:
    """The paper's measurement M(j) = t_j/(r-1) (R - P_j) + R_perp / n, with r = tr R.

    Weights that miss sum_j t_j P_j = R fail the ``Povm`` checks (NotPsd or
    NotNormalized), so the result always is a measurement.
    """
    rank = int(round(np.trace(r_proj).real))
    if rank < 2:
        raise RankTooSmall("span projector has rank < 2")
    scales = (np.asarray(weights, dtype=float) / (rank - 1))[:, None, None]
    comp = np.eye(states.dim) - r_proj
    return Povm(scales * (r_proj - states.projectors) + comp / states.n, tol)


def hermitian_povm(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> Povm | None:
    """The measurement M_j = Pi_j H Pi_j, with Pi_j = I - P_j, of the one Hermitian H
    that solves sum_j Pi_j H Pi_j = I, or None.

    Each M_j annihilates its own state by construction; the shapes are free and
    there are no weights, unlike ``build_povm``.  Off the span R of the states
    every Pi_j is the identity, so H is (I - R)/n there and 0 between R and its
    complement.  On R, with the states' coordinates c_j in an orthonormal basis
    V of R, Q_j = c_j c_j^dagger and S = sum_j Q_j, row-major vec turns the map
    into the r^2 x r^2 matrix L = n I - S kron I - I kron S^T + sum_j vec(Q_j) vec(Q_j)^dagger,
    whose last term is one product of the (n, r^2) stack of flattened Q_j, and
    whose other terms are diagonal, since V, ``states.span``, is the left singular basis.
    Solving on R, not in d^2 unknowns, keeps a few states in a large space cheap.

    None when L is singular, or when the effects fail the ``Povm`` checks or
    ``verify_antidistinguishing``: the same acceptance as the chart solve's primal.
    """
    n, d = states.n, states.dim
    span = states.span(tol)
    r = span.shape[1]
    flat = projectors_of(states.vectors @ span.conj()).reshape(n, r * r)
    # the span basis holds left singular vectors, so S is diagonal there, and so are
    # n I - S kron I - I kron S^T, with entry n - s_a - s_b at ((a, b), (a, b))
    s = flat.sum(axis=0).reshape(r, r).diagonal().real
    lmap = flat.T @ flat.conj()
    lmap[np.diag_indices(r * r)] += (n - s[:, None] - s[None, :]).reshape(-1)
    try:
        h = np.linalg.solve(lmap, np.eye(r).reshape(-1)).reshape(r, r)
    except np.linalg.LinAlgError:
        return None
    h = span @ h @ linalg.adjoint(span) + (np.eye(d) - span @ linalg.adjoint(span)) / n
    comp = np.eye(d) - states.projectors
    effects = comp @ h @ comp
    try:
        # the Hermitian parts, Pi_j ((H + H^dagger)/2) Pi_j: exactly symmetric, with real
        # diagonals that the certificate writes as 0
        povm = Povm((effects + np.conj(np.swapaxes(effects, 1, 2))) / 2.0, tol)
    except ValueError:  # NotPsd, NotNormalized, or non-finite entries of a near-singular solve
        return None
    return povm if verify_antidistinguishing(states, povm, tol) else None


def fidelity_bound_check(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> FidelityBound:
    """Necessary bound for exclusion: sum over ordered pairs j != k of the
    fidelity tr(P_j P_k) = |<psi_j|psi_k>|^2 must not exceed n(n-2).

    A violation certifies that the set is not antidistinguishable.  For
    n = 1 the bound reads 0 <= -1 and correctly refutes a single state.
    """
    n = states.n
    lhs = 2.0 * float(np.triu(gram_overlaps(states), 1).sum())
    rhs = float(n * (n - 2))
    return FidelityBound(lhs, rhs, bool(lhs > rhs + tol))


def union_povm(
    a: StateSet, ma: Povm, b: StateSet, mb: Povm, tol: float = linalg.DEFAULT_TOL
) -> tuple[StateSet, Povm]:
    """Join two disjoint excludable sets: concatenate the states and halve
    both measurements."""
    if a.dim != b.dim:
        raise WrongDimension("sets to unite must share a dimension")
    if (first_match(a.projectors, b.projectors) >= 0).any():
        raise OverlappingSets("the two sets share a state")
    if not verify_antidistinguishing(a, ma, tol) or not verify_antidistinguishing(b, mb, tol):
        raise ValueError("both input measurements must exclude their sets")
    joined = StateSet.join(a, b)
    return joined, Povm(np.concatenate([ma.effects, mb.effects]) / 2.0, tol)


def two_n_construction(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> tuple[StateSet, Povm]:
    """Make n pure states excludable by adding at most n pure states.

    Each state psi_j is paired with phi_j, the first column of the SVD
    complement of psi_j, which is orthogonal to it; the pair is excluded by
    {1 - P_j, P_j}.  For d = 2 phi_j is the unique orthogonal state.  Pairs
    are joined with uniform 1/n effect scaling.  States that coincide across
    pairs are merged and their effects summed.
    """
    d, n = states.dim, states.n
    if d < 2:
        raise DimensionOne("the doubling construction needs dimension >= 2")
    phi = linalg.complements(states.vectors)[:, :, 0]
    # rows psi_0, phi_0, psi_1, phi_1, ...
    members = np.stack([states.vectors, phi], axis=1).reshape(2 * n, d)
    p, s = states.projectors, 1.0 / n
    effects = np.stack([s * (np.eye(d) - p), s * p], axis=1).reshape(2 * n, d, d)
    ops = projectors_of(members)
    first = first_match(ops, ops)
    summed = np.zeros_like(ops)
    np.add.at(summed, first, effects)
    keep = np.flatnonzero(first == np.arange(2 * n))
    return StateSet(members[keep]), Povm(summed[keep], tol)
