"""Algebraic exclusion conditions and constructions.

Covers pairwise-orthogonality (distinguishability), verification of an
excluding measurement, the weighted sum-equals-projection certificate with
its explicit POVM, the pairwise-fidelity necessary bound, and the two set
constructions (disjoint union, doubling to at most 2n states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CountMismatch, DimensionOne, OverlappingSets, RankTooSmall, WrongDimension
from .states import DensityMatrix, Povm, PureState, StateSet, first_match


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
    mats = states.densities()
    comp = np.eye(states.dim) - linalg.span_projector(states.vectors(), tol)
    effects = [mats[(j + 1) % states.n] + comp / states.n for j in range(states.n)]
    return Povm(effects, tol)


def verify_antidistinguishing(states: StateSet, m: Povm, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Check both defining conditions of an excluding measurement:
    tr(rho_j M(j)) = 0 and sum_k tr(rho_k M(j)) > 0 for every outcome j."""
    if len(m.effects) != states.n:
        raise CountMismatch(f"{len(m.effects)} effects for {states.n} states")
    if m.dim != states.dim:
        raise WrongDimension("POVM and states live in different dimensions")
    # probs[k, j] = tr(rho_k M(j))
    probs = np.einsum("kab,jba->kj", np.stack(states.densities()), np.stack(m.effects)).real
    return bool((np.abs(np.diagonal(probs)) <= tol).all() and (probs.sum(axis=0) > tol).all())


def gram_overlaps(states: StateSet) -> np.ndarray:
    """Symmetric matrix of pairwise overlaps p_jk = tr(P_j P_k) = |<psi_j|psi_k>|^2."""
    states.require_pure("the Gram overlap matrix")
    v = np.array(states.vectors())
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
    states.require_pure("the sum condition")
    r_proj = linalg.span_projector(states.vectors(), tol)
    rank = int(round(np.trace(r_proj).real))
    total = sum(w * p for w, p in zip(weights, states.densities()))
    satisfied = bool(weights.min() > tol) and linalg.frobenius(total - r_proj) <= linalg.RESIDUAL_TOL
    return SumConditionResult(weights, r_proj, rank, satisfied)


def build_povm(states: StateSet, result: SumConditionResult, tol: float = linalg.DEFAULT_TOL) -> Povm:
    """Explicit excluding measurement from a satisfied sum condition:
    M(j) = t_j/(r-1) (R - P_j) + R_perp / n."""
    if not result.satisfied:
        raise ValueError("sum condition not satisfied; no measurement to build")
    if result.rank_r < 2:
        raise RankTooSmall("span projector has rank < 2")
    r_proj = result.projector_r
    comp = np.eye(states.dim) - r_proj
    denom = result.rank_r - 1
    effects = [
        (w / denom) * (r_proj - p) + comp / states.n
        for w, p in zip(result.weights, states.densities())
    ]
    return Povm(effects, tol)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = linalg.hermitian_eigen(m, linalg.RESIDUAL_TOL)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared-overlap fidelity; reduces to tr(P Q) for pure states."""
    root = _psd_sqrt(np.asarray(rho, complex))
    inner = root @ np.asarray(sigma, complex) @ root
    w, _ = linalg.hermitian_eigen((inner + linalg.adjoint(inner)) / 2, linalg.RESIDUAL_TOL)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)


def fidelity_bound_check(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> FidelityBound:
    """Necessary bound for exclusion: sum over ordered pairs j != k of
    F(rho_j, rho_k) must not exceed n(n-2).

    A violation certifies that the set is not antidistinguishable.  For
    n = 1 the bound reads 0 <= -1 and correctly refutes a single state.
    """
    n = states.n
    if states.all_pure():
        lhs = 2.0 * float(np.triu(gram_overlaps(states), 1).sum())
    else:
        # pure pairs keep the exact overlap: fidelity() of two projectors is
        # only good to about RESIDUAL_TOL
        m = states.states
        lhs = 2.0 * sum(
            m[i].overlap(m[j])
            if isinstance(m[i], PureState) and isinstance(m[j], PureState)
            else fidelity(m[i].density(), m[j].density())
            for i in range(n)
            for j in range(i + 1, n)
        )
    rhs = float(n * (n - 2))
    return FidelityBound(lhs, rhs, bool(lhs > rhs + tol))


def union_povm(
    a: StateSet, ma: Povm, b: StateSet, mb: Povm, tol: float = linalg.DEFAULT_TOL
) -> tuple[StateSet, Povm]:
    """Join two disjoint excludable sets: concatenate the states and halve
    both measurements."""
    if a.dim != b.dim:
        raise WrongDimension("sets to unite must share a dimension")
    if (first_match(np.stack(a.densities()), np.stack(b.densities())) >= 0).any():
        raise OverlappingSets("the two sets share a state")
    if not verify_antidistinguishing(a, ma, tol) or not verify_antidistinguishing(b, mb, tol):
        raise ValueError("both input measurements must exclude their sets")
    joined = StateSet(a.states + b.states)
    effects = [e / 2.0 for e in ma.effects] + [e / 2.0 for e in mb.effects]
    return joined, Povm(effects, tol)


def two_n_construction(
    states: StateSet, balanced: bool = True, tol: float = linalg.DEFAULT_TOL
) -> tuple[StateSet, Povm]:
    """Embed n pure states into an excludable set of at most 2n states.

    Each state P is paired with the complement state (1 - P)/(d-1); the
    pair is excluded by {1 - P, P}.  Pairs are joined either with uniform
    1/n effect scaling (default, well conditioned) or with the chained
    halving scales 2^-(n-1), 2^-(n-1), 2^-(n-2), ..., 1/2.  States that
    coincide across pairs are merged and their effects summed.
    """
    d = states.dim
    if d < 2:
        raise DimensionOne("the doubling construction needs dimension >= 2")
    states.require_pure("the doubling construction")
    n = states.n
    if balanced:
        scales = [1.0 / n] * n
    else:
        scales = [2.0 ** -(n - 1)] + [2.0 ** -(n - i) for i in range(1, n)]
    eye = np.eye(d)
    members, effects = [], []
    for scale, p in zip(scales, states.states):
        members += [p, DensityMatrix((eye - p.projector) / (d - 1), tol)]
        effects += [scale * (eye - p.projector), scale * p.projector]
    ops = np.stack([m.density() for m in members])
    first = first_match(ops, ops)
    summed = np.zeros_like(ops)
    np.add.at(summed, first, effects)
    keep = np.flatnonzero(first == np.arange(len(members)))
    return StateSet([members[k] for k in keep]), Povm(summed[keep], tol)
