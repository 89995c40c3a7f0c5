"""Orthonormal-completion charts and the chart-based excluding measurement.

A chart assigns to each state an orthonormal completion of the space plus
coefficients in [0, 1].  Three identities make it a certificate: every
column (state plus its completions) resolves the identity, the coefficient-
weighted completions resolve the identity, and every outcome responds to
at least one state.  Converting a chart to a measurement and a measurement
back to a chart are both supported; the search for a chart is a randomized
heuristic and a failed search is never evidence of a negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from . import linalg
from .errors import CountMismatch, InvalidChart, ShapeMismatch
from .states import Povm, PureState, StateSet

#: Frobenius tolerance for the two identity resolutions
IDENTITY_TOL = 1e-8

#: residual above which a sampled completion admits no coefficient solution
RESIDUAL_TOL = 1e-7

DEFAULT_BUDGET = 10000


@dataclass
class Chart:
    """States, their orthonormal completions, and coefficients alpha.

    completions[j] holds the d-1 pure states completing state j;
    alphas has shape (n, d-1), entry [j, k] weighting completions[j][k].
    """

    states: StateSet
    completions: tuple[tuple[PureState, ...], ...]
    alphas: np.ndarray


def _check_shapes(chart: Chart) -> None:
    n, d = chart.states.n, chart.states.dim
    if chart.alphas is None:
        raise ShapeMismatch("chart carries no coefficients")
    if len(chart.completions) != n:
        raise ShapeMismatch("one completion column per state required")
    for col in chart.completions:
        if len(col) != d - 1:
            raise ShapeMismatch("each column needs d - 1 completion states")
        if any(s.dim != d for s in col):
            raise ShapeMismatch("completion states live in the wrong dimension")
    alphas = np.asarray(chart.alphas, dtype=float)
    if alphas.shape != (n, d - 1):
        raise ShapeMismatch(f"alphas must have shape {(n, d - 1)}")


def _completion_vectors(chart: Chart) -> np.ndarray:
    """Completion vectors as an (n, d-1, d) stack: [j, k] is completion k of state j."""
    n, d = chart.states.n, chart.states.dim
    vecs = [s.vector for col in chart.completions for s in col]
    return np.array(vecs, dtype=complex).reshape(n, d - 1, d)


def _effects(alphas: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Stack of M(j) = sum_k alpha_jk |phi_jk><phi_jk|."""
    return np.einsum("jk,jka,jkb->jab", alphas, phi, phi.conj())


def verify_chart(chart: Chart, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Check the three chart identities (columns, resolution, response)."""
    _check_shapes(chart)
    chart.states.require_pure("chart verification")
    d = chart.states.dim
    alphas = np.asarray(chart.alphas, dtype=float)
    if alphas.min() < -tol or alphas.max() > 1.0 + tol:
        return False
    eye = np.eye(d)
    psi = np.array(chart.states.vectors())
    phi = _completion_vectors(chart)
    columns = np.concatenate([psi[:, None, :], phi], axis=1)
    column_sums = np.einsum("jka,jkb->jab", columns, columns.conj())
    if (np.linalg.norm(column_sums - eye, axis=(1, 2)) > IDENTITY_TOL).any():
        return False
    if linalg.frobenius(_effects(alphas, phi).sum(axis=0) - eye) > IDENTITY_TOL:
        return False
    # response of outcome j: sum_k tr(P_k M(j)) = sum_l alpha_jl sum_k |<psi_k|phi_jl>|^2
    overlaps = np.abs(np.einsum("ka,jla->kjl", psi.conj(), phi)) ** 2
    return bool(np.einsum("jl,kjl->j", alphas, overlaps).min() > tol)


def povm_from_chart(chart: Chart, tol: float = linalg.DEFAULT_TOL) -> Povm:
    """Measurement with effects M(j) = sum_k alpha_jk P_jk."""
    if not verify_chart(chart, tol):
        raise InvalidChart("chart identities do not hold")
    alphas = np.asarray(chart.alphas, dtype=float)
    return Povm(list(_effects(alphas, _completion_vectors(chart))), tol)


def chart_from_povm(states: StateSet, m: Povm, tol: float = linalg.DEFAULT_TOL) -> Chart:
    """Chart recovered from an excluding measurement.

    Each effect is spectrally decomposed; eigenvectors with positive weight
    become completion states with their eigenvalues as coefficients, and
    the column is padded with zero-coefficient directions orthogonal to
    both the state and the kept eigenvectors.
    """
    states.require_pure("chart recovery")
    if len(m.effects) != states.n:
        raise CountMismatch(f"{len(m.effects)} effects for {states.n} states")
    n, d = states.n, states.dim
    completions = []
    alphas = np.zeros((n, d - 1))
    for j, (state, effect) in enumerate(zip(states.states, m.effects)):
        if abs(np.vdot(state.vector, effect @ state.vector).real) > IDENTITY_TOL:
            raise InvalidChart(f"effect {j} does not annihilate state {j}")
        w, v = linalg.hermitian_eigen(effect, tol)
        kept = w > 1e-9
        lam, vecs = w[kept][::-1], v[:, kept][:, ::-1]
        if lam.size > d - 1:
            raise InvalidChart(f"could not complete a column for state {j}")
        basis = linalg.orthonormal_columns(np.column_stack([state.vector, vecs]), complete=True)
        alphas[j, : lam.size] = np.minimum(lam, 1.0)
        completions.append(tuple(PureState(u) for u in basis[:, 1:].T))
    return Chart(states, tuple(completions), alphas)


def _herm_vec(m: np.ndarray) -> np.ndarray:
    """Isometric real embedding of a Hermitian matrix (d^2 components)."""
    d = m.shape[0]
    iu, ju = np.triu_indices(d, 1)
    off = m[iu, ju]
    return np.concatenate(
        [np.diag(m).real, np.sqrt(2.0) * off.real, np.sqrt(2.0) * off.imag]
    )


def _random_completions(states: StateSet, rng: np.random.Generator, tol: float):
    d = states.dim
    cols = []
    for s in states.states:
        base = linalg.orthonormal_complement([s.vector], tol)
        mixed = np.column_stack(base) @ linalg.haar_unitary(d - 1, rng)
        cols.append(tuple(PureState(mixed[:, k]) for k in range(d - 1)))
    return tuple(cols)


def _solve_alphas(states: StateSet, completions, tol: float) -> Chart | None:
    """Nonnegative least squares for the resolution identity; None if the
    residual stays above threshold or the response condition fails."""
    n, d = states.n, states.dim
    columns = [
        _herm_vec(completions[j][k].projector) for j in range(n) for k in range(d - 1)
    ]
    a = np.column_stack(columns)
    b = _herm_vec(np.eye(d, dtype=complex))
    alpha, residual = nnls(a, b)
    if residual > RESIDUAL_TOL:
        return None
    if alpha.max() > 1.0 + tol:
        return None
    chart = Chart(states, completions, np.clip(alpha, 0.0, 1.0).reshape(n, d - 1))
    return chart if verify_chart(chart, tol) else None


def search_chart(
    states: StateSet,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    tol: float = linalg.DEFAULT_TOL,
    initial: Chart | None = None,
) -> Chart | None:
    """Randomized search for a verifying chart.

    Every trial samples a fresh orthonormal completion of each state
    (a Haar-random rotation of a fixed completion of its orthocomplement)
    and solves for nonnegative coefficients.  ``initial`` is tried first:
    verified directly if it carries coefficients, otherwise its completions
    seed a coefficient solve.  Trials are reproducible per (seed, index).

    Returns the first verifying chart, or None.  None is not a negative
    verdict: the search can miss charts of antidistinguishable sets.
    """
    states.require_pure("the chart search")
    if states.dim < 2:
        raise ShapeMismatch("charts need dimension >= 2")
    if initial is not None:
        if initial.states.n != states.n or initial.states.dim != states.dim or any(
            linalg.frobenius(a.projector - b.projector) > 1e-7
            for a, b in zip(initial.states.states, states.states)
        ):
            raise ShapeMismatch("seed chart describes a different state set")
        if initial.alphas is not None and verify_chart(initial, tol):
            return initial
        seeded = _solve_alphas(states, initial.completions, tol)
        if seeded is not None:
            return seeded
    for trial in range(budget):
        rng = np.random.default_rng((seed, trial))
        chart = _solve_alphas(states, _random_completions(states, rng, tol), tol)
        if chart is not None:
            return chart
    return None
