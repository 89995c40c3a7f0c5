"""Orthonormal-completion charts and the exact chart solve.

A chart assigns to each state an orthonormal completion of the space plus
coefficients in [0, 1].  Three identities make it a certificate: every
column (state plus its completions) resolves the identity, the coefficient-
weighted completions resolve the identity, and every outcome responds to
at least one state.  Charts and measurements convert into each other.

Finding one is the semidefinite feasibility problem X_j >= 0 with
sum_j V_j X_j V_j^dagger = I, V_j an isometry onto the complement of state
j.  ``solve_chart`` solves its primal, whose M_j = V_j X_j V_j^dagger is a
measurement, and its dual, whose Hermitian witness Y rules every
measurement out; each is re-checked, so solver error can only give neither.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import linalg
from .conditions import verify_antidistinguishing
from .errors import CountMismatch, InvalidChart, NotNormalized, NotPsd, ShapeMismatch
from .states import Povm, StateSet

#: L-BFGS-B iteration caps of the primal and the dual solve
PRIMAL_MAX_ITER = 1000
DUAL_MAX_ITER = 1000

#: the primal stops once ||sum_j M_j - I||_F is this small: well inside the
#: RESIDUAL_TOL that ``Povm`` then checks, so rounding cannot push it out
PRIMAL_TARGET = linalg.RESIDUAL_TOL / 100

#: eigenvalue margin delta the dual asks of every V_j^dagger Y V_j
DUAL_MARGIN = 1e-6


@dataclass
class Chart:
    """States, their orthonormal completions, and coefficients alpha.

    completions has shape (n, d-1, d): row [j, k] is completion vector k of
    state j; alphas has shape (n, d-1), entry [j, k] weighting completions[j, k].
    """

    states: StateSet
    completions: np.ndarray
    alphas: np.ndarray


def _check_shapes(chart: Chart) -> None:
    n, d = chart.states.n, chart.states.dim
    if np.shape(chart.completions) != (n, d - 1, d):
        raise ShapeMismatch(f"completions must have shape {(n, d - 1, d)}")
    if np.shape(chart.alphas) != (n, d - 1):
        raise ShapeMismatch(f"alphas must have shape {(n, d - 1)}")


def _effects(alphas: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Stack of M(j) = sum_k alpha_jk |phi_jk><phi_jk|."""
    return np.einsum("jk,jka,jkb->jab", alphas, phi, phi.conj())


def verify_chart(chart: Chart, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Check the three chart identities (columns, resolution, response)."""
    _check_shapes(chart)
    d = chart.states.dim
    alphas = np.asarray(chart.alphas, dtype=float)
    if alphas.min() < -tol or alphas.max() > 1.0 + tol:
        return False
    eye = np.eye(d)
    psi = chart.states.vectors
    phi = np.asarray(chart.completions, dtype=complex)
    columns = np.concatenate([psi[:, None, :], phi], axis=1)
    column_sums = np.einsum("jka,jkb->jab", columns, columns.conj())
    if (np.linalg.norm(column_sums - eye, axis=(1, 2)) > linalg.RESIDUAL_TOL).any():
        return False
    if linalg.frobenius(_effects(alphas, phi).sum(axis=0) - eye) > linalg.RESIDUAL_TOL:
        return False
    # response of outcome j: sum_k tr(P_k M(j)) = sum_l alpha_jl sum_k |<psi_k|phi_jl>|^2
    overlaps = np.abs(np.einsum("ka,jla->kjl", psi.conj(), phi)) ** 2
    return bool(np.einsum("jl,kjl->j", alphas, overlaps).min() > tol)


def povm_from_chart(chart: Chart, tol: float = linalg.DEFAULT_TOL) -> Povm:
    """Measurement with effects M(j) = sum_k alpha_jk P_jk."""
    if not verify_chart(chart, tol):
        raise InvalidChart("chart identities do not hold")
    alphas = np.asarray(chart.alphas, dtype=float)
    return Povm(_effects(alphas, np.asarray(chart.completions, dtype=complex)), tol)


def chart_from_povm(states: StateSet, m: Povm, tol: float = linalg.DEFAULT_TOL) -> Chart:
    """Chart recovered from an excluding measurement.

    An effect M_j that annihilates state j lives on its complement, so with
    V_j the isometries of the chart solve, M_j = V_j (V_j^dagger M_j V_j) V_j^dagger:
    one batched eigh of the compressions gives the completions V_j u as their
    eigenvectors and the coefficients as their eigenvalues, clipped to [0, 1].
    """
    if len(m.effects) != states.n:
        raise CountMismatch(f"{len(m.effects)} effects for {states.n} states")
    psi = states.vectors
    missed = np.abs(np.einsum("ja,jab,jb->j", psi.conj(), m.effects, psi).real) > tol
    if missed.any():
        j = int(np.argmax(missed))
        raise InvalidChart(f"effect {j} does not annihilate state {j}")
    v = linalg.complements(psi)
    lam, u = np.linalg.eigh(np.swapaxes(v.conj(), 1, 2) @ m.effects @ v)
    return Chart(states, np.swapaxes(v @ u, 1, 2), np.clip(lam, 0.0, 1.0))


@dataclass
class ChartSolution:
    """A verified measurement, a witness passing ``verify_witness``, or neither,
    with the primal ||sum_j M_j - I||_F and the dual's eps (None if it did not run)."""

    povm: Povm | None
    witness: np.ndarray | None
    residual: float
    eps: float | None = None


def _deficit(v: np.ndarray, y: np.ndarray) -> float:
    """eps = max(0, -min_j lambda_min(V_j^dagger Y V_j))."""
    low = np.linalg.eigvalsh(np.swapaxes(v.conj(), 1, 2) @ y @ v).min()
    return max(0.0, -float(low))


def verify_witness(states: StateSet, witness, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Check that a Hermitian Y rules out every excluding measurement.

    Any such measurement has M_j = V_j X_j V_j^dagger with X_j >= 0 and
    sum_j tr X_j = tr I = d, so tr Y = sum_j tr(X_j V_j^dagger Y V_j)
    >= -eps d.  Hence tr Y < -d eps - tol leaves no measurement.
    """
    d = states.dim
    y = np.asarray(witness, dtype=complex)
    if d < 2 or y.shape != (d, d) or not linalg.is_hermitian(y, tol):
        return False
    y = (y + linalg.adjoint(y)) / 2.0
    return bool(np.trace(y).real < -d * _deficit(linalg.complements(states.vectors), y) - tol)


def _primal(v: np.ndarray) -> np.ndarray:
    """Effect stack V_j B_j B_j^dagger V_j^dagger minimising ||sum_j M_j - I||_F^2
    (gradient 4 V_j^dagger (sum M - I) V_j B_j), from B_j = sqrt(d/(n(d-1))) I."""
    from scipy.optimize import minimize  # here, since loading it costs more than most commands

    n, d, k = v.shape
    vh = np.swapaxes(v.conj(), 1, 2)

    def objective(x):
        vb = v @ x.view(complex).reshape(n, k, k)
        r = np.einsum("jak,jbk->ab", vb, vb.conj()) - np.eye(d)
        return float(np.vdot(r, r).real), (4.0 * vh @ r @ vb).reshape(-1).view(float)

    def stop(intermediate_result):
        if intermediate_result.fun <= PRIMAL_TARGET**2:
            raise StopIteration

    start = np.tile(np.sqrt(d / (n * k)) * np.eye(k, dtype=complex), (n, 1, 1))
    res = minimize(objective, start.reshape(-1).view(float), jac=True, method="L-BFGS-B",
                   callback=stop, options={"maxiter": PRIMAL_MAX_ITER, "ftol": 0.0, "gtol": 0.0})
    vb = v @ res.x.view(complex).reshape(n, k, k)
    return np.einsum("jak,jbk->jab", vb, vb.conj())


def _dual(v: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Hermitian Y with tr Y = -1 minimising
    sum_j sum_i min(0, lambda_i(V_j^dagger Y V_j) - delta)^2."""
    from scipy.optimize import minimize  # here, since loading it costs more than most commands

    d = v.shape[1]
    eye = np.eye(d)
    vh = np.swapaxes(v.conj(), 1, 2)

    def hermitian(x):
        a = x.view(complex).reshape(d, d)
        h = (a + linalg.adjoint(a)) / 2.0
        return h - (np.trace(h).real + 1.0) / d * eye

    def objective(x):
        lam, u = np.linalg.eigh(vh @ hermitian(x) @ v)
        short = np.minimum(0.0, lam - DUAL_MARGIN)
        vu = v @ u
        g = np.einsum("jak,jk,jbk->ab", vu, 2.0 * short, vu.conj())
        return float((short**2).sum()), (g - np.trace(g).real / d * eye).reshape(-1).view(float)

    res = minimize(objective, np.asarray(start, dtype=complex).reshape(-1).view(float), jac=True,
                   method="L-BFGS-B", options={"maxiter": DUAL_MAX_ITER, "ftol": 0.0, "gtol": 0.0})
    return hermitian(res.x)


def solve_chart(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> ChartSolution:
    """Decide whether an excluding measurement exists, with evidence either way.

    The primal's measurement is returned only if ``verify_antidistinguishing``
    accepts it.  Otherwise the dual starts from the primal residual R (a
    dual solution when the primal optimum is infeasible, scaled to trace -1),
    and its Y is returned only if ``verify_witness`` accepts it.
    """
    if states.dim < 2:
        raise ShapeMismatch("charts need dimension >= 2")
    d = states.dim
    v = linalg.complements(states.vectors)
    effects = _primal(v)
    r = effects.sum(axis=0) - np.eye(d)
    residual = linalg.frobenius(r)
    with suppress(NotNormalized, NotPsd):
        povm = Povm(effects, tol)
        if verify_antidistinguishing(states, povm, tol):
            return ChartSolution(povm, None, residual)
    trace = float(np.trace(r).real)
    y = _dual(v, r / -trace if trace < 0 else -np.eye(d) / d)
    found = verify_witness(states, y, tol)
    return ChartSolution(None, y if found else None, residual, _deficit(v, y))
