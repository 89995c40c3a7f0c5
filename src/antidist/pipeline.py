"""Certificate pipeline: cheap exact tests first, the chart solve last.

Order of attack for a pure state set:

1. pairwise orthogonality (yes via the outcome-swapped measurement),
2. the exact qubit decision when d = 2 (yes or no, from the margin s*, the
   gauge of the centred Bloch vectors' convex hull, which the notes give),
   and again after step 4 for a span of rank 2,
3. the pairwise-fidelity bound (no on violation),
4. Gram weights plus the sum-equals-projection test (yes with the
   measurement ``conditions.build_povm`` makes of the weights; every
   weighted yes, the qubit ones of step 2 included, uses it),
5. one Hermitian H with sum_j Pi_j H Pi_j = I, Pi_j = I - P_j, from one
   r^2 x r^2 linear solve on the span of rank r (``conditions.hermitian_povm``):
   yes when the effects Pi_j H Pi_j form a measurement that verifies; a
   singular system or a failed check passes the set on,
6. the chart solve: yes with its verified measurement, or no with a
   Hermitian witness that passes the witness inequality,
7. otherwise unknown, noting the best primal residual and the dual's eps.
"""

from __future__ import annotations

import numpy as np

from . import chart as chart_mod
from . import conditions, linalg, qubit
from .errors import SingularSystem
from .states import Certificate, Method, StateSet, Verdict


def decide(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> Certificate:
    """Run the full certificate pipeline on a pure state set."""
    n = states.n

    if n >= 2 and conditions.is_distinguishable(states, tol):
        povm = conditions.swap_povm(states, tol)
        return Certificate(
            Verdict.YES,
            Method.PAIRWISE_ORTHOGONAL,
            weights=np.ones(n),
            povm=povm,
            notes="pairwise orthogonal; outcomes of the identifying measurement rearranged",
        )

    if states.dim == 2:
        return _qubit_certificate(states, None, tol)

    bound = conditions.fidelity_bound_check(states, tol)
    if bound.violated:
        return Certificate(
            Verdict.NO,
            Method.FIDELITY_VIOLATION,
            notes=f"pairwise fidelity sum {bound.lhs:.12g} exceeds n(n-2) = {bound.rhs:.12g}",
        )

    try:
        weights = conditions.solve_weights(states)
    except SingularSystem:
        weights = None
    if weights is not None:
        result = conditions.check_sum_condition(states, weights, tol)
        if result.satisfied and result.rank_r >= 2:
            return Certificate(
                Verdict.YES,
                Method.SUM_PROJECTION,
                weights=result.weights,
                projector_r=result.projector_r,
                povm=conditions.build_povm(states, result.weights, result.projector_r, tol),
                notes="weighted projector sum equals the span projector",
            )

    span, _ = linalg.span_bases(states.vectors, tol)
    if span.shape[1] == 2:
        return _qubit_certificate(states, span, tol)

    povm = conditions.hermitian_povm(states, tol)
    if povm is not None:
        return Certificate(
            Verdict.YES,
            Method.ONE_HERMITIAN,
            povm=povm,
            notes="one Hermitian H solves sum_j Pi_j H Pi_j = I; its compressions verify",
        )

    solved = chart_mod.solve_chart(states, tol)
    if solved.povm is not None:
        return Certificate(
            Verdict.YES,
            Method.CHART,
            povm=solved.povm,
            notes="orthonormal-completion chart solved; its measurement verifies",
        )
    if solved.witness is not None:
        return Certificate(
            Verdict.NO,
            Method.CHART_WITNESS,
            witness=solved.witness,
            notes=f"witness Y: tr Y = -1 < -d*eps - tol with eps = {solved.eps:.3e}",
        )
    return Certificate(
        Verdict.UNKNOWN,
        notes=(
            f"chart solve inconclusive: best primal residual {solved.residual:.3e}, "
            f"dual eps {solved.eps:.3e}; absence is not a refutation"
        ),
    )


def _qubit_certificate(states: StateSet, span: np.ndarray | None, tol: float) -> Certificate:
    """The qubit margin's verdict on the states (``span`` None, d = 2) or on their unit
    coordinates in the orthonormal columns ``span`` of a rank-2 span.  A YES is the
    sum condition with R = I for d = 2 and R = span span^dagger for a span, where
    ``build_povm`` takes the unit coordinates mapped back into the span, so the
    effects sum to I exactly even when the rank dropped singular values up to ``tol``."""
    plane, r_proj = states, None
    if span is not None:
        coords = states.vectors @ span.conj()
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        plane, r_proj = StateSet(coords), span @ linalg.adjoint(span)
    verdict = qubit.qubit_decide(plane, tol)
    notes = f"strictly positive weights cancel the Bloch vectors; LP margin s* = {verdict.margin:.3g}"
    if not verdict.feasible:
        return Certificate(Verdict.NO, Method.QUBIT_BLOCH, notes="no " + notes)
    w, lifted = verdict.weights, states
    if span is not None:
        # span @ c for each row c: a stacked product rounds as the single one does
        lifted = StateSet((span @ coords[:, :, None])[:, :, 0])
    povm = conditions.build_povm(lifted, w, np.eye(2) if span is None else r_proj, tol)
    return Certificate(Verdict.YES, Method.QUBIT_BLOCH, weights=w, projector_r=r_proj,
                       povm=povm, notes=notes)
