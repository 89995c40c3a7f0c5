"""Certificate pipeline: cheap exact tests first, the chart solve last.

Order of attack for a pure state set:

1. pairwise orthogonality (yes via the outcome-swapped measurement),
2. the exact qubit decision when d = 2 (yes or no, from one LP whose
   margin the notes give),
3. the pairwise-fidelity bound (no on violation),
4. Gram weights plus the sum-equals-projection test (yes with the
   explicit measurement),
5. the chart solve: yes with its verified measurement, or no with a
   Hermitian witness that passes the witness inequality,
6. otherwise unknown, noting the best primal residual and the dual's eps.
"""

from __future__ import annotations

import numpy as np

from . import chart as chart_mod
from . import conditions, linalg, qubit
from .errors import SingularSystem
from .states import Certificate, Method, StateSet, Verdict


def decide(states: StateSet, tol: float = linalg.DEFAULT_TOL) -> Certificate:
    """Run the full certificate pipeline on a pure state set."""
    states.require_pure("the decision pipeline")
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
        verdict = qubit.qubit_decide(states, tol)
        margin = f"LP margin s* = {verdict.margin:.3g}"
        if verdict.feasible:
            return Certificate(
                Verdict.YES,
                Method.QUBIT_BLOCH,
                weights=verdict.weights,
                bloch_weights=verdict.weights,
                povm=verdict.povm,
                notes=f"strictly positive weights cancel the Bloch vectors; {margin}",
            )
        return Certificate(
            Verdict.NO,
            Method.QUBIT_BLOCH,
            notes=f"no strictly positive weights cancel the Bloch vectors; {margin}",
        )

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
                povm=conditions.build_povm(states, result, tol),
                notes="weighted projector sum equals the span projector",
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
