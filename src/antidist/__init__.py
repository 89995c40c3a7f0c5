"""Antidistinguishability of pure quantum states: decision procedures,
certificates, explicit excluding measurements, and set constructions."""

__version__ = "0.1.0"

from .states import (  # noqa: F401
    Certificate,
    Method,
    Povm,
    StateSet,
    Verdict,
)
from .conditions import (  # noqa: F401
    FidelityBound,
    SumConditionResult,
    build_povm,
    check_sum_condition,
    fidelity_bound_check,
    gram_overlaps,
    hermitian_povm,
    is_distinguishable,
    solve_weights,
    swap_povm,
    two_n_construction,
    union_povm,
    verify_antidistinguishing,
)
from .qubit import (  # noqa: F401
    QubitVerdict,
    bloch_vectors,
    qubit_complete,
    qubit_decide,
    state_from_bloch,
)
from .group import (  # noqa: F401
    GroupRep,
    Orbit,
    builtin_quaternion,
    builtin_symmetric_permutation,
    orbit,
    schur_sum,
    standard_subspace_vectors,
    tetrahedral_state,
)
from .chart import (  # noqa: F401
    Chart,
    ChartSolution,
    chart_from_povm,
    povm_from_chart,
    solve_chart,
    verify_chart,
    verify_witness,
)
from .pipeline import decide  # noqa: F401
