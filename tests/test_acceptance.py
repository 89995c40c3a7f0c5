"""Acceptance suite: one test per criterion, one PASS line each.

Criterion 8 audits every state set that earlier criteria certified as
antidistinguishable, so the tests share a module-level registry and must
run in definition order (pytest's default).
"""

import time

import numpy as np

from antidist import (
    Chart,
    PureState,
    StateSet,
    bloch_vectors,
    build_povm,
    chart_from_povm,
    check_sum_condition,
    decide,
    fidelity_bound_check,
    orbit,
    povm_from_chart,
    qubit_complete,
    qubit_decide,
    schur_sum,
    solve_weights,
    swap_povm,
    tetrahedral_state,
    two_n_construction,
    union_povm,
    verify_antidistinguishing,
    verify_chart,
)
from antidist import linalg
from antidist.states import Method, Verdict

import helpers

#: state sets certified antidistinguishable by criteria 1-7 (audited by criterion 8)
CERTIFIED: list[StateSet] = []


def test_criterion_1_weighted_sum_reproduction():
    start = time.perf_counter()
    triple = helpers.sum_condition_triple()

    weights = solve_weights(triple)
    assert np.abs(weights - helpers.SUM_TRIPLE_WEIGHTS).max() <= 1e-10

    r_proj = linalg.span_projector(triple.vectors)
    assert np.abs(r_proj - np.diag([1.0, 1.0, 0.0])).max() <= 1e-10

    result = check_sum_condition(triple, weights)
    assert result.satisfied
    m = build_povm(triple, result.weights, result.projector_r)
    for effect, frozen in zip(m.effects, helpers.SUM_TRIPLE_POVM):
        assert np.abs(effect - frozen).max() <= 1e-10

    assert verify_antidistinguishing(triple, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    CERTIFIED.append(triple)
    print(f"\ncriterion 1: PASS (weights, projector, measurement reproduced; {elapsed:.3f}s)")


def test_criterion_2_sum_condition_not_necessary():
    start = time.perf_counter()
    triple = helpers.chart_triple()

    weights = solve_weights(triple)
    summed = sum(w * p for w, p in zip(weights, triple.projectors))
    assert not linalg.is_projection(summed)
    assert not check_sum_condition(triple, weights).satisfied

    chart = Chart(triple, helpers.chart_triple_completions(), helpers.CHART_TRIPLE_ALPHAS)
    assert verify_chart(chart)
    m = povm_from_chart(chart)
    assert verify_antidistinguishing(triple, m)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    CERTIFIED.append(triple)
    print(f"criterion 2: PASS (candidate weights fail, chart certifies; {elapsed:.3f}s)")


def test_criterion_3_quaternion_orbit():
    orb = orbit(helpers.cached_quaternion(), tetrahedral_state())
    assert orb.members.n == 4
    assert orb.stabilizer_order == 2

    total = orb.members.projectors.sum(axis=0)
    assert np.abs(total - 2 * np.eye(2)).max() <= 1e-10

    c, r_proj = schur_sum(orb)
    m = build_povm(orb.members, np.full(orb.members.n, 1 / c), r_proj)
    sset = orb.members
    assert verify_antidistinguishing(sset, m)

    verdict = qubit_decide(sset)
    assert verdict.feasible
    assert np.abs(verdict.weights - 0.5).max() <= 1e-10
    CERTIFIED.append(sset)
    print("criterion 3: PASS (4-element qubit orbit, sum 2*id, uniform weights 1/2)")


def test_criterion_4_symmetric_group_orbit():
    rep = helpers.cached_symmetric(3)
    base = PureState(np.array([1, -1, 0]) / np.sqrt(2))
    orb = orbit(rep, base)
    assert orb.members.n == 3

    zero_sum_proj = np.eye(3) - np.ones((3, 3)) / 3
    total = orb.members.projectors.sum(axis=0)
    assert np.abs(total - 1.5 * zero_sum_proj).max() <= 1e-10
    c, r_proj = schur_sum(orb)
    assert np.isclose(np.trace(r_proj).real, 2.0)

    sset = orb.members
    weights = solve_weights(sset)
    assert np.abs(weights - 2 / 3).max() <= 1e-10
    result = check_sum_condition(sset, weights)
    assert result.satisfied
    assert verify_antidistinguishing(sset, build_povm(sset, result.weights, result.projector_r))
    CERTIFIED.append(sset)
    print("criterion 4: PASS (3-element orbit, sum 3/2 * rank-2 projector, weights 2/3)")


def test_criterion_5_qubit_oracle_equivalence():
    rng = np.random.default_rng(2024)
    feasible_count = 0
    for trial in range(500):
        n = int(rng.integers(2, 9))
        sset = helpers.random_qubit_set(n, rng)
        verdict = qubit_decide(sset)
        oracle = helpers.linprog_strictly_feasible(bloch_vectors(sset))
        assert verdict.feasible == oracle, f"trial {trial}: decision disagrees with LP oracle"
        if verdict.feasible:
            m = build_povm(sset, verdict.weights, np.eye(2))
            assert verify_antidistinguishing(sset, m)
            # the necessary bound never contradicts a feasible verdict
            assert not fidelity_bound_check(sset).violated
            feasible_count += 1
            CERTIFIED.append(sset)
    assert feasible_count > 50
    print(f"criterion 5: PASS (500 sets, LP oracle agreement, {feasible_count} feasible certified)")


def test_criterion_6_completion_soundness():
    rng = np.random.default_rng(2025)
    completed = 0
    while completed < 500:
        n = int(rng.integers(1, 7))
        sset = helpers.random_qubit_set(n, rng)
        if qubit_decide(sset).feasible:
            continue
        added, verdict = qubit_complete(sset)
        assert added is not None and verdict.feasible
        assert verdict.added_state is not None
        for p in sset.projectors:
            assert np.linalg.norm(added.projector - p) > 1e-7
        enlarged = StateSet.join(sset, added)
        assert qubit_decide(enlarged).feasible
        assert verify_antidistinguishing(enlarged, build_povm(enlarged, verdict.weights, np.eye(2)))
        CERTIFIED.append(enlarged)
        completed += 1
    print("criterion 6: PASS (500 infeasible sets completed by exactly one state)")


def test_criterion_7_construction_soundness():
    rng = np.random.default_rng(2026)

    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, d + 1))
        sset = helpers.random_orthonormal_subset(d, n, rng)
        assert verify_antidistinguishing(sset, swap_povm(sset))
        CERTIFIED.append(sset)

    for _ in range(100):
        d = int(rng.integers(3, 7))
        a = helpers.random_orthonormal_subset(d, int(rng.integers(2, d + 1)), rng)
        b = helpers.random_orthonormal_subset(d, int(rng.integers(2, d + 1)), rng)
        joined, m = union_povm(a, swap_povm(a), b, swap_povm(b))
        assert verify_antidistinguishing(joined, m)
        CERTIFIED.append(joined)

    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        sset = StateSet(
            [helpers.random_pure(d, rng) for _ in range(n)]
        )
        enlarged, m = two_n_construction(sset)
        assert enlarged.n <= 2 * n
        assert verify_antidistinguishing(enlarged, m)
        CERTIFIED.append(enlarged)

    print("criterion 7: PASS (swap, union, and doubling constructions verify, 300 instances)")


def test_criterion_8_fidelity_bound_on_certified_sets():
    assert len(CERTIFIED) > 500, "earlier criteria must populate the registry"
    for sset in CERTIFIED:
        bound = fidelity_bound_check(sset)
        assert not bound.violated, "a certified set violates the necessary bound"
        # the unordered convention is half the ordered sum; it holds a fortiori
        assert bound.lhs / 2 <= bound.rhs + 1e-9

    pair = StateSet([PureState([1, 0]), PureState(np.array([1, 1]) / np.sqrt(2))])
    cert = decide(pair)
    assert cert.verdict is Verdict.NO
    bound = fidelity_bound_check(pair)
    assert bound.rhs == 0 and bound.violated

    # in dimension >= 3 the refutation comes from the bound itself
    triple_pair = StateSet(
        [PureState([1, 0, 0]), PureState(np.array([1, 1, 0]) / np.sqrt(2))]
    )
    cert = decide(triple_pair)
    assert cert.verdict is Verdict.NO and cert.method is Method.FIDELITY_VIOLATION
    print(f"criterion 8: PASS (bound holds on {len(CERTIFIED)} certified sets; pair refuted)")


def test_criterion_9_chart_roundtrip():
    rng = np.random.default_rng(2027)
    count = 0
    while count < 100:
        kind = count % 3
        if kind == 0:
            orb, c, _ = helpers.random_certified_orbit(rng)
            sset = orb.members
            result = check_sum_condition(sset, np.full(sset.n, 1.0 / c))
        elif kind == 1:
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, d + 1))
            sset = helpers.random_orthonormal_subset(d, n, rng)
            result = check_sum_condition(sset, np.ones(n))
        else:
            sset = helpers.random_qubit_set(int(rng.integers(2, 7)), rng)
            verdict = qubit_decide(sset)
            if not verdict.feasible:
                continue
            result = check_sum_condition(sset, verdict.weights)
        assert result.satisfied
        m = build_povm(sset, result.weights, result.projector_r)
        chart = chart_from_povm(sset, m)
        assert verify_chart(chart)
        m2 = povm_from_chart(chart)
        assert verify_antidistinguishing(sset, m2)
        count += 1
    print("criterion 9: PASS (100 measurement-to-chart-to-measurement round trips)")
