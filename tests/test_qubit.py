import numpy as np
import pytest

from antidist import (
    PureState,
    StateSet,
    Verdict,
    bloch_from_state,
    bloch_vectors,
    build_povm,
    check_sum_condition,
    decide,
    qubit_complete,
    qubit_decide,
    state_from_bloch,
    tetrahedral_state,
    verify_antidistinguishing,
)
from antidist.errors import WrongDimension
from antidist.linalg import RESIDUAL_TOL

import helpers


def test_bloch_from_state_known_values():
    assert np.allclose(bloch_from_state(PureState([1, 0])), [0, 0, 1])
    assert np.allclose(
        bloch_from_state(PureState(np.array([1, 1]) / np.sqrt(2))), [1, 0, 0], atol=1e-12
    )
    assert np.allclose(
        bloch_from_state(tetrahedral_state()), np.ones(3) / np.sqrt(3), atol=1e-12
    )


def test_bloch_dimension_guard():
    with pytest.raises(WrongDimension):
        bloch_from_state(PureState([1, 0, 0]))
    with pytest.raises(WrongDimension):
        bloch_vectors(StateSet([PureState([1, 0, 0])]))


def test_state_from_bloch_roundtrip():
    rng = np.random.default_rng(61)
    for _ in range(50):
        r = rng.standard_normal(3)
        r /= np.linalg.norm(r)
        assert np.allclose(bloch_from_state(state_from_bloch(r)), r, atol=1e-10)


def test_decide_trine():
    verdict = qubit_decide(helpers.trine())
    assert verdict.feasible
    assert np.allclose(verdict.weights, 2 / 3, atol=1e-10)


def test_decide_tetrahedron():
    verdict = qubit_decide(helpers.tetrahedron())
    assert verdict.feasible
    assert np.allclose(verdict.weights, 0.5, atol=1e-10)


def test_decide_two_non_antipodal_states():
    sset = StateSet([state_from_bloch((0, 0, 1)), state_from_bloch((1, 0, 0))])
    assert not qubit_decide(sset).feasible


def test_decide_antipodal_pair():
    sset = StateSet([state_from_bloch((0, 0, 1)), state_from_bloch((0, 0, -1))])
    verdict = qubit_decide(sset)
    assert verdict.feasible
    assert np.allclose(verdict.weights, [1.0, 1.0], atol=1e-10)


def test_decide_single_state_infeasible():
    assert not qubit_decide(StateSet([PureState([1, 0])])).feasible


def test_feasible_weights_certify():
    rng = np.random.default_rng(67)
    count = 0
    while count < 60:
        sset = helpers.random_qubit_set(int(rng.integers(2, 7)), rng)
        verdict = qubit_decide(sset)
        if not verdict.feasible:
            continue
        assert np.linalg.norm(verdict.weights @ bloch_vectors(sset)) <= 1e-8
        assert abs(verdict.weights.sum() - 2.0) <= 1e-8
        assert verdict.weights.min() > 0
        m = build_povm(sset, verdict.weights, np.eye(2))
        assert verify_antidistinguishing(sset, m)
        count += 1


def test_decision_agrees_with_lp_oracle():
    rng = np.random.default_rng(71)
    for _ in range(150):
        sset = helpers.random_qubit_set(int(rng.integers(2, 9)), rng)
        bloch = bloch_vectors(sset)
        assert qubit_decide(sset).feasible == helpers.linprog_strictly_feasible(bloch)


def test_cross_oracle_with_sum_condition():
    # in dimension 2 the span of two or more distinct states is everything,
    # so the sum condition with the feasibility weights targets the identity
    rng = np.random.default_rng(73)
    for _ in range(60):
        sset = helpers.random_qubit_set(int(rng.integers(2, 9)), rng)
        verdict = qubit_decide(sset)
        if verdict.feasible:
            res = check_sum_condition(sset, verdict.weights)
            assert res.satisfied
            assert np.allclose(res.projector_r, np.eye(2), atol=1e-9)
        else:
            try:
                from antidist import solve_weights

                res = check_sum_condition(sset, solve_weights(sset))
                assert not res.satisfied
            except Exception:
                pass  # singular Gram systems carry no candidate to test


def test_scale_invariance_of_feasibility():
    rng = np.random.default_rng(79)
    sset = helpers.trine()
    verdict = qubit_decide(sset)
    for scale in (0.1, 3.0, 17.5):
        scaled = verdict.weights * scale
        assert np.linalg.norm(scaled @ bloch_vectors(sset)) <= 1e-8 * scale
        # rescaling to sum 2 restores a certifying weight vector
        rescaled = 2 * scaled / scaled.sum()
        assert verify_antidistinguishing(sset, build_povm(sset, rescaled, np.eye(2)))


def test_complete_single_state():
    sset = StateSet([state_from_bloch((0, 0, 1))])
    added, verdict = qubit_complete(sset)
    assert added is not None
    assert np.allclose(verdict.added_state, [0, 0, -1], atol=1e-12)
    assert verdict.feasible
    enlarged = StateSet.join(sset, added)
    assert qubit_decide(enlarged).feasible


def test_complete_two_states():
    sset = StateSet([state_from_bloch((1, 0, 0)), state_from_bloch((0, 1, 0))])
    added, verdict = qubit_complete(sset)
    expected = -np.array([1, 1, 0]) / np.sqrt(2)
    assert np.allclose(verdict.added_state, expected, atol=1e-10)
    enlarged = StateSet.join(sset, added)
    assert qubit_decide(enlarged).feasible
    assert verify_antidistinguishing(enlarged, build_povm(enlarged, verdict.weights, np.eye(2)))


def test_complete_already_feasible():
    added, verdict = qubit_complete(helpers.trine())
    assert added is None
    assert verdict.feasible


def test_complete_coplanar_fan():
    # a fan of coplanar vectors covering less than a half-circle cannot be
    # feasible; one opposite vector fixes that
    angles = [0.15, 0.45, 0.8, 1.1]
    sset = StateSet([state_from_bloch((np.cos(a), np.sin(a), 0)) for a in angles])
    assert not qubit_decide(sset).feasible
    added, verdict = qubit_complete(sset)
    assert added is not None
    enlarged = StateSet.join(sset, added)
    assert qubit_decide(enlarged).feasible


def test_completion_soundness_randomized():
    rng = np.random.default_rng(83)
    completed = 0
    while completed < 120:
        sset = helpers.random_qubit_set(int(rng.integers(1, 6)), rng)
        if qubit_decide(sset).feasible:
            continue
        added, verdict = qubit_complete(sset)
        assert added is not None and verdict.feasible
        for p in sset.projectors:
            assert np.linalg.norm(added.projector - p) > 1e-7
        enlarged = StateSet.join(sset, added)
        assert qubit_decide(enlarged).feasible
        assert verify_antidistinguishing(enlarged, build_povm(enlarged, verdict.weights, np.eye(2)))
        completed += 1


def test_bloch_vectors_match_trace_formula():
    # the reference: tr(P sigma_k) for each state and Pauli matrix
    from antidist.qubit import PAULI_X, PAULI_Y, PAULI_Z

    rng = np.random.default_rng(89)
    sset = helpers.random_qubit_set(9, rng)
    expected = [[np.trace(q @ p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)]
                for q in sset.projectors]
    assert np.allclose(bloch_vectors(sset), expected, rtol=0, atol=1e-15)
    for v, row in zip(sset.vectors, expected):
        assert np.allclose(bloch_from_state(PureState(v)), row, rtol=0, atol=1e-15)


def test_decision_agrees_with_enumeration_and_lp_oracles():
    rng = np.random.default_rng(97)
    seen = set()
    for n in range(2, 13):
        for _ in range(6):
            if rng.random() < 0.5:
                sset = helpers.random_qubit_set(n, rng)
            else:
                sset = helpers.hemisphere_qubit_set(n, rng)
            bloch = bloch_vectors(sset)
            answer = helpers.enumeration_strictly_feasible(bloch)
            assert answer == helpers.linprog_strictly_feasible(bloch)
            assert qubit_decide(sset).feasible == answer
            seen.add(answer)
    assert seen == {True, False}


ORIGIN_ON_BOUNDARY = {
    "antipodal pair and one more": [(0, 0, 1), (0, 0, -1), (1, 0, 0)],
    "coplanar, origin on a hull edge": [(1, 0, 0), (-1, 0, 0)]
    + [(np.cos(a), np.sin(a), 0) for a in (0.4, 1.3, 2.2)],
    "antipodal pair plus hemisphere points": [(0, 0, 1), (0, 0, -1)]
    + [(np.sqrt(1 - y * y - z * z), y, z) for y, z in ((0.3, 0.5), (-0.6, 0.1), (0.2, -0.7))],
}


@pytest.mark.parametrize("name", sorted(ORIGIN_ON_BOUNDARY))
def test_origin_on_hull_boundary_is_no(name):
    # the origin is in the hull but not in its relative interior, so some
    # weight must vanish; checked as given and under random rotations
    rng = np.random.default_rng(101)
    base = np.array(ORIGIN_ON_BOUNDARY[name], dtype=float)
    for rotation in [np.eye(3)] + [helpers.random_rotation(rng) for _ in range(5)]:
        sset = StateSet([state_from_bloch(r) for r in base @ rotation.T])
        bloch = bloch_vectors(sset)
        verdict = qubit_decide(sset)
        assert not verdict.feasible
        assert abs(verdict.margin) <= 1e-9
        assert not helpers.enumeration_strictly_feasible(bloch)
        assert not helpers.linprog_strictly_feasible(bloch)
        # the antipode of the other points' sum puts the origin inside
        rest = bloch[2:].sum(axis=0)
        opposite = state_from_bloch(-rest / np.linalg.norm(rest))
        assert qubit_decide(StateSet.join(sset, opposite)).feasible


def test_large_set_weights_certify():
    rng = np.random.default_rng(107)
    sset = helpers.random_qubit_set(200, rng)
    verdict = qubit_decide(sset)
    assert verdict.feasible
    assert verdict.weights.min() > 0
    assert abs(verdict.weights.sum() - 2.0) <= 1e-12
    assert np.linalg.norm(verdict.weights @ bloch_vectors(sset)) <= 1e-12
    assert verify_antidistinguishing(sset, build_povm(sset, verdict.weights, np.eye(2)))


def test_margin_matches_lp_oracle():
    # complex sets, real sets (Bloch vectors on one great circle) and hemisphere
    # sets: three of each for n = 2..30, and one of each for n = 200
    rng = np.random.default_rng(109)
    makers = (helpers.random_qubit_set, helpers.real_qubit_set, helpers.hemisphere_qubit_set)
    checked = 0
    for n in [*range(2, 31)] * 3 + [200]:
        for make in makers:
            sset = make(n, rng)
            oracle = helpers.linprog_margin(bloch_vectors(sset))
            assert np.isclose(qubit_decide(sset).margin, oracle, rtol=0, atol=1e-9), (n, make)
            checked += 1
    assert checked >= 200


def make_states(bloch):
    return [state_from_bloch(r) for r in bloch]


PLATONIC = {
    "tetrahedron": (helpers.TETRA_BLOCH, 1 / 4),
    "octahedron": (np.vstack([np.eye(3), -np.eye(3)]), 1 / 6),
    "cube": (np.array([(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]) / np.sqrt(3),
             1 / 8),
    "icosahedron": (helpers.ICOSA_BLOCH, 1 / 12),
}


@pytest.mark.parametrize("name", sorted(PLATONIC))
def test_platonic_margins_and_uniform_weights(name):
    bloch, margin = PLATONIC[name]
    verdict = qubit_decide(StateSet(make_states(bloch)))
    assert verdict.feasible
    assert abs(verdict.margin - margin) <= 1e-12
    assert np.allclose(verdict.weights, 2 / len(bloch), rtol=0, atol=1e-12)


THIN_EPS = (0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-4)


def _plane_sets(rng: np.random.Generator, count: int):
    """Bloch vectors in the xy-plane: a great circle, an open half circle, and
    {a, -a, points on one side of the line through them}, ``count`` of each."""
    for _ in range(count):
        n = int(rng.integers(3, 12))
        for angles in (rng.uniform(0, 2 * np.pi, n), rng.uniform(0, np.pi, n),
                       np.append([0, np.pi], rng.uniform(0.05, np.pi - 0.05, n - 2))):
            yield np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])


@pytest.mark.parametrize("eps", THIN_EPS)
def test_thin_sets_near_rank_two(eps):
    # each Bloch vector tilted out of the plane by eps times a normal deviate:
    # decide raises nothing, every YES verifies at tol, and s* is -inf exactly
    # when the origin lies so far from the Bloch vectors' affine hull that no
    # weights meet sum_j t_j P_j = I within RESIDUAL_TOL
    rng = np.random.default_rng(113)
    for plane in _plane_sets(rng, 12):
        tilted = plane + eps * np.outer(rng.standard_normal(len(plane)), [0, 0, 1])
        tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
        sset = StateSet(make_states(tilted @ helpers.random_rotation(rng).T))
        cert = decide(sset)
        if cert.verdict is Verdict.YES:
            assert verify_antidistinguishing(sset, cert.povm)
        bloch = bloch_vectors(sset)
        mean = bloch.mean(axis=0)
        coeffs = np.linalg.lstsq((bloch - mean).T, -mean, rcond=None)[0]
        residual = np.linalg.norm((bloch - mean).T @ coeffs + mean)
        assert np.isinf(qubit_decide(sset).margin) == (np.sqrt(2) * residual > RESIDUAL_TOL)


@pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-6])
@pytest.mark.parametrize("height", [3e-9, 5e-8])
def test_trine_lifted_off_the_origin_is_decided_at_every_tolerance(height, tol):
    # three Bloch vectors span a plane at distance `height` from the origin; the
    # best weights miss sum_j t_j P_j = I by sqrt(2) * height, so the set is YES
    # (with a measurement that verifies) exactly when that is within RESIDUAL_TOL
    angles = np.array([0, 2, 4]) * np.pi / 3
    lifted = np.column_stack([np.sqrt(1 - height**2) * np.cos(angles),
                              np.sqrt(1 - height**2) * np.sin(angles), np.full(3, height)])
    sset = StateSet(make_states(lifted))
    cert = decide(sset, tol)
    assert (cert.verdict is Verdict.YES) == (np.sqrt(2) * height <= RESIDUAL_TOL)
    if cert.verdict is Verdict.YES:
        assert verify_antidistinguishing(sset, cert.povm, tol)
