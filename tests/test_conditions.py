import numpy as np
import pytest

from antidist import (
    Povm,
    StateSet,
    build_povm,
    check_sum_condition,
    fidelity_bound_check,
    gram_overlaps,
    is_distinguishable,
    qubit_decide,
    solve_weights,
    swap_povm,
    two_n_construction,
    union_povm,
    verify_antidistinguishing,
)
from antidist.errors import (
    CountMismatch,
    DimensionOne,
    NotNormalized,
    NotPsd,
    OverlappingSets,
    RankTooSmall,
)

import helpers


def basis_set(d, *indices):
    eye = np.eye(d)
    return StateSet([eye[i] for i in indices])


def test_is_distinguishable():
    assert is_distinguishable(basis_set(2, 0, 1))
    assert not is_distinguishable(helpers.sum_condition_triple())
    antipodal = helpers.bloch_set([(0, 0, 1), (0, 0, -1)])
    assert is_distinguishable(antipodal)


def test_swap_povm_full_basis():
    sset = basis_set(2, 0, 1)
    m = swap_povm(sset)
    assert np.allclose(m.effects[0], np.diag([0.0, 1.0]))
    assert np.allclose(m.effects[1], np.diag([1.0, 0.0]))
    assert verify_antidistinguishing(sset, m)


def test_swap_povm_random_orthonormal_subsets():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, d + 1))
        sset = helpers.random_orthonormal_subset(d, n, rng)
        assert verify_antidistinguishing(sset, swap_povm(sset))


def test_verify_known_triple_povm():
    triple = helpers.sum_condition_triple()
    m = Povm([np.asarray(e, complex) for e in helpers.SUM_TRIPLE_POVM])
    assert verify_antidistinguishing(triple, m)


def test_verify_rejects_zero_effect():
    sset = basis_set(2, 0, 1)
    m = Povm([np.zeros((2, 2)), np.eye(2)])
    assert not verify_antidistinguishing(sset, m)


def test_verify_count_mismatch():
    sset = basis_set(3, 0, 1)
    m = Povm([np.eye(3)])
    with pytest.raises(CountMismatch):
        verify_antidistinguishing(sset, m)


def test_gram_overlaps():
    g = gram_overlaps(helpers.sum_condition_triple())
    expected = np.array([[1, 0.2, 0.2], [0.2, 1, 0.36], [0.2, 0.36, 1]])
    assert np.allclose(g, expected, atol=1e-12)
    # independent elementwise oracle
    mats = helpers.sum_condition_triple().projectors
    for i in range(3):
        for j in range(3):
            direct = sum(mats[i][a, b] * mats[j][b, a] for a in range(3) for b in range(3))
            assert np.isclose(g[i, j], direct.real, atol=1e-12)

    assert np.allclose(gram_overlaps(basis_set(3, 0, 1, 2)), np.eye(3))

    g = gram_overlaps(helpers.tetrahedron())
    assert np.allclose(g - np.diag(np.diag(g)), (np.ones((4, 4)) - np.eye(4)) / 3, atol=1e-12)


def test_solve_weights_known_values():
    assert np.allclose(
        solve_weights(helpers.sum_condition_triple()), helpers.SUM_TRIPLE_WEIGHTS, atol=1e-12
    )
    assert np.allclose(solve_weights(helpers.tetrahedron()), 0.5, atol=1e-12)
    w = solve_weights(helpers.chart_triple())
    assert np.allclose(w, [63 / 73, 50 / 73, 65 / 73], atol=1e-12)
    assert not check_sum_condition(helpers.chart_triple(), w).satisfied


def test_check_sum_condition():
    triple = helpers.sum_condition_triple()
    res = check_sum_condition(triple, helpers.SUM_TRIPLE_WEIGHTS)
    assert res.satisfied
    assert res.rank_r == 2
    assert np.allclose(res.projector_r, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    standard = helpers.standard_orbit_triple()
    res = check_sum_condition(standard, np.full(3, 2 / 3))
    assert res.satisfied
    assert res.rank_r == 2

    # negative weights never satisfy
    res = check_sum_condition(triple, np.array([1.5, -0.1, 0.6]))
    assert not res.satisfied


def test_build_povm_reproduces_frozen_matrices():
    triple = helpers.sum_condition_triple()
    res = check_sum_condition(triple, solve_weights(triple))
    m = build_povm(triple, res.weights, res.projector_r)
    for effect, frozen in zip(m.effects, helpers.SUM_TRIPLE_POVM):
        assert np.abs(effect - frozen).max() <= 1e-10
    assert verify_antidistinguishing(triple, m)


def test_build_povm_tetrahedron():
    tet = helpers.tetrahedron()
    res = check_sum_condition(tet, solve_weights(tet))
    assert res.satisfied and res.rank_r == 2
    m = build_povm(tet, res.weights, res.projector_r)
    # with t = 1/2, r = 2 the formula collapses to (1 - P)/2 and sums to 1
    for effect, p in zip(m.effects, tet.projectors):
        assert np.abs(effect - (np.eye(2) - p) / 2).max() <= 1e-10
    assert np.abs(sum(m.effects) - np.eye(2)).max() <= 1e-10
    assert verify_antidistinguishing(tet, m)


def test_build_povm_two_orthogonal_states():
    sset = basis_set(2, 0, 1)
    res = check_sum_condition(sset, np.ones(2))
    m = build_povm(sset, res.weights, res.projector_r)
    assert np.allclose(m.effects[0], sset.projectors[1])
    assert np.allclose(m.effects[1], sset.projectors[0])


def test_build_povm_rank_guard():
    single = StateSet([[1, 0]])
    res = check_sum_condition(single, np.ones(1))
    assert res.satisfied and res.rank_r == 1
    with pytest.raises(RankTooSmall):
        build_povm(single, res.weights, res.projector_r)


def test_build_povm_rejects_weights_that_miss_the_condition():
    tet = helpers.tetrahedron()
    # unit weights give sum_j t_j P_j = 2 I, so the effects sum to 2 I
    with pytest.raises(NotNormalized):
        build_povm(tet, np.ones(4), np.eye(2))
    flipped = np.full(4, 0.5)
    flipped[2] = -0.5
    with pytest.raises(NotPsd):
        build_povm(tet, flipped, np.eye(2))
    with pytest.raises(RankTooSmall):
        build_povm(tet, np.full(4, 0.5), np.diag([1.0, 0.0]))


def test_weight_bounds_when_satisfied():
    rng = np.random.default_rng(23)
    for _ in range(40):
        orb, c, r_proj = helpers.random_certified_orbit(rng)
        sset = orb.members
        res = check_sum_condition(sset, np.full(sset.n, 1.0 / c))
        assert res.satisfied
        assert res.weights.max() <= 1.0 + 1e-8
        assert abs(res.weights.sum() - np.trace(r_proj).real) <= 1e-8


def test_sum_condition_pipeline_soundness_randomized():
    # certified sum-condition sets from three generators: group orbits,
    # orthonormal subsets, feasible qubit sets
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(80):
        orb, c, _ = helpers.random_certified_orbit(rng)
        sset = orb.members
        res = check_sum_condition(sset, np.full(sset.n, 1.0 / c))
        m = build_povm(sset, res.weights, res.projector_r)
        assert verify_antidistinguishing(sset, m)
        checked += 1
    for _ in range(60):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, d + 1))
        sset = helpers.random_orthonormal_subset(d, n, rng)
        res = check_sum_condition(sset, np.ones(n))
        m = build_povm(sset, res.weights, res.projector_r)
        assert verify_antidistinguishing(sset, m)
        checked += 1
    while checked < 200:
        sset = helpers.random_qubit_set(int(rng.integers(3, 7)), rng)
        verdict = qubit_decide(sset)
        if not verdict.feasible:
            continue
        res = check_sum_condition(sset, verdict.weights)
        assert res.satisfied
        m = build_povm(sset, res.weights, res.projector_r)
        assert verify_antidistinguishing(sset, m)
        checked += 1
    assert checked >= 200


def test_trace_free_equivalence_on_accepted_certificates():
    # zero trace against an effect means the operator product itself vanishes
    triple = helpers.sum_condition_triple()
    res = check_sum_condition(triple, solve_weights(triple))
    m = build_povm(triple, res.weights, res.projector_r)
    for rho, effect in zip(triple.projectors, m.effects):
        assert np.linalg.norm(rho @ effect) <= 1e-6


def test_fidelity_bound_check():
    # two non-orthogonal states: bound 0 is violated
    pair = StateSet([[1, 0], np.array([1, 1]) / np.sqrt(2)])
    fb = fidelity_bound_check(pair)
    assert fb.rhs == 0 and fb.lhs > 0 and fb.violated

    fb = fidelity_bound_check(helpers.tetrahedron())
    assert np.isclose(fb.lhs, 4.0, atol=1e-9)
    assert fb.rhs == 8.0 and not fb.violated

    fb = fidelity_bound_check(basis_set(3, 0, 1, 2))
    assert fb.lhs <= 1e-12 and fb.rhs == 3.0 and not fb.violated

    # a single state can never be excluded: 0 <= -1 fails
    fb = fidelity_bound_check(StateSet([[1, 0]]))
    assert fb.rhs == -1.0 and fb.violated


def test_union_povm():
    a = basis_set(4, 0, 1)
    b = basis_set(4, 2, 3)
    joined, m = union_povm(a, swap_povm(a), b, swap_povm(b))
    assert joined.n == 4
    assert verify_antidistinguishing(joined, m)

    triple = helpers.sum_condition_triple()
    res = check_sum_condition(triple, solve_weights(triple))
    mt = build_povm(triple, res.weights, res.projector_r)
    e3 = np.array([0, 0, 1.0])
    plus = np.array([1, 1, 0]) / np.sqrt(2)
    pair = StateSet([e3, plus])
    joined, m = union_povm(triple, mt, pair, swap_povm(pair))
    assert joined.n == 5
    assert verify_antidistinguishing(joined, m)

    with pytest.raises(OverlappingSets):
        union_povm(a, swap_povm(a), basis_set(4, 1, 2), swap_povm(basis_set(4, 1, 2)))


def test_two_n_construction():
    triple = helpers.sum_condition_triple()
    enlarged, m = two_n_construction(triple)
    assert enlarged.n == 6
    assert verify_antidistinguishing(enlarged, m)


def test_two_n_uniform_scaling_verifies_forty_states():
    # with 1/n scaling every outcome's response stays above tol even at n = 40
    rng = np.random.default_rng(0)
    sset = StateSet([helpers.random_vector(4, rng) for _ in range(40)])
    enlarged, m = two_n_construction(sset)
    assert enlarged.n == 80
    assert np.abs(m.effects.sum(axis=0) - np.eye(4)).max() <= 1e-12
    assert verify_antidistinguishing(enlarged, m)


def test_two_n_single_qubit_state():
    single = StateSet([[1, 0]])
    enlarged, m = two_n_construction(single)
    assert enlarged.n == 2
    assert verify_antidistinguishing(enlarged, m)
    assert np.allclose(m.effects[0], np.diag([0.0, 1.0]))
    assert np.allclose(m.effects[1], np.diag([1.0, 0.0]))


def test_two_n_merges_duplicates():
    pair = StateSet([[1, 0], [0, 1]])
    enlarged, m = two_n_construction(pair)
    assert enlarged.n == 2  # complements coincide with the other member
    assert verify_antidistinguishing(enlarged, m)

    with pytest.raises(DimensionOne):
        two_n_construction(StateSet([[1.0]]))
