import numpy as np
import pytest

from antidist import (
    Chart,
    StateSet,
    build_povm,
    chart_from_povm,
    check_sum_condition,
    povm_from_chart,
    qubit_decide,
    solve_chart,
    solve_weights,
    swap_povm,
    verify_antidistinguishing,
    verify_chart,
    verify_witness,
)
from antidist.errors import InvalidChart, ShapeMismatch
from antidist.states import Povm

import helpers


def frozen_chart():
    return Chart(
        helpers.chart_triple(),
        helpers.chart_triple_completions(),
        helpers.CHART_TRIPLE_ALPHAS.copy(),
    )


def test_frozen_chart_verifies():
    chart = frozen_chart()
    assert verify_chart(chart)
    m = povm_from_chart(chart)
    assert np.allclose(m.effects[0], np.diag([0.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(m.effects[1], np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(m.effects[2], np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert verify_antidistinguishing(chart.states, m)


def test_chart_roundtrip_from_sum_condition_povm():
    triple = helpers.sum_condition_triple()
    res = check_sum_condition(triple, solve_weights(triple))
    m = build_povm(triple, res.weights, res.projector_r)
    chart = chart_from_povm(triple, m)
    assert verify_chart(chart)
    m2 = povm_from_chart(chart)
    assert verify_antidistinguishing(triple, m2)
    for a, b in zip(m.effects, m2.effects):
        assert np.abs(a - b).max() <= 1e-8


def test_chart_from_povm_reads_the_complement_spectra():
    chart = frozen_chart()
    m = povm_from_chart(chart)
    back = chart_from_povm(chart.states, m)
    assert verify_chart(back)
    assert np.abs(np.sort(back.alphas, axis=1) - np.sort(chart.alphas, axis=1)).max() <= 1e-12
    assert np.abs(povm_from_chart(back).effects - m.effects).max() <= 1e-12
    # effect 0 of the rotated measurement is effect 2, which responds to state 0
    rotated = Povm(np.roll(m.effects, 1, axis=0))
    with pytest.raises(InvalidChart, match="effect 0 does not annihilate state 0"):
        chart_from_povm(chart.states, rotated)


def test_chart_invalid_column_fails():
    chart = frozen_chart()
    # swap one completion into the wrong column: column identity breaks
    broken = chart.completions.copy()
    broken[0, 0] = chart.completions[2, 0]
    assert not verify_chart(Chart(chart.states, broken, chart.alphas))


def test_chart_all_zero_alphas_rejected():
    chart = frozen_chart()
    zeroed = Chart(chart.states, chart.completions, np.zeros_like(chart.alphas))
    assert not verify_chart(zeroed)
    with pytest.raises(InvalidChart):
        povm_from_chart(zeroed)


def test_chart_alpha_range_enforced():
    chart = frozen_chart()
    bad = chart.alphas.copy()
    bad[0, 1] = 1.5
    assert not verify_chart(Chart(chart.states, chart.completions, bad))


def test_chart_shape_mismatch():
    chart = frozen_chart()
    with pytest.raises(ShapeMismatch):
        verify_chart(Chart(chart.states, chart.completions[:2], chart.alphas))


def test_search_finds_chart_for_orthonormal_basis():
    basis = StateSet(np.eye(3))
    solved = solve_chart(basis)
    assert solved.povm is not None and solved.witness is None
    assert verify_antidistinguishing(basis, solved.povm)
    assert verify_chart(chart_from_povm(basis, solved.povm))


def test_search_finds_chart_for_trine():
    solved = solve_chart(helpers.trine())
    assert solved.povm is not None
    assert verify_antidistinguishing(helpers.trine(), solved.povm)


def nonexcludable_pair() -> StateSet:
    """Two non-orthogonal states in d = 3: no excluding measurement exists."""
    return StateSet([[1, 0, 0], np.array([1, 1, 0]) / np.sqrt(2)])


def test_search_never_finds_for_nonexcludable_pair():
    qubit_pair = helpers.bloch_set([(0, 0, 1), (1, 0, 0)])
    assert solve_chart(qubit_pair).povm is None
    pair = nonexcludable_pair()
    solved = solve_chart(pair)
    assert solved.povm is None
    assert solved.witness is not None
    assert verify_witness(pair, solved.witness)
    assert np.isclose(np.trace(solved.witness).real, -1.0)


def test_witness_check_rejects_bad_witnesses():
    pair = nonexcludable_pair()
    y = solve_chart(pair).witness
    assert not verify_witness(pair, y + 0.01j * np.diag([1, 2, 3]))  # not Hermitian
    assert not verify_witness(pair, y[:2, :2])
    assert not verify_witness(pair, -np.eye(3) / 3)  # negative on every complement
    # an excludable set admits no witness at all
    assert not verify_witness(helpers.chart_triple(), y)


def test_search_is_deterministic_per_seed():
    a, b = solve_chart(helpers.chart_triple()), solve_chart(helpers.chart_triple())
    assert a.residual == b.residual
    for ea, eb in zip(a.povm.effects, b.povm.effects):
        assert np.array_equal(ea, eb)
    pair = nonexcludable_pair()
    assert np.array_equal(solve_chart(pair).witness, solve_chart(pair).witness)


def test_roundtrip_randomized():
    rng = np.random.default_rng(103)
    for _ in range(40):
        orb, c, _ = helpers.random_certified_orbit(rng)
        sset = orb.members
        res = check_sum_condition(sset, np.full(sset.n, 1.0 / c))
        m = build_povm(sset, res.weights, res.projector_r)
        chart = chart_from_povm(sset, m)
        assert verify_chart(chart)
        assert chart.alphas.min() >= 0.0 and chart.alphas.max() <= 1.0 + 1e-9
        assert verify_antidistinguishing(sset, povm_from_chart(chart))
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, d + 1))
        sset = helpers.random_orthonormal_subset(d, n, rng)
        chart = chart_from_povm(sset, swap_povm(sset))
        assert verify_chart(chart)
        assert verify_antidistinguishing(sset, povm_from_chart(chart))


def test_search_results_always_verify():
    # the solve is exact on qubit sets: YES exactly when the Bloch weights exist
    rng = np.random.default_rng(107)
    found = 0
    for _ in range(20):
        sset = helpers.random_qubit_set(int(rng.integers(2, 6)), rng)
        solved = solve_chart(sset)
        assert (solved.povm is not None) == qubit_decide(sset).feasible
        if solved.povm is not None:
            assert verify_antidistinguishing(sset, solved.povm)
            assert verify_chart(chart_from_povm(sset, solved.povm))
            found += 1
        else:
            assert verify_witness(sset, solved.witness)
    assert found > 0
