"""The one-Hermitian stage: M_j = Pi_j H Pi_j with sum_j Pi_j H Pi_j = I.

Whenever it returns a measurement, that measurement excludes the set, and
neither the chart solve nor the Caves-Fuchs-Schack closed form calls the set NO.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antidist import PureState, StateSet, conditions, decide, verify_antidistinguishing
from antidist.conditions import hermitian_povm
from antidist.states import Verdict

import helpers


def assert_agrees(sset: StateSet):
    """The stage's measurement of ``sset``, or None; a measurement must verify, and
    ``decide`` without the stage, where the chart solve rules, must not say NO."""
    povm = hermitian_povm(sset)
    if povm is not None:
        assert verify_antidistinguishing(sset, povm)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conditions, "hermitian_povm", lambda states, tol: None)
            assert decide(sset).verdict is not Verdict.NO
    return povm


def test_never_contradicts_cfs_near_the_boundary():
    rng = np.random.default_rng(211)
    checked = 0
    while checked < 240:
        x1, x2 = rng.uniform(0.02, 0.45, 2)
        shift = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10, -2)
        triple = helpers.boundary_triple(x1, x2, shift, rng)
        if triple is None:
            continue
        checked += 1
        povm = hermitian_povm(triple)
        if povm is not None:
            assert helpers.cfs_margin(triple) > 0, (x1, x2, shift)
            assert verify_antidistinguishing(triple, povm)


def test_agrees_with_the_chart_on_random_and_clustered_sets():
    rng = np.random.default_rng(223)
    for d in range(3, 9):
        for n in (d, d + 1, 2 * d):
            for _ in range(2):
                povm = assert_agrees(StateSet(helpers.random_vector(d, rng) for _ in range(n)))
                # the stage is no empty check: it decides every random n = 2d set here
                assert povm is not None or n < 2 * d, (d, n)
        for spread in (0.6, 1.0):
            for n in (d, 2 * d):
                assert_agrees(helpers.clustered(d, spread, rng, n=n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(3, 6), extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_agrees_with_the_chart_on_generated_sets(d, extra, seed):
    rng = np.random.default_rng(seed)
    assert_agrees(StateSet(helpers.random_vector(d, rng) for _ in range(d + min(extra, d))))


def test_rank_deficient_spans_get_the_complement_block():
    # the same set on its span and embedded in C^d: H is the span solution
    # plus (I - R)/n, so every effect carries (I - R)/n and nothing between the blocks
    rng = np.random.default_rng(227)
    decided = 0
    for r in range(3, 6):
        for d in range(r + 1, 9):
            coords = StateSet(helpers.random_vector(r, rng) for _ in range(r + d % 2))
            isometry = helpers.haar_unitary(d, rng)[:, :r]
            sset = StateSet(PureState(isometry @ v) for v in coords.vectors)
            on_span = hermitian_povm(coords)
            povm = assert_agrees(sset)
            assert (povm is None) == (on_span is None), (r, d)
            if povm is None:
                continue
            comp = np.eye(d) - isometry @ isometry.conj().T
            effects = povm.effects
            assert np.abs(comp @ effects @ comp - comp / sset.n).max() < 1e-12
            assert np.abs(isometry.conj().T @ effects @ comp).max() < 1e-12
            span_block = isometry.conj().T @ effects @ isometry
            assert np.abs(span_block - on_span.effects).max() < 1e-9
            decided += 1
    assert decided >= 6


def full_space_effects(sset: StateSet) -> np.ndarray:
    """Reference: Pi_j H Pi_j from the d^2 x d^2 system in the full space,
    L = n I - S kron I - I kron S^T + sum_j vec(P_j) vec(P_j)^dagger (row-major vec)."""
    n, d = sset.n, sset.dim
    p, eye = sset.projectors, np.eye(d)
    total = p.sum(axis=0)
    lmap = n * np.eye(d * d) - np.kron(total, eye) - np.kron(eye, total.T)
    lmap += sum(np.outer(q.reshape(-1), q.reshape(-1).conj()) for q in p)
    h = np.linalg.solve(lmap, eye.reshape(-1)).reshape(d, d)
    comp = eye - p
    return comp @ ((h + h.conj().T) / 2) @ comp


def test_matches_the_full_space_solve():
    rng = np.random.default_rng(229)
    compared = 0
    for d in range(3, 7):
        for n in (d - 1, d + 1, 2 * d):
            sset = StateSet(helpers.random_vector(d, rng) for _ in range(n))
            povm = hermitian_povm(sset)
            if povm is not None:
                assert np.abs(povm.effects - full_space_effects(sset)).max() < 1e-10, (d, n)
                compared += 1
    assert compared >= 8
