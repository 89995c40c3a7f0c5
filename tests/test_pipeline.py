import numpy as np
import pytest

from antidist import (
    StateSet,
    chart,
    chart_from_povm,
    decide,
    is_distinguishable,
    qubit_decide,
    verify_antidistinguishing,
    verify_chart,
    verify_witness,
)
from antidist.conditions import hermitian_povm
from antidist.states import Method, Verdict

import helpers


def test_distinguishable_set_short_circuits():
    sset = StateSet(np.eye(3)[[0, 2]])
    cert = decide(sset)
    assert cert.verdict is Verdict.YES
    assert cert.method is Method.PAIRWISE_ORTHOGONAL
    assert verify_antidistinguishing(sset, cert.povm)


def test_qubit_routes():
    cert = decide(helpers.trine())
    assert cert.verdict is Verdict.YES and cert.method is Method.QUBIT_BLOCH
    assert verify_antidistinguishing(helpers.trine(), cert.povm)
    assert cert.notes.endswith("LP margin s* = 0.333")

    pair = helpers.bloch_set([(0, 0, 1), (1, 0, 0)])
    cert = decide(pair)
    assert cert.verdict is Verdict.NO and cert.method is Method.QUBIT_BLOCH
    assert cert.notes.endswith("LP margin s* = -inf")

    # in a hemisphere, weights summing to one cancel the vectors only if one is negative
    cert = decide(helpers.hemisphere_qubit_set(5, np.random.default_rng(109)))
    assert cert.verdict is Verdict.NO
    assert -np.inf < float(cert.notes.rsplit("= ", 1)[1]) < 0


def test_fidelity_refutation_for_nonorthogonal_pair_in_d3():
    pair = StateSet([[1, 0, 0], np.array([1, 1, 0]) / np.sqrt(2)])
    cert = decide(pair)
    assert cert.verdict is Verdict.NO
    assert cert.method is Method.FIDELITY_VIOLATION


def test_single_state_is_refuted():
    cert = decide(StateSet([[1, 0]]))
    assert cert.verdict is Verdict.NO and cert.method is Method.QUBIT_BLOCH

    cert = decide(StateSet([[1, 0, 0]]))
    assert cert.verdict is Verdict.NO and cert.method is Method.FIDELITY_VIOLATION


def test_sum_projection_route():
    cert = decide(helpers.sum_condition_triple())
    assert cert.verdict is Verdict.YES and cert.method is Method.SUM_PROJECTION
    assert np.allclose(cert.weights, helpers.SUM_TRIPLE_WEIGHTS, atol=1e-10)
    assert cert.projector_r is not None


def test_chart_route_with_seed_and_unknown_without(monkeypatch):
    # a yes triple near the CFS boundary: it fails the sum condition and the
    # one-Hermitian stage, and the chart solve decides it
    triple = helpers.chart_route_triple()
    assert hermitian_povm(triple) is None
    cert = decide(triple)
    assert cert.verdict is Verdict.YES and cert.method is Method.CHART
    assert verify_antidistinguishing(triple, cert.povm)
    assert verify_chart(chart_from_povm(triple, cert.povm))

    # without solver iterations neither side passes its check
    monkeypatch.setattr(chart, "PRIMAL_MAX_ITER", 1)
    monkeypatch.setattr(chart, "DUAL_MAX_ITER", 1)
    cert = decide(triple)
    assert cert.verdict is Verdict.UNKNOWN
    assert cert.method is None
    assert "best primal residual" in cert.notes and "dual eps" in cert.notes


def test_decide_agrees_with_cfs_on_random_triples():
    rng = np.random.default_rng(131)
    for _ in range(200):
        triple = StateSet([helpers.random_vector(3, rng) for _ in range(3)])
        margin = helpers.cfs_margin(triple)
        cert = decide(triple)
        if abs(margin) > 1e-9:
            assert cert.verdict is (Verdict.YES if margin > 0 else Verdict.NO), margin
        if cert.verdict is Verdict.YES:
            assert verify_antidistinguishing(triple, cert.povm)
        if cert.method is Method.CHART_WITNESS:
            assert verify_witness(triple, cert.witness)


def test_pair_equivalence_distinguishable_iff_antidistinguishable():
    # for two pure qubit states the exact decision coincides with orthogonality
    rng = np.random.default_rng(113)
    for _ in range(100):
        sset = helpers.random_qubit_set(2, rng)
        assert qubit_decide(sset).feasible == is_distinguishable(sset)
    antipodal = helpers.bloch_set([(0, 0, 1), (0, 0, -1)])
    assert qubit_decide(antipodal).feasible and is_distinguishable(antipodal)


def test_singular_gram_routes_to_search_not_crash():
    # four coplanar qubit-subspace states embedded in dimension 3 have
    # operator-dependent projectors, so the weight system is singular;
    # the pipeline must fall through cleanly to the qubit decision on
    # their rank-2 span, which finds the measurement of the qubit square
    from antidist import solve_weights
    from antidist.errors import SingularSystem

    angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    square = helpers.bloch_set([(np.cos(a), np.sin(a), 0) for a in angles])
    sset = StateSet(np.hstack([square.vectors, np.zeros((4, 1))]))
    with pytest.raises(SingularSystem):
        solve_weights(sset)
    cert = decide(sset)
    assert cert.verdict is Verdict.YES and cert.method is Method.QUBIT_BLOCH
    assert verify_antidistinguishing(sset, cert.povm)

    # ten states in C^3 outnumber the nine Hermitian dimensions, so the weight
    # system is singular too, but their span has rank 3: the one-Hermitian
    # stage decides the random set, and the chart solve the clustered one it declines
    rng = np.random.default_rng(5)
    random_set = StateSet([helpers.random_vector(3, rng) for _ in range(10)])
    clustered = helpers.clustered(3, 1.0, np.random.default_rng(4), n=10)
    for sset, method in ((random_set, Method.ONE_HERMITIAN), (clustered, Method.CHART)):
        with pytest.raises(SingularSystem):
            solve_weights(sset)
        cert = decide(sset)
        assert cert.verdict is Verdict.YES and cert.method is method
        assert verify_antidistinguishing(sset, cert.povm)


def _hull_boundary_bloch(rng) -> np.ndarray:
    """{a, -a} and one to three points strictly on one side of a plane through
    a: the origin lies on the hull's boundary, so the LP margin is exactly 0."""
    a = helpers.random_rotation(rng)[0]
    normal = np.cross(a, rng.standard_normal(3))
    rows = rng.standard_normal((int(rng.integers(1, 4)), 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= np.sign(rows @ normal)[:, None]
    return np.vstack([a, -a, rows])


def test_rank_two_span_gets_the_qubit_lp_verdict():
    # a set whose span has rank 2 is the qubit set of its coordinates there
    from antidist import bloch_vectors

    rng = np.random.default_rng(157)
    for k in range(40):
        if k % 2:
            qset = helpers.random_qubit_set(int(rng.integers(3, 7)), rng)
        else:
            qset = helpers.bloch_set(_hull_boundary_bloch(rng))
        expect = helpers.linprog_strictly_feasible(bloch_vectors(qset))
        for d in (3, 5):
            isometry = helpers.haar_unitary(d, rng)[:, :2]
            sset = StateSet([isometry @ v for v in qset.vectors])
            cert = decide(sset)
            assert cert.verdict is (Verdict.YES if expect else Verdict.NO), (k, d, cert.notes)
            if cert.verdict is Verdict.YES:
                assert verify_antidistinguishing(sset, cert.povm)


def test_yes_certificates_always_carry_verifying_povm():
    rng = np.random.default_rng(117)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, min(d + 2, 5)))
        try:
            sset = StateSet([helpers.random_vector(d, rng) for _ in range(n)])
        except Exception:
            continue
        cert = decide(sset)
        assert cert.verdict is not Verdict.UNKNOWN
        if cert.verdict is Verdict.YES:
            assert cert.povm is not None
            assert verify_antidistinguishing(sset, cert.povm)
        if cert.method is Method.CHART_WITNESS:
            assert verify_witness(sset, cert.witness)


def test_decide_takes_one_svd_per_set(monkeypatch):
    # the sum condition, the rank-2 check and the one-Hermitian stage read one StateSet.span
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    rng = np.random.default_rng(163)
    for d in range(5, 9):
        sset = StateSet([helpers.random_vector(d, rng) for _ in range(2 * d)])
        calls.clear()
        cert = decide(sset)
        assert cert.method is Method.ONE_HERMITIAN and len(calls) == 1, (d, len(calls))
