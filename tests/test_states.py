import json

import numpy as np
import pytest

from antidist import Certificate, Method, Povm, PureState, StateSet, Verdict
from antidist import io
from antidist.errors import (
    DuplicateState,
    NormOutOfRange,
    NotNormalized,
    NotPsd,
    ZeroVector,
)

import helpers


def test_pure_state_known_projectors():
    p1 = PureState([1, 0, 0])
    assert np.allclose(p1.projector, np.diag([1.0, 0.0, 0.0]))

    p2 = PureState(np.array([1, 2, 0]) / np.sqrt(5))
    expected = np.array([[1, 2, 0], [2, 4, 0], [0, 0, 0]]) / 5.0
    assert np.allclose(p2.projector, expected, atol=1e-12)


def test_pure_state_norm_validation():
    with pytest.raises(NormOutOfRange):
        PureState([0.5, 0.5])
    with pytest.raises(ZeroVector):
        PureState([0.0, 0.0])
    # tiny norm deviations are renormalized exactly
    s = PureState(np.array([1.0, 0.0]) * (1 + 5e-7))
    assert np.isclose(np.linalg.norm(s.vector), 1.0)


def test_pure_state_projector_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        v = helpers.random_vector(d, rng)
        s = PureState(v)
        assert np.linalg.norm(s.projector - np.outer(v, v.conj())) <= 1e-10
        assert np.isclose(np.trace(s.projector).real, 1.0)


def test_global_phase_is_quotiented():
    rng = np.random.default_rng(6)
    v = helpers.random_vector(3, rng)
    a = PureState(v)
    b = PureState(np.exp(1j * 0.37) * v)
    assert np.linalg.norm(a.projector - b.projector) <= 1e-12
    with pytest.raises(DuplicateState):
        StateSet([a, b])


def test_state_set_validates_every_row():
    rng = np.random.default_rng(9)
    rows = np.array([helpers.random_vector(3, rng) for _ in range(4)])
    for k in range(4):
        for bad, error, reason in ((np.zeros(3), ZeroVector, "zero norm"),
                                   (1.1 * rows[k], NormOutOfRange, "norm 1.100000000"),
                                   (np.array([np.nan, 1, 0]), ValueError, "non-finite")):
            broken = rows.copy()
            broken[k] = bad
            with pytest.raises(error, match=f"state {k}: {reason}"):
                StateSet(broken)
    # the first bad row is named; rows within NORM_SLACK are renormalized
    broken = rows * np.array([1, 1 + 5e-7, 2, 0])[:, None]
    with pytest.raises(NormOutOfRange, match="state 2:"):
        StateSet(broken)
    sset = StateSet(rows * (1 + 5e-7))
    assert np.allclose(np.linalg.norm(sset.vectors, axis=1), 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="vectors of one length"):
        StateSet([[1, 0], [1, 0, 0]])
    # a PureState validates its one row with the same helper
    with pytest.raises(NormOutOfRange, match="state 0: norm 1.100000000"):
        PureState(1.1 * rows[0])


def test_povm_validation():
    p = PureState([1, 0]).projector
    Povm([p, np.eye(2) - p])

    Povm([np.asarray(e, complex) for e in helpers.SUM_TRIPLE_POVM])

    with pytest.raises(NotNormalized):
        Povm([np.eye(2), np.eye(2)])
    with pytest.raises(NotPsd) as info:
        Povm([1.5 * np.eye(2), -0.5 * np.eye(2)])
    assert info.value.index == 1
    with pytest.raises(NotPsd) as info:
        Povm([np.eye(2) / 2, np.array([[0.5, 0.5], [0.0, 0.5]])])
    assert info.value.index == 1


def test_state_set_rejects_duplicates():
    with pytest.raises(DuplicateState):
        StateSet([PureState([1, 0]), PureState([1, 0])])


def test_state_set_mixed_members():
    # every member is pure: a density matrix is not a state vector
    with pytest.raises(ValueError, match="vectors of one length"):
        StateSet([PureState([1, 0]), np.eye(2) / 2])
    with pytest.raises(ValueError, match="vectors of one length"):
        StateSet([np.eye(2) / 2])


def test_state_set_is_one_array():
    rng = np.random.default_rng(10)
    rows = np.array([helpers.random_vector(4, rng) for _ in range(5)])
    sset = StateSet(rows)
    assert sset.vectors.shape == (5, 4) and sset.projectors.shape == (5, 4, 4)
    assert (sset.dim, sset.n) == (4, 5)
    for v, p in zip(sset.vectors, sset.projectors):
        assert np.array_equal(p, np.outer(v, v.conj()))
    # PureStates and plain rows give the same set
    same = StateSet([PureState(v) if k % 2 else v for k, v in enumerate(rows)])
    assert np.array_equal(same.vectors, sset.vectors)
    # join keeps the members' vectors bit for bit and still refuses duplicates
    extra = PureState(helpers.random_vector(4, rng))
    joined = StateSet.join(sset, extra)
    assert np.array_equal(joined.vectors, np.vstack([sset.vectors, extra.vector]))
    with pytest.raises(DuplicateState, match="states 1 and 5"):
        StateSet.join(sset, PureState(np.exp(0.3j) * sset.vectors[1]))


def test_certificate_roundtrip_is_byte_identical():
    from antidist import decide

    cert = decide(helpers.sum_condition_triple())
    doc = io.certificate_to_doc(cert)
    text = io.dumps_doc(doc)
    parsed = io.certificate_from_doc(json.loads(text))
    text2 = io.dumps_doc(io.certificate_to_doc(parsed))
    assert text == text2
    assert parsed.verdict is Verdict.YES
    assert parsed.method is Method.SUM_PROJECTION


def test_certificate_fields_survive_serialization():
    cert = Certificate(
        Verdict.YES,
        Method.QUBIT_BLOCH,
        weights=np.array([1.0, 1.0]),
        added_bloch=np.array([0.0, 0.0, -1.0]),
        notes="test",
    )
    doc = io.certificate_to_doc(cert)
    back = io.certificate_from_doc(doc)
    assert np.allclose(back.weights, [1, 1])
    assert np.allclose(back.added_bloch, [0, 0, -1])
    assert back.notes == "test"


def test_duplicate_check_threshold_and_order():
    rng = np.random.default_rng(8)
    v = helpers.random_vector(3, rng)
    u = helpers.random_vector(3, rng)
    u -= np.vdot(v, u) * v
    u /= np.linalg.norm(u)

    def near(distance):
        # ||P - Q||_F = sqrt(2) sin(theta) for unit vectors at angle theta
        theta = np.arcsin(distance / np.sqrt(2))
        return PureState(np.cos(theta) * v + np.sin(theta) * u)

    a = PureState(v)
    assert StateSet([a, near(2e-7)]).n == 2
    with pytest.raises(DuplicateState, match="states 0 and 1"):
        StateSet([a, near(0.5e-7)])
    b = PureState(helpers.random_vector(3, rng))
    b_phase = PureState(np.exp(2.1j) * b.vector)
    with pytest.raises(DuplicateState, match="states 1 and 2"):
        StateSet([a, b, b_phase])
    # the first pair in row order is named, not the first adjacent one
    with pytest.raises(DuplicateState, match="states 0 and 3"):
        StateSet([a, b, b_phase, near(0.0)])
