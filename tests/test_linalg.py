import numpy as np
import pytest

from antidist import StateSet, linalg
from antidist.errors import SingularSystem

import helpers


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def test_matrix_product_identity_and_pauli():
    a = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.allclose(np.eye(2) @ a, a)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(sx @ sx, np.eye(2))


def test_matrix_product_matches_hand_multiplication():
    triple = helpers.sum_condition_triple()
    p2 = triple.projectors[1]
    p3 = triple.projectors[2]
    expected = np.array([[-3, 6, 0], [-6, 12, 0], [0, 0, 0]], dtype=complex) / 25.0
    assert np.allclose(p2 @ p3, expected, atol=1e-12)
    assert np.allclose(helpers.naive_matmul(p2, p3), expected, atol=1e-12)


def test_adjoint():
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.allclose(linalg.adjoint(a), a)
    b = np.array([[0, 1j], [0, 0]])
    assert np.allclose(linalg.adjoint(b), np.array([[0, 0], [-1j, 0]]))
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(linalg.adjoint(linalg.adjoint(c)), c)


def test_trace_values():
    assert np.isclose(np.trace(np.eye(4)).real, 4.0)
    assert np.isclose(np.trace(np.diag([1.0, 1.0, 0.0])).real, 2.0)
    rng = np.random.default_rng(3)
    p = helpers.random_pure(5, rng).projectors[0]
    assert np.isclose(np.trace(p).real, 1.0)


def test_is_projection():
    assert linalg.is_projection(np.diag([1.0, 1.0, 0.0]))
    triple = helpers.sum_condition_triple()
    summed = sum(
        w * p for w, p in zip(helpers.SUM_TRIPLE_WEIGHTS, triple.projectors)
    )
    assert linalg.is_projection(summed)

    other = helpers.chart_triple()
    weights = np.linalg.solve(
        np.array([[1, 0.2, 0], [0.2, 1, 4 / 25], [0, 4 / 25, 1]]), np.ones(3)
    )
    not_proj = sum(w * p for w, p in zip(weights, other.projectors))
    assert not linalg.is_projection(not_proj)
    assert not linalg.is_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd():
    rng = np.random.default_rng(11)
    assert linalg.is_psd(helpers.random_pure(4, rng).projectors[0])
    assert not linalg.is_psd(-np.eye(3))
    assert linalg.is_psd(helpers.SUM_TRIPLE_POVM[1].astype(complex))


def test_is_psd_agrees_with_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = random_hermitian(4, rng)
        if rng.random() < 0.5:
            a = a @ a.conj().T  # force PSD
        claimed = linalg.is_psd(a)
        quad = min(
            np.vdot(v, a @ v).real
            for v in (helpers.random_vector(4, rng) for _ in range(1000))
        )
        if claimed:
            assert quad >= -1e-9
        else:
            # brute force over unit vectors underestimates |min eig|, so only
            # check decisively indefinite samples
            if np.linalg.eigvalsh(a).min() < -1e-3:
                assert quad < 0


def test_solve_linear():
    assert np.allclose(linalg.solve_linear(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])

    gram = np.array([[1, 0.2, 0.2], [0.2, 1, 0.36], [0.2, 0.36, 1]])
    assert np.allclose(linalg.solve_linear(gram, np.ones(3)), [0.75, 0.625, 0.625], atol=1e-12)

    assert np.allclose(linalg.solve_linear(np.eye(4), np.ones(4)), np.ones(4))

    with pytest.raises(SingularSystem):
        linalg.solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
    with pytest.raises(SingularSystem):
        linalg.solve_linear(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), np.ones(2))


def test_solve_linear_residuals_on_random_systems():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        if np.linalg.cond(a) > 1e6:
            continue
        b = rng.standard_normal(n)
        x = linalg.solve_linear(a, b)
        assert np.abs(a @ x - b).max() <= 1e-8
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)


def span_projector(vectors) -> np.ndarray:
    span = StateSet(vectors).span()
    return span @ span.conj().T


def test_span_projector_known_cases():
    triple = helpers.sum_condition_triple()
    proj = span_projector(triple.vectors)
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    assert np.allclose(span_projector([e1]), np.diag([1.0, 0, 0, 0]))

    standard = helpers.standard_orbit_triple()
    proj = span_projector(standard.vectors)
    expected = np.eye(3) - np.ones((3, 3)) / 3
    assert np.allclose(proj, expected, atol=1e-12)
    assert np.isclose(np.trace(proj).real, 2.0)
    assert standard.span().shape == (3, 2)


def test_span_projector_requires_input():
    with pytest.raises(ValueError):
        span_projector([])


def test_span_projector_properties():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 2 * d + 1))
        vecs = [helpers.random_vector(d, rng) for _ in range(k)]
        proj = span_projector(vecs)
        assert linalg.is_projection(proj, 1e-8)
        assert np.isclose(np.trace(proj).real, min(k, d), atol=1e-8)
        for v in vecs:
            assert np.linalg.norm(proj @ v - v) <= 1e-8
        perm = rng.permutation(k)
        proj2 = span_projector([vecs[i] for i in perm])
        assert np.linalg.norm(proj - proj2) <= 1e-8


def test_span_is_the_svd_of_the_set_taken_once(monkeypatch):
    rng = np.random.default_rng(37)
    sset = StateSet([helpers.random_vector(4, rng) for _ in range(3)])
    u, s, _ = np.linalg.svd(sset.vectors.T)
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    assert np.array_equal(sset.span(), u[:, :3])
    # a tol between singular values drops the smaller ones; no tol reruns the SVD
    assert sset.span(s[1] * 0.5 + s[2] * 0.5).shape == (4, 2) and sset.span(2.0).shape == (4, 0)
    assert len(calls) == 1
    joined = StateSet.join(sset, StateSet([helpers.random_vector(4, rng)]))
    assert joined.span().shape == (4, 4) and len(calls) == 2


def test_orthonormal_complement():
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        v = helpers.random_vector(d, rng)
        comp = list(linalg.complements(v[None])[0].T)
        assert len(comp) == d - 1
        for u in comp:
            assert abs(np.vdot(v, u)) <= 1e-9
        full = span_projector([v] + comp)
        assert np.allclose(full, np.eye(d), atol=1e-9)

        # several vectors, the last ones combinations of the first (for k = 1 the
        # same state, which a set holds once): the complement of their span is
        # the kernel of the span projector
        k = int(rng.integers(1, d))
        indep = [helpers.random_vector(d, rng) for _ in range(k)]
        mixes = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
        mixed = [m @ np.array(indep) for m in mixes] if k > 1 else []
        vecs = indep + [w / np.linalg.norm(w) for w in mixed]
        span = StateSet(vecs).span()
        assert span.shape == (d, k)
        comp = list(np.linalg.svd(np.eye(d) - span @ span.conj().T)[0][:, : d - k].T)
        for u in comp:
            assert np.isclose(np.linalg.norm(u), 1.0, atol=1e-9)
            assert max(abs(np.vdot(w, u)) for w in vecs) <= 1e-9
        full = span_projector(list(span.T) + comp)
        assert np.allclose(full, np.eye(d), atol=1e-9)


def test_complements_match_the_per_vector_svd():
    # one batched SVD gives, bit for bit, the complement of each vector alone
    rng = np.random.default_rng(43)
    for d in range(2, 17):
        vecs = np.array([helpers.random_vector(d, rng) for _ in range(2 * d)])
        comps = linalg.complements(vecs)
        assert comps.shape == (2 * d, d, d - 1)
        for v, comp in zip(vecs, comps):
            assert np.array_equal(comp, np.linalg.svd(np.array([v]).T)[0][:, 1:])
            assert np.abs(v.conj() @ comp).max() <= 1e-12


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(51)
    for d in (1, 2, 3, 5):
        u = helpers.haar_unitary(d, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-10

    # Gram-Schmidt convention: Z = U R with R upper triangular, diag(R) > 0
    for d in (1, 2, 3, 5):
        u = helpers.haar_unitary(d, np.random.default_rng(d))
        rng = np.random.default_rng(d)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        r = u.conj().T @ z
        assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-10
        assert np.abs(np.diag(r).imag).max() <= 1e-10
        assert np.diag(r).real.min() > 0
