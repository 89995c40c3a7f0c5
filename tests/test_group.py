import numpy as np
import pytest

from antidist import (
    GroupRep,
    PureState,
    build_povm,
    builtin_symmetric_permutation,
    orbit,
    schur_sum,
    standard_subspace_vectors,
    tetrahedral_state,
    verify_antidistinguishing,
)
from antidist.errors import FixedPoint, NotScalarOnSupport, TooLarge, WrongDimension

import helpers


def test_quaternion_rep_structure():
    rep = helpers.cached_quaternion()
    assert rep.order == 8
    by_label = dict(zip(rep.labels, rep.elements))
    assert np.allclose(by_label["i"] @ by_label["j"], by_label["k"])
    assert np.allclose(by_label["-1"] @ by_label["-1"], by_label["1"])
    assert np.allclose(by_label["j"] @ by_label["i"], by_label["-k"])


def test_group_rep_validation():
    with pytest.raises(ValueError):
        GroupRep([np.array([[1.0, 1.0], [0.0, 1.0]])])  # not unitary
    with pytest.raises(ValueError):
        GroupRep([1j * np.eye(2)])  # no identity
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        GroupRep([np.eye(2), sx, sz])  # sx @ sz missing


def test_closure_audit():
    for rep in (helpers.cached_quaternion(), helpers.cached_symmetric(3), helpers.cached_cyclic(3)):
        stack = np.stack(rep.elements)
        for g in rep.elements:
            for h in rep.elements:
                dists = np.linalg.norm(stack - g @ h, axis=(1, 2))
                assert dists.min() <= 1e-7


def test_orbit_tetrahedral():
    from antidist import bloch_vectors

    orb = orbit(helpers.cached_quaternion(), tetrahedral_state())
    assert orb.members.n == 4
    assert orb.stabilizer_order == 2
    expected = sorted(tuple(np.round(r, 6)) for r in helpers.TETRA_BLOCH)
    got = sorted(tuple(np.round(r, 6)) for r in bloch_vectors(orb.members))
    assert got == expected


def test_orbit_standard_triple():
    rep = helpers.cached_symmetric(3)
    base = PureState(np.array([1, -1, 0]) / np.sqrt(2))
    orb = orbit(rep, base)
    assert orb.members.n == 3
    assert orb.stabilizer_order == 2
    expected = helpers.standard_orbit_triple()
    for m in orb.members.projectors:
        assert any(np.linalg.norm(m - p) <= 1e-9 for p in expected.projectors)


def test_orbit_fixed_point():
    rep = helpers.cached_symmetric(3)
    symmetric = PureState(np.ones(3) / np.sqrt(3))
    with pytest.raises(FixedPoint):
        orbit(rep, symmetric)


def test_orbit_dimension_guard():
    with pytest.raises(WrongDimension):
        orbit(helpers.cached_quaternion(), PureState([1, 0, 0]))


def test_orbit_stabilizer_relation_random():
    rng = np.random.default_rng(91)
    for _ in range(25):
        orb, _, _ = helpers.random_certified_orbit(rng)
        rep_order = {2: 8, 3: 6, 4: 24}[orb.base.dim]
        assert orb.stabilizer_order * orb.members.n == rep_order


def test_schur_sum_tetrahedral():
    orb = orbit(helpers.cached_quaternion(), tetrahedral_state())
    c, r_proj = schur_sum(orb)
    assert np.isclose(c, 2.0)
    assert np.allclose(r_proj, np.eye(2), atol=1e-10)
    total = orb.members.projectors.sum(axis=0)
    assert np.abs(total - 2 * np.eye(2)).max() <= 1e-10
    # irreducible case: c * stabilizer order = group order / dimension
    assert np.isclose(c * orb.stabilizer_order, 8 / 2)


def test_schur_sum_standard_triple():
    rep = helpers.cached_symmetric(3)
    orb = orbit(rep, PureState(np.array([1, -1, 0]) / np.sqrt(2)))
    c, r_proj = schur_sum(orb)
    assert np.isclose(c, 1.5)
    assert np.isclose(np.trace(r_proj).real, 2.0)
    expected = np.eye(3) - np.ones((3, 3)) / 3
    assert np.abs(orb.members.projectors.sum(axis=0) - 1.5 * expected).max() <= 1e-10


def test_schur_sum_cyclic_basis():
    rep = helpers.cached_cyclic(3)
    orb = orbit(rep, PureState([1, 0, 0]))
    c, r_proj = schur_sum(orb)
    assert np.isclose(c, 1.0)
    assert np.allclose(r_proj, np.eye(3), atol=1e-10)


def test_schur_sum_rejects_mixed_invariant_subspaces():
    rep = helpers.cached_symmetric(3)
    base = PureState(np.array([2.0, 1.0, 1.0]) / np.sqrt(6))
    orb = orbit(rep, base)
    with pytest.raises(NotScalarOnSupport):
        schur_sum(orb)


def test_covariant_povm_tetrahedral():
    orb = orbit(helpers.cached_quaternion(), tetrahedral_state())
    c, r_proj = schur_sum(orb)
    m = build_povm(orb.members, np.full(orb.members.n, 1 / c), r_proj)
    # uniform weights 1/2 with a rank-2 identity give effects (1 - P)/2
    for effect, member in zip(m.effects, orb.members.projectors):
        assert np.abs(effect - (np.eye(2) - member) / 2).max() <= 1e-10
    assert np.abs(sum(m.effects) - np.eye(2)).max() <= 1e-10
    assert verify_antidistinguishing(orb.members, m)


def test_covariant_povm_standard_triple():
    rep = helpers.cached_symmetric(3)
    orb = orbit(rep, PureState(np.array([1, -1, 0]) / np.sqrt(2)))
    c, r_proj = schur_sum(orb)
    assert np.isclose(1.0 / c, 2 / 3)
    m = build_povm(orb.members, np.full(orb.members.n, 1 / c), r_proj)
    assert verify_antidistinguishing(orb.members, m)


def test_covariant_povm_cyclic_basis():
    rep = helpers.cached_cyclic(3)
    orb = orbit(rep, PureState([1, 0, 0]))
    c, r_proj = schur_sum(orb)
    m = build_povm(orb.members, np.full(orb.members.n, 1 / c), r_proj)
    for effect, member in zip(m.effects, orb.members.projectors):
        assert np.abs(effect - (np.eye(3) - member) / 2).max() <= 1e-10
    assert verify_antidistinguishing(orb.members, m)


def test_generated_sets_always_certify():
    rng = np.random.default_rng(97)
    for _ in range(50):
        orb, c, r_proj = helpers.random_certified_orbit(rng)
        m = build_povm(orb.members, np.full(orb.members.n, 1 / c), r_proj)
        assert verify_antidistinguishing(orb.members, m)


def test_builtin_symmetric_permutation():
    rep = helpers.cached_symmetric(3)
    assert rep.order == 6
    ones = np.ones(3)
    for u in rep.elements:
        assert np.allclose(np.abs(u), u.real)  # 0/1 entries
        assert np.allclose(u.real.sum(axis=0), 1.0)
        assert np.allclose(u.real.sum(axis=1), 1.0)
        assert np.allclose(u @ ones, ones)  # symmetric vector is invariant
    with pytest.raises(TooLarge):
        builtin_symmetric_permutation(7)
    with pytest.raises(ValueError):
        builtin_symmetric_permutation(2)


def test_standard_subspace_vectors():
    vecs = standard_subspace_vectors(3)
    assert len(vecs) == 2
    psi1 = np.array([1, -1, 0]) / np.sqrt(2)
    assert np.allclose(vecs[0], psi1, atol=1e-12)
    proj = sum(np.outer(v, v.conj()) for v in vecs)
    assert np.linalg.norm(proj @ psi1 - psi1) <= 1e-10
    assert np.allclose(proj, np.eye(3) - np.ones((3, 3)) / 3, atol=1e-10)
    for n in (2, 4, 5):
        assert len(standard_subspace_vectors(n)) == n - 1
