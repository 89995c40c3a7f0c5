"""The one sameness test, ``states.first_match``, against the pairwise
reference loops of ``helpers``, and every construction that relies on it."""

import numpy as np
import pytest

from antidist import (
    GroupRep,
    StateSet,
    two_n_construction,
    verify_antidistinguishing,
)
from antidist import linalg
from antidist.errors import DuplicateState
from antidist.states import first_match

import helpers

#: planted distances and whether they count as the same operator
PLANTED = ((0.0, True), (0.5e-7, True), (2e-7, False), (1e-6, False))


def _at_distance(op: np.ndarray, distance: float, rng: np.random.Generator) -> np.ndarray:
    e = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    return op + distance * e / np.linalg.norm(e)


def _random_ops(kind: str, d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "unitary":
        return np.stack([helpers.haar_unitary(d, rng) for _ in range(m)])
    if kind == "pure":
        return np.stack([helpers.random_pure(d, rng).projectors[0] for _ in range(m)])
    mats = []
    for _ in range(m):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        mats.append(rho / np.trace(rho).real)
    return np.stack(mats)


@pytest.mark.parametrize("kind", ["unitary", "pure", "mixed"])
def test_first_match_agrees_with_pairwise_loop(kind):
    rng = np.random.default_rng(101)
    for d in range(2, 9):
        known = _random_ops(kind, d, 12, rng)
        ops, expected = list(_random_ops(kind, d, 4, rng)), [-1] * 4
        for distance, same in PLANTED:
            for j in rng.choice(len(known), 3, replace=False):
                ops.append(_at_distance(known[j], distance, rng))
                expected.append(int(j) if same else -1)
        got = first_match(known, np.stack(ops))
        assert got.tolist() == expected
        assert got.tolist() == helpers.pairwise_first_match(known, ops).tolist()


def test_first_match_returns_the_first_of_several_matches():
    rng = np.random.default_rng(102)
    a, b = _random_ops("unitary", 8, 2, rng)
    known = np.stack([b, _at_distance(a, 0.5e-7, rng), a, _at_distance(a, 0.3e-7, rng)])
    assert first_match(known, np.stack([a, b, -a])).tolist() == [1, 0, -1]


def test_first_match_sees_through_global_phase():
    rng = np.random.default_rng(103)
    for d in range(2, 9):
        states = [helpers.random_pure(d, rng) for _ in range(6)]
        rotated = [StateSet(np.exp(1j * rng.uniform(0, 2 * np.pi)) * s.vectors) for s in states]
        known = np.concatenate([s.projectors for s in states])
        ops = np.concatenate([s.projectors for s in rotated[::-1]])
        assert first_match(known, ops).tolist() == [5, 4, 3, 2, 1, 0]
        # the unitaries themselves differ by the phase
        u = helpers.haar_unitary(d, rng)
        assert first_match(u[None], (np.exp(1e-3j) * u)[None]).tolist() == [-1]


def _first_pair(ops):
    """The first pair (i, j), i < j, in row order whose operators match."""
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if helpers.pairwise_first_match([ops[i]], [ops[j]])[0] == 0:
                return i, j
    return None


def test_state_set_agrees_with_pairwise_loop():
    rng = np.random.default_rng(104)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        members = [helpers.random_pure(d, rng) for _ in range(int(rng.integers(2, 7)))]
        for _ in range(int(rng.integers(0, 3))):
            k = int(rng.integers(0, len(members)))
            distance, _ = PLANTED[int(rng.integers(0, len(PLANTED)))]
            v = members[k].vectors[0]
            w = helpers.random_vector(d, rng)
            w -= np.vdot(v, w) * v
            w /= np.linalg.norm(w)
            # ||P - Q||_F = sqrt(2) sin(theta) for unit vectors at angle theta
            theta = np.arcsin(distance / np.sqrt(2))
            copy = StateSet([np.exp(0.7j) * (np.cos(theta) * v + np.sin(theta) * w)])
            members.insert(int(rng.integers(0, len(members) + 1)), copy)
        pair = _first_pair([m.projectors[0] for m in members])
        if pair is None:
            assert StateSet.join(*members).n == len(members)
        else:
            with pytest.raises(DuplicateState, match=f"states {pair[0]} and {pair[1]} "):
                StateSet.join(*members)


def test_orbit_agrees_with_pairwise_dedupe():
    rng = np.random.default_rng(105)
    for _ in range(30):
        orb, _, _ = helpers.random_certified_orbit(rng)
        rep = {2: helpers.cached_quaternion(), 3: helpers.cached_symmetric(3),
               4: helpers.cached_symmetric(4)}[orb.base.dim]
        images = [np.outer(v, v.conj()) for v in (u @ orb.base.vectors[0] for u in rep.elements)]
        first = helpers.pairwise_first_match(images, images)
        kept = [images[k] for k in range(len(images)) if first[k] == k]
        assert orb.members.n == len(kept)
        for member, expected in zip(orb.members.projectors, kept):
            assert np.linalg.norm(member - expected) <= 1e-12
        assert orb.stabilizer_order * len(kept) == rep.order


def _merge_loop(states, effects):
    """The pairwise merge of the doubling construction: each state joins the
    first kept state it matches, and its effect is added to that one's."""
    kept, summed = [], []
    for state, effect in zip(states, effects):
        for k, existing in enumerate(kept):
            if helpers.pairwise_first_match([existing], [state])[0] == 0:
                summed[k] = summed[k] + effect
                break
        else:
            kept.append(state)
            summed.append(effect)
    return kept, summed


def test_two_n_agrees_with_merge_loop():
    rng = np.random.default_rng(106)
    sets = [StateSet([[1, 0], [0, 1]]),
            StateSet([[1, 0], [0, 1], helpers.random_vector(2, rng)]),
            helpers.random_orthonormal_subset(2, 2, rng)]
    sets += [StateSet([helpers.random_vector(d, rng) for _ in range(d)]) for d in (2, 3, 4)]
    for states in sets:
        n, d = states.n, states.dim
        ops, effects = [], []
        for v, p in zip(states.vectors, states.projectors):
            # the pure partner: the first column of the SVD complement of v
            phi = linalg.complements(v[None])[0, :, 0]
            ops += [p, np.outer(phi, phi.conj())]
            effects += [(np.eye(d) - p) / n, p / n]
        kept, summed = _merge_loop(ops, effects)
        enlarged, m = two_n_construction(states)
        assert enlarged.n == len(kept) == len(m.effects)
        for got, want in zip(enlarged.projectors, kept):
            assert np.linalg.norm(got - want) <= 1e-12
        for got, want in zip(m.effects, summed):
            assert np.linalg.norm(got - want) <= 1e-12


def _two_n_sets(rng):
    """Seeded random sets, orthonormal subsets and basis subsets, d = 2..6, n = 1..8."""
    for d in range(2, 7):
        for n in range(1, 9):
            yield StateSet([helpers.random_vector(d, rng) for _ in range(n)])
            if n <= d:
                yield helpers.random_orthonormal_subset(d, n, rng)
                yield StateSet(np.eye(d)[rng.choice(d, n, replace=False)])


def test_two_n_adds_at_most_n_pure_states():
    rng = np.random.default_rng(108)
    checked = 0
    for _ in range(15):
        for states in _two_n_sets(rng):
            n, d = states.n, states.dim
            enlarged, m = two_n_construction(states)
            assert isinstance(enlarged, StateSet) and enlarged.dim == d
            assert np.abs(np.linalg.norm(enlarged.vectors, axis=1) - 1).max() <= 1e-12
            assert n <= enlarged.n <= 2 * n
            # the input states come first in each pair, so all of them are kept
            assert (first_match(enlarged.projectors, states.projectors) >= 0).all()
            assert verify_antidistinguishing(enlarged, m)
            if d == 2:
                # the construction that paired P with the mixed state (1 - P)/(d - 1)
                ops, effects = [], []
                for p in states.projectors:
                    ops += [p, (np.eye(d) - p) / (d - 1)]
                    effects += [(np.eye(d) - p) / n, p / n]
                kept, summed = _merge_loop(ops, effects)
                assert enlarged.n == len(kept)
                assert np.abs(enlarged.projectors - np.array(kept)).max() <= 1e-12
                assert np.abs(m.effects - np.array(summed)).max() <= 1e-12
            checked += 1
    assert checked == 1200


def test_group_rep_agrees_with_product_check():
    rng = np.random.default_rng(107)
    s4 = list(helpers.cached_symmetric(4).elements)
    q8 = list(helpers.cached_quaternion().elements)
    subgroups = ([q8[0], q8[1]], q8[:4], [s4[0], s4[1]])
    for elements in (s4, q8, list(helpers.cached_cyclic(5).elements), *subgroups):
        assert helpers.closed_by_products(elements)
        assert GroupRep(elements).order == len(elements)
    for _ in range(40):
        pool = s4 if rng.integers(0, 2) else q8
        picks = sorted(rng.choice(len(pool), int(rng.integers(1, len(pool))), replace=False))
        elements = [pool[k] for k in picks]
        closed = 0 in picks and helpers.closed_by_products(elements)
        if closed:
            assert GroupRep(elements).order == len(elements)
        else:
            with pytest.raises(ValueError, match="identity|not closed"):
                GroupRep(elements)


def test_closure_threshold():
    rep = helpers.cached_quaternion()
    k = rep.labels.index("i")
    for eps, closed in ((1e-9, True), (1e-5, False)):
        elements = list(rep.elements)
        elements[k] = np.exp(1j * eps) * elements[k]  # still unitary, ||delta|| = sqrt(2) eps
        if closed:
            assert GroupRep(elements).order == 8
        else:
            with pytest.raises(ValueError, match="not closed"):
                GroupRep(elements)
    s4 = list(helpers.cached_symmetric(4).elements)
    for k in (5, 23):
        with pytest.raises(ValueError, match="not closed"):
            GroupRep(s4[:k] + s4[k + 1:])


def test_repeated_group_elements_are_rejected():
    eye, x = np.eye(2), np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="elements 0 and 1 coincide"):
        GroupRep([eye, eye, x, x])
    with pytest.raises(ValueError, match="elements 1 and 3 coincide"):
        GroupRep([eye, x, -x, np.exp(1e-8j) * x, -eye])
