"""Shared test data and generators.

The two hand-checked triples in dimension 3:

* ``sum_condition_triple`` has Gram weights (3/4, 5/8, 5/8) that reproduce
  the rank-2 span projector diag(1, 1, 0), so the explicit measurement
  formula applies.  The three effect matrices are frozen below.
* ``chart_triple`` has Gram weights (63/73, 50/73, 65/73) whose weighted
  sum is not a projection; the set is still antidistinguishable via the
  frozen completion chart.

``chart_route_triple`` is a fixed triple near the Caves-Fuchs-Schack boundary
that no stage before the chart solve decides.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from antidist import (
    GroupRep,
    StateSet,
    builtin_quaternion,
    builtin_symmetric_permutation,
    orbit,
    schur_sum,
    standard_subspace_vectors,
    state_from_bloch,
)
from antidist.linalg import orthonormal_columns
from antidist.states import DUPLICATE_TOL

S5 = np.sqrt(5.0)


def sum_condition_triple() -> StateSet:
    return StateSet([[1, 0, 0], np.array([1, 2, 0]) / S5, np.array([1, -2, 0]) / S5])


#: frozen excluding measurement for sum_condition_triple
SUM_TRIPLE_POVM = [
    np.diag([0, 9, 4]) / 12.0,
    np.array([[1 / 2, -1 / 4, 0], [-1 / 4, 1 / 8, 0], [0, 0, 1 / 3]]),
    np.array([[1 / 2, 1 / 4, 0], [1 / 4, 1 / 8, 0], [0, 0, 1 / 3]]),
]

SUM_TRIPLE_WEIGHTS = np.array([3 / 4, 5 / 8, 5 / 8])


def chart_triple() -> StateSet:
    return StateSet([[1, 0, 0], np.array([1, 2, 0]) / S5, np.array([0, 1, 2]) / S5])


def chart_triple_completions() -> np.ndarray:
    e1, e2, e3 = np.eye(3)
    return np.array([
        [e3, e2],
        [e3, np.array([2, -1, 0]) / S5],
        [np.array([0, 2, -1]) / S5, e1],
    ])


#: coefficients for the frozen chart, shape (n, d - 1)
CHART_TRIPLE_ALPHAS = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def boundary_triple(x1: float, x2: float, shift: float, rng: np.random.Generator | None = None):
    """Triple in C^3 with squared overlaps (x1, x2, x3), where x3 is the smaller root
    of the Caves-Fuchs-Schack boundary (x1 + x2 + x3 - 1)^2 = 4 x1 x2 x3 scaled by
    1 + shift: antidistinguishable for shift < 0, not for shift > 0.  The rows are
    the eigen-factor of the real Gram matrix with entries sqrt(x); with ``rng``
    each row gets a random phase and all rows one Haar unitary.  None when that
    Gram matrix has an eigenvalue <= 1e-6."""
    s0, p = x1 + x2, x1 * x2
    b = 2.0 * (s0 - 1.0) - 4.0 * p
    disc = b * b - 4.0 * (s0 - 1.0) ** 2
    if disc < 0:
        return None
    x3 = (-b - np.sqrt(disc)) / 2.0 * (1.0 + shift)
    lam, vec = np.linalg.eigh(np.sqrt(np.array([[1, x1, x2], [x1, 1, x3], [x2, x3, 1]])))
    if lam.min() <= 1e-6:
        return None
    rows = vec * np.sqrt(lam)
    if rng is not None:
        rows = (rows * np.exp(2j * np.pi * rng.random(3))[:, None]) @ haar_unitary(3, rng).T
    return StateSet(rows)


def chart_route_triple() -> StateSet:
    """CFS-yes triple (margin about 1.9e-3) whose one-Hermitian system has a unique
    solution that is not positive on the complements: the chart solve decides it."""
    return boundary_triple(0.2, 0.3, -1e-2)


TETRA_BLOCH = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3.0)


_PHI = (1 + np.sqrt(5.0)) / 2

#: the twelve vertices (0, +-1, +-phi) of an icosahedron and their cyclic shifts
ICOSA_BLOCH = np.array([np.roll((0, a, b * _PHI), k) for k in range(3)
                        for a in (1, -1) for b in (1, -1)]) / np.sqrt(1 + _PHI**2)


def bloch_set(rows) -> StateSet:
    """The pure qubit states with the unit Bloch vectors ``rows``, as one set."""
    return StateSet.join(*[state_from_bloch(r) for r in rows])


def tetrahedron() -> StateSet:
    return bloch_set(TETRA_BLOCH)


def trine() -> StateSet:
    return bloch_set([(1, 0, 0), (-0.5, np.sqrt(3) / 2, 0), (-0.5, -np.sqrt(3) / 2, 0)])


#: a real trine and its QubitBloch certificate, literally as written when
#: certificates also carried ``bloch_weights``, a copy of ``weights``
LEGACY_TRINE_STATES = {
    "dim": 2,
    "states": [[1, 0], [0.5, 0.8660254037844386], [0.5, -0.8660254037844386]],
}
LEGACY_TRINE_CERTIFICATE = {
    "bloch_weights": [0.666666666667, 0.666666666667, 0.666666666667],
    "method": "QubitBloch",
    "notes": "strictly positive weights cancel the Bloch vectors; LP margin s* = 0.333",
    "povm": {
        "dim": 2,
        "effects": [
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.666666666667, 0.0]]],
            [[[0.5, 0.0], [-0.288675134595, 0.0]], [[-0.288675134595, 0.0], [0.166666666667, 0.0]]],
            [[[0.5, 0.0], [0.288675134595, 0.0]], [[0.288675134595, 0.0], [0.166666666667, 0.0]]],
        ],
    },
    "tool_version": "0.1.0",
    "verdict": "AntidistYes",
    "weights": [0.666666666667, 0.666666666667, 0.666666666667],
}

#: a qubit pair, its completion by one state and the completion certificate,
#: literally as written when certificates also carried ``added_bloch``, the
#: Bloch vector of ``added_state``
LEGACY_COMPLETION_PAIR = {"dim": 2, "states": [[1, 0], [0.6, 0.8]]}
LEGACY_COMPLETION_STATES = {
    "dim": 2,
    "labels": ["s0", "s1", "s2"],
    "states": [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.6, 0.0], [0.8, 0.0]],
        [[0.4472135955, 0.0], [-0.894427191, -1.09535739653e-16]],
    ],
}
LEGACY_COMPLETION_CERTIFICATE = {
    "added_bloch": [-0.8, -0.0, -0.6],
    "added_state": [[0.4472135955, 0.0], [-0.894427191, -1.09535739653e-16]],
    "method": "QubitBloch",
    "notes": "added one state to make the set antidistinguishable",
    "povm": {
        "dim": 2,
        "effects": [
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.625, 0.0]]],
            [[[0.4, 0.0], [-0.3, 0.0]], [[-0.3, 0.0], [0.225, 0.0]]],
            [[[0.6, 0.0], [0.3, -3.67394039744e-17]],
             [[0.3, 3.67394039744e-17], [0.15, -1.32733036252e-34]]],
        ],
    },
    "tool_version": "0.1.0",
    "verdict": "AntidistYes",
    "weights": [0.625, 0.625, 0.75],
}


def standard_orbit_triple() -> StateSet:
    return StateSet(np.array([[1, -1, 0], [1, 0, -1], [0, 1, -1]]) / np.sqrt(2))


def random_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_pure(d: int, rng: np.random.Generator) -> StateSet:
    """One random pure state, as a one-row set."""
    return StateSet([random_vector(d, rng)])


def clustered(d: int, spread: float, rng: np.random.Generator, n: int | None = None) -> StateSet:
    """n states (d by default) about e_1: a spread of 0.6 is often not
    antidistinguishable, 1.0 often is."""
    rows = np.eye(d)[0] + spread * np.array([random_vector(d, rng) for _ in range(n or d)])
    return StateSet([r / np.linalg.norm(r) for r in rows])


def random_qubit_set(n: int, rng: np.random.Generator) -> StateSet:
    while True:
        try:
            return StateSet([random_vector(2, rng) for _ in range(n)])
        except Exception:
            continue


def real_qubit_set(n: int, rng: np.random.Generator) -> StateSet:
    """n random qubit states with real amplitudes, so that their Bloch vectors
    lie on the great circle y = 0."""
    half = rng.uniform(0, np.pi, n)
    return StateSet(np.column_stack([np.cos(half), np.sin(half)]))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (Gram-Schmidt of a Gaussian matrix)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return orthonormal_columns(z)


def random_orthonormal_subset(d: int, n: int, rng: np.random.Generator) -> StateSet:
    u = haar_unitary(d, rng)
    return StateSet(u[:, :n].T)


@lru_cache(maxsize=None)
def cached_quaternion() -> GroupRep:
    return builtin_quaternion()


@lru_cache(maxsize=None)
def cached_symmetric(n: int) -> GroupRep:
    return builtin_symmetric_permutation(n)


@lru_cache(maxsize=None)
def cached_cyclic(d: int) -> GroupRep:
    shift = np.zeros((d, d), dtype=complex)
    for k in range(d):
        shift[(k + 1) % d, k] = 1.0
    mats = [np.linalg.matrix_power(shift, k) for k in range(d)]
    return GroupRep(mats, [f"c{k}" for k in range(d)])


def pairwise_first_match(known, ops) -> np.ndarray:
    """Reference for ``states.first_match``: the pairwise Frobenius loop."""
    out = np.full(len(ops), -1)
    for i, q in enumerate(ops):
        for j, a in enumerate(known):
            if np.linalg.norm(q - a) <= DUPLICATE_TOL:
                out[i] = j
                break
    return out


def closed_by_products(elements) -> bool:
    """Reference closure check: each of the |G|^2 products lies within
    ``DUPLICATE_TOL`` of some element."""
    return all(
        (pairwise_first_match(elements, [g @ h]) >= 0).all() for g in elements for h in elements
    )


def random_zero_sum_base(n: int, rng: np.random.Generator) -> StateSet:
    """Random pure state inside the zero-coordinate-sum subspace of C^n, as a one-row set."""
    basis = standard_subspace_vectors(n)
    coeffs = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    v = sum(c * b for c, b in zip(coeffs, basis))
    return StateSet([v / np.linalg.norm(v)])


def random_certified_orbit(rng: np.random.Generator):
    """Random orbit whose sum is scalar on its span, with (c, R).

    Draws from the quaternion action on a random qubit state or a
    symmetric-group action on a random zero-sum vector.
    """
    kind = rng.integers(0, 3)
    if kind == 0:
        rep = cached_quaternion()
        base = random_pure(2, rng)
    elif kind == 1:
        rep = cached_symmetric(3)
        base = random_zero_sum_base(3, rng)
    else:
        rep = cached_symmetric(4)
        base = random_zero_sum_base(4, rng)
    orb = orbit(rep, base)
    c, r_proj = schur_sum(orb)
    return orb, c, r_proj


def linprog_margin(bloch: np.ndarray) -> float:
    """Independent oracle for the margin: maximize s s.t. sum t_j r_j = 0,
    sum t_j = 1, t_j >= s (t and s free), via scipy's LP solver; -inf when
    the LP is infeasible."""
    from scipy.optimize import linprog

    n = bloch.shape[0]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.zeros((4, n + 1))
    a_eq[:3, :n] = bloch.T
    a_eq[3, :n] = 1.0
    b_eq = np.array([0.0, 0.0, 0.0, 1.0])
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=(None, None),
                  method="highs")
    if res.status == 2:
        return -np.inf
    assert res.status == 0, res.message
    return float(res.x[-1])


def linprog_strictly_feasible(bloch: np.ndarray, threshold: float = 1e-9) -> bool:
    """Independent oracle: maximize eps s.t. sum t_j r_j = 0, sum t_j = 2,
    t_j >= eps, via scipy's LP solver."""
    return 2.0 * linprog_margin(bloch) > threshold


def enumeration_strictly_feasible(bloch: np.ndarray, threshold: float = 1e-9) -> bool:
    """Independent oracle for n <= 12, by enumeration of basic solutions.

    Every nonnegative solution of [r_j; 1] t = (0, 0, 0, 2) is a convex
    combination of basic ones, whose supports have at most four members.
    Strictly positive weights exist iff every coordinate is positive in one
    of them (their average is then such a solution).  O(n^4) lstsq calls.
    """
    n = bloch.shape[0]
    if n > 12:
        raise ValueError("the enumeration oracle is meant for n <= 12")
    a = np.vstack([bloch.T, np.ones(n)])
    b = np.array([0.0, 0.0, 0.0, 2.0])
    covered = np.zeros(n, dtype=bool)
    for size in range(1, min(n, 4) + 1):
        for support in combinations(range(n), size):
            cols = a[:, support]
            t, *_ = np.linalg.lstsq(cols, b, rcond=None)
            if np.linalg.norm(cols @ t - b) <= 1e-9 and t.min() >= -1e-12:
                covered[list(support)] |= t > threshold
    return bool(covered.all())


def hemisphere_qubit_set(n: int, rng: np.random.Generator) -> StateSet:
    """n random pure qubit states whose Bloch vectors lie in one open
    hemisphere, so the set is not antidistinguishable."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    rows = rng.standard_normal((n, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= np.sign(rows @ axis)[:, None]
    return bloch_set(rows)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Random 3 x 3 rotation matrix (determinant +1)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    return q * np.sign(np.linalg.det(q))


def cfs_margin(states: StateSet) -> float:
    """Signed Caves-Fuchs-Schack margin of a pure triple, the closed-form
    oracle for three states: > 0 iff antidistinguishable.

    With x the three squared overlaps and s their sum, the triple is
    antidistinguishable iff s < 1 and (s - 1)^2 >= 4 x1 x2 x3.
    """
    v = states.vectors
    g = np.abs(v.conj() @ v.T) ** 2
    x = np.array([g[0, 1], g[0, 2], g[1, 2]])
    s = x.sum()
    return float(min(1.0 - s, (s - 1.0) ** 2 - 4.0 * x.prod()))


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop product, the hand-multiplication oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out
