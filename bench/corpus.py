"""Seeded corpora for the three workloads, built with numpy only.

The seed changes the states drawn, never the mix of classes, so one pass
over a corpus does comparable work for every seed.  Each item carries the
answer its construction guarantees (``"yes"``, ``"no"``) or ``None`` when
only the independent oracle in ``oracle.py`` can tell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: margin by which a CFS triple must clear (or miss) the closed-form criterion
CFS_MARGIN = 0.05

#: file name of the representation used by ``--group`` requests
GROUP_FILE = "group.json"

#: builtin representation -> (requests per round, orbit size of a generic base);
#: S6 is left out: one S6 closure alone takes several seconds
ORBIT_BUILTINS = {
    "quaternion": (3, 4),
    "s3-standard": (3, 6),
    "s4-standard": (3, 24),
    "s5-standard": (1, 120),
}


@dataclass
class Item:
    """One verdict-producing request: ``check`` on a state file, or ``orbit``."""

    cls: str
    expect: str | None
    states: np.ndarray | None = None  # (n, d) complex rows, for check requests
    orbit_args: list[str] = field(default_factory=list)
    orbit_size: int = 0  # orbit length of a generic base state

    @property
    def kind(self) -> str:
        return "orbit" if self.orbit_args else "check"


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _orthogonal_unit(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    g = _gaussian(rng, u.size)
    return _unit(g - np.vdot(u, g) * u)


def _qubit_from_bloch(r: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(r[2], -1.0, 1.0))
    phi = np.arctan2(r[1], r[0])
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _random_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, 3))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _hemisphere_set(rng: np.random.Generator, n: int) -> np.ndarray:
    """Bloch vectors with a . r >= 0.1 for a random axis a: never antidistinguishable."""
    axis = _random_directions(rng, 1)[0]
    out = []
    while len(out) < n:
        r = _random_directions(rng, 1)[0]
        if r @ axis >= 0.1:
            out.append(r)
    return np.array([_qubit_from_bloch(r) for r in out])


def _balanced_set(rng: np.random.Generator, n: int) -> np.ndarray:
    """n - 1 random Bloch vectors plus the one that cancels their weighted sum."""
    r = _random_directions(rng, n - 1)
    t = rng.uniform(0.5, 1.5, n - 1)
    s = t @ r
    r = np.vstack([r, -s / np.linalg.norm(s)])
    return np.array([_qubit_from_bloch(x) for x in r])


def _weyl_orbit(rng: np.random.Generator, d: int) -> np.ndarray:
    """Weyl-Heisenberg orbit X^a Z^b psi of a random fiducial: d^2 states."""
    psi = _unit(_gaussian(rng, d))
    omega = np.exp(2j * np.pi * np.arange(d) / d)
    return np.array([np.roll(omega**b * psi, a) for a in range(d) for b in range(d)])


def _clustered(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """States sqrt(0.9) u + sqrt(0.1) g_k: squared overlaps >= 0.64."""
    u = _unit(_gaussian(rng, d))
    return np.array(
        [np.sqrt(0.9) * u + np.sqrt(0.1) * _orthogonal_unit(rng, u) for _ in range(n)]
    )


def _pair(rng: np.random.Generator, d: int) -> np.ndarray:
    u = _unit(_gaussian(rng, d))
    x = rng.uniform(0.05, 0.95)
    return np.array([u, np.sqrt(x) * u + np.sqrt(1 - x) * _orthogonal_unit(rng, u)])


def cfs_margin(states: np.ndarray) -> float:
    """Signed Caves-Fuchs-Schack margin of a pure triple: > 0 iff antidistinguishable.

    With x the three squared overlaps and s their sum, the triple is
    antidistinguishable iff s < 1 and (s - 1)^2 >= 4 x1 x2 x3.
    """
    g = np.abs(states.conj() @ states.T) ** 2
    x = np.array([g[0, 1], g[0, 2], g[1, 2]])
    s = x.sum()
    return float(min(1.0 - s, (s - 1.0) ** 2 - 4.0 * x.prod()))


def _cfs_triple(rng: np.random.Generator, want_yes: bool) -> np.ndarray:
    """Random triple in C^3 that passes the fidelity bound with CFS margin >= 0.05."""
    while True:
        states = np.array([_unit(_gaussian(rng, 3)) for _ in range(3)])
        s = (np.abs(states.conj() @ states.T) ** 2).sum() - 3.0
        m = cfs_margin(states)
        if want_yes and m >= CFS_MARGIN:
            return states
        if not want_yes and m <= -CFS_MARGIN and s <= 3.0 - 2 * CFS_MARGIN:
            return states


def _zero_sum_base(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _gaussian(rng, n)
    return _unit(g - g.mean())


def qubit_corpus(rng: np.random.Generator, rounds: int) -> list[Item]:
    """Pure qubit sets, n = 3..24; one set in three lies in an open hemisphere.

    Each round draws n = 12, 13 and 14 twice, so that the median latency
    falls inside one size class (n = 13) of ten sets, not between two.
    """
    items = []
    for k in range(rounds):
        for j, n in enumerate((*range(3, 25), 12, 13, 14)):
            if (j + k) % 3 == 0:
                items.append(Item("hemisphere", "no", _hemisphere_set(rng, n)))
            else:
                items.append(Item("balanced", "yes", _balanced_set(rng, n)))
    return items


def exact_corpus(rng: np.random.Generator, rounds: int) -> list[Item]:
    """Sets the exact stages decide in d = 3..8, plus group-orbit requests."""
    items = []
    for _ in range(rounds):
        for d in range(3, 9):
            for k in (2, (d + 2) // 2, d):
                items.append(Item("orthonormal", "yes", _haar_unitary(rng, d)[:, :k].T.copy()))
            for _ in range(2):
                items.append(Item("pair", "no", _pair(rng, d)))
            for _ in range(2):
                items.append(Item("clustered", "no", _clustered(rng, d, 3)))
            items.append(Item("weyl", "yes", _weyl_orbit(rng, d)))
        for name, (count, size) in ORBIT_BUILTINS.items():
            for _ in range(count):
                if name == "quaternion":
                    base = _unit(_gaussian(rng, 2))
                else:
                    base = _zero_sum_base(rng, int(name[1]))
                args = ["--builtin", name, "--base", vector_json(base)]
                items.append(Item("builtin-orbit", "yes", orbit_args=args, orbit_size=size))
        for _ in range(3):
            args = ["--group", GROUP_FILE, "--base", vector_json(_unit(_gaussian(rng, 3)))]
            items.append(Item("group-file", "yes", orbit_args=args, orbit_size=9))
    return items


def search_corpus(rng: np.random.Generator, rounds: int) -> list[Item]:
    """Random n = 2d sets in d = 5..8, then one CFS-yes and one CFS-no d = 3 triple.

    Random sets in d = 3 and d = 4 are left out: some of them spend the
    whole chart budget (a d = 4, n = 8 set about one time in 300), and one
    such set doubles the time of its run.
    """
    items = []
    for _ in range(rounds):
        # d = 6 twice, so the median and the 90th percentile of the latencies
        # fall inside a class (d = 6, d = 8), not on the border of two
        for d in (5, 6, 6, 7, 8):
            items.append(Item("random", None, _unit_rows(_gaussian(rng, 2 * d, d))))
    # each triple spends the full default chart budget (9-13 s on a 2-vCPU Xeon VM), so
    # one of each kind keeps a pass within the run length
    items.append(Item("cfs-yes", "yes", _cfs_triple(rng, True)))
    items.append(Item("cfs-no", "no", _cfs_triple(rng, False)))
    return items


def weyl_group_doc(d: int = 3) -> dict:
    """The Heisenberg-Weyl group {w^c X^a Z^b} for odd d: d^3 elements, closed."""
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(omega ** np.arange(d))
    elements, labels = [], []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                xa, zb = np.linalg.matrix_power(x, a), np.linalg.matrix_power(z, b)
                elements.append(omega**c * xa @ zb)
                labels.append(f"w{c}x{a}z{b}")
    return {"dim": d, "elements": [[_pairs(row) for row in m] for m in elements], "labels": labels}


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def vector_json(v: np.ndarray) -> str:
    return json.dumps(_pairs(v))


def state_doc(states: np.ndarray) -> dict:
    return {"dim": int(states.shape[1]), "states": [_pairs(v) for v in states]}


BUILDERS = {"qubit": qubit_corpus, "exact": exact_corpus, "search": search_corpus}


def build(workload: str, seed: int, rounds: int) -> list[Item]:
    return BUILDERS[workload](np.random.default_rng(seed), rounds)
