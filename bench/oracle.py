"""Independent correctness checks, computed with numpy and scipy alone.

Nothing here imports the package under test.  Every check reads the files
the program wrote (certificates, emitted state sets) and the states the
benchmark generated, and returns a reason string on failure or None.
"""

from __future__ import annotations

import json
import re

import numpy as np
from scipy.optimize import linprog

from corpus import cfs_margin

#: slack for re-checking emitted POVMs; certificates carry 12 significant digits
POVM_TOL = 1e-8

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

VERDICTS = {0: "AntidistYes", 1: "AntidistNo", 3: "Unknown"}


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def complex_array(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def states_from_doc(doc: dict) -> np.ndarray:
    """(n, d) array of unit rows from a state-set document."""
    if "state_set" in doc:
        doc = doc["state_set"]
    rows = complex_array(doc["states"])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def qubit_lp_feasible(states: np.ndarray) -> bool:
    """LP: max s subject to sum t_j r_j = 0, sum t_j = 1, t_j >= s.

    Strictly positive weights cancelling the Bloch vectors exist iff s* > 0.
    """
    r = np.einsum("ni,kij,nj->nk", states.conj(), PAULI, states).real
    n = len(states)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.zeros((4, n + 1))
    a_eq[:3, :n] = r.T
    a_eq[3, :n] = 1.0
    b_eq = np.array([0.0, 0.0, 0.0, 1.0])
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n + [(None, 1.0)], method="highs")
    if res.status == 2:  # infeasible: the Bloch vectors lie in a closed half-space
        return False
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return bool(-res.fun > 1e-9)


def truth(item, states: np.ndarray | None) -> str | None:
    """The oracle's answer for an item: the LP for qubits, CFS for triples,
    else the construction label.  Raises if two oracles disagree."""
    answer = item.expect
    if states is not None and states.shape[1] == 2:
        lp = "yes" if qubit_lp_feasible(states) else "no"
        if answer is not None and lp != answer:
            raise RuntimeError(f"LP says {lp}, construction says {answer}")
        answer = lp
    if item.cls.startswith("cfs"):
        cfs = "yes" if cfs_margin(states) > 0 else "no"
        if cfs != answer:
            raise RuntimeError(f"CFS says {cfs}, construction says {answer}")
    return answer


def recheck_povm(cert: dict, states: np.ndarray) -> str | None:
    """eigvalsh re-check of an emitted excluding measurement, from the file alone."""
    povm = cert.get("povm")
    if not isinstance(povm, dict):
        return "YES certificate carries no POVM"
    effects = complex_array(povm["effects"])
    n, d = states.shape
    if effects.shape != (n, d, d):
        return f"POVM shape {effects.shape}, expected {(n, d, d)}"
    herm = np.abs(effects - effects.conj().transpose(0, 2, 1)).max()
    if herm > POVM_TOL:
        return f"effects not Hermitian (deviation {herm:.2e})"
    low = np.linalg.eigvalsh(effects).min()
    if low < -POVM_TOL:
        return f"effect eigenvalue {low:.2e} < 0"
    resid = np.abs(effects.sum(axis=0) - np.eye(d)).max()
    if resid > POVM_TOL:
        return f"effects sum to identity only up to {resid:.2e}"
    hits = np.einsum("ni,nij,nj->n", states.conj(), effects, states).real
    if np.abs(hits).max() > POVM_TOL:
        return f"tr(rho_j M_j) reaches {np.abs(hits).max():.2e}"
    return None


_FIDELITY_NOTE = re.compile(r"sum ([-+0-9.e]+) exceeds n\(n-2\) = ([-+0-9.e]+)")


def recheck_fidelity(cert: dict, states: np.ndarray) -> str | None:
    """Recompute the ordered-pair fidelity sum behind a FidelityViolation NO."""
    n = len(states)
    total = (np.abs(states.conj() @ states.T) ** 2).sum() - n
    if not total > n * (n - 2) + 1e-9:
        return f"fidelity sum {total:.6g} does not exceed n(n-2) = {n * (n - 2)}"
    m = _FIDELITY_NOTE.search(cert.get("notes", ""))
    if m is None:
        return "FidelityViolation certificate does not state its sum"
    if abs(float(m.group(1)) - total) > 1e-9 * max(1.0, total):
        return f"stated fidelity sum {m.group(1)} differs from recomputed {total:.12g}"
    return None


def check_verdict(code: int, cert: dict, states: np.ndarray, answer: str | None) -> str | None:
    """Check one verdict-producing request (check or orbit) from its files."""
    verdict = cert.get("verdict")
    if VERDICTS.get(code) != verdict:
        return f"exit code {code} does not match certificate verdict {verdict}"
    if verdict == "AntidistYes":
        if answer == "no":
            return "YES for a set the oracle refutes"
        return recheck_povm(cert, states)
    if verdict == "AntidistNo":
        if answer == "yes":
            return "NO for a set the oracle accepts"
        if cert.get("method") == "FidelityViolation":
            return recheck_fidelity(cert, states)
    return None


def check_orbit(states: np.ndarray, base: np.ndarray, size: int) -> str | None:
    """An emitted orbit has the size a generic base gives and contains the base."""
    if len(states) != size:
        return f"orbit has {len(states)} states, expected {size}"
    if np.abs(states.conj() @ base).max() < 1 - 1e-9:
        return "orbit does not contain its base state"
    return None


def check_completion(states: np.ndarray, enlarged: np.ndarray, cert: dict) -> str | None:
    """A completion adds at most one state and must make the set antidistinguishable."""
    n = len(states)
    if len(enlarged) not in (n, n + 1):
        return f"completion returned {len(enlarged)} states for {n}"
    overlap = np.abs(np.einsum("ni,ni->n", states.conj(), enlarged[:n]))
    if overlap.min() < 1 - 1e-9:
        return "completion changed the original states"
    if cert.get("verdict") != "AntidistYes":
        return f"completion certificate verdict {cert.get('verdict')}"
    if not qubit_lp_feasible(enlarged):
        return "LP refutes the completed set"
    return recheck_povm(cert, enlarged)
