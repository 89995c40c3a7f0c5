"""JSON wire formats.

Complex numbers serialize as [re, im] pairs and matrices as row-major
nested lists.  Every float is rounded to 12 significant digits before
writing, so identical inputs (and seeds) produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .chart import Chart
from .errors import AntidistError, FileFormatError
from .group import GroupRep
from .states import Certificate, Method, Povm, PureState, StateSet, Verdict


def _sig(x: float) -> float:
    return float(f"{float(x):.12g}")


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [_sig(z.real), _sig(z.imag)]


def pair_to_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry, 0.0)
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(x, (int, float)) for x in entry)
    ):
        return complex(float(entry[0]), float(entry[1]))
    raise FileFormatError(f"expected a number or [re, im] pair, got {entry!r}")


def vector_to_wire(v) -> list:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


def wire_to_vector(entries) -> np.ndarray:
    if not isinstance(entries, list):
        raise FileFormatError(f"expected a vector as a list, got {entries!r}")
    return np.array([pair_to_complex(e) for e in entries], dtype=complex)


def matrix_to_wire(m) -> list:
    return [vector_to_wire(row) for row in np.asarray(m, dtype=complex)]


def wire_to_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list):
        raise FileFormatError(f"expected a matrix as a list of rows, got {rows!r}")
    return np.array([wire_to_vector(row) for row in rows], dtype=complex)


def real_vector_to_wire(v) -> list[float]:
    return [_sig(x) for x in np.asarray(v, dtype=float)]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_state_set(path: str, tol: float = 1e-9) -> tuple[StateSet, list[str]]:
    """Read {dim, states: [vector...], labels?}; vectors are [re, im] pairs."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "state_set" in doc:
        doc = doc["state_set"]
    try:
        dim = int(doc["dim"])
        raw = doc["states"]
        labels = doc.get("labels")
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"{path}: missing field {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise FileFormatError(f"{path}: 'states' must be a non-empty list")
    states = []
    for k, entry in enumerate(raw):
        vec = wire_to_vector(entry)
        if vec.size != dim:
            raise FileFormatError(f"{path}: state {k} has {vec.size} entries, expected {dim}")
        try:
            states.append(PureState(vec, tol))
        except AntidistError as exc:
            raise FileFormatError(f"{path}: state {k}: {exc}") from exc
    if labels is None:
        labels = [f"s{k}" for k in range(len(states))]
    if not isinstance(labels, list):
        raise FileFormatError(f"{path}: 'labels' must be a list")
    if len(labels) != len(states):
        raise FileFormatError(f"{path}: one label per state required")
    try:
        return StateSet(states, tol), [str(x) for x in labels]
    except (AntidistError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def state_set_to_doc(states: StateSet, labels=None) -> dict:
    if labels is None:
        labels = [f"s{k}" for k in range(states.n)]
    return {
        "dim": states.dim,
        "states": [vector_to_wire(v) for v in states.vectors()],
        "labels": list(labels),
    }


def load_povm(path: str, tol: float = 1e-9) -> Povm:
    """Read {dim, effects: [matrix...]}; certificate files are accepted too."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "effects" not in doc:
        if isinstance(doc.get("povm"), dict):
            doc = doc["povm"]
        elif "verdict" in doc:
            raise FileFormatError(
                f"{path}: certificate carries no POVM (verdict {doc.get('verdict')})"
            )
    try:
        dim = int(doc["dim"])
        raw = doc["effects"]
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"{path}: missing field {exc}") from exc
    effects = []
    for k, rows in enumerate(raw):
        m = wire_to_matrix(rows)
        if m.shape != (dim, dim):
            raise FileFormatError(f"{path}: effect {k} is not {dim}x{dim}")
        effects.append(m)
    try:
        return Povm(effects, tol)
    except (AntidistError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def povm_to_doc(m: Povm) -> dict:
    return {"dim": m.dim, "effects": [matrix_to_wire(e) for e in m.effects]}


def load_group(path: str, tol: float = 1e-9) -> GroupRep:
    """Read {dim, elements: [matrix...], labels?}."""
    doc = _load_json(path)
    try:
        dim = int(doc["dim"])
        raw = doc["elements"]
        labels = doc.get("labels")
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"{path}: missing field {exc}") from exc
    elements = []
    for k, rows in enumerate(raw):
        m = wire_to_matrix(rows)
        if m.shape != (dim, dim):
            raise FileFormatError(f"{path}: element {k} is not {dim}x{dim}")
        elements.append(m)
    try:
        return GroupRep(elements, labels, tol)
    except (AntidistError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_chart(path: str, states: StateSet, tol: float = 1e-9) -> Chart:
    """Read {completions: [[vector...]...], alphas?} as a seed chart."""
    doc = _load_json(path)
    try:
        raw_cols = doc["completions"]
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"{path}: missing field {exc}") from exc
    if len(raw_cols) != states.n:
        raise FileFormatError(f"{path}: one completion column per state required")
    completions = []
    for col in raw_cols:
        try:
            completions.append(tuple(PureState(wire_to_vector(v), tol) for v in col))
        except AntidistError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    alphas = doc.get("alphas")
    if alphas is not None:
        alphas = np.asarray(alphas, dtype=float)
    return Chart(states, tuple(completions), alphas)


def certificate_to_doc(cert: Certificate) -> dict:
    doc: dict = {
        "verdict": cert.verdict.value,
        "method": cert.method.value if cert.method is not None else None,
        "notes": cert.notes,
        "tool_version": __version__,
    }
    if cert.weights is not None:
        doc["weights"] = real_vector_to_wire(cert.weights)
    if cert.projector_r is not None:
        doc["projector_r"] = matrix_to_wire(cert.projector_r)
    if cert.povm is not None:
        doc["povm"] = povm_to_doc(cert.povm)
    if cert.bloch_weights is not None:
        doc["bloch_weights"] = real_vector_to_wire(cert.bloch_weights)
    if cert.added_state is not None:
        doc["added_state"] = vector_to_wire(cert.added_state)
    if cert.added_bloch is not None:
        doc["added_bloch"] = real_vector_to_wire(cert.added_bloch)
    return doc


def certificate_from_doc(doc: dict, tol: float = 1e-9) -> Certificate:
    try:
        verdict = Verdict(doc["verdict"])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"bad certificate verdict: {exc}") from exc
    method = doc.get("method")
    if method is not None:
        try:
            method = Method(method)
        except ValueError as exc:
            raise FileFormatError(f"bad certificate method: {exc}") from exc
    povm = None
    if doc.get("povm") is not None:
        effects = [wire_to_matrix(rows) for rows in doc["povm"]["effects"]]
        povm = Povm(effects, tol)
    def _vec(key):
        return np.asarray(doc[key], dtype=float) if doc.get(key) is not None else None
    return Certificate(
        verdict=verdict,
        method=method,
        weights=_vec("weights"),
        projector_r=wire_to_matrix(doc["projector_r"]) if doc.get("projector_r") is not None else None,
        povm=povm,
        bloch_weights=_vec("bloch_weights"),
        added_state=wire_to_vector(doc["added_state"]) if doc.get("added_state") is not None else None,
        added_bloch=_vec("added_bloch"),
        notes=str(doc.get("notes", "")),
    )
