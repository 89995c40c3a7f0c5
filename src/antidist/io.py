"""JSON wire formats.

Complex numbers serialize as [re, im] pairs and matrices as row-major
nested lists.  Every float is rounded to 12 significant digits before
writing, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__, linalg
from .errors import AntidistError, FileFormatError
from .group import GroupRep
from .states import Certificate, Method, Povm, StateSet, Verdict


def _sig(x: float) -> float:
    return float(f"{float(x):.12g}")


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [_sig(z.real), _sig(z.imag)]


#: the types of JSON numbers: exact, so that true and false (bool) are not numbers
_NUMBERS = (int, float)


def pair_to_complex(entry) -> complex:
    try:
        if type(entry) in _NUMBERS:
            return complex(entry, 0.0)
        if type(entry) in (list, tuple) and len(entry) == 2:
            re, im = entry
            if type(re) in _NUMBERS and type(im) in _NUMBERS:
                return complex(float(re), float(im))
    except OverflowError as exc:  # an integer beyond the float range
        raise FileFormatError(f"number out of float range in {entry!r}") from exc
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
    vectors = [wire_to_vector(row) for row in rows]
    try:
        return np.array(vectors, dtype=complex)
    except ValueError as exc:  # numpy rejects rows of unequal length
        raise FileFormatError(f"matrix rows differ in length: {rows!r}") from exc


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


def _entries(path: str, doc, key: str) -> tuple[int, list, list | None]:
    """The document's dim, an integer >= 1 (2.0 counts; true, 2.7 and "2" do not),
    its non-empty list ``doc[key]``, and its labels list if any."""
    try:
        dim, raw, labels = doc["dim"], doc[key], doc.get("labels")
    except (TypeError, KeyError) as exc:
        raise FileFormatError(f"{path}: missing field {exc}") from exc
    if type(dim) not in _NUMBERS or not dim >= 1 or dim % 1:
        raise FileFormatError(f"{path}: 'dim' must be an integer >= 1, got {dim!r}")
    if not isinstance(raw, list) or not raw:
        raise FileFormatError(f"{path}: '{key}' must be a non-empty list")
    if labels is not None and not isinstance(labels, list):
        raise FileFormatError(f"{path}: 'labels' must be a list")
    return int(dim), raw, labels


def load_state_set(path: str) -> tuple[StateSet, list[str]]:
    """Read {dim, states: [vector...], labels?}; vectors are [re, im] pairs."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "state_set" in doc:
        doc = doc["state_set"]
    dim, raw, labels = _entries(path, doc, "states")
    rows = [wire_to_vector(entry) for entry in raw]
    for k, vec in enumerate(rows):
        if vec.size != dim:
            raise FileFormatError(f"{path}: state {k} has {vec.size} entries, expected {dim}")
    try:
        states = StateSet(rows)
    except (AntidistError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if labels is None:
        labels = [f"s{k}" for k in range(states.n)]
    if len(labels) != states.n:
        raise FileFormatError(f"{path}: one label per state required")
    return states, [str(x) for x in labels]


def state_set_to_doc(states: StateSet, labels=None) -> dict:
    if labels is None:
        labels = [f"s{k}" for k in range(states.n)]
    return {
        "dim": states.dim,
        "states": [vector_to_wire(v) for v in states.vectors],
        "labels": list(labels),
    }


def _square_matrices(path: str, raw: list, dim: int, what: str) -> list[np.ndarray]:
    """The entries of ``raw`` as dim x dim matrices, each named ``what``."""
    mats = [wire_to_matrix(rows) for rows in raw]
    for k, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise FileFormatError(f"{path}: {what} {k} is not {dim}x{dim}")
    return mats


def load_povm(path: str, tol: float = linalg.DEFAULT_TOL) -> Povm:
    """Read {dim, effects: [matrix...]}; certificate files are accepted too."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "effects" not in doc:
        if doc.get("povm") is None and "verdict" in doc:
            raise FileFormatError(f"{path}: {doc['verdict']} certificate carries no POVM")
        doc = doc.get("povm", doc)
    return _povm_from_doc(path, doc, tol)


def _povm_from_doc(path: str, doc, tol: float) -> Povm:
    dim, raw, _ = _entries(path, doc, "effects")
    effects = _square_matrices(path, raw, dim, "effect")
    try:
        return Povm(effects, tol)
    except (AntidistError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def povm_to_doc(m: Povm) -> dict:
    return {"dim": m.dim, "effects": [matrix_to_wire(e) for e in m.effects]}


def load_group(path: str, tol: float = linalg.DEFAULT_TOL) -> GroupRep:
    """Read {dim, elements: [matrix...], labels?}."""
    doc = _load_json(path)
    dim, raw, labels = _entries(path, doc, "elements")
    elements = _square_matrices(path, raw, dim, "element")
    try:
        return GroupRep(elements, labels, tol)
    except (AntidistError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _real_vector(entries) -> np.ndarray:
    if not isinstance(entries, list) or any(type(x) not in _NUMBERS for x in entries):
        raise FileFormatError(f"expected a list of real numbers, got {entries!r}")
    try:
        return np.array(entries, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise FileFormatError(f"number out of float range in {entries!r}") from exc


#: optional certificate evidence: key (also the Certificate field), writer, reader
_EVIDENCE = (
    ("weights", real_vector_to_wire, _real_vector),
    ("projector_r", matrix_to_wire, wire_to_matrix),
    ("added_state", vector_to_wire, wire_to_vector),
    ("added_bloch", real_vector_to_wire, _real_vector),
    ("witness", matrix_to_wire, wire_to_matrix),
)


def certificate_to_doc(cert: Certificate) -> dict:
    doc: dict = {
        "verdict": cert.verdict.value,
        "method": cert.method.value if cert.method is not None else None,
        "notes": cert.notes,
        "tool_version": __version__,
    }
    if cert.povm is not None:
        doc["povm"] = povm_to_doc(cert.povm)
    for key, write, _ in _EVIDENCE:
        if getattr(cert, key) is not None:
            doc[key] = write(getattr(cert, key))
    return doc


def certificate_from_doc(doc: dict, tol: float = linalg.DEFAULT_TOL) -> Certificate:
    """The certificate a document describes; FileFormatError when it is malformed."""
    try:
        verdict = Verdict(doc["verdict"])
        method = None if doc.get("method") is None else Method(doc["method"])
    except (TypeError, KeyError, ValueError) as exc:
        raise FileFormatError(f"bad certificate verdict or method: {exc}") from exc
    povm = doc.get("povm")
    povm = None if povm is None else _povm_from_doc("certificate povm", povm, tol)
    evidence = {key: read(doc[key]) for key, _, read in _EVIDENCE if doc.get(key) is not None}
    return Certificate(verdict, method, povm=povm, notes=str(doc.get("notes", "")), **evidence)
