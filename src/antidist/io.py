"""JSON wire formats.

A complex number is an [re, im] pair, a vector a list of pairs, a matrix a
row-major list of vectors and a stack of matrices a list of matrices; real
vectors are lists of floats.

``dumps_doc`` writes a document with its keys sorted and indented by two,
and each vector or matrix row on one line.  It writes every float of an
array once, as ``'%.12g' % x`` (12 significant digits), so identical inputs
give byte-identical files.  The readers take any JSON layout, the older
one-number-per-line files included, and bare real numbers in place of
pairs.  They turn each array into numpy with one call and fall back to one
entry at a time only to name a malformed entry.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from . import __version__, linalg
from .errors import AntidistError, FileFormatError
from .group import GroupRep
from .states import Certificate, Method, Povm, StateSet, Verdict

#: the types of JSON numbers: exact, so that true and false (bool) are not numbers
_NUMBERS = frozenset({int, float})
#: JSON's names of the floats that '%.12g' writes as nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: compact JSON with sorted keys, through json's C encoder
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _pairs(a) -> list:
    """A complex array as nested lists that end in [re, im] pairs of floats."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


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


def _complex_array(raw, ndim: int) -> np.ndarray | None:
    """``raw`` as a complex array of ``ndim`` axes in one numpy call, when it
    is lists nested ``ndim`` deep over [re, im] pairs of ints and floats
    alone and of one shape; None otherwise, for the per-entry readers."""
    leaves = raw
    try:
        for _ in range(ndim):
            leaves = chain.from_iterable(leaves)
        if not set(map(type, leaves)) <= _NUMBERS:
            return None
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a bare leaf, ragged rows, 10**400
        return None
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        return None
    return arr.view(complex)[..., 0]


def vector_to_wire(v) -> list:
    return _pairs(v)


def wire_to_vector(entries) -> np.ndarray:
    vec = _complex_array(entries, 1)
    if vec is not None:
        return vec
    if not isinstance(entries, list):
        raise FileFormatError(f"expected a vector as a list, got {entries!r}")
    return np.array([pair_to_complex(e) for e in entries], dtype=complex)


def matrix_to_wire(m) -> list:
    return _pairs(m)


def wire_to_matrix(rows) -> np.ndarray:
    mat = _complex_array(rows, 2)
    if mat is not None:
        return mat
    if not isinstance(rows, list):
        raise FileFormatError(f"expected a matrix as a list of rows, got {rows!r}")
    vectors = [wire_to_vector(row) for row in rows]
    try:
        return np.array(vectors, dtype=complex)
    except ValueError as exc:  # numpy rejects rows of unequal length
        raise FileFormatError(f"matrix rows differ in length: {rows!r}") from exc


def real_vector_to_wire(v) -> list[float]:
    return np.asarray(v, dtype=float).tolist()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def dumps_doc(doc: dict) -> str:
    """``doc`` as JSON text: keys sorted, dicts and lists of matrices spread
    over lines indented by two, each vector or matrix row of floats on one
    line with every float at 12 significant digits, anything else compact."""
    return _layout(doc, "\n") + "\n"


def _layout(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{_compact(key)}: {_layout(value[key], inner)}" for key in sorted(value)]
        return "{" + ",".join(items) + newline + "}"
    depth = _depth(value)
    if depth > 3:
        return "[" + ",".join([inner + _layout(item, inner) for item in value]) + newline + "]"
    rows = _float_rows(value if depth == 3 else [value]) if depth else None
    if rows is None:
        return _compact(value)
    if depth < 3:
        return rows[0]
    return "[" + ",".join([inner + row for row in rows]) + newline + "]"


def _depth(value) -> int:
    """How deep lists nest along the first items of ``value``."""
    depth = 0
    while isinstance(value, list) and value:
        value, depth = value[0], depth + 1
    return depth


def _float_rows(rows: list) -> list[str] | None:
    """Rows of one length, each a list of floats or of [re, im] pairs of
    floats, as one line of JSON each; None for any other list."""
    try:
        items = list(chain.from_iterable(rows))
        pairs = type(items[0]) is list
        flat = list(chain.from_iterable(items)) if pairs else items
        width = len(items) // len(rows)
        if (set(map(len, rows)) != {width} or set(map(type, flat)) != {float}
                or pairs and set(map(len, items)) != {2}):
            return None
    except TypeError:  # a row or an item that is not a list
        return None
    template = "[" + ",".join(["[%s,%s]" if pairs else "%s"] * width) + "]"
    texts, step = _floats(flat), len(flat) // len(rows)
    return [template % tuple(texts[k:k + step]) for k in range(0, len(texts), step)]


def _floats(values) -> list[str]:
    """Each float as JSON text: '%.12g' with '.0' on an integral value, so that
    it reads back as a float, and JSON's names for the non-finite ones."""
    return [text if "." in text or "e" in text else _NON_FINITE.get(text, text + ".0")
            for text in map("%.12g".__mod__, values)]


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
    rows = _complex_array(raw, 2)
    if rows is None or rows.shape[1] != dim:
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
    return {"dim": states.dim, "states": _pairs(states.vectors), "labels": list(labels)}


def _square_matrices(path: str, raw: list, dim: int, what: str) -> np.ndarray | list[np.ndarray]:
    """The entries of ``raw`` as dim x dim matrices, each named ``what``."""
    stack = _complex_array(raw, 3)
    if stack is not None and stack.shape[1:] == (dim, dim):
        return stack
    mats = [wire_to_matrix(rows) for rows in raw]
    for k, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise FileFormatError(f"{path}: {what} {k} is not {dim}x{dim}")
    return mats


def load_povm(path: str, tol: float = linalg.DEFAULT_TOL) -> Povm:
    """Read {dim, effects: [matrix...]}, or the POVM of an AntidistYes
    certificate, after the whole certificate has been read."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "verdict" not in doc and "povm" not in doc:
        return _povm_from_doc(path, doc, tol)
    try:
        cert = certificate_from_doc(doc, tol)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if cert.povm is None:
        raise FileFormatError(f"{path}: {cert.verdict.value} certificate carries no POVM")
    if cert.verdict is not Verdict.YES:
        raise FileFormatError(f"{path}: {cert.verdict.value} certificate cannot certify its POVM")
    return cert.povm


def _povm_from_doc(path: str, doc, tol: float) -> Povm:
    dim, raw, _ = _entries(path, doc, "effects")
    effects = _square_matrices(path, raw, dim, "effect")
    try:
        return Povm(effects, tol)
    except (AntidistError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def povm_to_doc(m: Povm) -> dict:
    return {"dim": m.dim, "effects": _pairs(m.effects)}


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
    if not isinstance(entries, list) or not set(map(type, entries)) <= _NUMBERS:
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
