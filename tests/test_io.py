import json

import numpy as np
import pytest

from antidist import io
from antidist.errors import FileFormatError

import helpers


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_complex_pair_conversions():
    assert io.vector_to_wire(np.array([1 + 2j])) == [[1.0, 2.0]]
    assert io.pair_to_complex([1.0, -2.0]) == 1 - 2j
    assert io.pair_to_complex(0.5) == 0.5 + 0j
    with pytest.raises(FileFormatError):
        io.pair_to_complex([1.0, 2.0, 3.0])


def test_matrix_reader_names_the_fault():
    with pytest.raises(FileFormatError, match="differ in length"):
        io.wire_to_matrix([[1, 0], [0]])
    with pytest.raises(FileFormatError, match="expected a number"):
        io.wire_to_matrix([[1, None], [0, 1]])
    with pytest.raises(FileFormatError, match="expected a number"):
        io.wire_to_vector([True, 0])


def written(x: float) -> float:
    """``x`` as ``dumps_doc`` writes it, read back."""
    return json.loads(io.dumps_doc({"weights": io.real_vector_to_wire([x])}))["weights"][0]


def test_sig_rounding_is_idempotent():
    x = 1 / 3
    once = written(x)
    assert written(once) == once
    assert f"{once:.12g}" == f"{x:.12g}"
    assert abs(once - x) <= 1e-12


def test_state_set_roundtrip(tmp_path):
    triple = helpers.sum_condition_triple()
    path = write(tmp_path, "s.json", io.state_set_to_doc(triple, ["x", "y", "z"]))
    loaded, labels = io.load_state_set(path)
    assert labels == ["x", "y", "z"]
    for a, b in zip(loaded.projectors, triple.projectors):
        assert np.linalg.norm(a - b) <= 1e-10


def test_state_set_label_count_mismatch(tmp_path):
    doc = io.state_set_to_doc(helpers.trine())
    doc["labels"] = ["only-one"]
    path = write(tmp_path, "bad.json", doc)
    with pytest.raises(FileFormatError):
        io.load_state_set(path)


def test_state_set_dimension_mismatch(tmp_path):
    doc = {"dim": 3, "states": [[[1, 0], [0, 0]]]}
    path = write(tmp_path, "short.json", doc)
    with pytest.raises(FileFormatError):
        io.load_state_set(path)


def test_state_set_unnormalized_vector(tmp_path):
    doc = {"dim": 2, "states": [[[0.5, 0], [0.5, 0]]]}
    path = write(tmp_path, "unnorm.json", doc)
    with pytest.raises(FileFormatError):
        io.load_state_set(path)


def test_povm_loader_accepts_certificate_docs(tmp_path):
    from antidist import decide

    cert = decide(helpers.sum_condition_triple())
    path = write(tmp_path, "cert.json", io.certificate_to_doc(cert))
    povm = io.load_povm(path)
    assert len(povm.effects) == 3

    bare = write(tmp_path, "povm.json", io.povm_to_doc(cert.povm))
    povm2 = io.load_povm(bare)
    for a, b in zip(povm.effects, povm2.effects):
        assert np.abs(a - b).max() <= 1e-12


def test_povm_loader_explains_refutation_certificates(tmp_path):
    from antidist import decide
    from antidist.states import StateSet

    pair = StateSet([[1, 0], np.array([1, 1]) / np.sqrt(2)])
    cert = decide(pair)
    path = write(tmp_path, "no.json", io.certificate_to_doc(cert))
    with pytest.raises(FileFormatError, match="carries no POVM"):
        io.load_povm(path)


def test_povm_loader_rejects_bad_effects(tmp_path):
    doc = {"dim": 2, "effects": [io.matrix_to_wire(np.eye(2) * 0.6)]}
    path = write(tmp_path, "bad.json", doc)
    with pytest.raises(FileFormatError):
        io.load_povm(path)


def test_group_roundtrip(tmp_path):
    rep = helpers.cached_cyclic(3)
    doc = {
        "dim": 3,
        "elements": [io.matrix_to_wire(u) for u in rep.elements],
        "labels": list(rep.labels),
    }
    path = write(tmp_path, "g.json", doc)
    loaded = io.load_group(path)
    assert loaded.order == 3
    assert loaded.labels == rep.labels


def test_group_rejects_non_closed(tmp_path):
    sx = np.array([[0, 1], [1, 0]])
    sz = np.diag([1.0, -1.0])
    doc = {"dim": 2, "elements": [io.matrix_to_wire(m) for m in (np.eye(2), sx, sz)]}
    path = write(tmp_path, "open.json", doc)
    with pytest.raises(FileFormatError):
        io.load_group(path)


def test_group_labels_must_be_a_list(tmp_path):
    rep = helpers.cached_cyclic(3)
    doc = {"dim": 3, "elements": [io.matrix_to_wire(u) for u in rep.elements], "labels": "abc"}
    with pytest.raises(FileFormatError, match="labels"):
        io.load_group(write(tmp_path, "g.json", doc))


@pytest.mark.parametrize("raw", [5, [], "abc", None])
def test_group_elements_must_be_a_non_empty_list(tmp_path, raw):
    with pytest.raises(FileFormatError, match="elements"):
        io.load_group(write(tmp_path, "g.json", {"dim": 2, "elements": raw}))


@pytest.mark.parametrize("raw", [5, [], "abc", None])
def test_povm_effects_must_be_a_non_empty_list(tmp_path, raw):
    with pytest.raises(FileFormatError, match="effects"):
        io.load_povm(write(tmp_path, "p.json", {"dim": 2, "effects": raw}))



_DOCS = {
    "states": (io.load_state_set, [[1, 0], [0, 1]]),
    "effects": (io.load_povm, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]),
    "elements": (io.load_group, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
}


@pytest.mark.parametrize("key", sorted(_DOCS))
@pytest.mark.parametrize("dim", [True, 2.7, "2", 0, -2, None, [2]])
def test_dim_must_be_a_positive_integer(tmp_path, key, dim):
    load, raw = _DOCS[key]
    with pytest.raises(FileFormatError, match="'dim' must be an integer"):
        load(write(tmp_path, "d.json", {"dim": dim, key: raw}))


@pytest.mark.parametrize("key", sorted(_DOCS))
def test_integral_float_dim_is_accepted(tmp_path, key):
    load, raw = _DOCS[key]
    load(write(tmp_path, "d.json", {"dim": 2.0, key: raw}))


@pytest.mark.parametrize("load, doc", [
    (io.load_state_set, {"dim": 2, "states": [[10**400, 0], [0, 1]]}),
    (io.load_povm, {"dim": 2, "effects": [[[[1, 10**400], 0], [0, 0]], [[0, 0], [0, 1]]]}),
    (io.load_group, {"dim": 2, "elements": [[[1, 0], [0, -10**400]]]}),
    (io.load_povm, {"verdict": "AntidistYes", "povm": {"dim": 1, "effects": [[[10**400]]]}}),
])
def test_integers_beyond_float_range_are_format_errors(tmp_path, load, doc):
    with pytest.raises(FileFormatError, match="float range"):
        load(write(tmp_path, "big.json", doc))


@pytest.mark.parametrize("field, value", [
    ("povm", [1]),
    ("povm", {"dim": 2}),
    ("povm", {"dim": 2, "effects": [[[1, 0], [0]]]}),
    ("povm", {"dim": 2, "effects": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}),
    ("weights", ["1", "2"]),
    ("weights", [True, 1.0]),
    ("weights", 3),
    ("witness", [[1, 0], [0]]),
    ("added_state", [[True, 0]]),
    ("method", "Nope"),
    ("method", ["SumProjection"]),
    ("weights", [10**400, 1.0]),
    ("witness", [[10**400, 0], [0, 0]]),
])
def test_certificate_from_doc_rejects_malformed_evidence(field, value):
    doc = {"verdict": "AntidistYes", "method": "SumProjection", field: value}
    with pytest.raises(FileFormatError):
        io.certificate_from_doc(doc)


@pytest.mark.parametrize("doc", [[], "AntidistYes", {"verdict": ["AntidistYes"]}])
def test_certificate_from_doc_needs_a_document(doc):
    with pytest.raises(FileFormatError):
        io.certificate_from_doc(doc)


def test_certificate_from_doc_ignores_bloch_weights():
    cert = io.certificate_from_doc(helpers.LEGACY_TRINE_CERTIFICATE)
    assert cert.method.value == "QubitBloch"
    assert np.array_equal(cert.weights, helpers.LEGACY_TRINE_CERTIFICATE["weights"])
    assert len(cert.povm.effects) == 3
    assert "bloch_weights" not in io.certificate_to_doc(cert)


def test_certificate_from_doc_reads_past_added_bloch():
    from antidist import StateSet, bloch_vectors

    doc = helpers.LEGACY_COMPLETION_CERTIFICATE
    cert = io.certificate_from_doc(doc)
    assert cert.method.value == "QubitBloch" and len(cert.povm.effects) == 3
    assert np.array_equal(cert.added_state, io.wire_to_vector(doc["added_state"]))
    # the dropped key was derived: the Bloch vector of the added state
    added = bloch_vectors(StateSet([cert.added_state]))[0]
    assert np.allclose(added, doc["added_bloch"], rtol=0, atol=1e-11)
    rewritten = io.certificate_to_doc(cert)
    assert "added_bloch" not in rewritten
    assert rewritten == io.certificate_to_doc(io.certificate_from_doc(
        {k: v for k, v in doc.items() if k != "added_bloch"}))
