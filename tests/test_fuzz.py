"""Property test of the CLI input boundary: arbitrary JSON documents, well
formed or not, never escape as an exception, and every exit code means what
it says."""

import contextlib
import io as stdio
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from antidist import cli

#: JSON leaves: numbers, bools, strings and nulls
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), 1e300, 10**400]),
    st.text(max_size=3),
)
#: any JSON value, ragged lists included
values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=5), max_leaves=12)
#: complex entries as the wire writes them (a number or an [re, im] pair), or not
numbers = st.one_of(st.integers(-1, 1), st.floats(-1.0, 1.0))
entries = st.one_of(numbers, st.lists(numbers, min_size=2, max_size=2), leaves)
dims = st.one_of(st.integers(0, 4), st.sampled_from([True, 2.0, 2.5, "2", None, [2]]))


def _unit(pairs):
    v = np.array([complex(re, im) for re, im in pairs])
    nrm = np.linalg.norm(v)
    return [[z.real, z.imag] for z in (v / nrm if nrm > 1e-3 else v)]


def _unit_vectors(d: int):
    pairs = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
    return st.lists(pairs, min_size=d, max_size=d).map(_unit)


@st.composite
def _corrupted(draw, doc: dict, key: str, item) -> dict:
    """``doc`` as drawn, well formed, half of the time, so that inputs reach a
    verdict; otherwise with its dim, its labels, its ``key`` list or one
    entry of that list replaced."""
    if draw(st.booleans()):
        return doc
    field = draw(st.sampled_from(["dim", "labels", key, "entry"]))
    if field == "entry":
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(item)
    else:
        doc[field] = draw(dims if field == "dim" else values)
    return doc


@st.composite
def state_docs(draw):
    d = draw(st.integers(1, 4))
    doc = {"dim": d, "states": draw(st.lists(_unit_vectors(d), min_size=1, max_size=5))}
    return draw(_corrupted(doc, "states", st.lists(entries, max_size=4)))


_I, _X, _Z, _XZ = [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1], [1, 0]]


def _neg(m):
    return [[-x for x in row] for row in m]


#: qubit groups: {1}, Z2 twice, Z4 and the dihedral group of the square
_GROUPS = [[_I], [_I, _X], [_I, _neg(_I)], [_I, _XZ, _neg(_I), _neg(_XZ)],
           [_I, _X, _Z, _XZ, _neg(_I), _neg(_X), _neg(_Z), _neg(_XZ)]]
#: a repeat, a non-unitary, a complex entry and a wrongly sized matrix
_ODD = [_I, [[1, 1], [0, 1]], [[0, [0, -1]], [[0, 1], 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]


@st.composite
def group_docs(draw):
    """Closed qubit groups in any order, with elements dropped or added."""
    elements = draw(st.sampled_from(_GROUPS).flatmap(st.permutations))
    if draw(st.booleans()):
        elements = draw(st.lists(st.sampled_from(elements + _ODD), min_size=1, max_size=6))
    doc = {"dim": 2, "elements": elements}
    return draw(_corrupted(doc, "elements", st.lists(st.lists(entries, max_size=3), max_size=3)))


@st.composite
def povm_docs(draw):
    effects = draw(st.sampled_from([[[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [_I], [_X, _Z]]))
    doc = draw(_corrupted({"dim": 2, "effects": effects}, "effects", st.sampled_from(_ODD)))
    return {"verdict": "AntidistYes", "povm": doc} if draw(st.booleans()) else doc


def _run(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(states=state_docs(), povm=povm_docs(), group=group_docs(),
       base=st.one_of(_unit_vectors(2), values))
def test_cli_boundary_never_misreads_input(states, povm, group, base):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("states", states), ("povm", povm), ("group", group)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        cert = os.path.join(tmp, "cert.json")
        code, err = _run(["check", paths["states"], "-o", cert])
        assert code in (0, 1, 2, 3) and "internal error" not in err
        if code == 1:
            with open(cert, encoding="utf-8") as fh:
                assert json.load(fh)["verdict"] == "AntidistNo"
        for argv in (["verify", paths["states"], paths["povm"]],
                     ["complete", paths["states"]],
                     ["bloch", paths["states"]],
                     ["orbit", "--group", paths["group"], f"--base={json.dumps(base)}"],
                     ["orbit", "--group", paths["group"], "--base", json.dumps(base)]):
            code, err = _run(argv)
            assert code in (0, 1, 2, 3) and "internal error" not in err, (argv, err)
