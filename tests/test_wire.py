"""The array wire codec: the whole-array readers agree with a reader that
takes one entry at a time, every file the CLI writes reads back and is
written again byte for byte, and files in any JSON layout still load."""

import contextlib
import io as stdio
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antidist import cli, io, linalg, verify_antidistinguishing
from antidist.errors import FileFormatError
from antidist.states import PureState, StateSet

import helpers
from test_fuzz import leaves, values


def reference(value, ndim: int) -> np.ndarray:
    """``value`` read one entry at a time, as the readers did before they took
    whole arrays: ``ndim`` = 1 is a vector, 2 a matrix, 3 a stack."""
    if not isinstance(value, list):
        raise FileFormatError(f"expected a list, got {value!r}")
    if ndim == 1:
        return np.array([io.pair_to_complex(e) for e in value], dtype=complex)
    parts = [reference(part, ndim - 1) for part in value]
    try:
        return np.array(parts, dtype=complex)
    except ValueError as exc:
        raise FileFormatError(f"parts differ in shape: {value!r}") from exc


def read(reader, value):
    """What ``reader`` gives for ``value``: an array, or the FileFormatError class."""
    try:
        return reader(value)
    except FileFormatError:
        return FileFormatError


def same(a, b) -> bool:
    if a is FileFormatError or b is FileFormatError:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([2**64 + 1, -(10**30)]))


@st.composite
def arrays(draw):
    """Regular arrays of [re, im] pairs, most of the time with one leaf, pair
    or row replaced by a bare number, a leaf of another type or any value."""
    shape = draw(st.lists(st.integers(0, 3), min_size=0, max_size=3))
    size = int(np.prod(shape)) if shape else 1
    flat = draw(st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=size, max_size=size))
    value = flat[0] if not shape else np.array(flat, dtype=object).reshape(*shape, 2).tolist()
    if draw(st.booleans()) and size:
        node = value
        for _ in range(draw(st.integers(0, len(shape)))):  # len(shape) levels down is a pair
            node = node[draw(st.integers(0, len(node) - 1))]
        node[draw(st.integers(0, len(node) - 1))] = draw(st.one_of(numbers, leaves, values))
    return value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=st.one_of(arrays(), values))
@example([[1, 0], 0.5])  # a bare number among pairs
@example([[[1, 0], [0, 1]], [[1, 0]]])  # ragged rows
@example([[[1, 0], [True, 1.0]]])
@example([[["1", 0], [0, 1]]])
@example([[None, 0], [0, 1]])
@example([[float("nan"), float("inf")], [-float("inf"), 2**64 + 1]])
@example([[[10**400, 0], [0, 1]]])
@example([[[[1, 0]]], [[[0, 1]]]])  # nested a level too deep
def test_array_readers_agree_with_the_per_entry_reader(value):
    assert same(read(io.wire_to_vector, value), read(lambda v: reference(v, 1), value))
    assert same(read(io.wire_to_matrix, value), read(lambda v: reference(v, 2), value))
    stack = io._complex_array(value, 3)
    if stack is not None:
        assert same(stack, reference(value, 3))


def run(*argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def write_states(path, sset: StateSet) -> str:
    path.write_text(io.dumps_doc(io.state_set_to_doc(sset)))
    return str(path)


def assert_rewritten_byte_for_byte(path) -> None:
    """Parse a certificate or state-set file and write it again: the same bytes."""
    text = path.read_text()
    doc = json.loads(text)
    if "verdict" in doc:
        again = io.certificate_to_doc(io.certificate_from_doc(doc))
    else:
        again = {**doc, "states": io.matrix_to_wire(io.wire_to_matrix(doc["states"]))}
    assert io.dumps_doc(again) == text


def assert_povm_verifies(states_path, cert_path) -> None:
    states, _ = io.load_state_set(str(states_path))
    povm = io.load_povm(str(cert_path))
    assert verify_antidistinguishing(states, povm, linalg.DEFAULT_TOL)


def test_check_certificates_are_rewritten_byte_for_byte(tmp_path):
    rng = np.random.default_rng(11)
    cases = [helpers.clustered(d, spread, rng) for d in range(3, 9) for spread in (0.6, 1.0)]
    cases += [helpers.random_qubit_set(n, rng) for n in (2, 3, 5)]
    cases += [helpers.trine(), helpers.sum_condition_triple(), helpers.chart_route_triple()]
    methods = set()
    for k, sset in enumerate(cases):
        states = write_states(tmp_path / f"in-{k}.json", sset)
        cert = tmp_path / f"cert-{k}.json"
        code, _ = run("check", states, "-o", str(cert))
        assert code in (0, 1)
        methods.add(json.loads(cert.read_text())["method"])
        assert_rewritten_byte_for_byte(cert)
        if code == 0:
            assert_povm_verifies(states, cert)
    assert {"Chart", "ChartWitness", "OneHermitian", "QubitBloch", "SumProjection"} <= methods


def test_orbit_and_complete_files_are_rewritten_byte_for_byte(tmp_path):
    orbit_states, orbit_cert = tmp_path / "orbit.json", tmp_path / "orbit-cert.json"
    assert run("orbit", "--builtin", "s4-standard", "--out-states", str(orbit_states),
               "--out-cert", str(orbit_cert))[0] == 0
    code, out = run("orbit", "--builtin", "quaternion")
    assert code == 0
    both = json.loads(out)
    assert io.dumps_doc(both) == out
    pair = StateSet([PureState([1, 0]), PureState(np.array([1, 1]) / np.sqrt(2))])
    states = write_states(tmp_path / "pair.json", pair)
    added, enlarged = tmp_path / "added.json", tmp_path / "enlarged.json"
    assert run("complete", states, "-o", str(added), "--out-states", str(enlarged))[0] == 0
    for path in (orbit_states, orbit_cert, added, enlarged):
        assert_rewritten_byte_for_byte(path)
    assert_povm_verifies(orbit_states, orbit_cert)
    assert_povm_verifies(enlarged, added)


def test_each_matrix_row_is_one_line(tmp_path):
    rng = np.random.default_rng(3)
    states = write_states(tmp_path / "in.json", helpers.clustered(8, 1.0, rng))
    code, out = run("check", states)
    assert code == 0
    doc = json.loads(out)
    effects = doc["povm"]["effects"]
    rows = [json.loads(line.strip().rstrip(",")) for line in out.splitlines()
            if line.lstrip().startswith("[[")]
    assert len(rows) == 8 * len(effects)
    assert rows == [row for effect in effects for row in effect]


def test_files_in_the_older_layout_still_verify(tmp_path):
    states = write_states(tmp_path / "in.json", helpers.sum_condition_triple())
    cert = tmp_path / "cert.json"
    assert run("check", states, "-o", str(cert))[0] == 0
    for path in (tmp_path / "in.json", cert):
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n")
    assert run("verify", states, str(cert)) == (0, "verified\n")


@pytest.mark.parametrize("x, text", [
    (1 / 3, "0.333333333333"), (1.0, "1.0"), (-0.0, "-0.0"), (2e-5, "2e-05"),
    (0.99999999999999, "1.0"), (123456.0000001, "123456.0"), (1e20, "1e+20"),
    (float("nan"), "NaN"), (float("inf"), "Infinity"), (-float("inf"), "-Infinity"),
])
def test_floats_are_written_once_at_twelve_digits(x, text):
    assert io.dumps_doc({"weights": io.real_vector_to_wire([x])}) == (
        '{\n  "weights": [' + text + "]\n}\n")
