import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from antidist import cli, io
from antidist import StateSet, fidelity_bound_check, verify_antidistinguishing, verify_witness

import helpers


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def state_doc(states, labels=None):
    return io.state_set_to_doc(states, labels)


@pytest.fixture
def triple_file(tmp_path):
    return write_json(tmp_path / "triple.json", state_doc(helpers.sum_condition_triple()))


@pytest.fixture
def chart_route_file(tmp_path):
    return write_json(tmp_path / "chart_route.json", state_doc(helpers.chart_route_triple()))


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_sum_projection(triple_file, capsys):
    code, out, _ = run(capsys, "check", triple_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "AntidistYes"
    assert doc["method"] == "SumProjection"
    assert np.allclose(doc["weights"], [0.75, 0.625, 0.625], atol=1e-10)
    assert doc["tool_version"]


def test_check_qubit_refutation(tmp_path, capsys):
    from antidist import StateSet, state_from_bloch

    pair = StateSet([state_from_bloch((0, 0, 1)), state_from_bloch((1, 0, 0))])
    path = write_json(tmp_path / "pair.json", state_doc(pair))
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert json.loads(out)["method"] == "QubitBloch"


def test_check_with_seeded_chart(chart_route_file, tmp_path, capsys):
    # check takes no seed chart; the chart solve decides the chart-route triple alone
    seed_path = write_json(tmp_path / "seed.json", {"completions": []})
    assert cli.main(["check", chart_route_file, "--seed-chart", seed_path]) == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "check", chart_route_file)
    assert code == 0
    assert json.loads(out)["method"] == "Chart"


@pytest.mark.parametrize("option", ["--budget", "--seed"])
def test_check_search_options_removed(chart_route_file, capsys, option):
    assert cli.main(["check", chart_route_file, option, "5"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_unknown_without_seed(chart_route_file, capsys, monkeypatch):
    # exit 3 remains for sets that neither side of the chart solve settles;
    # with one iteration per side the chart-route triple is such a set
    monkeypatch.setattr(cli.pipeline.chart_mod, "PRIMAL_MAX_ITER", 1)
    monkeypatch.setattr(cli.pipeline.chart_mod, "DUAL_MAX_ITER", 1)
    code, out, _ = run(capsys, "check", chart_route_file)
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "Unknown"
    assert "best primal residual" in doc["notes"]


def cfs_no_triple():
    rng = np.random.default_rng(17)
    while True:
        triple = StateSet([helpers.random_pure(3, rng) for _ in range(3)])
        if helpers.cfs_margin(triple) < -0.05 and not fidelity_bound_check(triple).violated:
            return triple


def test_witness_roundtrip(tmp_path, capsys):
    triple = cfs_no_triple()
    states_path = write_json(tmp_path / "no.json", state_doc(triple))
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "check", states_path, "-o", str(cert_path))
    assert code == 1
    doc = json.loads(cert_path.read_text())
    assert doc["method"] == "ChartWitness"
    # the check needs only the two files
    loaded, _ = io.load_state_set(states_path)
    cert = io.certificate_from_doc(doc)
    assert cert.witness is not None
    assert verify_witness(loaded, cert.witness)
    tampered = cert.witness + (2.0 / loaded.dim) * np.eye(loaded.dim)
    assert np.trace(tampered).real > 0
    assert not verify_witness(loaded, tampered)


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["check", "verify", "complete", "bloch"])
def test_non_list_state_entries_exit_as_input_error(tmp_path, capsys, command):
    path = write_json(tmp_path / "scalars.json", {"dim": 2, "states": [5, 6]})
    args = [command, path] + ([path] if command == "verify" else [])
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_integer_beyond_float_range_exits_as_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "big.json", {"dim": 2, "states": [[10**400, 0], [0, 1]]})
    code, _, err = run(capsys, "check", path)
    assert code == 2 and err.startswith("error:") and "float range" in err


def test_string_labels_exit_as_input_error(tmp_path, capsys):
    doc = {"dim": 2, "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "labels": "ab"}
    code, out, err = run(capsys, "check", write_json(tmp_path / "labels.json", doc))
    assert code == 2
    assert out == ""
    assert "labels" in err


def test_unexpected_exception_exits_as_error(triple_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(cli.pipeline, "decide", broken)
    code, out, err = run(capsys, "check", triple_file)
    assert code == 2
    assert out == ""
    assert "solver blew up" in err


def test_verify_roundtrip(triple_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "check", triple_file, "-o", cert_path)
    assert code == 0
    code, out, _ = run(capsys, "verify", triple_file, cert_path)
    assert code == 0
    assert "verified" in out


def test_verify_accepts_a_certificate_with_bloch_weights(tmp_path, capsys):
    states = write_json(tmp_path / "trine.json", helpers.LEGACY_TRINE_STATES)
    cert = write_json(tmp_path / "cert.json", helpers.LEGACY_TRINE_CERTIFICATE)
    code, out, _ = run(capsys, "verify", states, cert)
    assert code == 0 and "verified" in out


@pytest.mark.parametrize("change", [
    {"verdict": "Bogus", "method": "Nope", "witness": "x"},
    {"weights": [True, 1]},
    {"verdict": "AntidistNo"},
])
def test_verify_refuses_a_certificate_it_cannot_read(triple_file, tmp_path, capsys, change):
    cert_path = tmp_path / "cert.json"
    assert run(capsys, "check", triple_file, "-o", str(cert_path))[0] == 0
    doc = {**json.loads(cert_path.read_text()), **change}
    code, out, err = run(capsys, "verify", triple_file, write_json(cert_path, doc))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "internal error" not in err


def test_cli_import_leaves_the_solvers_unloaded():
    probe = ("import sys, antidist.cli; "
             "print(sorted({'scipy.optimize', 'scipy.spatial'} & set(sys.modules)))")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_one_hermitian_check_leaves_the_chart_solver_unloaded(tmp_path):
    # a random set with n = 2d is decided before the chart solve, which alone imports scipy.optimize
    rng = np.random.default_rng(6)
    states = write_json(tmp_path / "d6.json",
                        state_doc(StateSet([helpers.random_vector(6, rng) for _ in range(12)])))
    cert = tmp_path / "cert.json"
    probe = ("import sys; from antidist import cli; "
             f"code = cli.main(['check', {states!r}, '-o', {str(cert)!r}]); "
             "print(code, 'scipy.optimize' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "False"]
    assert json.loads(cert.read_text())["method"] == "OneHermitian"


def test_verify_rejects_identity_split(triple_file, tmp_path, capsys):
    povm_doc = {"dim": 3, "effects": [io.matrix_to_wire(np.eye(3) / 3)] * 3}
    povm_path = write_json(tmp_path / "split.json", povm_doc)
    code, out, _ = run(capsys, "verify", triple_file, povm_path)
    assert code == 1


def test_verify_count_mismatch(triple_file, tmp_path, capsys):
    povm_doc = {
        "dim": 3,
        "effects": [io.matrix_to_wire(np.eye(3) / 2), io.matrix_to_wire(np.eye(3) / 2)],
    }
    povm_path = write_json(tmp_path / "short.json", povm_doc)
    code, _, err = run(capsys, "verify", triple_file, povm_path)
    assert code == 2


def test_complete_adds_antipode(tmp_path, capsys):
    doc = {"dim": 2, "states": [[[1, 0], [0, 0]]]}
    path = write_json(tmp_path / "single.json", doc)
    code, out, _ = run(capsys, "complete", path)
    assert code == 0
    cert = json.loads(out)
    assert np.allclose(cert["added_bloch"], [0, 0, -1], atol=1e-9)
    assert cert["verdict"] == "AntidistYes"


def test_complete_already_feasible(tmp_path, capsys):
    path = write_json(tmp_path / "trine.json", state_doc(helpers.trine()))
    code, out, _ = run(capsys, "complete", path)
    assert code == 0
    cert = json.loads(out)
    assert "already antidistinguishable" in cert["notes"]
    assert "added_bloch" not in cert


def test_complete_coplanar_fan(tmp_path, capsys):
    from antidist import StateSet, state_from_bloch

    fan = StateSet(
        [state_from_bloch((np.cos(a), np.sin(a), 0)) for a in (0.2, 0.6, 1.0)]
    )
    path = write_json(tmp_path / "fan.json", state_doc(fan))
    out_states = tmp_path / "enlarged.json"
    code, out, _ = run(capsys, "complete", path, "--out-states", str(out_states))
    assert code == 0
    cert = json.loads(out)
    expected = -fan.vectors[0]  # direction only checked via bloch norm
    added = np.asarray(cert["added_bloch"])
    assert np.isclose(np.linalg.norm(added), 1.0, atol=1e-9)
    enlarged_doc = json.loads(out_states.read_text())
    assert len(enlarged_doc["states"]) == 4


@pytest.mark.parametrize("bloch", [
    helpers.TETRA_BLOCH,  # s* = 0.25, Bloch sum 0
    [(0, 0, -1), (0.5, 0, np.sqrt(3) / 2), (-0.5, 0, np.sqrt(3) / 2)],  # completion is -z
])
def test_complete_at_tolerance_above_the_margin_exits_as_input_error(tmp_path, capsys, bloch):
    from antidist import state_from_bloch

    sset = StateSet([state_from_bloch(r) for r in bloch])
    path = write_json(tmp_path / "set.json", state_doc(sset))
    code, out, err = run(capsys, "complete", path, "--tolerance", "0.3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "internal error" not in err
    assert "s* = " in err and "tolerance 0.3" in err


def test_complete_wrong_dimension(triple_file, capsys):
    code, _, err = run(capsys, "complete", triple_file)
    assert code == 2


def test_orbit_quaternion(tmp_path, capsys):
    states_path = tmp_path / "orbit.json"
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "orbit",
        "--builtin", "quaternion",
        "--base", "tetrahedral",
        "--out-states", str(states_path),
        "--out-cert", str(cert_path),
    )
    assert code == 0
    states_doc = json.loads(states_path.read_text())
    assert states_doc["dim"] == 2 and len(states_doc["states"]) == 4
    cert = json.loads(cert_path.read_text())
    assert cert["method"] == "GroupOrbit"
    assert np.allclose(cert["weights"], 0.5, atol=1e-10)
    # the emitted orbit re-verifies through the public loaders
    sset, _ = io.load_state_set(str(states_path))
    povm = io.load_povm(str(cert_path))
    assert verify_antidistinguishing(sset, povm)


def test_orbit_standard_representation(capsys):
    code, out, _ = run(capsys, "orbit", "--builtin", "s3-standard")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["state_set"]["states"]) == 3
    assert np.allclose(doc["certificate"]["weights"], 2 / 3, atol=1e-10)


def test_orbit_named_base(capsys):
    code, out, _ = run(capsys, "orbit", "--builtin", "s3-standard", "--base", "psi1")
    assert code == 0
    doc = json.loads(out)
    first = io.wire_to_vector(doc["state_set"]["states"][0])
    expected = np.array([1, -1, 0]) / np.sqrt(2)
    overlap = abs(np.vdot(expected, first))
    assert np.isclose(overlap, 1.0, atol=1e-9)


def test_orbit_s4_standard(capsys):
    code, out, _ = run(capsys, "orbit", "--builtin", "s4-standard")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["state_set"]["states"]) == 6
    proj = io.wire_to_matrix(doc["certificate"]["projector_r"])
    assert np.isclose(np.trace(proj).real, 3.0, atol=1e-9)


def test_orbit_from_group_file(tmp_path, capsys):
    shift = np.zeros((3, 3))
    for k in range(3):
        shift[(k + 1) % 3, k] = 1.0
    elements = [np.linalg.matrix_power(shift, k) for k in range(3)]
    group_doc = {
        "dim": 3,
        "elements": [io.matrix_to_wire(u) for u in elements],
        "labels": ["e", "c", "cc"],
    }
    group_path = write_json(tmp_path / "cyclic.json", group_doc)
    base = json.dumps([[1, 0], [0, 0], [0, 0]])
    code, out, _ = run(capsys, "orbit", "--group", group_path, "--base", base)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["state_set"]["states"]) == 3
    assert doc["certificate"]["verdict"] == "AntidistYes"


def test_orbit_requires_base_for_group_files(tmp_path, capsys):
    group_doc = {"dim": 2, "elements": [io.matrix_to_wire(np.eye(2))]}
    group_path = write_json(tmp_path / "trivial.json", group_doc)
    code, _, err = run(capsys, "orbit", "--group", group_path)
    assert code == 2


def test_orbit_fixed_point_errors(tmp_path, capsys):
    s = 1 / np.sqrt(3)
    base = json.dumps([[s, 0], [s, 0], [s, 0]])  # the invariant symmetric vector
    code, _, err = run(capsys, "orbit", "--builtin", "s3-standard", "--base", base)
    assert code == 2
    assert "fixed" in err.lower()


def test_bloch_table(tmp_path, capsys):
    path = write_json(
        tmp_path / "tetra.json",
        state_doc(helpers.tetrahedron(), labels=["a", "b", "c", "d"]),
    )
    code, out, _ = run(capsys, "bloch", path)
    assert code == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert len(lines) == 4
    got = sorted(tuple(np.round([float(x) for x in row[1:]], 6)) for row in lines)
    expected = sorted(tuple(np.round(r, 6)) for r in helpers.TETRA_BLOCH)
    assert got == expected


def test_bloch_single_basis_state(tmp_path, capsys):
    path = write_json(tmp_path / "e1.json", {"dim": 2, "states": [[[1, 0], [0, 0]]]})
    code, out, _ = run(capsys, "bloch", path)
    assert code == 0
    _, x, y, z = out.strip().split("\t")
    assert (float(x), float(y), float(z)) == (0.0, 0.0, 1.0)


def test_bloch_empty_file_errors(tmp_path, capsys):
    path = write_json(tmp_path / "empty.json", {"dim": 2, "states": []})
    code, _, _ = run(capsys, "bloch", path)
    assert code == 2


def test_bloch_wrong_dimension(triple_file, capsys):
    code, _, _ = run(capsys, "bloch", triple_file)
    assert code == 2


def test_deterministic_output_under_seed(chart_route_file, tmp_path, capsys):
    # the chart solve is deterministic, for YES and NO alike
    no_file = write_json(tmp_path / "no.json", state_doc(cfs_no_triple()))
    for states in (chart_route_file, no_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "check", states, "-o", str(a))
        run(capsys, "check", states, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


def test_group_and_povm_files_need_matrix_lists(tmp_path, triple_file, capsys):
    group_path = write_json(tmp_path / "g.json", {"dim": 2, "elements": 5})
    code, out, err = run(capsys, "orbit", "--group", group_path, "--base", "[[1, 0], [0, 0]]")
    assert code == 2 and out == ""
    assert "internal error" not in err and "'elements' must be a non-empty list" in err

    povm_path = write_json(tmp_path / "p.json", {"dim": 3, "effects": 5})
    code, out, err = run(capsys, "verify", triple_file, povm_path)
    assert code == 2 and out == ""
    assert "internal error" not in err and "'effects' must be a non-empty list" in err


def test_consecutive_calls_share_the_parser_not_their_arguments(triple_file, tmp_path, capsys,
                                                                monkeypatch):
    real, builds = cli.build_parser, []

    def counting_build():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "check", triple_file, "-o", str(cert), "--tolerance", "1e-6")
        assert code == 0 and out == "" and cert.exists()
        # no -o and the default tolerance on the next call
        code, out, _ = run(capsys, "check", triple_file)
        assert code == 0 and json.loads(out)["verdict"] == "AntidistYes"
        code, out, _ = run(capsys, "verify", triple_file, str(cert))
        assert code == 0 and out.strip() == "verified"
        assert cli.main(["check", triple_file, "--budget", "5"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        trine = write_json(tmp_path / "trine.json", state_doc(helpers.trine()))
        code, out, _ = run(capsys, "bloch", trine)
        assert code == 0 and len(out.strip().splitlines()) == 3
        # a command function replaced after the parser was built is the one that runs
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert cli.main(["verify", triple_file, str(cert)]) == 7
        assert builds == [1]
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("elements", [["I", "I", "X", "X"], ["I", "I", "X"]])
def test_repeated_group_elements_exit_as_input_error(tmp_path, capsys, elements):
    mats = {"I": [[1, 0], [0, 1]], "X": [[0, 1], [1, 0]]}
    path = write_json(tmp_path / "g.json", {"dim": 2, "elements": [mats[e] for e in elements]})
    code, out, err = run(capsys, "orbit", "--group", path, "--base", "[[1, 0], [0, 0]]")
    assert code == 2
    assert out == ""
    assert "elements 0 and 1 coincide" in err


@pytest.mark.parametrize("dim", [True, 2.7, "2", 0])
def test_malformed_dim_exits_as_input_error(tmp_path, capsys, dim):
    states = [[1, 0], [0, 1]] if dim is not True else [[1]]
    path = write_json(tmp_path / "s.json", {"dim": dim, "states": states})
    for command in ("check", "bloch", "complete"):
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert "'dim' must be an integer" in err


@pytest.mark.parametrize("argv", [["check"], ["orbit", "--builtin", "quaternion", "--base", "-Infinity"]])
def test_argument_errors_return_input_error(capsys, argv):
    # argparse's own exit never escapes main: a parse error is an input error
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("base", [["--base", "-Infinity"], ["--base=-Infinity"]])
def test_orbit_base_starting_with_a_dash_is_a_value(capsys, base):
    code, out, err = run(capsys, "orbit", "--builtin", "quaternion", *base)
    assert code == 2
    assert out == ""
    assert "error: unknown base state '-Infinity'" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0
    assert "usage:" in out


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("bad, reason", [([0, 0], "zero norm"), ([1.1, 0], "norm 1.1"),
                                         (["NaN", 0], "non-finite")])
def test_bad_state_row_exits_as_input_error_naming_it(tmp_path, capsys, k, bad, reason):
    rows = [[1, 0], [0, 1], [0.6, 0.8]]
    rows[k] = bad
    path = tmp_path / "s.json"
    # json writes NaN for float("nan"); the file reader accepts it
    path.write_text(json.dumps({"dim": 2, "states": [
        [float(x) if x == "NaN" else x for x in row] for row in rows]}))
    for command in ("check", "bloch", "complete"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert f"state {k}: {reason}" in err
