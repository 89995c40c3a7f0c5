"""Every weighted YES is the sum condition: the weights and R in a certificate
fix its measurement M(j) = t_j/(r-1) (R - P_j) + R_perp / n."""

import json

import numpy as np
import pytest

from antidist import (
    Method,
    PureState,
    StateSet,
    Verdict,
    build_povm,
    cli,
    decide,
    io,
    verify_antidistinguishing,
)

import helpers


def rebuilt(states: StateSet, cert):
    """The measurement the certificate's weights and R determine."""
    r_proj = np.eye(states.dim) if cert.projector_r is None else cert.projector_r
    return build_povm(states, cert.weights, r_proj)


def round_trip(cert):
    return io.certificate_from_doc(json.loads(io.dumps_doc(io.certificate_to_doc(cert))))


def weighted_sets():
    rng = np.random.default_rng(211)
    for _ in range(30):
        yield helpers.random_qubit_set(int(rng.integers(2, 8)), rng)
    yield helpers.sum_condition_triple()
    for _ in range(10):
        yield helpers.random_certified_orbit(rng)[0].members
    for _ in range(10):
        qset = helpers.random_qubit_set(int(rng.integers(3, 7)), rng)
        isometry = helpers.haar_unitary(int(rng.integers(3, 6)), rng)[:, :2]
        yield StateSet([PureState(isometry @ v) for v in qset.vectors])


def test_decide_weights_determine_the_measurement():
    methods = set()
    for sset in weighted_sets():
        cert = decide(sset)
        if cert.verdict is not Verdict.YES or cert.weights is None:
            continue
        methods.add(cert.method)
        assert verify_antidistinguishing(sset, rebuilt(sset, round_trip(cert)))
        if cert.method is Method.QUBIT_BLOCH and sset.dim == 2:
            # the orthocomplement measurement {t_j (1 - P_j)}, bit for bit
            w = cert.weights
            assert np.array_equal(cert.povm.effects, w[:, None, None] * (np.eye(2) - sset.projectors))
    assert {Method.QUBIT_BLOCH, Method.SUM_PROJECTION} <= methods


def run_cli(capsys, *args):
    code = cli.main(list(args))
    capsys.readouterr()
    return code


def test_complete_weights_determine_the_measurement(tmp_path, capsys):
    rng = np.random.default_rng(223)
    added = 0
    for k in range(20):
        sset = helpers.hemisphere_qubit_set(int(rng.integers(1, 6)), rng) if k % 4 else helpers.trine()
        states = tmp_path / f"in-{k}.json"
        states.write_text(io.dumps_doc(io.state_set_to_doc(sset)))
        cert_path, enlarged_path = tmp_path / f"cert-{k}.json", tmp_path / f"enlarged-{k}.json"
        code = run_cli(capsys, "complete", str(states), "-o", str(cert_path),
                       "--out-states", str(enlarged_path))
        assert code == 0
        enlarged, _ = io.load_state_set(str(enlarged_path))
        cert = io.certificate_from_doc(json.loads(cert_path.read_text()))
        assert cert.method is Method.QUBIT_BLOCH and cert.projector_r is None
        assert verify_antidistinguishing(enlarged, rebuilt(enlarged, cert))
        added += enlarged.n > sset.n
    assert added > 0


@pytest.mark.parametrize("builtin", ["quaternion", "s3-standard", "s4-standard"])
def test_orbit_weights_determine_the_measurement(tmp_path, capsys, builtin):
    states_path, cert_path = tmp_path / "orbit.json", tmp_path / "cert.json"
    code = run_cli(capsys, "orbit", "--builtin", builtin,
                   "--out-states", str(states_path), "--out-cert", str(cert_path))
    assert code == 0
    members, _ = io.load_state_set(str(states_path))
    cert = io.certificate_from_doc(json.loads(cert_path.read_text()))
    assert cert.method is Method.GROUP_ORBIT
    assert verify_antidistinguishing(members, rebuilt(members, cert))
