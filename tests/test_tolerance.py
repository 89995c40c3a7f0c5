"""The tolerance policy: ``tol`` is the numerical zero of every verdict, so
a YES found at some ``tol`` verifies at that ``tol``, and every threshold of
the package is one of the named constants in ``linalg``."""

import io as stdio
import json
import tokenize
from pathlib import Path

import numpy as np
import pytest

import antidist
from antidist import StateSet, cli, decide, io
from antidist import verify_antidistinguishing
from antidist.states import Verdict

import helpers

#: Bloch vectors with LP margin about 5e-7: the 1e-6 tilt makes one weight tiny
SLIM_MARGIN_BLOCH = [(1, 0, 0), (-1, 0, 1e-6), (0, 0, -1), (0, 1, 0), (0, -1, 0)]


def _policy_sets() -> list[StateSet]:
    rng = np.random.default_rng(151)
    sets = [helpers.bloch_set(SLIM_MARGIN_BLOCH)]
    sets += [helpers.random_qubit_set(int(rng.integers(2, 8)), rng) for _ in range(40)]
    for _ in range(30):
        d = int(rng.integers(3, 6))
        n = int(rng.integers(3, 2 * d + 1))
        sets.append(StateSet([helpers.random_vector(d, rng) for _ in range(n)]))
    sets.append(helpers.sum_condition_triple())
    sets.append(helpers.random_certified_orbit(rng)[0].members)
    return sets


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-4, 1e-2])
def test_every_yes_verifies_at_its_own_tolerance(tol):
    for k, sset in enumerate(_policy_sets()):
        cert = decide(sset, tol)
        if cert.verdict is Verdict.YES:
            assert verify_antidistinguishing(sset, cert.povm, tol), (k, cert.method)


def test_cli_tolerance_reaches_the_qubit_verdict(tmp_path):
    sset = helpers.bloch_set(SLIM_MARGIN_BLOCH)
    path = tmp_path / "slim.json"
    path.write_text(json.dumps(io.state_set_to_doc(sset)))
    assert cli.main(["check", str(path)]) == 0
    assert cli.main(["check", str(path), "--tolerance", "1e-5"]) == 1


#: the --tolerance values of the sweep, from below the default to a tenth
SWEEP_TOLERANCES = ("1e-12", "1e-9", "1e-6", "1e-4", "1e-2", "0.1")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _near_orthogonal_pair() -> list[np.ndarray]:
    """Overlap 0.0025: orthogonal at tol 1e-2, where the swapped effects miss I by 7e-2."""
    return [np.eye(3)[0], _unit(np.array([0.05, 1.0, 0.0]))]


def _coinciding_in_the_span() -> list[np.ndarray]:
    """At tol 1e-5 the span has rank 2, and the first two states coincide in its coordinates."""
    return [np.eye(3)[0], _unit(np.array([1.0, 0.0, 1e-6])), _unit(np.array([0.1, 1.0, 0.0]))]


def _sweep_sets(rng, per: int) -> list[list[np.ndarray]]:
    """``per`` each of random, clustered, near-duplicate (one row perturbed by
    10^-6..10^-2) and rank-2-embedded sets (tilted out of the plane by
    10^-9..10^-3), then the two sets above."""
    sets = []
    for _ in range(per):
        d = int(rng.integers(2, 6))
        sets.append([helpers.random_vector(d, rng) for _ in range(int(rng.integers(2, 2 * d + 1)))])
    for _ in range(per):
        d = int(rng.integers(3, 6))
        spread = rng.choice((0.05, 0.3, 0.6, 1.0))
        sets.append(list(helpers.clustered(d, spread, rng, n=int(rng.integers(2, 2 * d + 1))).vectors))
    for _ in range(per):
        d = int(rng.integers(2, 6))
        rows = [helpers.random_vector(d, rng) for _ in range(int(rng.integers(1, 2 * d)))]
        eps = 10.0 ** rng.uniform(-6, -2)
        sets.append(rows + [_unit(rows[0] + eps * helpers.random_vector(d, rng))])
    for _ in range(per):
        d = int(rng.integers(3, 6))
        isometry = helpers.haar_unitary(d, rng)[:, :2]
        tilt = 10.0 ** rng.uniform(-9, -3)
        sets.append([_unit(isometry @ helpers.random_vector(2, rng) + tilt * helpers.random_vector(d, rng))
                     for _ in range(int(rng.integers(2, 6)))])
    return sets + [_near_orthogonal_pair(), _coinciding_in_the_span()]


def _check(tmp_path, rows, tol: str) -> tuple[int, dict]:
    states, cert = tmp_path / "states.json", tmp_path / "cert.json"
    states.write_text(json.dumps(io.state_set_to_doc(StateSet(rows))))
    code = cli.main(["check", str(states), "--tolerance", tol, "-o", str(cert)])
    return code, json.loads(cert.read_text()) if code in (0, 1, 3) else {}


def test_tolerance_sweep_ends_every_check_in_a_verdict(tmp_path):
    # no tolerance turns a valid set into an input error, and every YES verifies at its tol
    for k, rows in enumerate(_sweep_sets(np.random.default_rng(167), 10)):
        for tol in SWEEP_TOLERANCES:
            code, _ = _check(tmp_path, rows, tol)
            assert code in (0, 1, 3), (k, tol)
            if code == 0:
                argv = ["verify", str(tmp_path / "states.json"), str(tmp_path / "cert.json")]
                assert cli.main(argv + ["--tolerance", tol]) == 0, (k, tol)


def test_a_failed_stage_passes_the_set_on(tmp_path):
    # swapped effects that are no POVM: the pair goes on to the qubit decision on its span
    for tol, method in (("1e-9", "FidelityViolation"), ("1e-2", "QubitBloch"), ("0.1", "QubitBloch")):
        code, cert = _check(tmp_path, _near_orthogonal_pair(), tol)
        assert (code, cert["method"]) == (1, method), tol
    # states that coincide in the span coordinates go on to the chart solve
    code, cert = _check(tmp_path, _coinciding_in_the_span(), "1e-5")
    assert (code, cert["method"]) == (1, "ChartWitness")


#: where a float literal in (0, 1e-3) may appear: the table and the dual's margin
TABLE = {
    ("linalg.py", name)
    for name in ("DEFAULT_TOL", "RESIDUAL_TOL", "DUPLICATE_TOL", "NORM_SLACK", "PIVOT_FLOOR")
} | {("chart.py", "DUAL_MARGIN")}


def test_thresholds_live_only_in_the_table():
    sources = sorted(Path(antidist.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    stray = []
    for path in sources:
        tokens = tokenize.generate_tokens(stdio.StringIO(path.read_text()).readline)
        for tok in tokens:
            if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
                continue
            if 0 < float(tok.string.replace("_", "")) < 1e-3:
                target = tok.line.split("=")[0].strip()
                if (path.name, target) not in TABLE:
                    stray.append(f"{path.name}:{tok.start[0]}: {tok.line.strip()}")
    assert not stray, stray
