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
