"""Self-test of the benchmark's checker: tampered outputs must count as failures.

    python3 bench/selftest.py

Runs a tiny corpus through the CLI, then checks its outputs as the
benchmark does: untouched (no failure allowed), with one POVM effect
scaled by 1.01, and with verdicts flipped both ways.  Each tampering must
raise failed_frac above 0.  Exits 1 if any case goes wrong.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

import run  # sets the thread variables before numpy loads

import corpus  # noqa: E402


def tiny_corpus() -> list[corpus.Item]:
    qubit = [it for it in corpus.build("qubit", 0, 1) if len(it.states) <= 5]
    exact = [it for it in corpus.build("exact", 0, 1)
             if it.kind == "check" and it.states.shape[1] == 3
             and it.cls in ("orthonormal", "pair", "weyl")]
    return qubit + exact


def failures(requests, items) -> list[str]:
    return [reason for _, reason in run.check_requests(requests, items, {})]


def rewrite(path: str, change) -> None:
    doc = json.loads(Path(path).read_text())
    change(doc)
    Path(path).write_text(json.dumps(doc))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from antidist import cli

    items = tiny_corpus()
    work = run.OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    here = os.getcwd()
    problems = []
    try:
        os.chdir(work)
        for i, item in enumerate(items):
            Path(f"in-{i}.json").write_text(json.dumps(corpus.state_doc(item.states)))
        requests = run.Client(cli, items).run_pass("p0", range(len(items)))[0]
        clean = failures(requests, items)
        if clean:
            problems.append(f"untouched outputs: {clean}")
        originals = {f: Path(f).read_bytes() for f in os.listdir(".")}

        def case(name, tamper):
            tampered = copy.deepcopy(requests)
            tamper(tampered)
            found = failures(tampered, items)
            print(f"{name}: failed_frac {len(found) / len(tampered):.4f} {found}")
            if not found:
                problems.append(f"{name}: not detected")
            for f, data in originals.items():
                Path(f).write_bytes(data)

        yes = next(r for r in requests if r.kind == "check" and r.code == 0)
        no = next(r for r in requests
                  if r.kind == "check" and r.code == 1 and items[r.item].states.shape[1] == 3)

        def scale_effect(reqs):
            def change(doc):
                doc["povm"]["effects"][0] = [[[1.01 * x for x in z] for z in row]
                                             for row in doc["povm"]["effects"][0]]
            rewrite(yes.files[1], change)

        def flip(req, verdict, code):
            def tamper(reqs):
                rewrite(req.files[1], lambda doc: doc.update(verdict=verdict))
                next(r for r in reqs if (r.item, r.kind) == (req.item, req.kind)).code = code
            return tamper

        case("effect scaled by 1.01", scale_effect)
        case("YES flipped to NO", flip(yes, "AntidistNo", 1))
        case("NO flipped to YES", flip(no, "AntidistYes", 0))
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
