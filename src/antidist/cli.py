"""Command-line surface.

Subcommands: check (run the certificate pipeline), verify (test a POVM
against a state set), complete (qubit one-state completion), orbit
(group-orbit generation with its covariant certificate), bloch (export
Bloch coordinates as a text table).  Every state, the added one and an
orbit's base included, is read and built as a ``StateSet``.

Exit codes: 0 antidistinguishable, 1 certified not, 2 input or internal
error, 3 unknown.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback

import numpy as np

from . import conditions, group, io, linalg, pipeline, qubit
from .errors import AntidistError, FileFormatError
from .states import Certificate, Method, StateSet, Verdict

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3

_VERDICT_EXIT = {Verdict.YES: EXIT_YES, Verdict.NO: EXIT_NO, Verdict.UNKNOWN: EXIT_UNKNOWN}


def _emit(doc: dict, out: str | None) -> None:
    text = io.dumps_doc(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    states, _ = io.load_state_set(args.states)
    cert = pipeline.decide(states, tol=args.tolerance)
    _emit(io.certificate_to_doc(cert), args.output)
    return _VERDICT_EXIT[cert.verdict]


def cmd_verify(args) -> int:
    states, _ = io.load_state_set(args.states)
    povm = io.load_povm(args.povm, args.tolerance)
    ok = conditions.verify_antidistinguishing(states, povm, args.tolerance)
    print("verified" if ok else "not antidistinguishing")
    return EXIT_YES if ok else EXIT_NO


def cmd_complete(args) -> int:
    states, _ = io.load_state_set(args.states)
    if states.dim != 2:
        raise FileFormatError("completion by one state works for qubits only")
    added, verdict = qubit.qubit_complete(states, args.tolerance)
    if added is None:
        enlarged = states
        notes = "already antidistinguishable; no state added"
    else:
        enlarged = StateSet.join(states, added)
        notes = "added one state to make the set antidistinguishable"
    cert = Certificate(
        Verdict.YES,
        Method.QUBIT_BLOCH,
        weights=verdict.weights,
        povm=conditions.build_povm(enlarged, verdict.weights, np.eye(2), args.tolerance),
        added_state=added.vectors[0] if added is not None else None,
        notes=notes,
    )
    _emit(io.certificate_to_doc(cert), args.output)
    if args.out_states:
        _emit(io.state_set_to_doc(enlarged), args.out_states)
    return EXIT_YES


def _builtin_rep(name: str) -> tuple[group.GroupRep, StateSet]:
    if name == "quaternion":
        return group.builtin_quaternion(), group.tetrahedral_state()
    if name.startswith("s") and name.endswith("-standard"):
        try:
            n = int(name[1:-len("-standard")])
        except ValueError:
            raise FileFormatError(f"unknown builtin representation {name!r}") from None
        rep = group.builtin_symmetric_permutation(n)
        return rep, StateSet(group.standard_subspace_vectors(n)[:1])
    raise FileFormatError(f"unknown builtin representation {name!r}")


def _named_base(name: str, dim: int) -> StateSet:
    if name == "tetrahedral":
        return group.tetrahedral_state()
    if name == "psi1":
        return StateSet(group.standard_subspace_vectors(dim)[:1])
    try:
        entries = json.loads(name)
    except json.JSONDecodeError:
        entries = None
    if not isinstance(entries, list):  # json reads '-Infinity' and '5' as numbers
        raise FileFormatError(f"unknown base state {name!r}")
    return StateSet([io.wire_to_vector(entries)])


def cmd_orbit(args) -> int:
    if bool(args.builtin) == bool(args.group):
        raise FileFormatError("exactly one of --builtin or --group is required")
    if args.builtin:
        rep, base = _builtin_rep(args.builtin)
    else:
        rep = io.load_group(args.group, args.tolerance)
        base = None
    if args.base:
        base = _named_base(args.base, rep.dim)
    if base is None:
        raise FileFormatError("--base is required for representations loaded from a file")
    orb = group.orbit(rep, base)
    c, r_proj = group.schur_sum(orb, args.tolerance)
    members, weights = orb.members, np.full(orb.members.n, 1.0 / c)
    cert = Certificate(
        Verdict.YES,
        Method.GROUP_ORBIT,
        weights=weights,
        projector_r=r_proj,
        povm=conditions.build_povm(members, weights, r_proj, args.tolerance),
        notes=(
            f"orbit of size {members.n} with stabilizer order {orb.stabilizer_order}; "
            f"projector sum equals {c:.12g} times the span projector"
        ),
    )
    doc = {"state_set": io.state_set_to_doc(members), "certificate": io.certificate_to_doc(cert)}
    if args.out_states or args.out_cert:
        if args.out_states:
            _emit(doc["state_set"], args.out_states)
        if args.out_cert:
            _emit(doc["certificate"], args.out_cert)
    else:
        _emit(doc, args.output)
    return EXIT_YES


def cmd_bloch(args) -> int:
    states, labels = io.load_state_set(args.states)
    if states.dim != 2:
        raise FileFormatError("Bloch coordinates exist for qubit sets only")
    for label, (x, y, z) in zip(labels, qubit.bloch_vectors(states)):
        print(f"{label}\t{x:.12g}\t{y:.12g}\t{z:.12g}")
    return EXIT_YES


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("tolerance must be finite and positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antidist",
        description="Decide, certify, and construct antidistinguishability of pure quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance", type=_positive_float, default=linalg.DEFAULT_TOL,
                       help="numerical zero of every scalar a verdict rests on: exclusion"
                       " probabilities, responses, weights, overlaps, eigenvalues"
                       " (default %(default)g)")

    p = sub.add_parser("check", help="run the certificate pipeline on a state set")
    p.add_argument("states", help="state-set JSON file")
    common(p)
    p.add_argument("-o", "--output", help="write the certificate here instead of stdout")

    p = sub.add_parser("verify", help="verify a POVM against a state set")
    p.add_argument("states")
    p.add_argument("povm", help="POVM JSON file, or an AntidistYes certificate")
    common(p)

    p = sub.add_parser("complete", help="complete a qubit set by at most one state")
    p.add_argument("states")
    common(p)
    p.add_argument("-o", "--output", help="write the certificate here instead of stdout")
    p.add_argument("--out-states", help="also write the enlarged state set here")

    p = sub.add_parser("orbit", help="generate an orbit and its covariant certificate")
    common(p)
    p.add_argument("--builtin", help="builtin representation: quaternion, s3-standard, ...")
    p.add_argument("--group", help="representation JSON file")
    p.add_argument("--base", help="base state: a name (tetrahedral, psi1) or a JSON vector")
    p.add_argument("--out-states", help="write the orbit state set here")
    p.add_argument("--out-cert", help="write the certificate here")
    p.add_argument("-o", "--output", help="write the combined document here instead of stdout")

    p = sub.add_parser("bloch", help="print Bloch coordinates of a qubit set")
    p.add_argument("states")
    common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call: parsing leaves it unchanged."""
    return build_parser()


def _join_base(argv: list[str]) -> list[str]:
    """``--base VALUE`` as the one token ``--base=VALUE``: argparse reads a separate
    value that starts with '-', such as ``-Infinity``, as an option."""
    if "--base" not in argv[:-1]:
        return argv
    k = argv.index("--base")
    return [*argv[:k], f"--base={argv[k + 1]}", *argv[k + 2:]]


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_base(list(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:  # argparse has printed the help (code 0) or the error
        return 0 if exc.code == 0 else EXIT_ERROR
    try:
        # looked up per call, so a replaced cmd_* function is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (AntidistError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # exit codes 0, 1 and 3 are verdicts; a failure must never read as one
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
