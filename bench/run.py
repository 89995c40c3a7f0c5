"""Seeded end-to-end benchmark of the antidist command line.

    python3 bench/run.py --workload {qubit,exact,search} --seed N --seconds S --trace {0,1}

Run from the repository root.  The benchmark builds its state-set files
from ``--seed`` with numpy alone and drives ``antidist.cli.main`` in this
one process: a closed loop with one client, every request waiting for the
previous one.  Each verdict is checked against independent oracles
(``oracle.py``).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with times scaled to a reference machine speed (``calibrate.py``); the
raw figures are printed beside them.  With ``--trace 1`` they are its
per-layer ones, taken from a traced pass that wraps the package's
functions from outside (``spans.py``).
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: corpus rounds per workload, sized so one pass fits in a run
ROUNDS = {"qubit": 5, "exact": 4, "search": 20}

#: fresh interpreters spawned to time ``import antidist.cli``
SETUP_SPAWNS = 5


@dataclass
class Request:
    item: int
    kind: str  # check, orbit, verify or complete
    code: int | None  # None when the call raised
    seconds: float
    stdout: str
    error: str
    files: tuple[str, ...]
    scale: float = 1.0  # reference over measured machine speed, see calibrate.py


class Client:
    """Issues CLI requests in process and records each one."""

    def __init__(self, cli, items):
        self.cli = cli
        self.items = items
        self.tracer = None

    def call(self, i: int, kind: str, argv: list[str], files: tuple[str, ...]) -> Request:
        if self.tracer is not None:
            self.tracer.request_id += 1
        out, err = io.StringIO(), io.StringIO()
        error = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the request failed; the loop goes on
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        return Request(i, kind, code, seconds, out.getvalue(), error or err.getvalue(), files)

    def run_item(self, i: int, tag: str) -> list[Request]:
        """One set from file to written verdict, with its follow-up requests:
        verify after every YES, complete and verify after a NO on qubits."""
        item = self.items[i]
        cert = f"{tag}-{i}-cert.json"
        if item.kind == "check":
            states = f"in-{i}.json"
            first = self.call(i, "check", ["check", states, "-o", cert], (states, cert))
        else:
            states = f"{tag}-{i}-states.json"
            argv = ["orbit", *item.orbit_args, "--out-states", states, "--out-cert", cert]
            first = self.call(i, "orbit", argv, (states, cert))
        done = [first]
        if first.code == 0:
            done.append(self.call(i, "verify", ["verify", states, cert], (states, cert)))
        elif first.code == 1 and item.kind == "check" and item.states.shape[1] == 2:
            added, enlarged = f"{tag}-{i}-complete.json", f"{tag}-{i}-enlarged.json"
            argv = ["complete", states, "-o", added, "--out-states", enlarged]
            done.append(self.call(i, "complete", argv, (states, added, enlarged)))
            done.append(self.call(i, "verify", ["verify", enlarged, added], (enlarged, added)))
        return done

    def run_pass(self, tag: str, order) -> tuple[list[Request], float, float]:
        """All items in order.  Returns the requests, their wall time, and
        that wall time scaled to the reference speed; the calibration
        kernel timed between items counts in neither."""
        done, wall, scaled = [], 0.0, 0.0
        before = calibrate.kernel_seconds()
        for i in order:
            t0 = perf_counter()
            requests = self.run_item(i, tag)
            seconds = perf_counter() - t0
            after = calibrate.kernel_seconds()
            scale = 2 * calibrate.REFERENCE_S / (before + after)
            for r in requests:
                r.scale = scale
            done += requests
            wall += seconds
            scaled += seconds * scale
            before = after
        return done, wall, scaled


_SETUP_PROBE = """
from time import perf_counter
t0 = perf_counter()
import antidist.cli
seconds = perf_counter() - t0
import calibrate
calibrate.kernel_seconds()  # the first call pays numpy's one-off set-up
print(seconds, calibrate.kernel_seconds())
"""


def measure_setup() -> list[Request]:
    """``import antidist.cli`` in fresh interpreters, each timing the
    calibration kernel right after the import: the kernel needs numpy,
    whose import is part of what set-up measures."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    spawns = []
    for k in range(SETUP_SPAWNS):
        out = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.split()
        seconds, kernel = float(out[0]), float(out[1])
        spawns.append(Request(k, "setup", 0, seconds, "", "", (), calibrate.REFERENCE_S / kernel))
    return spawns


def check_requests(requests: list[Request], items, reference: dict) -> list[tuple[Request, str]]:
    """Failures among the requests of one pass, each with its reason.

    The first pass checked is held against the oracles and recorded in
    ``reference``; later passes must reproduce it byte for byte.
    """
    failures = []
    for req in requests:
        if req.code is None or req.code == 2:
            failures.append((req, req.error.strip() or f"exit code {req.code}"))
            continue
        outputs = tuple(Path(f).read_bytes() for f in req.files)
        key = (req.item, req.kind)
        if key in reference:
            if reference[key] != (req.code, req.stdout, outputs):
                failures.append((req, "output differs from the first pass"))
            continue
        reference[key] = (req.code, req.stdout, outputs)
        reason = _oracle_reason(req, items[req.item])
        if reason:
            failures.append((req, reason))
    return failures


def _oracle_reason(req: Request, item) -> str | None:
    if req.kind == "verify":
        return None if req.code == 0 and req.stdout.strip() == "verified" else (
            f"verify exit {req.code}: {req.stdout.strip()}")
    if req.kind == "complete":
        if req.code != 0:
            return f"complete exit {req.code}"
        enlarged = oracle.states_from_doc(oracle.load_json(req.files[2]))
        return oracle.check_completion(item.states, enlarged, oracle.load_json(req.files[1]))
    states_path, cert_path = req.files
    cert = oracle.load_json(cert_path)
    if item.kind == "check":
        states = item.states
    else:
        states = oracle.states_from_doc(oracle.load_json(states_path))
        base = oracle.complex_array(json.loads(item.orbit_args[-1]))
        reason = oracle.check_orbit(states, base, item.orbit_size)
        if reason:
            return reason
    try:
        answer = oracle.truth(item, states)
    except RuntimeError as exc:
        return f"oracles disagree: {exc}"
    return oracle.check_verdict(req.code, cert, states, answer)


def end_to_end(requests, wall: float, setup: list[Request], peak_kb: int,
               scaled: bool) -> dict[str, tuple[float, str, int]]:
    """End-to-end figures: name -> (value, unit, sample count).  With
    ``scaled`` times are at the reference speed (wall must be scaled too)."""
    def seconds(r: Request) -> float:
        return r.seconds * r.scale if scaled else r.seconds

    verdicts = [r for r in requests if r.kind in ("check", "orbit")]
    lat = [seconds(r) for r in verdicts]
    ver = [seconds(r) for r in requests if r.kind == "verify"]
    decided = sum(r.code in (0, 1) for r in verdicts)
    return {
        "setup_s": (statistics.median(seconds(r) for r in setup), "s", len(setup)),
        "sets_per_s": (len(verdicts) / wall, "1/s", len(verdicts)),
        "check_s.p50": (statistics.median(lat), "s", len(lat)),
        "check_s.p90": (float(np.percentile(lat, 90)), "s", len(lat)),
        "verify_s.p50": (statistics.median(ver), "s", len(ver)),
        "decided_frac": (decided / len(verdicts), "ratio", len(verdicts)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }


def per_layer(summary: dict, requests, untraced: float, traced: float,
              spans: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced pass: name -> (value, unit)."""
    figures: dict[str, tuple[float, str]] = {}
    layers: dict[str, float] = {}
    for name, s in summary.items():
        figures[f"{name}.calls"] = (s["calls"], "count")
        figures[f"{name}.self_s"] = (s["self_s"], "s")
        figures[f"{name}.total_s"] = (s["total_s"], "s")
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + s["self_s"]
    for layer, value in layers.items():
        figures[f"{layer}.self_s"] = (value, "s")
    search = summary.get("chart.search_chart")
    if search is not None:
        ratio = search["hits"] / search["calls"] if search["calls"] else 0.0
        figures["chart.search_chart.hit_ratio"] = (ratio, "ratio")
    exits: dict[str, int] = {}
    for r in requests:
        if r.kind == "check" and r.code is not None:
            cert = oracle.load_json(r.files[1])
            key = cert.get("method") if cert.get("verdict") != "Unknown" else "Unknown"
            exits[key] = exits.get(key, 0) + 1
    for key, count in exits.items():
        figures[f"pipeline.exit.{key}"] = (count, "count")
    figures["trace.untraced_wall_s"] = (untraced, "s")
    figures["trace.traced_wall_s"] = (traced, "s")
    figures["trace.overhead_s"] = (traced - untraced, "s")
    figures["trace.spans"] = (spans, "count")
    return figures


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "antidist" / "cli.py").is_file():
        print(f"error: no antidist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from antidist import cli

    if Path(cli.__file__).resolve().parent != SRC / "antidist":
        print(f"error: imported antidist from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    items = corpus.build(args.workload, args.seed, ROUNDS[args.workload])
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    here = os.getcwd()
    try:
        os.chdir(work)
        (work / corpus.GROUP_FILE).write_text(json.dumps(corpus.weyl_group_doc()))
        for i, item in enumerate(items):
            if item.kind == "check":
                (work / f"in-{i}.json").write_text(json.dumps(corpus.state_doc(item.states)))
        client = Client(cli, items)
        # classes interleaved, so a slow spell of the machine hits them alike
        order = np.random.default_rng(args.seed).permutation(len(items)).tolist()
        if args.trace:
            return traced_run(args, client, items, order)
        return timed_run(args, client, items, order)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)


def warm_up(client: Client, items) -> None:
    """One cheap item of each class, untimed, so lazy set-up is done first."""
    seen = set()
    for i, item in enumerate(items):
        if item.cls not in seen and not item.cls.startswith("cfs"):
            seen.add(item.cls)
            client.run_item(i, "warm")


def timed_run(args, client: Client, items, order) -> int:
    setup = measure_setup()
    warm_up(client, items)
    requests, wall, scaled, passes = [], 0.0, 0.0, 0
    while passes == 0 or wall + wall / passes <= args.seconds:
        done, seconds, scaled_seconds = client.run_pass(f"p{passes}", order)
        requests += done
        wall += seconds
        scaled += scaled_seconds
        passes += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check_requests(requests, items, {})
    figures = end_to_end(requests, scaled, setup, peak_kb, scaled=True)
    raw = end_to_end(requests, wall, setup, peak_kb, scaled=False)
    report(args, requests, failures, passes, wall)
    print(f"  speed scale: median {statistics.median(r.scale for r in requests):.4f}, "
          f"set-up {statistics.median(r.scale for r in setup):.4f} (calibrate.py)")
    for name, (value, unit, samples) in figures.items():
        print(f"  {name:<14} {value:12.6g} {unit:<6} n={samples:<5} raw {raw[name][0]:.6g}")
    metrics = {}
    for m in declared("end_to_end"):
        value, unit, _ = figures[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": unit}
    return emit(requests, failures, metrics)


def absent_functions(names, summary) -> list[str]:
    """Traced functions that per-layer metrics name but the package lacks."""
    out = set()
    for name in names:
        stem, stat = name.rsplit(".", 1)
        if stat in ("calls", "self_s", "total_s", "hit_ratio") and stem.split(".")[0] in LAYERS \
                and stem.count(".") == 1 and stem not in summary:
            out.add(stem)
    return sorted(out)


def traced_run(args, client: Client, items, order) -> int:
    warm_up(client, items)
    base, untraced_raw, untraced = client.run_pass("u", order)
    tracer = Tracer()
    tracer.install()
    client.tracer = tracer
    try:
        traced_requests, traced_raw, traced = client.run_pass("t", order)
    finally:
        tracer.uninstall()
        client.tracer = None
    requests = base + traced_requests
    reference: dict = {}
    failures = check_requests(base, items, reference)
    failures += check_requests(traced_requests, items, reference)
    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-{args.seed}"
    tracer.save(f"{stem}.npz")
    figures = per_layer(summary, traced_requests, untraced, traced, len(tracer.name_id))
    values = {k: v[0] for k, v in sorted(figures.items())}
    stem.with_suffix(".json").write_text(json.dumps(values, indent=1))
    report(args, requests, failures, 2, untraced_raw + traced_raw)
    print(f"  tracing overhead {traced - untraced:.3f} s at reference speed "
          f"({untraced:.3f} s untraced, "
          f"{traced:.3f} s traced; raw {untraced_raw:.3f} s and {traced_raw:.3f} s)")
    top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:15]
    for name, s in top:
        print(f"  {name:<40} calls={s['calls']:<8} self={s['self_s']:.4f} s "
              f"total={s['total_s']:.4f} s")
    names = [m["name"] for m in declared("per_layer")]
    absent = absent_functions(names, summary)
    figures["trace.absent"] = (len(absent), "count")
    if absent:
        print(f"  absent, reported as 0: {', '.join(absent)}")
    metrics = {m["name"]: {"value": figures.get(m["name"], (0,))[0], "unit": m["unit"]}
               for m in declared("per_layer")}
    return emit(requests, failures, metrics)


def report(args, requests, failures, passes: int, wall: float) -> None:
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests in "
          f"{passes} passes, {wall:.3f} s")
    for req, reason in failures[:20]:
        print(f"  FAILED item {req.item} {req.kind}: {reason}")
    print(f"  failed_frac    {len(failures) / len(requests):12.6g} ratio  n={len(requests)}")


def emit(requests, failures, metrics) -> int:
    print(json.dumps({"correct": not failures, "attempted": len(requests),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
