"""Closed-loop benchmark of the circleforms command line.

    python3 perfbench/run.py --workload verify|equiv|search|all --seed N \
        --seconds S --trace 0|1

One client in one process drives ``circleforms.cli.main([...])`` in-process
with seeded inputs (see workloads.py) and checks every exit code and
``--json`` verdict against what the generator built.  The program is
imported from ``src/`` next to this directory; nothing is installed.

--trace 0 measures for S seconds and reports the end-to-end metrics.
--trace 1 runs a fixed batch of calls (sized from S), each call untraced and
then traced, and reports the per-layer metrics; its counts repeat exactly at
a given seed and S.  Report lines go to stdout; the last line is the JSON
result.  REALFORMS_THREADS is removed from the environment, so the oracle
runs in this single process.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter, sleep
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402
from perfbench.workloads import Call, Step  # noqa: E402

WORKLOADS = tuple(workloads.GENERATORS)
END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 5
PREFILL_CALLS = 48
# Calls per second of --seconds in a traced run's fixed batch, set so that
# the untraced and the traced pass together take about 0.7 of --seconds on
# a 2-core x86-64 machine under CPython 3.11.
TRACE_BATCH_RATE = {"verify": 10.0, "equiv": 3.5, "search": 1.1}
# Layers a workload leaves idle (their spans must record no calls), and the
# least share of traced time oracle.nullspace holds on search.
POLYMAPS = ("polymaps.substitute", "polymaps.compose", "polymaps.expand")
EQUIVALENCE = ("equivalence.decide_equiv", "equivalence.build_certificate",
               "equivalence.verify_certificate", "equivalence.classify")
IDLE_LAYERS = {"verify": ("oracle.nullspace", *EQUIVALENCE),
               "equiv": ("oracle.nullspace", *POLYMAPS),
               "search": (*POLYMAPS, *EQUIVALENCE)}
SEARCH_NULLSPACE_SHARE = 0.5
# Some hosts run at one of two speeds about 1.8x apart and switch in bursts
# of a second or so (see README.md).  Before each measured CLI call, and
# before each set-up, the client waits, up to QUIET_WAIT_S, until a fixed
# probe runs within QUIET_RATIO of the fastest probe time of the last
# QUIET_WINDOW_S seconds; every call is still timed and counted.  A host
# that stays slow for longer than the window is measured as it is.
QUIET_RATIO = 1.25
QUIET_WAIT_S = 3.0
QUIET_WINDOW_S = 10.0
VERIFY_CHECKS = ("cocycle", "det_is_one", "involution", "splitting", "weight_grading")


class ProgramMissing(Exception):
    """The checkout has no importable circleforms package under src/."""


def import_program():
    """Import circleforms.cli afresh from src/ and return the module."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "circleforms" or n.startswith("circleforms.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        cli = importlib.import_module("circleforms.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import circleforms from {src}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ProgramMissing(f"circleforms was imported from {cli.__file__}, not from {src}")
    return cli


# --- one call -------------------------------------------------------------

def _neg(text: str) -> str:
    return workloads.q(-Fraction(text))


def check_step(step: Step, code, out: str, work: str) -> Optional[str]:
    """None when the exit code and the JSON verdict are what the generator
    built the input to give; otherwise what differs."""
    if code != step.exit_code:
        return f"exit code {code}, expected {step.exit_code}"
    try:
        got = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    e = step.expect
    if step.check == "verify-form":
        want = {"m": e["m"], "h": e["h"], "ok": True, "checks": dict.fromkeys(VERIFY_CHECKS, True)}
    elif step.check == "quotient":
        want = {"m": e["m"], "relation_holds": True, "induced_expressible": [True] * 4}
    elif step.check == "decision":
        want = {**e, "rational_witness": None, "certificate": None}
    elif step.check == "equiv-certified":
        cert = got.get("certificate")
        if not (got.get("equivalent") is True and got.get("witness_exists_over_reals") is True
                and got.get("rational_witness") == e["witness"]
                and isinstance(cert, dict) and cert.get("r") == e["witness"]):
            return f"decision {out.strip()[:200]} does not certify witness {e['witness']}"
        with open(e["file"].replace(workloads.WORK, work), encoding="utf-8") as fh:
            if json.load(fh) != cert:
                return "certificate file differs from the reported certificate"
        return None
    elif step.check == "verify-certificate":
        want = {"valid": True, "r": e["r"]}
    elif step.check == "classify":
        want = {"m": e["m"], "classes": e["classes"], "count": len(e["classes"])}
    elif step.check == "oracle":
        found = [f["r"] for f in got]
        w = e["witness"]
        if w is None:
            return None if found == [] else f"found {found} for an inequivalent pair"
        if w in found and set(found) <= {w, _neg(w)}:
            return None
        return f"found {found}, expected witness {w} (and at most its negative)"
    else:
        raise ValueError(f"unknown check {step.check!r}")
    return None if got == want else f"got {out.strip()[:200]}, expected {json.dumps(want)[:200]}"


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop of about a millisecond."""
    start = perf_counter()
    acc = 0
    for i in range(1, 10000):
        acc = (acc * 31 + i) % 1000003
    return perf_counter() - start


class Client:
    """The closed-loop client: runs calls through a cli module in a scratch
    directory, times each CLI invocation and checks its result.  A `quiet`
    client waits for a quiet host before each invocation."""

    def __init__(self, cli, work: str, quiet: bool = False):
        self.cli = cli
        self.work = work
        self.quiet = quiet
        self.latencies: list[float] = []
        self.attempted = 0
        # (time, probe seconds) with ascending probe seconds: the sliding
        # window minimum of the last QUIET_WINDOW_S seconds is probes[0]
        self.probes: deque[tuple[float, float]] = deque()
        self.quiet_wait_s = 0.0
        self.failures: list[str] = []
        self.outputs: list[int] = []  # hash of each invocation's exit code and stdout
        # per call kind, over calls that passed: seconds in the CLI, and
        # units of work done (forms for classify, calls otherwise)
        self.time_by_kind: dict[str, float] = {}
        self.work_by_kind: dict[str, int] = {}

    def run(self, call: Call) -> None:
        for path, doc in call.files.items():
            with open(path.replace(workloads.WORK, self.work), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        spent = 0.0
        ok = True
        for step in call.steps:
            argv = [a.replace(workloads.WORK, self.work) for a in step.argv]
            out, err = io.StringIO(), io.StringIO()
            if self.quiet:
                self.wait_for_quiet()
            self.attempted += 1
            start = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = self.cli.main(argv)  # looked up per call, so tracing sees it
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                problem = None
            except Exception as exc:  # a crash is a failed call, not a harness error
                code, problem = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            self.latencies.append(elapsed)
            spent += elapsed
            self.outputs.append(hash((code, out.getvalue())))
            if problem is None:
                try:
                    problem = check_step(step, code, out.getvalue(), self.work)
                except (AttributeError, KeyError, TypeError, OSError, ValueError) as exc:
                    problem = f"malformed result ({type(exc).__name__}: {exc})"
            if problem:
                ok = False
                self.failures.append(f"{step.check} {' '.join(argv)[:300]}: {problem}")
        if ok:
            self.time_by_kind[call.kind] = self.time_by_kind.get(call.kind, 0.0) + spent
            units = call.steps[0].expect.get("forms", 1)
            self.work_by_kind[call.kind] = self.work_by_kind.get(call.kind, 0) + units

    def wait_for_quiet(self) -> None:
        """Probe until the host runs at the best speed of the last
        QUIET_WINDOW_S seconds, for at most QUIET_WAIT_S."""
        start = perf_counter()
        while True:
            took = probe()
            now = perf_counter()
            while self.probes and self.probes[-1][1] >= took:
                self.probes.pop()
            self.probes.append((now, took))
            while self.probes[0][0] < now - QUIET_WINDOW_S:
                self.probes.popleft()
            waited = now - start
            if took <= QUIET_RATIO * self.probes[0][1] or waited > QUIET_WAIT_S:
                self.quiet_wait_s += waited
                return
            sleep(0.02)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


# --- runs -----------------------------------------------------------------

def warm_up_calls(workload: str, seed: str) -> list[Call]:
    """The first call of each kind in a stream of its own (one cycle holds
    every kind), so warm-up shares no input with the measured calls."""
    first: dict[str, Call] = {}
    stream = workloads.calls(workload, f"{seed}/warm-up")
    for call in itertools.islice(stream, workloads.CYCLE_CALLS[workload]):
        first.setdefault(call.kind, call)
    return list(first.values())


def set_up(workload: str, seed: str, work: str, warm: Client):
    """Import the program, generate the first calls and warm up; returns the
    cli module, the call stream with its first calls generated, and the
    seconds taken."""
    warm.wait_for_quiet()
    start = perf_counter()
    cli = import_program()
    stream = workloads.calls(workload, seed)
    head = list(itertools.islice(stream, PREFILL_CALLS))
    warm.cli = cli
    for call in warm_up_calls(workload, seed):
        warm.run(call)
    return cli, itertools.chain(head, stream), perf_counter() - start


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(fraction * len(sorted_values)) - 1, 0)]


def measure(workload: str, seed: str, seconds: float, work: str) -> dict:
    """Set up SETUP_REPEATS times, then run the closed loop for `seconds`."""
    warm = Client(None, work)
    setups = []
    for _ in range(SETUP_REPEATS):
        cli, stream, took = set_up(workload, seed, work, warm)
        setups.append(took)
    client = Client(cli, work, quiet=True)
    client.probes = warm.probes
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        client.run(next(stream))
    wall_s = perf_counter() - start
    lat = sorted(client.latencies)
    report = {
        "ops_per_s": (len(lat), "1/s", len(lat) / client.busy_s),
        "latency_p50_ms": (len(lat), "ms", 1e3 * percentile(lat, 0.5)),
        "latency_p90_ms": (len(lat), "ms", 1e3 * percentile(lat, 0.9)),
        "setup_s": (SETUP_REPEATS, "s", statistics.median(setups)),
        "peak_rss_mb": (1, "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "fail_frac": (client.attempted, "ratio", len(client.failures) / client.attempted),
    }
    kinds = {"certified": ("certificate_ops_per_s", "1/s"), "classify": ("classify_forms_per_s", "1/s")}
    for kind, (name, unit) in kinds.items():
        if client.time_by_kind.get(kind):
            report[name] = (client.work_by_kind[kind], unit,
                            client.work_by_kind[kind] / client.time_by_kind[kind])
    p90 = percentile(lat, 0.9)
    detail = {"calls": len(lat), "beyond_p90": sum(1 for v in lat if v > p90),
              "wall_s": wall_s, "busy_s": client.busy_s, "quiet_wait_s": client.quiet_wait_s}
    return {"client": client, "warm": warm, "report": report, "detail": detail}


def trace_batch(workload: str, seed: str, seconds: float) -> list[Call]:
    size = max(2, round(TRACE_BATCH_RATE[workload] * seconds))
    return list(itertools.islice(workloads.calls(workload, seed), size))


def trace(workload: str, seed: str, seconds: float, work: str) -> dict:
    """Run a fixed batch, each call untraced and then traced (alternating, so
    a change in the host's speed hits both alike); the verdicts must match."""
    warm = Client(None, work)
    cli, _stream, _took = set_up(workload, seed, work, warm)
    batch = trace_batch(workload, seed, seconds)
    plain, traced = Client(cli, work), Client(cli, work)
    tracer = tracing.Tracer()
    for call in batch:
        plain.run(call)
        with tracer:
            traced.run(call)
    mismatches = sum(a != b for a, b in zip(plain.outputs, traced.outputs))
    if mismatches:
        traced.failures.append(f"{mismatches} traced outputs differ from the untraced ones")
    return {"clients": (warm, plain, traced), "batch": len(batch),
            "metrics": tracer.metrics(plain.busy_s, traced.busy_s)}


def separation(workload: str, metrics: dict) -> str:
    """One report line: does the traced run leave the predicted layers idle?"""
    busy = [name for name in IDLE_LAYERS[workload] if metrics[f"{name}.calls"]]
    line = f"layers idle {' '.join(IDLE_LAYERS[workload])}: " + (
        f"NO, called: {' '.join(busy)}" if busy else "yes")
    if workload == "search":
        share = metrics["oracle.nullspace.share"]
        line += f"; oracle.nullspace.share {share:.3f} >= {SEARCH_NULLSPACE_SHARE}: " + (
            "yes" if share >= SEARCH_NULLSPACE_SHARE else "NO")
    return line


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(args, threads_env: Optional[str]) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "REALFORMS_THREADS": None,
            "REALFORMS_THREADS_inherited": threads_env}


def run_one(args) -> dict:
    threads_env = os.environ.pop("REALFORMS_THREADS", None)
    print("run " + json.dumps(run_record(args, threads_env), sort_keys=True))
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.trace:
            got = trace(args.workload, args.seed, args.seconds, work)
            clients = got["clients"]
            print(f"detail batch={got['batch']} untraced_s={clients[1].busy_s:.3f} "
                  f"traced_s={clients[2].busy_s:.3f}")
            print(separation(args.workload, got["metrics"]))
            units = dict(tracing.layer_metrics())
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in got["metrics"].items()}
        else:
            got = measure(args.workload, args.seed, args.seconds, work)
            clients = (got["warm"], got["client"])
            for name, (samples, unit, value) in got["report"].items():
                print(f"metric {name} {value:.6g} {unit} (n={samples})")
            print("detail " + " ".join(f"{k}={v:.6g}" for k, v in got["detail"].items()))
            metrics = {name: {"value": got["report"][name][2], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for c in clients for f in c.failures]
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    attempted = sum(c.attempted for c in clients)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload, each in a fresh process; report lines pass through."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", args.seed, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        if done.returncode or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {workload} exited with {done.returncode}")
        results[workload] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": v for w, r in results.items() for name, v in r["metrics"].items()}}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_program()  # before any output: a checkout without src/ prints no result
        result = run_all(args) if args.workload == "all" else run_one(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
