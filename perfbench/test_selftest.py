"""Self-tests of the benchmark: seeded inputs, the correctness gate, and the
tracer leaving the package as it found it.  Run with
``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import importlib
import itertools
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(run.__file__).resolve().parent.parent


def head(workload: str, seed: str, count: int) -> list[workloads.Call]:
    return list(itertools.islice(workloads.calls(workload, seed), count))


def dump(calls: list[workloads.Call]) -> bytes:
    return json.dumps([c.to_json() for c in calls], sort_keys=True).encode()


@pytest.fixture
def cli():
    # the package as the other tests imported it; a fresh import
    # (as the benchmark's set-up does) would strand other tests' classes
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module("circleforms.cli")


@pytest.fixture
def client_for(cli, tmp_path):
    return lambda: run.Client(cli, str(tmp_path))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert dump(head(workload, "7", 40)) == dump(head(workload, "7", 40))
    assert dump(head(workload, "7", 40)) != dump(head(workload, "8", 40))


def test_negative_coefficients_stay_in_the_inputs():
    argvs = [a for c in head("verify", "1", 200) for s in c.steps for a in s.argv]
    assert any(a.startswith("--h=-") for a in argvs)
    assert not any(a == "--h" for a in argvs)


def test_non_powers_have_no_rational_cube_or_fifth_root(cli):
    from circleforms.gaussian import rational_odd_root

    for k in workloads.NON_POWERS:
        assert rational_odd_root(k, 3) is None and rational_odd_root(k, 5) is None


def test_classify_expectation_is_a_partition():
    forms, classes = workloads.classify_forms(random.Random(3), 3, 40)
    assert sorted(i for c in classes for i in c) == list(range(40))
    keys = [{workloads.class_key(forms[i], 3) for i in c} for c in classes]
    assert all(len(k) == 1 for k in keys)
    assert len(set().union(*keys)) == len(classes)


@pytest.mark.parametrize("workload", ["verify", "equiv"])
def test_generated_calls_pass_the_gate(client_for, workload):
    client = client_for()
    for call in head(workload, "5", 16):
        client.run(call)
    assert client.failures == []
    assert client.attempted >= 16


def test_planted_wrong_expectations_are_failures(client_for):
    calls = run.warm_up_calls("equiv", "2") + run.warm_up_calls("verify", "2")
    assert {c.kind for c in calls} == {"certified", "inequivalent", "real-only", "classify",
                                       "verify-form", "quotient"}
    planted = []
    for call in calls:
        step = call.steps[0]
        if call.kind == "certified":
            wrong = replace(step, expect={**step.expect, "witness": workloads.q(Fraction(5, 7))})
        elif call.kind == "classify":
            wrong = replace(step, expect={**step.expect, "classes": step.expect["classes"][::-1]})
        else:
            wrong = replace(step, exit_code=1 - step.exit_code)
        planted.append(replace(call, steps=[wrong, *call.steps[1:]]))
    client = client_for()
    for call in planted:
        client.run(call)
    assert len(client.failures) == len(planted)


def test_usage_error_and_crash_are_failures(client_for, tmp_path):
    call = workloads.Call("verify-form", [workloads.Step(
        "verify-form", ["verify-form", "--m", "1", "--h", "-1,2", "--json"], 0,
        {"m": 1, "h": [{"re": "-1"}, {"re": "2"}]})])
    client = client_for()
    client.run(call)
    assert len(client.failures) == 1 and "exit code 2" in client.failures[0]

    def crash(argv):
        raise RuntimeError("internal error")

    crashing = run.Client(SimpleNamespace(main=crash), str(tmp_path))
    crashing.run(call)
    assert len(crashing.failures) == 1 and "RuntimeError" in crashing.failures[0]


def test_traced_and_untraced_verdicts_match_and_wrappers_are_removed(cli, client_for):
    calls = [c for w in run.WORKLOADS for c in run.warm_up_calls(w, "4")]
    before = tracing.bindings()
    plain, traced = client_for(), client_for()
    for call in calls:
        plain.run(call)
    with tracing.Tracer() as tracer:
        assert tracing.bindings() != before
        for call in calls:
            traced.run(call)
    after = tracing.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert plain.failures == traced.failures == []
    assert plain.outputs == traced.outputs
    metrics = tracer.metrics(plain.busy_s, traced.busy_s)
    assert [name for name, _ in tracing.layer_metrics()] == list(metrics)
    assert metrics["cli.main.calls"] == traced.attempted
    for layer in ("polymaps.substitute", "equivalence.classify", "oracle.nullspace",
                  "quotient.verify_relation", "matrices.inverse"):
        assert metrics[f"{layer}.calls"] > 0


def test_traced_counts_repeat_exactly(client_for):
    def counts():
        client = client_for()
        with tracing.Tracer() as tracer:
            for call in run.warm_up_calls("equiv", "9"):
                client.run(call)
        return {k: v for k, v in tracer.metrics(1.0, 1.0).items() if not k.endswith("_s")
                and k not in ("oracle.nullspace.share", "trace_overhead_frac")}

    assert counts() == counts()


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
