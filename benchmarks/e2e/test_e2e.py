"""Tests of the end-to-end benchmark, at ``--smoke`` sizing.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

import run
import tracer as tracing

HERE = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_once(tmp, workload, trace, seconds=1.5):
    """One smoke-sized measured run: (last-line result, detail record)."""
    record = tmp / f"{workload}-{trace}.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "0",
            "--seconds", str(seconds), "--trace", str(trace),
            "--smoke", "--record", str(record),
        ],
        capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(
        record.read_text()
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: run_once(tmp, name, 1) for name in run.WORKLOADS}


@pytest.fixture(scope="module")
def harness_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("harness")
    assert run.main(
        ["--workload", "phone-nodvs", "--smoke", "--out", str(out)]
    ) == 0
    return out


def test_untraced_run_emits_the_declared_end_to_end_metrics(tmp_path):
    result, _ = run_once(tmp_path, "phone-nodvs", 0)
    declared = run.declared_metrics(trace=False)
    workloads = [w["name"] for w in run.load_benchmark()["workloads"]]
    assert workloads == list(run.WORKLOADS)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_the_declared_layer_metrics(traced, workload):
    result, _ = traced[workload]
    declared = run.declared_metrics(trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(declared)
    for name in result["metrics"]:
        assert NAME.fullmatch(name)


def _self_times(events):
    """Self time per span, from the trace events' nesting alone."""
    spans = sorted(
        (e for e in events if e["cat"] != "mark"),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    total = 0.0
    stack = []  # [end, duration, children]
    for event in spans + [None]:
        start = float("inf") if event is None else event["ts"]
        while stack and stack[-1][0] <= start + 0.01:
            end, duration, children = stack.pop()
            total += duration - children
            if stack:
                stack[-1][2] += duration
        if event is not None:
            stack.append([event["ts"] + event["dur"], event["dur"], 0.0])
    return total / 1e6


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_and_unattributed_add_up_to_the_traced_wall(
    traced, workload
):
    result, record = traced[workload]
    wall = record["wall_s"]
    unattributed = result["metrics"]["unattributed_frac"]["value"] * wall
    from_trace = _self_times(record["trace_events"])
    assert from_trace + unattributed == pytest.approx(wall, rel=0.01)
    assert sum(record["self_seconds"].values()) == pytest.approx(
        from_trace, rel=0.01
    )


def test_wrappers_restore_the_original_functions():
    import repro.synthesis.cosynthesis as cosynthesis
    import repro.synthesis.driver as driver

    targets = [
        tracing._resolve(module, attribute)
        for _, module, attribute, _ in tracing.TARGETS
    ] + [(driver.GenerationDriver, "run"), (cosynthesis, "backend_for")]
    originals = [vars(owner)[name] for owner, name in targets]
    with tracing.Tracer().installed():
        for (owner, name), original in zip(targets, originals):
            assert vars(owner)[name] is not original
    for (owner, name), original in zip(targets, originals):
        assert vars(owner)[name] is original


def test_a_perturbed_reference_counts_as_failed():
    import workloads

    reference = run.load_reference(smoke=True)
    for key, entry in reference.items():
        if key.startswith("smartphone/none/"):
            entry["power"] = repr(float(entry["power"]) * (1 + 1e-12))
            entry["history"][-1] = "0.0"
    run.WORKDIR.mkdir(exist_ok=True)
    window = workloads.measure(
        "phone-nodvs", 0, 1.5, True, reference, run.WORKDIR
    )
    assert window.failures
    assert all("reference" in failure for failure in window.failures)


def test_an_exception_in_a_campaign_job_counts_as_failed(monkeypatch):
    import repro.runtime.runner as runner
    import workloads

    def crash(implementation):
        raise RuntimeError("crash inside a job")

    # The runner re-raises what is not a ReproError or ValidationError.
    monkeypatch.setattr(runner, "validate_implementation", crash)
    run.WORKDIR.mkdir(exist_ok=True)
    window = workloads.measure(
        "tables-mini", 0, 1.5, True, run.load_reference(smoke=True), run.WORKDIR
    )
    assert window.attempted == 1
    assert len(window.failures) == 1
    assert "crash inside a job" in window.failures[0]


def test_trace_file_loads_and_its_spans_nest(harness_out):
    events = json.loads((harness_out / "trace.json").read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    open_ends = {}
    for event in sorted(spans, key=lambda e: (e["pid"], e["ts"], -e["dur"])):
        stack = open_ends.setdefault((event["pid"], event["tid"]), [])
        while stack and stack[-1] <= event["ts"] + 0.01:
            stack.pop()
        end = event["ts"] + event["dur"]
        assert not stack or end <= stack[-1] + 0.01, event
        stack.append(end)


def test_results_file_records_host_and_compares_ok_with_itself(
    harness_out, capsys
):
    results = json.loads((harness_out / "results.json").read_text())
    assert {"cpu_count", "affinity", "python", "platform", "commit"} <= set(
        results["host"]
    )
    assert results["provenance"]["run_order"] == [
        "phone-nodvs:0",
        "phone-nodvs:traced",
    ]
    path = str(harness_out / "results.json")
    assert run.compare(path, path) == 0
    verdicts = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
    assert verdicts and set(verdicts) == {"ok"}
