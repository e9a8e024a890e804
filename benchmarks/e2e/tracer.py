"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark never edits the program under test.  For one traced
window it replaces public functions with timing wrappers *at the names
their callers look up* (a module attribute, or a method on its class)
and restores the originals afterwards.  Every wrapped call becomes a
span; spans stay in memory and can be written out as a Chrome
trace-event file.  A span's self time is its duration minus the
durations of its child spans, so the self times of all spans plus the
time outside any span add up to the traced wall clock.

Only the process that installed the wrappers records: forked pool
workers inherit the wrappers but call straight through, so worker-side
work shows up only in the program's own counters.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import pathlib
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: ``(layer, module, attribute, opaque)`` for every traced function.
#: ``attribute`` is ``Class.method`` for methods.  An opaque span
#: records nothing nested inside it: speculation replays the breeding
#: stages, and that replay belongs to the prediction, not to breeding.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("eval.evaluate", "repro.eval.pipeline", "evaluate_mapping_incremental", False),
    ("eval.prepare_mode", "repro.eval.pipeline", "prepare_mode", False),
    ("eval.combine_cores", "repro.eval.pipeline", "combine_cores", False),
    ("eval.run_mode", "repro.eval.pipeline", "run_mode", False),
    ("power.fitness", "repro.eval.pipeline", "weighted_power", False),
    ("power.fitness", "repro.eval.pipeline", "mapping_fitness", False),
    ("scheduling.schedule_mode", "repro.eval.stages", "schedule_mode", False),
    ("dvs.scale_schedule", "repro.eval.stages", "scale_schedule", False),
    ("dvs.scale_schedule", "repro.eval.stages", "uniform_scale_schedule", False),
    ("power.mode_power", "repro.eval.stages", "mode_dynamic_power", False),
    ("power.mode_power", "repro.eval.stages", "mode_static_power", False),
    ("synthesis.breed", "repro.synthesis.operators", "breed_next", False),
    ("synthesis.improve", "repro.synthesis.improvements", "apply_improvements", False),
    ("synthesis.restart", "repro.synthesis.improvements", "partial_restart", False),
    ("synthesis.local_search", "repro.synthesis.improvements", "local_search", False),
    ("synthesis.speculate_predict", "repro.synthesis.speculation", "predict_next_batch", True),
    ("engine.submit", "repro.engine.backend", "SerialBackend.submit", False),
    ("engine.drain", "repro.engine.backend", "SerialBackend.drain", False),
    ("engine.submit", "repro.engine.backend", "PooledBackend.submit", False),
    ("engine.drain", "repro.engine.backend", "PooledBackend.drain", False),
    ("engine.speculate_dispatch", "repro.engine.backend", "PooledBackend.speculate", False),
    ("runtime.checkpoint_write", "repro.runtime.checkpoint", "write_checkpoint", False),
    ("runtime.result_write", "repro.runtime.checkpoint", "write_result", False),
    ("runtime.event_emit", "repro.runtime.events", "EventLog.emit", False),
    ("runtime.validate", "repro.runtime.runner", "validate_implementation", False),
    ("runtime.problem_load", "repro.benchgen.registry", "get", False),
)

#: One recorded span: (label, layer, start, duration).
Span = Tuple[str, str, float, float]


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    name = attribute
    if "." in attribute:
        class_name, name = attribute.split(".")
        owner = getattr(owner, class_name)
    if name not in vars(owner):
        raise LookupError(f"{module_name}.{attribute} is not defined there")
    return owner, name


class Tracer:
    """Records layer spans of one process while :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Self seconds and call counts per layer.
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Summed duration of spans with no traced parent.
        self.top_level = 0.0
        #: Extra spans (generations, synthesis runs) for the trace file
        #: only; they take no part in self-time accounting.
        self.marks: List[Span] = []
        #: Synthesis drivers and evaluation backends created while
        #: installed, whose counters are read after the window.
        self.drivers: List[Any] = []
        self.backends: List[Any] = []
        #: Records only while true: the benchmark's own set-up and
        #: checks call traced functions too.
        self.active = False
        self._children: List[float] = []
        self._opaque = 0
        self._pid = os.getpid()
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _timed(
        self, layer: str, label: str, fn: Callable[..., Any], opaque: bool
    ) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter
        getpid = os.getpid

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or tracer._opaque or getpid() != tracer._pid:
                return fn(*args, **kwargs)
            children = tracer._children
            children.append(0.0)
            if opaque:
                tracer._opaque += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                if opaque:
                    tracer._opaque -= 1
                inner = children.pop()
                if children:
                    children[-1] += duration
                else:
                    tracer.top_level += duration
                tracer.self_time[layer] = (
                    tracer.self_time.get(layer, 0.0) + duration - inner
                )
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                tracer.spans.append((label, layer, start, duration))

        return traced

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        try:
            for layer, module_name, attribute, opaque in TARGETS:
                owner, name = _resolve(module_name, attribute)
                label = f"{module_name}.{attribute}"
                self._patch(
                    owner,
                    name,
                    self._timed(layer, label, vars(owner)[name], opaque),
                )
            self._install_captures()
            yield self
        finally:
            for owner, name, original in reversed(self._saved):
                setattr(owner, name, original)
            self._saved.clear()

    def _install_captures(self) -> None:
        from repro.synthesis import cosynthesis, driver

        run = driver.GenerationDriver.run
        backend_for = cosynthesis.backend_for
        drivers, backends = self.drivers, self.backends

        def capture_driver(self_: Any, *args: Any, **kwargs: Any) -> Any:
            if self.active:
                drivers.append(self_)
            return run(self_, *args, **kwargs)

        def capture_backend(*args: Any, **kwargs: Any) -> Any:
            backend = backend_for(*args, **kwargs)
            if self.active:
                backends.append(backend)
            return backend

        self._patch(driver.GenerationDriver, "run", capture_driver)
        self._patch(cosynthesis, "backend_for", capture_backend)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def mark(self, label: str, start: float, end: float) -> None:
        """Add a non-accounting span (a generation, a run) to the trace."""
        self.marks.append((label, "mark", start, end - start))

    def chrome_trace(self, origin: float) -> List[Dict[str, Any]]:
        """Spans as Chrome trace-event ``X`` records (µs since origin)."""
        return [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for label, layer, start, duration in self.marks + self.spans
        ]


def calibrate_overhead(calls: int = 20000) -> float:
    """Seconds one recorded wrapper call adds, measured on a no-op."""

    def noop() -> None:
        return None

    tracer = Tracer()
    tracer.active = True
    wrapped = tracer._timed("calibration", "noop", noop, False)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        started = clock()
        for _ in range(calls):
            noop()
        bare = clock() - started
        started = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - started
        best = min(best, (traced - bare) / calls)
        tracer.spans.clear()
    return max(best, 0.0)


def write_chrome_trace(
    path: pathlib.Path,
    events: List[Dict[str, Any]],
    process_names: Dict[int, str],
) -> None:
    """Write a trace-event file that Perfetto and chrome://tracing load."""
    records = list(events)
    for pid, name in process_names.items():
        records.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        )
    with open(path, "w") as handle:
        json.dump({"traceEvents": records, "displayTimeUnit": "ms"}, handle)
