"""The stable public facade of :mod:`repro`.

Three calls cover the common workflows, so downstream code does not
need to know the package layout:

>>> from repro import load_problem, synthesize, run_campaign
>>> problem = load_problem("mul5")
>>> result = synthesize(problem)                       # one run
>>> campaign = run_campaign(                           # many runs,
...     {"name": "demo", "instances": ["mul5"], "runs": 3},
...     run_dir="runs/demo")                           # resumable

Deep imports (``repro.synthesis.cosynthesis``,
``repro.benchgen.suite``, …) keep working but are no longer the
recommended surface; see ``docs/api.md``.
"""

from __future__ import annotations

import pathlib
import random
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Union

from repro.adaptive.controller import (
    AdaptationConfig,
    AdaptationController,
    AdaptationReport,
)
from repro.adaptive.library import DesignLibrary, DesignRecord
from repro.benchgen import registry
from repro.problem import Problem
from repro.runtime.events import EVENTS_FILENAME, EventLog
from repro.runtime.runner import (
    CampaignResult,
    CampaignRunner,
    resume_campaign,
)
from repro.runtime.spec import CampaignSpec
from repro.synthesis.cosynthesis import MultiModeSynthesizer, synthesize

__all__ = [
    "adapt_online",
    "load_problem",
    "problem_names",
    "resume_campaign",
    "run_campaign",
    "synthesize",
]

#: File name the adaptation facade persists the design library under.
LIBRARY_FILENAME = "library.json"


def load_problem(name: str) -> Problem:
    """Load a named benchmark instance from the problem registry.

    Valid names are :func:`problem_names` — the paper's ``mul1`` …
    ``mul12`` suite and ``smartphone``, plus anything registered via
    :func:`repro.benchgen.registry.register`.  (To load a problem from
    a JSON *file* instead, use :func:`repro.io.load_problem`.)
    """
    return registry.get(name)


def problem_names() -> list:
    """All instance names :func:`load_problem` accepts."""
    return registry.names()


def run_campaign(
    spec: Union[CampaignSpec, Mapping[str, Any], str, pathlib.Path],
    run_dir: Union[str, pathlib.Path, None] = None,
    problem_loader: Optional[Callable[[str], Problem]] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> CampaignResult:
    """Execute an experiment campaign (resumably, when given a dir).

    ``spec`` may be a :class:`~repro.runtime.spec.CampaignSpec`, a
    plain dict in the same shape, or a path to a ``spec.json`` file.
    With ``run_dir`` given, all progress (checkpoints, results, the
    JSONL event stream) is durable there and a second call with the
    same directory resumes instead of recomputing; without it the
    campaign runs in a throw-away temporary directory.
    """
    if isinstance(spec, (str, pathlib.Path)):
        spec = CampaignSpec.load(spec)
    elif not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    if run_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
            return CampaignRunner(
                spec, tmp, problem_loader=problem_loader, on_event=on_event
            ).run()
    return CampaignRunner(
        spec, run_dir, problem_loader=problem_loader, on_event=on_event
    ).run()


def adapt_online(
    problem: Union[str, Problem],
    trace: Optional[Iterable[Any]] = None,
    steps: int = 200,
    config: Optional[AdaptationConfig] = None,
    library: Union[DesignLibrary, str, pathlib.Path, None] = None,
    run_dir: Union[str, pathlib.Path, None] = None,
    seed: Optional[int] = None,
) -> AdaptationReport:
    """Run the closed Ψ-adaptation loop over a mode trace.

    ``problem`` is an instance or a registry name.  ``trace`` is any
    iterable of ``(mode, dwell)`` pairs or
    :class:`~repro.simulation.trace.ModeVisit` objects; when omitted,
    ``steps`` visits (approximately) are sampled from the OMSM's
    :class:`~repro.simulation.markov.ModeProcess` at the design-time Ψ.
    ``library`` is a :class:`~repro.adaptive.library.DesignLibrary`, a
    path to a saved one, or ``None`` — then a design-time design is
    synthesised first (with ``config.synthesis``) to bootstrap it.
    With ``run_dir`` given, adaptation events append to
    ``events.jsonl`` there and the (possibly grown) library is saved to
    ``library.json``.  ``seed`` overrides ``config.seed``; a fixed seed
    makes the entire run — trace, estimates, swaps, re-syntheses —
    bit-reproducible.
    """
    if isinstance(problem, str):
        problem = registry.get(problem)
    config = config or AdaptationConfig()
    if seed is not None and seed != config.seed:
        import dataclasses

        config = dataclasses.replace(config, seed=seed)

    if isinstance(library, (str, pathlib.Path)):
        library = DesignLibrary.load(library)
    elif library is None:
        result = MultiModeSynthesizer(problem, config.synthesis).run()
        library = DesignLibrary(
            [DesignRecord.from_result("design-time", result)]
        )

    if trace is None:
        from repro.simulation.markov import ModeProcess
        from repro.simulation.trace import generate_trace

        process = ModeProcess(problem.omsm)
        mean_dwell = sum(process.mean_dwell.values()) / len(
            process.mean_dwell
        )
        trace = generate_trace(
            process,
            horizon=steps * mean_dwell,
            rng=random.Random(config.seed),
        )

    event_log: Optional[EventLog] = None
    if run_dir is not None:
        run_path = pathlib.Path(run_dir)
        run_path.mkdir(parents=True, exist_ok=True)
        event_log = EventLog(run_path / EVENTS_FILENAME)
    try:
        controller = AdaptationController(
            problem, library, config, event_log=event_log
        )
        report = controller.run(trace)
    finally:
        if event_log is not None:
            event_log.close()
    if run_dir is not None:
        library.save(pathlib.Path(run_dir) / LIBRARY_FILENAME)
    return report
