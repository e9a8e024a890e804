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
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.benchgen import registry
from repro.problem import Problem
from repro.runtime.runner import (
    CampaignResult,
    CampaignRunner,
    resume_campaign,
)
from repro.runtime.spec import CampaignSpec
from repro.synthesis.cosynthesis import synthesize

__all__ = [
    "load_problem",
    "problem_names",
    "resume_campaign",
    "run_campaign",
    "synthesize",
]


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
