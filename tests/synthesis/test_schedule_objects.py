"""A synthesis run reads schedules as arrays and builds no task objects.

The GA ranks candidates on fitness and violation summaries, and the
evaluator takes per-mode power, shut-down and timing violations
straight from the :class:`~repro.scheduling.schedule.ModeSchedule`
arrays.  ``ScheduledTask``/``ScheduledComm`` objects are a view built
on first access — by validation, Gantt output or a caller reading
``.tasks`` — and never during the search itself.  The smartphone runs
software DVS; mul8 adds a DVS-enabled FPGA on a shared rail, so the
Fig. 5 segment replay is covered too.
"""

import pytest

from repro.benchgen import registry
from repro.scheduling.schedule import ScheduledComm, ScheduledTask
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.validation import validate_implementation


@pytest.fixture
def built(monkeypatch):
    """Counts every task and comm object constructed from now on."""
    counts = {"objects": 0}
    for cls in (ScheduledTask, ScheduledComm):
        original = cls.__post_init__

        def counting(self, _original=original):
            counts["objects"] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


@pytest.mark.parametrize("name", ["smartphone", "mul8"])
def test_gradient_dvs_run_builds_no_schedule_objects(name, built):
    problem = registry.get(name)
    config = SynthesisConfig(
        dvs=DvsMethod.GRADIENT,
        seed=5,
        population_size=8,
        max_generations=3,
        convergence_generations=3,
    )
    result = MultiModeSynthesizer(problem, config).run()
    assert result.evaluations > 0
    assert built["objects"] == 0

    validate_implementation(result.best)
    assert built["objects"] > 0
