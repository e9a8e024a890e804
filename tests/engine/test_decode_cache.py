"""Decode-cache correctness: cached fast paths are bit-identical.

The contract of :class:`~repro.engine.decode_cache.DecodeContext` is
strict: evaluating any candidate through the context-backed pipeline
must produce the *same floats* as the seed's recompute-per-candidate
evaluator (:mod:`tests.oracles.seed_evaluator`, which routes through
the reference DVS module).  These tests compare complete
implementations — fitness, power, violations and every scheduled
start/end/energy — across random genomes and all DVS methods.
"""

import random

import pytest

from repro.benchgen.suite import suite_problem
from repro.engine.decode_cache import DecodeContext, context_for
from repro.mapping.encoding import MappingString
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.evaluator import evaluate_mapping

from tests.conftest import make_two_mode_problem
from tests.oracles import seed_evaluator
from tests.oracles.cores_reference import (
    compute_mobilities as frozen_compute_mobilities,
)


@pytest.fixture(scope="module")
def tgff_problem():
    return suite_problem("mul1")


def _schedules_identical(left, right) -> bool:
    if set(left) != set(right):
        return False
    for mode_name in left:
        a, b = left[mode_name], right[mode_name]
        a_tasks = {t.name: t for t in a.tasks}
        b_tasks = {t.name: t for t in b.tasks}
        if set(a_tasks) != set(b_tasks):
            return False
        for name, task in a_tasks.items():
            other = b_tasks[name]
            if (
                task.start != other.start
                or task.end != other.end
                or task.energy != other.energy
                or task.pe != other.pe
            ):
                return False
        a_comms = {(c.src, c.dst): c for c in a.comms}
        b_comms = {(c.src, c.dst): c for c in b.comms}
        if set(a_comms) != set(b_comms):
            return False
        for key, comm in a_comms.items():
            other = b_comms[key]
            if comm.start != other.start or comm.end != other.end:
                return False
    return True


class TestBitIdentical:
    @pytest.mark.parametrize(
        "dvs", [DvsMethod.NONE, DvsMethod.GRADIENT, DvsMethod.UNIFORM]
    )
    def test_fast_path_matches_reference(self, tgff_problem, dvs):
        rng = random.Random(11)
        compared = 0
        for _ in range(8):
            genome = MappingString.random(tgff_problem, rng)
            config = SynthesisConfig(dvs=dvs)
            fast = evaluate_mapping(tgff_problem, genome, config)
            slow = seed_evaluator.evaluate_mapping(
                tgff_problem, genome, config
            )
            assert (fast is None) == (slow is None)
            if fast is None:
                continue
            compared += 1
            assert fast.metrics.fitness == slow.metrics.fitness
            assert (
                fast.metrics.average_power == slow.metrics.average_power
            )
            assert (
                fast.metrics.timing_violation
                == slow.metrics.timing_violation
            )
            assert (
                fast.metrics.area_violation == slow.metrics.area_violation
            )
            assert _schedules_identical(fast.schedules, slow.schedules)
        assert compared > 0

    def test_shared_rail_ablation_matches(self, tgff_problem):
        rng = random.Random(5)
        genome = MappingString.random(tgff_problem, rng)
        for shared in (True, False):
            config = SynthesisConfig(
                dvs=DvsMethod.GRADIENT, dvs_shared_rail=shared
            )
            fast = evaluate_mapping(tgff_problem, genome, config)
            slow = seed_evaluator.evaluate_mapping(
                tgff_problem, genome, config
            )
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.metrics.fitness == slow.metrics.fitness


class TestDecodeContext:
    def test_context_for_memoises_per_problem(self):
        problem = make_two_mode_problem()
        assert context_for(problem) is context_for(problem)
        other = make_two_mode_problem()
        assert context_for(problem) is not context_for(other)

    def test_probability_retarget_reuses_context(self):
        # Regression: a ``with_probabilities`` re-target must inherit
        # the parent's memoised decode context (its tables are all
        # Ψ-independent), not rebuild a duplicate per re-target — the
        # adaptive controller re-targets on every drift event.
        problem = make_two_mode_problem()
        context = context_for(problem)
        names = problem.omsm.mode_names
        weights = {
            name: (0.7 if i == 0 else 0.3 / max(1, len(names) - 1))
            for i, name in enumerate(names)
        }
        retargeted = problem.with_probabilities(weights)
        assert context_for(retargeted) is context
        # ...and results under the retarget stay correct: the context
        # is consulted for mobilities/deadlines, both Ψ-independent.
        chained = retargeted.with_probabilities(
            {name: 1.0 / len(names) for name in names}
        )
        assert context_for(chained) is context

    def test_retarget_before_first_decode_builds_once(self):
        # Re-targeting a problem whose context was never built must not
        # leave the descendant with a stale ``None``: the first decode
        # on either instance builds its own (single) context.
        problem = make_two_mode_problem()
        names = problem.omsm.mode_names
        retargeted = problem.with_probabilities(
            {name: 1.0 / len(names) for name in names}
        )
        context = context_for(retargeted)
        assert context_for(retargeted) is context
        # The parent was untouched; it builds its own on demand.
        assert context_for(problem) is not context

    def test_mode_tables_cover_every_task(self):
        problem = make_two_mode_problem()
        context = DecodeContext.build(problem)
        for mode in problem.omsm.modes:
            data = context.modes[mode.name]
            graph = mode.task_graph
            assert data.task_names == graph.task_names
            assert set(data.topo_order) == set(graph.task_names)
            for name in data.task_names:
                assert data.deadlines[name] == mode.effective_deadline(
                    name
                )
                assert data.predecessors[name] == graph.predecessors(name)
                assert data.successors[name] == graph.successors(name)

    def test_exec_times_match_technology(self):
        problem = make_two_mode_problem()
        context = DecodeContext.build(problem)
        technology = problem.technology
        for mode in problem.omsm.modes:
            data = context.modes[mode.name]
            for task_name, candidates in problem.gene_space(mode.name):
                for pe_name in candidates:
                    entry = technology.implementation(
                        data.task_types[task_name], pe_name
                    )
                    assert (
                        data.exec_times[task_name][pe_name]
                        == entry.exec_time
                    )
                    assert (
                        data.powers[task_name][pe_name] == entry.power
                    )

    def test_links_between_matches_architecture(self):
        problem = make_two_mode_problem()
        context = DecodeContext.build(problem)
        names = [pe.name for pe in problem.architecture.pes]
        for first in names:
            for second in names:
                if first == second:
                    continue
                assert context.links_between[(first, second)] == (
                    problem.architecture.links_between(first, second)
                )

    def test_dvs_tables_memoised(self):
        problem = make_two_mode_problem()
        context = DecodeContext.build(problem)
        pe = next(iter(context.hw_dvs_pes), None)
        if pe is None:
            pe = problem.architecture.pes[0].name
        first = context.duration_energy_tables(pe, 1.0, 2.0)
        second = context.duration_energy_tables(pe, 1.0, 2.0)
        assert first is second

    def test_mobilities_match_legacy(self, tgff_problem):
        context = DecodeContext.build(tgff_problem)
        rng = random.Random(3)
        genome = MappingString.random(tgff_problem, rng)
        technology = tgff_problem.technology
        for mode in tgff_problem.omsm.modes:
            mapping = genome.mode_mapping(mode.name)
            fast = context.compute_mobilities(mode.name, mapping)
            slow = frozen_compute_mobilities(
                mode,
                lambda task, _mode=mode: technology.implementation(
                    _mode.task_graph.task(task).task_type,
                    genome.pe_of(_mode.name, task),
                ).exec_time,
            )
            assert set(fast) == set(slow)
            for name in fast:
                assert fast[name].asap == slow[name].asap
                assert fast[name].alap == slow[name].alap
