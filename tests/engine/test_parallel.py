"""Evaluation backends: serial path, pooling, early dispatch, resilience."""

import multiprocessing
import os
import random
import signal
import time
from contextlib import closing

import pytest

from repro.engine import backend as backend_module
from repro.engine.backend import PooledBackend, SerialBackend, backend_for
from repro.engine.records import EvalRecord, evaluate_genes
from repro.mapping.encoding import MappingString
from repro.obs.metrics import REGISTRY
from repro.synthesis.config import SynthesisConfig

from tests.conftest import make_two_mode_problem


@pytest.fixture
def problem():
    return make_two_mode_problem()


def _genomes(problem, count, seed=0):
    rng = random.Random(seed)
    return [MappingString.random(problem, rng) for _ in range(count)]


def _serial_records(problem, config, genomes):
    return [
        evaluate_genes(problem, genome.genes, config) for genome in genomes
    ]


def _evaluate(backend, genomes):
    backend.submit(genomes)
    return backend.drain()


def _sigint_handler(_):
    return signal.getsignal(signal.SIGINT)


def _spin(marker):
    """Keep a pool worker busy (at most 20 s) once it has left a marker."""
    with open(f"{marker}.{os.getpid()}", "w"):
        pass
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        pass


def _pooled(problem, config):
    backend = PooledBackend(problem, config)
    if not backend.uses_pool:  # pragma: no cover - platform
        backend.close()
        pytest.skip("process pool unavailable on this platform")
    return closing(backend)


@pytest.fixture
def slow_workers(monkeypatch):
    """Pool workers forked after this fixture take ``delay`` s per genome.

    The parent keeps full speed, so a test can act while the workers
    still hold an early dispatch.
    """
    if multiprocessing.get_start_method() != "fork":  # pragma: no cover
        pytest.skip("worker patching needs the fork start method")
    parent = os.getpid()
    original = backend_module.evaluate_genes

    def install(delay):
        def slow(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(delay)
            return original(*args, **kwargs)

        monkeypatch.setattr(backend_module, "evaluate_genes", slow)

    return install


class TestSerialPath:
    def test_jobs_one_creates_no_pool(self, problem):
        config = SynthesisConfig(jobs=1)
        genomes = _genomes(problem, 6)
        with closing(backend_for(problem, config)) as backend:
            assert isinstance(backend, SerialBackend)
            assert not backend.supports_speculation
            records = _evaluate(backend, genomes)
        assert records == _serial_records(problem, config, genomes)
        assert all(isinstance(r, EvalRecord) for r in records)
        with closing(PooledBackend(problem, config)) as pooled:
            assert not pooled.uses_pool
            assert _evaluate(pooled, genomes) == records

    def test_empty_batch(self, problem):
        config = SynthesisConfig(jobs=1)
        with closing(SerialBackend(problem, config)) as backend:
            assert _evaluate(backend, []) == []

    def test_jobs_default_from_config(self, problem):
        config = SynthesisConfig(jobs=3)
        with closing(PooledBackend(problem, config)) as backend:
            assert backend.jobs == 3


class TestPooledPath:
    def test_barrier_pool_matches_serial_records(self, problem):
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 10)
        base = REGISTRY.snapshot()
        with _pooled(problem, config) as backend:
            records = _evaluate(backend, genomes)
            assert backend.perf.batches == 1
            # The dispatching process evaluates the final chunk itself,
            # so worker-side counts cover all but that chunk.
            assert 0 < backend.perf.parallel_evaluations < len(genomes)
            assert backend.perf.pool_busy_seconds > 0.0
            assert backend.perf.pool_dispatch_seconds > 0.0
            # Worker phase time reaches the registry with each chunk's
            # delta, beside the parent's, and nowhere else: every
            # genome's core allocation is timed exactly once.
            assert backend.perf.phase_seconds == {}
            assert REGISTRY.delta_since(base)["phases"]["cores"][1] == len(
                genomes
            )
        assert records == _serial_records(problem, config, genomes)

    def test_order_preserved_across_chunks(self, problem):
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 9, seed=4)
        with _pooled(problem, config) as backend:
            records = _evaluate(backend, genomes)
        expected = _serial_records(problem, config, genomes)
        assert [r.fitness for r in records] == [
            r.fitness for r in expected
        ]

    def test_dead_pool_falls_back_to_serial(self, problem):
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 4)
        with _pooled(problem, config) as backend:
            # Simulate a worker crash by tearing the pool down behind
            # the backend's back; the batch must still be answered,
            # and the degradation must be *surfaced* (warning + counter),
            # never silent.
            backend._pool.terminate()
            backend._pool.join()
            with pytest.warns(RuntimeWarning, match="in-process"):
                records = _evaluate(backend, genomes)
            assert not backend.uses_pool
            assert backend.perf.pool_fallbacks == 1
            assert backend.last_pool_error is not None
            assert records == _serial_records(problem, config, genomes)
            # Later batches stay on the serial path without error.
            assert _evaluate(backend, genomes) == records

    def test_workers_leave_ctrl_c_to_the_parent(self, problem):
        # A worker killed by SIGINT while holding the task queue's lock
        # would deadlock the parent's terminate(); workers ignore it.
        with _pooled(problem, SynthesisConfig(jobs=2)) as backend:
            handlers = backend._pool.map(_sigint_handler, range(4))
        assert set(handlers) == {signal.SIG_IGN}

    def test_terminate_in_a_campaign_leaves_no_tracebacks(
        self, problem, tmp_path, capfd
    ):
        # A campaign turns SIGTERM into KeyboardInterrupt while it runs.
        # Workers forked then must not keep that handler: terminate()
        # sends them SIGTERM, and each busy one would print a traceback.
        from repro.runtime.runner import _sigterm_as_interrupt

        marker = str(tmp_path / "busy")
        with _sigterm_as_interrupt():
            with _pooled(problem, SynthesisConfig(jobs=2)) as backend:
                backend._pool.map_async(_spin, [marker, marker], chunksize=1)
                deadline = time.monotonic() + 10.0
                while len(list(tmp_path.glob("busy.*"))) < 2:
                    assert time.monotonic() < deadline, "workers never started"
                    time.sleep(0.02)
                backend.terminate()
        assert "KeyboardInterrupt" not in capfd.readouterr().err

    def test_close_is_idempotent(self, problem):
        backend = PooledBackend(problem, SynthesisConfig(jobs=2))
        backend.close()
        backend.close()
        assert not backend.uses_pool


class TestAsyncPool:
    """``submit()`` returns with the workers' chunks still in flight."""

    def test_async_matches_serial_records(self, problem, slow_workers):
        slow_workers(0.05)
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 10, seed=7)
        with _pooled(problem, config) as backend:
            backend.submit(genomes)
            # map_async only queued the chunks; drain() is the barrier.
            assert not backend._dispatch.pending.ready()
            records = backend.drain()
            assert backend.perf.batches == 1
            assert 0 < backend.perf.parallel_evaluations < len(genomes)
            # Collected, not merely returned: the workers' time is booked.
            assert (
                backend.perf.pool_busy_seconds
                >= 0.05 * backend.perf.parallel_evaluations
            )
        serial_config = SynthesisConfig(jobs=1)
        assert records == _serial_records(problem, serial_config, genomes)

    def test_async_and_barrier_records_identical(self, problem):
        # The same batch answered by a dispatch started early (adopted
        # at submit) and by one started at submit, on warm workers.
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 11, seed=8)
        with _pooled(problem, config) as backend:
            assert backend.speculate(genomes) == len(genomes)
            early = _evaluate(backend, genomes)
            on_demand = _evaluate(backend, genomes)
            assert backend.perf.batches == 2
            assert backend.perf.speculation_hits == len(genomes)
        assert early == on_demand

    def test_dead_async_pool_falls_back_to_serial(self, problem, slow_workers):
        slow_workers(30.0)
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 4)
        with _pooled(problem, config) as backend:
            # The pool dies while a submitted batch is in flight: drain()
            # must notice instead of waiting, and answer the batch
            # in-process with the degradation surfaced.
            backend.submit(genomes)
            backend._pool.terminate()
            backend._pool.join()
            with pytest.warns(RuntimeWarning, match="in-process"):
                records = backend.drain()
            assert not backend.uses_pool
            assert backend.perf.pool_fallbacks == 1
            assert backend.perf.batches == 0
            serial_config = SynthesisConfig(jobs=1)
            assert records == _serial_records(
                problem, serial_config, genomes
            )


class TestEarlyDispatch:
    """``speculate()`` runs the first half of ``submit()`` ahead of time."""

    def test_identical_batch_adopts_the_dispatch(self, problem):
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 8, seed=11)
        with _pooled(problem, config) as backend:
            assert backend.supports_speculation
            assert backend.speculate(genomes) == len(genomes)
            records = _evaluate(backend, genomes)
            assert backend.perf.batches == 1
            assert backend.perf.speculation_issued == len(genomes)
            assert backend.perf.speculation_hits == len(genomes)
            assert backend.perf.speculation_discards == 0
        assert records == _serial_records(problem, config, genomes)

    def test_other_batch_collects_and_discards_it(self, problem):
        config = SynthesisConfig(jobs=2)
        predicted = _genomes(problem, 8, seed=12)
        actual = predicted[1:] + _genomes(problem, 1, seed=13)
        with _pooled(problem, config) as backend:
            backend.speculate(predicted)
            records = _evaluate(backend, actual)
            assert backend.perf.speculation_hits == 0
            assert backend.perf.speculation_discards == len(predicted)
            assert backend.perf.batches == 1
        assert records == _serial_records(problem, config, actual)

    def test_tiny_prediction_is_not_dispatched(self, problem):
        config = SynthesisConfig(jobs=4)
        genomes = _genomes(problem, 3, seed=14)
        with _pooled(problem, config) as backend:
            assert backend.speculate(genomes) == 0
            assert _evaluate(backend, genomes) == _serial_records(
                problem, config, genomes
            )
            assert backend.perf.speculation_issued == 0
            assert backend.perf.inprocess_evaluations == 3

    def test_pool_killed_before_drain_falls_back(self, problem, slow_workers):
        slow_workers(30.0)
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 6, seed=15)
        with _pooled(problem, config) as backend:
            backend.speculate(genomes)
            backend._pool.terminate()
            backend._pool.join()
            with pytest.warns(RuntimeWarning, match="in-process"):
                records = _evaluate(backend, genomes)
            assert backend.perf.pool_fallbacks == 1
            assert not backend.uses_pool
            assert backend.perf.batches == 0
        assert records == _serial_records(problem, config, genomes)

    @pytest.mark.parametrize("end", ["cancel_speculation", "close"])
    def test_outstanding_dispatch_collected_as_discards(
        self, problem, slow_workers, end
    ):
        slow_workers(0.05)
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 6, seed=17)
        with _pooled(problem, config) as backend:
            backend.speculate(genomes)
            assert not backend._early.pending.ready()
            getattr(backend, end)()
            assert backend._early is None
            assert backend.perf.speculation_discards == len(genomes)
            # Collected, not dropped: the workers' time is booked.
            assert backend.perf.pool_busy_seconds >= 0.05


class TestInProcessAccounting:
    """In-process evals must never leak into the pool busy window."""

    def test_tiny_batch_books_inprocess_not_pool_busy(self, problem):
        # A batch smaller than the worker count takes the in-process
        # shortcut; its wall-clock belongs to the inprocess_* counters,
        # not to pool_busy_seconds (which would inflate utilisation for
        # cache-hot late generations).
        config = SynthesisConfig(jobs=4)
        genomes = _genomes(problem, 2, seed=5)
        with closing(PooledBackend(problem, config)) as backend:
            records = _evaluate(backend, genomes)
            assert len(records) == 2
            assert backend.perf.inprocess_evaluations == 2
            assert backend.perf.inprocess_eval_seconds > 0.0
            assert backend.perf.pool_busy_seconds == 0.0
            assert backend.perf.pool_dispatch_seconds == 0.0
            assert backend.perf.batches == 0

    def test_serial_evaluator_books_inprocess(self, problem):
        config = SynthesisConfig(jobs=1)
        genomes = _genomes(problem, 3, seed=6)
        with closing(SerialBackend(problem, config)) as backend:
            _evaluate(backend, genomes)
            assert backend.perf.inprocess_evaluations == 3
            assert backend.perf.inprocess_eval_seconds > 0.0
