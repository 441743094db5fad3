"""Fault injection against the serving layer: abuse must resolve typed.

Three induced failures -- worker death, wedged (slow) worker, queue
overflow -- each of which must surface to every affected caller as a
typed error, leave the server serving, and never hang. Worker death at
the *pool* level (real SIGKILL) is covered by
``tests/parallel/test_worker_service.py``; here the executor seam
injects the same typed outcomes into the batcher, plus one end-to-end
test that routes a real killed worker through a served request.
"""

import os
import time

import numpy as np
import pytest

from repro.errors import (
    PoisonTaskError,
    ReproError,
    RequestTimeoutError,
    ServerClosedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.serving import InferenceServer, resolve_serve_config


class _Model:
    input_shape = (1, 2, 2)

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise AssertionError("tests inject executors; forward is unused")


IMG = np.zeros((1, 2, 2), dtype=np.float32)


def _ok_executor(images, indices, timeout_s):
    return np.zeros((len(indices), 3), dtype=np.float32)


def _kill_pool_worker(task):
    import signal

    if task == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.3)
    return task


class _FlakyExecutor:
    """Raises ``error`` for the first ``failures`` batches, then heals."""

    def __init__(self, error, failures=1):
        self.error = error
        self.failures = failures
        self.calls = 0

    def __call__(self, images, indices, timeout_s):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return _ok_executor(images, indices, timeout_s)


def _server(executor, **knobs):
    knobs.setdefault("max_wait_ms", 5.0)
    knobs.setdefault("timeout_ms", 10000.0)
    server = InferenceServer(resolve_serve_config(**knobs))
    server.register("m", _Model(), timesteps=2, executor=executor)
    return server


class TestWorkerDeath:
    def test_crash_fails_the_whole_batch_typed(self):
        executor = _FlakyExecutor(WorkerCrashError("induced death"))
        with _server(executor, max_batch=4, max_wait_ms=50.0) as server:
            pendings = [
                server.submit("m", IMG, stream_index=i) for i in range(3)
            ]
            for pending in pendings:
                with pytest.raises(WorkerCrashError):
                    pending.result()
            # The server survives and the next batch is served.
            assert server.submit("m", IMG).result().batch_size == 1
            stats = server.stats()["m"]
            assert stats["failed"] == 3
            assert stats["completed"] == 1

    def test_real_killed_worker_resolves_served_request(self):
        """End to end: a served batch whose pooled execution has a task
        SIGKILL its worker on every attempt resolves with the parallel
        layer's typed quarantine error -- request, batcher and pool all
        stay unwedged."""
        from repro.parallel import (
            RetryPolicy,
            run_tasks,
            shutdown_worker_service,
        )

        def killing_executor(images, indices, timeout_s):
            run_tasks(
                _kill_pool_worker, ["die", "a", "b", "c"], workers=2,
                retry=RetryPolicy(backoff_ms=0.0, backoff_max_ms=0.0),
            )
            return _ok_executor(images, indices, timeout_s)

        shutdown_worker_service()
        try:
            with _server(killing_executor, max_batch=1) as server:
                pending = server.submit("m", IMG)
                with pytest.raises(PoisonTaskError):
                    pending.result()
        finally:
            shutdown_worker_service()


class TestSlowWorker:
    def test_wedged_executor_times_out_not_hangs(self):
        def wedged(images, indices, timeout_s):
            time.sleep(1.0)
            return _ok_executor(images, indices, timeout_s)

        with _server(wedged, max_batch=1, timeout_ms=80.0) as server:
            pending = server.submit("m", IMG)
            started = time.monotonic()
            with pytest.raises(RequestTimeoutError):
                pending.result()
            assert time.monotonic() - started < 0.6

    def test_pool_timeout_surfaces_as_typed_failure(self):
        executor = _FlakyExecutor(WorkerTimeoutError("induced stall"))
        with _server(executor, max_batch=1, timeout_ms=0.0) as server:
            with pytest.raises(WorkerTimeoutError):
                server.submit("m", IMG).result()
            assert server.submit("m", IMG).result().batch_size == 1

    def test_malformed_executor_output_fails_typed(self):
        from repro.errors import ServingError

        def ragged(images, indices, timeout_s):
            return np.zeros((len(indices) + 2, 3), dtype=np.float32)

        with _server(ragged, max_batch=2, max_wait_ms=20.0) as server:
            pendings = [server.submit("m", IMG) for _ in range(2)]
            for pending in pendings:
                with pytest.raises(ServingError):
                    pending.result()


class TestQueueOverflowRecovery:
    def test_overflow_sheds_then_recovers(self):
        def slow(images, indices, timeout_s):
            time.sleep(0.1)
            return _ok_executor(images, indices, timeout_s)

        server = _server(
            slow,
            max_batch=1,
            max_wait_ms=0.0,
            queue_depth=2,
            timeout_ms=0.0,
        )
        try:
            from repro.errors import QueueFullError

            pendings, rejected = [], 0
            for i in range(8):
                try:
                    pendings.append(server.submit("m", IMG, stream_index=i))
                except QueueFullError:
                    rejected += 1
            assert rejected > 0
            for pending in pendings:
                pending.result()
            # Backlog cleared: admission works again at full depth.
            assert server.submit("m", IMG).result() is not None
        finally:
            server.shutdown()


class TestSelfHealingServing:
    """The serving layer inherits shard retry from the pooled path."""

    def test_crash_then_retry_completes_byte_identical(
        self, tiny_deployable, monkeypatch
    ):
        """A served batch that loses a worker to an injected SIGKILL on
        its first attempt is transparently retried and returns logits
        byte-identical to a fault-free serve of the same requests."""
        from repro.parallel import retry_stats, shutdown_worker_service
        from repro.parallel.retry import reset_retry_stats
        from repro.snn.encoding import RateEncoder

        rng = np.random.default_rng(17)
        images = rng.random((4, 3, 8, 8)).astype(np.float32)

        def serve_all():
            server = InferenceServer(
                resolve_serve_config(
                    max_batch=4,
                    max_wait_ms=60.0,
                    queue_depth=16,
                    timeout_ms=60000.0,
                )
            )
            try:
                server.register(
                    "m",
                    tiny_deployable,
                    timesteps=2,
                    encoder=RateEncoder(seed=123),
                    workers=2,
                    shard_size=2,
                )
                pendings = [
                    server.submit("m", images[i], stream_index=i)
                    for i in range(len(images))
                ]
                return [p.result().logits.tobytes() for p in pendings]
            finally:
                server.shutdown()

        shutdown_worker_service()
        try:
            clean = serve_all()
            monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=0,crash@0:0")
            reset_retry_stats()
            faulted = serve_all()
            stats = retry_stats()
            assert stats.retries >= 1, "injected crash never fired"
            assert stats.recovered_calls >= 1
            assert stats.quarantined == 0
        finally:
            shutdown_worker_service()
        assert faulted == clean

    def test_drain_under_crash_plan_neither_hangs_nor_drops(
        self, tiny_deployable, monkeypatch
    ):
        """Queued requests drained while a probabilistic crash plan
        SIGKILLs pooled shard workers: every handle resolves -- to
        logits or to a typed ``ReproError`` -- the accounting covers
        every request, and ``drain()`` returns within its budget."""
        from repro.parallel import retry_stats, shutdown_worker_service
        from repro.parallel.retry import reset_retry_stats
        from repro.snn.encoding import RateEncoder

        monkeypatch.setenv("REPRO_RETRY_BACKOFF_MS", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_MAX_MS", "0")
        # Seed 1 crashes shard 0 on attempts 0 and 1, and shards 2 and
        # 3 on one attempt each (see FaultPlan.faults_for).
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=1,crash%0.3")
        shutdown_worker_service()
        reset_retry_stats()
        try:
            rng = np.random.default_rng(18)
            images = rng.random((8, 3, 8, 8)).astype(np.float32)
            server = InferenceServer(
                resolve_serve_config(
                    max_batch=4,
                    max_wait_ms=60.0,
                    queue_depth=16,
                    timeout_ms=60000.0,
                )
            )
            try:
                # shard_size=1: every multi-sample batch produces several
                # shards, so execution goes through the pooled path
                # rather than the single-shard serial fallback.
                server.register(
                    "m",
                    tiny_deployable,
                    timesteps=2,
                    encoder=RateEncoder(seed=123),
                    workers=2,
                    shard_size=1,
                )
                pendings = [
                    server.submit("m", images[i], stream_index=i)
                    for i in range(len(images))
                ]
                budget = 30.0
                started = time.monotonic()
                assert server.drain(timeout_s=budget)
                assert time.monotonic() - started < budget
                for pending in pendings:
                    try:
                        assert pending.result().logits is not None
                    except ReproError:
                        pass
                stats = server.stats()["m"]
                assert stats["completed"] + stats["failed"] == len(images)
            finally:
                server.shutdown()
            assert retry_stats().retries >= 1, "the crash plan never fired"
        finally:
            shutdown_worker_service()


class TestNoHangGuarantee:
    def test_abandoned_inflight_work_resolves_on_shutdown(self):
        """Even a shutdown racing a slow in-flight batch leaves every
        pending handle resolvable -- completed or typed, never stuck."""

        def slow(images, indices, timeout_s):
            time.sleep(0.15)
            return _ok_executor(images, indices, timeout_s)

        server = _server(
            slow, max_batch=1, max_wait_ms=0.0, timeout_ms=0.0
        )
        pendings = [server.submit("m", IMG) for _ in range(4)]
        server.shutdown(drain=False)
        resolved = 0
        for pending in pendings:
            try:
                pending.result(timeout=2.0)
                resolved += 1
            except ServerClosedError:
                resolved += 1
        assert resolved == 4
