"""The persistent WorkerService: warm reuse, generations, bit-identity."""

import os
import pickle

import numpy as np
import pytest

from repro.errors import ConfigError, PoisonTaskError, WorkerTimeoutError
from repro.parallel import (
    WORKERS_ENV,
    RetryPolicy,
    WorkerService,
    persistent_pool_enabled,
    run_tasks,
    service_stats,
    sharded_forward,
    shared_service,
    shutdown_worker_service,
)
from repro.parallel.service import service_start_method
from repro.quant import FP32, convert
from repro.runtime import runtime_config, runtime_overrides
from repro.snn import build_network


#: Retries without restart waits.
FAST = RetryPolicy(backoff_ms=0.0, backoff_max_ms=0.0)

#: One attempt per task: a crash quarantines whatever was in flight.
SINGLE = RetryPolicy(max_attempts=1, backoff_ms=1.0, backoff_max_ms=1.0)


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _slow_pid(_):
    # Slow enough that every pool worker takes at least one task, so the
    # returned pid set is the full pool membership, not a scheduling race.
    import time

    time.sleep(0.05)
    return os.getpid()


def _busy_span(_):
    import time

    started = time.monotonic()
    time.sleep(0.05)
    return started, time.monotonic()


def _worker_env(_):
    return os.environ.get(WORKERS_ENV)


def _threshold(_):
    return runtime_config().dispatch_threshold


_INIT_STATE = {}


def _remember(value):
    _INIT_STATE["value"] = value


def _read_state(_):
    return _INIT_STATE.get("value")


@pytest.fixture(scope="module")
def deployable():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=77
    )
    net.eval()
    return convert(net, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(41)
    return rng.random((11, 3, 8, 8)).astype(np.float32)


class TestSharedServiceReuse:
    def test_pool_started_once_across_calls(self):
        shutdown_worker_service()
        before = service_stats()
        first = run_tasks(_square, list(range(6)), workers=2)
        second = run_tasks(_square, list(range(6)), workers=2)
        after = service_stats()
        assert first == second == [x * x for x in range(6)]
        assert after["pool_starts"] - before["pool_starts"] == 1
        assert after["warm_runs"] - before["warm_runs"] >= 1

    def test_workers_persist_across_calls(self):
        shutdown_worker_service()
        first = set(run_tasks(_slow_pid, list(range(4)), workers=2))
        second = set(run_tasks(_slow_pid, list(range(4)), workers=2))
        assert os.getpid() not in first
        assert len(first) == 2
        assert first == second  # same worker processes served both calls

    def test_growing_worker_count_restarts_pool(self):
        shutdown_worker_service()
        before = service_stats()
        run_tasks(_square, list(range(4)), workers=2)
        run_tasks(_square, list(range(6)), workers=3)
        after = service_stats()
        assert after["pool_starts"] - before["pool_starts"] == 2

    def test_shrinking_worker_count_reuses_pool(self):
        """Alternating wide and narrow fan-outs must not thrash startup."""
        shutdown_worker_service()
        before = service_stats()
        run_tasks(_square, list(range(6)), workers=3)
        narrow = run_tasks(_square, list(range(6)), workers=2)
        wide = run_tasks(_square, list(range(6)), workers=3)
        after = service_stats()
        assert narrow == wide == [x * x for x in range(6)]
        assert after["pool_starts"] - before["pool_starts"] == 1

    def test_narrow_cap_on_wide_pool_limits_concurrency(self):
        """workers= stays a concurrency cap when reusing a wider pool:
        the submission window keeps at most that many cells running at
        any instant."""
        shutdown_worker_service()
        run_tasks(_square, list(range(6)), workers=3)  # pool of 3
        spans = run_tasks(_busy_span, list(range(6)), workers=2)
        assert shared_service().pool_workers == 3
        overlap = max(
            sum(1 for start, stop in spans if start <= at < stop)
            for at, _ in spans
        )
        assert overlap <= 2

    def test_large_generation_state_spilled_to_disk(self):
        """Initializer state past the inline limit ships via a temp file
        (read once per worker), not through the pipe once per task."""
        import numpy as np

        shutdown_worker_service()
        before = service_stats()
        big = np.arange(262144, dtype=np.float64)  # 2 MiB >> inline limit
        values = run_tasks(
            _read_state, list(range(5)), workers=2,
            initializer=_remember, initargs=(big,),
        )
        after = service_stats()
        for value in values:
            assert np.array_equal(value, big)
        assert after["blob_spills"] - before["blob_spills"] == 1
        # Small generations keep riding inline.
        run_tasks(_square, [1, 2], workers=2)
        assert service_stats()["blob_spills"] == after["blob_spills"]

    def test_env_pinned_in_persistent_workers(self):
        assert all(
            value == "1"
            for value in run_tasks(_worker_env, list(range(4)), workers=2)
        )

    def test_runtime_overrides_reach_warm_workers(self):
        run_tasks(_square, [0, 1], workers=2)  # warm the pool first
        with runtime_overrides(dispatch_threshold=0.37):
            values = run_tasks(_threshold, [0, 1, 2], workers=2)
        assert values == [0.37, 0.37, 0.37]
        # And the override is rolled back for the next generation.
        assert set(run_tasks(_threshold, [0, 1, 2], workers=2)) == {
            runtime_config().dispatch_threshold
        }

    def test_initializer_refreshed_per_call(self):
        """Warm workers must never serve a stale initializer's state."""
        first = run_tasks(
            _read_state, [0, 1, 2], workers=2,
            initializer=_remember, initargs=("alpha",),
        )
        second = run_tasks(
            _read_state, [0, 1, 2], workers=2,
            initializer=_remember, initargs=("beta",),
        )
        assert first == ["alpha"] * 3
        assert second == ["beta"] * 3
        assert _INIT_STATE == {}  # parent state untouched

    def test_persistent_pool_enabled_stays_true(self):
        """Benchmark environment records read it; the service is the
        only pooled executor."""
        assert persistent_pool_enabled() is True


class TestPickledModelGeneration:
    """A pickled deployable carries its weights, not the plan it lowers
    from them or its scratch buffers: its bytes, and with them the
    generation of a sharded call that ships it, do not change with the
    forwards run before pickling."""

    def test_pickle_unchanged_by_forwards(self, deployable, images):
        rng = np.random.default_rng(8)
        before = pickle.dumps(deployable)
        for batch in (3, 16):
            deployable.forward(
                rng.random((batch,) + images.shape[1:], dtype=np.float32), 2
            )
            assert pickle.dumps(deployable) == before
        clone = pickle.loads(before)
        assert clone._runtime_plan is None
        assert np.array_equal(
            clone.forward(images, 2).logits, deployable.forward(images, 2).logits
        )

    def test_sharded_calls_reuse_one_generation(self, deployable, images):
        shutdown_worker_service()
        rng = np.random.default_rng(9)
        want = deployable.forward(images, 2).logits
        before = service_stats()
        for _ in range(4):
            deployable.forward(
                rng.random(images.shape, dtype=np.float32), 2
            )  # inline parent forward on fresh inputs
            merged = sharded_forward(deployable, images, 2, shards=2, workers=2)
            assert np.array_equal(merged.logits, want)
        after = service_stats()
        assert after["generations"] - before["generations"] == 1
        assert after["generation_reuses"] - before["generation_reuses"] == 3


class TestStandaloneService:
    def test_context_manager_shuts_down(self):
        with WorkerService(workers=2) as service:
            assert service.run(_square, [1, 2, 3]) == [1, 4, 9]
            assert service.running
            assert service.pool_workers == 2
        assert not service.running
        assert service.pool_workers == 0

    def test_restarts_lazily_after_shutdown(self):
        service = WorkerService(workers=2)
        try:
            assert service.run(_square, [2, 3]) == [4, 9]
            service.shutdown()
            assert service.run(_square, [4, 5]) == [16, 25]
            assert service.stats.pool_starts == 2
        finally:
            service.shutdown()

    def test_serial_fallback_runs_inline(self):
        service = WorkerService(workers=1)
        assert service.run(_pid, [0, 1]) == [os.getpid()] * 2
        assert not service.running  # no pool for the serial path

    def test_single_payload_runs_inline(self):
        service = WorkerService(workers=4)
        assert service.run(_pid, [0]) == [os.getpid()]
        assert not service.running

    def test_cell_exception_propagates_and_pool_survives(self):
        with WorkerService(workers=2) as service:
            with pytest.raises(ValueError, match="cell exploded"):
                service.run(_boom, [0, 1, 2])
            # The pool survives a failed map and keeps serving.
            assert service.run(_square, [3, 4]) == [9, 16]
            assert service.stats.pool_starts == 1

    def test_invalid_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        with pytest.raises(ConfigError):
            service_start_method()

    def test_explicit_start_method_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        assert service_start_method() == "fork"


def _boom(x):
    raise ValueError("cell exploded")


def _kill_or_linger(payload):
    """The fault-injection cell: ``"die"`` SIGKILLs its own worker (the
    abrupt death -- OOM killer, segfault -- that vanilla ``Pool.map``
    waits on forever); everything else lingers long enough that the
    mapped call cannot complete before the crash is observable."""
    import signal
    import time

    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.3)
    return payload


def _sleep_or_boom(seconds):
    """Sleep ``seconds``; a negative value raises at once instead."""
    import time

    if seconds < 0:
        raise ValueError("cell exploded")
    time.sleep(seconds)
    return seconds


def _sleep_cell(seconds):
    import time

    time.sleep(seconds)
    return seconds


class TestFaultContainment:
    """A dead or wedged worker must surface as a typed error -- never a
    silent hang -- and the next call must run on a fresh pool."""

    def test_worker_death_quarantined_with_survivors_persistent(self):
        shutdown_worker_service()
        before = service_stats()
        with pytest.raises(PoisonTaskError) as excinfo:
            run_tasks(
                _kill_or_linger, ["die", "a", "b", "c"], workers=2,
                retry=FAST,
            )
        err = excinfo.value
        assert err.quarantined == [0]
        assert err.results == [None, "a", "b", "c"]
        # Each crashed attempt aborted the pool; the service restarts
        # lazily and keeps serving.
        assert run_tasks(_square, [1, 2, 3, 4], workers=2) == [1, 4, 9, 16]
        after = service_stats()
        assert after["aborts"] - before["aborts"] == 3
        assert after["pool_starts"] - before["pool_starts"] == 4

    def test_worker_death_raises_typed_error_persistent(self):
        """A worker death whose retry cannot fit in the call's budget
        (the restart wait alone is 5 s) surfaces as a typed error at the
        budget -- never a hang -- and the service keeps serving."""
        import time

        from repro.parallel import pool

        shutdown_worker_service()
        slow_restart = RetryPolicy(backoff_ms=5000.0, backoff_max_ms=5000.0)
        started = time.monotonic()
        with pytest.raises(WorkerTimeoutError):
            run_tasks(
                _kill_or_linger, ["die", "a", "b", "c"], workers=2,
                timeout=1.0, retry=slow_restart,
            )
        assert time.monotonic() - started < 1.0 + pool._LIVENESS_POLL_S + 0.3
        assert run_tasks(_square, [1, 2, 3, 4], workers=2, retry=FAST) == [
            1, 4, 9, 16
        ]

    def test_timeout_raises_typed_error_and_pool_recovers(self):
        shutdown_worker_service()
        with pytest.raises(WorkerTimeoutError):
            run_tasks(_sleep_cell, [30.0, 30.0], workers=2, timeout=0.2)
        assert run_tasks(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert service_stats()["aborts"] >= 1

    def test_generous_timeout_does_not_fire(self):
        shutdown_worker_service()
        assert run_tasks(
            _square, [1, 2, 3, 4], workers=2, timeout=60.0
        ) == [1, 4, 9, 16]

    def test_serial_fallback_ignores_timeout(self):
        # Inline execution has no separate process to abandon; the
        # budget is documented as pooled-only.
        assert run_tasks(_sleep_cell, [0.01], workers=1, timeout=0.001) == [
            0.01
        ]

    def test_cell_exception_still_propagates_through_guard(self):
        shutdown_worker_service()
        with pytest.raises(ValueError, match="cell exploded"):
            run_tasks(_boom, [0, 1, 2], workers=2, timeout=30.0)
        assert run_tasks(_square, [2, 3], workers=2) == [4, 9]

    def test_standalone_service_quarantines_and_keeps_serving(self):
        """A payload that kills its worker on every attempt aborts the
        pool once per attempt; the service restarts it each time, runs
        the innocent payloads, and keeps serving afterwards."""
        with WorkerService(workers=2) as service:
            with pytest.raises(PoisonTaskError) as excinfo:
                service.run(
                    _kill_or_linger, ["die", "a", "b", "c"], policy=FAST
                )
            assert excinfo.value.results == [None, "a", "b", "c"]
            assert service.stats.aborts == 3  # one per allowed attempt
            assert service.stats.restarts == 3
            assert service.stats.pool_starts == 4
            assert service.run(_square, [7, 8]) == [49, 64]


    def test_standalone_service_aborts_and_restarts_after_crash(
        self, monkeypatch
    ):
        """A worker SIGKILLed on a task's first attempt aborts the pool
        once; the restarted pool re-runs only the lost tasks and the
        call returns the clean results."""
        from repro.faults import FAULT_PLAN_ENV

        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@2:0")
        with WorkerService(workers=2) as service:
            assert service.run(_square, list(range(6)), policy=FAST) == [
                x * x for x in range(6)
            ]
            assert service.stats.aborts == 1
            assert service.stats.restarts == 1
            assert service.stats.pool_starts == 2
            assert service.running
            monkeypatch.delenv(FAULT_PLAN_ENV)
            assert service.run(_square, [7, 8], policy=FAST) == [49, 64]
            assert service.stats.pool_starts == 2

    @pytest.mark.parametrize("pool_width", [2, 3])
    def test_freed_slot_refilled_on_any_completion(
        self, monkeypatch, pool_width
    ):
        """A slot freed by a later task is refilled at once, not at the
        next liveness poll: with the poll stretched to 5 s, a 1 s task
        beside four 0.2 s tasks finishes in about 1 s on two workers
        (waiting on the oldest in-flight task first takes ~1.4 s) --
        whether the pool is exactly two wide (all tasks submitted at
        once) or wider (two in flight, refilled on each completion)."""
        import time

        from repro.parallel import pool

        shutdown_worker_service()
        run_tasks(_square, list(range(pool_width)), workers=pool_width)
        starts = service_stats()["pool_starts"]
        monkeypatch.setattr(pool, "_LIVENESS_POLL_S", 5.0)
        started = time.monotonic()
        values = run_tasks(
            _sleep_cell, [1.0] + [0.2] * 4, workers=2, retry=FAST
        )
        elapsed = time.monotonic() - started
        assert values == [1.0] + [0.2] * 4
        assert elapsed < 1.25
        assert service_stats()["pool_starts"] == starts  # reused the pool

    def test_cell_error_drains_siblings_before_propagating(self, monkeypatch):
        """A raising cell propagates once its in-flight siblings have
        finished, like ``Pool.map`` -- so none of them is left running
        on the shared pool to eat the budget of the next call. The drain
        ends on the last completion, not on a liveness poll (stretched
        to 5 s here)."""
        import time

        from repro.parallel import pool

        shutdown_worker_service()
        run_tasks(_square, [1, 2], workers=2, retry=FAST)  # warm the pool
        monkeypatch.setattr(pool, "_LIVENESS_POLL_S", 5.0)
        started = time.monotonic()
        with pytest.raises(ValueError, match="cell exploded"):
            run_tasks(_sleep_or_boom, [-1.0, 0.6], workers=2, retry=FAST)
        assert 0.55 < time.monotonic() - started < 1.5
        monkeypatch.undo()
        aborts = service_stats()["aborts"]
        assert run_tasks(
            _sleep_cell, [0.05, 0.05], workers=2, timeout=0.4, retry=FAST
        ) == [0.05, 0.05]
        assert service_stats()["aborts"] == aborts

    def test_task_timeout_is_per_attempt_not_per_call(self):
        """``task_timeout_s`` bounds each task from when it reaches a
        worker: eight 0.15 s cells on two workers take ~0.6 s, four
        times the 0.3 s per-task budget, and still complete without an
        abort."""
        shutdown_worker_service()
        run_tasks(_square, [1, 2], workers=2, retry=FAST)  # warm the pool
        aborts = service_stats()["aborts"]
        policy = RetryPolicy(
            max_attempts=1, backoff_ms=0.0, backoff_max_ms=0.0,
            task_timeout_s=0.3,
        )
        assert run_tasks(
            _sleep_cell, [0.15] * 8, workers=2, retry=policy
        ) == [0.15] * 8
        assert service_stats()["aborts"] == aborts

    def test_every_completion_harvested_under_contention(self):
        """Completions arrive on the pool's result thread while the
        caller refills slots: with more workers than cores and many
        tiny tasks, none may be lost (a lost completion would run the
        call into its timeout) and results keep payload order."""
        shutdown_worker_service()
        payloads = list(range(300))
        values = run_tasks(
            _square, payloads, workers=3, timeout=60.0, retry=FAST
        )
        assert values == [x * x for x in payloads]


class TestRestartBackoff:
    """The one backoff: a post-abort restart waits
    ``backoff_ms * 2**(consecutive aborts - 1)``, capped, from the call's
    policy."""

    def test_restarts_counted_separately_from_pool_starts(self):
        with WorkerService(workers=2) as service:
            assert service.run(_square, [1, 2]) == [1, 4]
            assert service.stats.pool_starts == 1
            assert service.stats.restarts == 0  # first start: not a restart
            with pytest.raises(PoisonTaskError):
                service.run(
                    _kill_or_linger, ["die", "a", "b", "c"], policy=SINGLE
                )
            assert service.stats.aborts == 1
            assert service.stats.restarts == 1  # b and c ran after it
            assert service.stats.pool_starts == 2
            assert service.run(_square, [3, 5]) == [9, 25]
            assert service.stats.pool_starts == 2

    def test_backoff_grows_with_consecutive_aborts(self):
        import time

        policy = RetryPolicy(max_attempts=1, backoff_ms=120.0,
                             backoff_max_ms=400.0)
        with WorkerService(workers=2) as service:
            for _ in range(2):
                with pytest.raises(PoisonTaskError):
                    service.run(_kill_or_linger, ["die", "die"], policy=policy)
            assert service._consecutive_aborts == 2
            # Third start pays ~2x the base backoff (damping doubled).
            started = time.monotonic()
            assert service.run(_square, [4, 5], policy=policy) == [16, 25]
            assert time.monotonic() - started >= 0.2
            # Success resets the damping: the next abort starts over.
            assert service._consecutive_aborts == 0
            assert service._last_abort is None
            assert service.stats.restarts == 2

    def test_backoff_capped_at_backoff_max_ms(self):
        """Four consecutive aborts would double 100 ms to 800 ms; the
        cap holds the restart wait at 100 ms."""
        import time

        policy = RetryPolicy(max_attempts=1, backoff_ms=100.0,
                             backoff_max_ms=100.0)
        with WorkerService(workers=2) as service:
            for _ in range(4):
                with pytest.raises(PoisonTaskError):
                    service.run(_kill_or_linger, ["die", "die"], policy=policy)
            started = time.monotonic()
            assert service.run(_square, [6, 7], policy=policy) == [36, 49]
            elapsed = time.monotonic() - started
            assert 0.1 <= elapsed < 0.5


    def test_success_resets_backoff_damping(self):
        with WorkerService(workers=2) as service:
            with pytest.raises(PoisonTaskError):
                service.run(
                    _kill_or_linger, ["die", "die"], policy=SINGLE
                )
            assert service._consecutive_aborts == 1
            assert service._last_abort is not None
            assert service.run(_square, [2, 3], policy=SINGLE) == [4, 9]
            assert service._consecutive_aborts == 0
            assert service._last_abort is None

    def test_long_abort_streak_restarts_at_the_cap(self):
        """``2.0 ** 1024`` overflows: a service that has counted that
        many consecutive aborts still restarts after the capped wait
        instead of raising ``OverflowError``."""
        import time

        policy = RetryPolicy(backoff_ms=10.0, backoff_max_ms=50.0)
        with WorkerService(workers=2) as service:
            service._consecutive_aborts = 5000
            service._last_abort = time.monotonic()
            started = time.monotonic()
            assert service.run(_square, [2, 3], policy=policy) == [4, 9]
            assert time.monotonic() - started < 0.5
            assert service._consecutive_aborts == 0

    def test_restart_wait_comes_from_the_call_policy_only(self):
        """The service has no backoff knobs of its own: the one restart
        wait is the call's ``RetryPolicy``."""
        import inspect

        params = list(inspect.signature(WorkerService).parameters)
        assert params == ["workers", "start_method"]
        for removed in ("restart_backoff_ms", "restart_backoff_max_ms",
                        "breaker"):
            with pytest.raises(TypeError):
                WorkerService(workers=2, **{removed: None})


class TestWarmColdBitIdentity:
    """The ISSUE's acceptance gate: warm pools never change a bit."""

    def test_sharded_forward_warm_equals_cold_equals_serial(
        self, deployable, images
    ):
        serial = sharded_forward(
            deployable, images, 2, shards=4, workers=1, record=True
        )
        shutdown_worker_service()
        cold = sharded_forward(
            deployable, images, 2, shards=4, workers=2, record=True
        )
        warm = sharded_forward(
            deployable, images, 2, shards=4, workers=2, record=True
        )
        for pooled in (cold, warm):
            assert np.array_equal(pooled.logits, serial.logits)
            assert pooled.stats.per_layer == serial.stats.per_layer
            assert (
                pooled.stats.per_layer_timestep
                == serial.stats.per_layer_timestep
            )
            assert pooled.input_spike_totals == serial.input_spike_totals
            for name, series in serial.spike_trains.items():
                for t, train in enumerate(series):
                    assert np.array_equal(pooled.spike_trains[name][t], train)

    def test_replaced_artifact_at_same_path_is_not_served_stale(
        self, images, tmp_path
    ):
        """Generation reuse is keyed on contents, not the path string:
        overwriting the artifact behind an unchanged model_path must
        re-initialize warm workers, never serve the old weights."""
        def fresh_model(seed):
            net = build_network(
                "8C3-MP2-16C3-MP2-40",
                input_shape=(3, 8, 8),
                num_classes=10,
                seed=seed,
            )
            net.eval()
            return convert(net, FP32)

        model_path = str(tmp_path / "model.npz")
        old, new = fresh_model(seed=5), fresh_model(seed=6)
        old.save(model_path)
        stale = sharded_forward(
            old, images, 2, shards=2, workers=2, model_path=model_path
        )
        new.save(model_path)  # retrain lands at the same path
        got = sharded_forward(
            new, images, 2, shards=2, workers=2, model_path=model_path
        )
        want = sharded_forward(new, images, 2, shards=2, workers=1)
        assert np.array_equal(got.logits, want.logits)
        assert not np.array_equal(got.logits, stale.logits)

    def test_shared_service_survives_mixed_workloads(self, deployable, images):
        """Interleaving unrelated run_tasks calls between sharded runs
        must not leak one call's generation state into the next."""
        serial = sharded_forward(deployable, images, 2, shards=2, workers=1)
        sharded_forward(deployable, images, 2, shards=2, workers=2)
        run_tasks(_square, list(range(8)), workers=2)
        again = sharded_forward(deployable, images, 2, shards=2, workers=2)
        assert np.array_equal(again.logits, serial.logits)
        assert again.stats.per_layer == serial.stats.per_layer
