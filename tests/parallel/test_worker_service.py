"""The persistent WorkerService: warm reuse, generations, bit-identity."""

import os

import numpy as np
import pytest

from repro.errors import ConfigError, WorkerCrashError, WorkerTimeoutError
from repro.parallel import (
    WORKERS_ENV,
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
        submissions are chunked so at most that many workers serve the
        call."""
        shutdown_worker_service()
        run_tasks(_square, list(range(6)), workers=3)  # pool of 3
        pids = set(run_tasks(_slow_pid, list(range(6)), workers=2))
        assert len(pids) <= 2

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


def _sleep_cell(seconds):
    import time

    time.sleep(seconds)
    return seconds


class TestFaultContainment:
    """A dead or wedged worker must surface as a typed error -- never a
    silent hang -- and the next call must run on a fresh pool."""

    def test_worker_death_raises_typed_error_persistent(self):
        shutdown_worker_service()
        before = service_stats()
        with pytest.raises(WorkerCrashError):
            run_tasks(_kill_or_linger, ["die", "a", "b", "c"], workers=2)
        # The crashed pool was aborted; the service restarts lazily and
        # keeps serving.
        assert run_tasks(_square, [1, 2, 3, 4], workers=2) == [1, 4, 9, 16]
        after = service_stats()
        assert after["aborts"] - before["aborts"] == 1
        assert after["pool_starts"] - before["pool_starts"] == 2

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

    def test_standalone_service_aborts_and_restarts_after_crash(self):
        with WorkerService(workers=2) as service:
            with pytest.raises(WorkerCrashError):
                service.run(_kill_or_linger, ["die", "a", "b", "c"])
            assert not service.running  # crashed pool torn down
            assert service.run(_square, [7, 8]) == [49, 64]
            assert service.stats.aborts == 1
            assert service.stats.pool_starts == 2


class TestCircuitBreaker:
    """The abort-rate breaker: open, degrade inline, probe, close."""

    def test_full_cycle_closed_open_halfopen_closed(self):
        from repro.parallel import CircuitBreaker

        breaker = CircuitBreaker(threshold=2, window_s=30.0, cooldown_s=0.05)
        assert breaker.state == "closed"
        assert not breaker.record_abort()
        assert breaker.state == "closed"
        assert breaker.record_abort()  # second abort in window: trip
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow_pool()
        import time

        time.sleep(0.06)
        assert breaker.state == "half-open"
        assert breaker.allow_pool()  # the probe
        breaker.record_success()
        assert breaker.state == "closed"
        # History cleared: one fresh abort no longer trips.
        assert not breaker.record_abort()

    def test_failed_probe_reopens(self):
        from repro.parallel import CircuitBreaker

        breaker = CircuitBreaker(threshold=1, cooldown_s=0.05)
        assert breaker.record_abort()
        import time

        time.sleep(0.06)
        assert breaker.allow_pool()  # half-open probe
        assert breaker.record_abort()  # probe failed
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow_pool()

    def test_window_prunes_old_aborts(self):
        from repro.parallel import CircuitBreaker

        breaker = CircuitBreaker(threshold=2, window_s=0.05)
        assert not breaker.record_abort()
        import time

        time.sleep(0.08)  # first abort ages out of the window
        assert not breaker.record_abort()
        assert breaker.state == "closed"

    def test_threshold_validated(self):
        from repro.parallel import CircuitBreaker

        with pytest.raises(ConfigError):
            CircuitBreaker(threshold=0)

    @pytest.mark.parametrize("field", ["window_s", "cooldown_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_window_and_cooldown_validated(self, field, value):
        """A ``nan`` cooldown held the breaker open forever after one
        abort; negative and infinite spans mean nothing either."""
        from repro.parallel import CircuitBreaker

        with pytest.raises(ConfigError, match=field):
            CircuitBreaker(threshold=1, **{field: value})

    def test_env_configures_the_shared_breaker(self, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "7")
        monkeypatch.setenv("REPRO_BREAKER_WINDOW_MS", "5000")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN_MS", "250")
        service = WorkerService(workers=2)
        assert service.breaker.threshold == 7
        assert service.breaker.window_s == 5.0
        assert service.breaker.cooldown_s == 0.25

    @pytest.mark.parametrize(
        "env", ["REPRO_BREAKER_COOLDOWN_MS", "REPRO_BREAKER_WINDOW_MS"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_breaker_env_rejected(self, monkeypatch, env, value):
        """A ``nan`` cooldown would hold the breaker open forever, and
        every pooled call would silently run serially."""
        monkeypatch.setenv(env, value)
        with pytest.raises(ConfigError, match="finite"):
            WorkerService(workers=2)

    def test_open_breaker_degrades_run_to_inline(self):
        """With the breaker open, runs complete serially in the parent
        (correct results, breaker_serial_runs counted) and the pool is
        left alone until the cooldown's half-open probe."""
        from repro.parallel import CircuitBreaker

        with WorkerService(
            workers=2, breaker=CircuitBreaker(threshold=1, cooldown_s=60.0)
        ) as service:
            service.breaker.record_abort()
            assert service.breaker.state == "open"
            assert service.run(_square, [1, 2, 3]) == [1, 4, 9]
            assert not service.running  # no pool was started
            assert service.stats.breaker_serial_runs == 1
            assert service.stats.pool_starts == 0

    def test_crash_storm_trips_then_probe_recovers(self):
        """End to end: repeated worker deaths open the breaker (inline
        execution keeps completing), then the post-cooldown probe closes
        it and pooled execution resumes."""
        from repro.parallel import CircuitBreaker

        with WorkerService(
            workers=2,
            restart_backoff_ms=1.0,
            breaker=CircuitBreaker(threshold=2, cooldown_s=0.1),
        ) as service:
            for _ in range(2):
                with pytest.raises(WorkerCrashError):
                    service.run(_kill_or_linger, ["die", "a", "b", "c"])
            assert service.breaker.state == "open"
            assert service.stats.breaker_trips == 1
            # Degraded but alive (two payloads: a single payload takes
            # the ordinary serial fallback before the breaker check).
            assert service.run(_square, [5, 8]) == [25, 64]
            assert service.stats.breaker_serial_runs == 1
            import time

            time.sleep(0.12)
            # Half-open: this run probes the pool, succeeds, closes.
            assert service.run(_square, [6, 7]) == [36, 49]
            assert service.breaker.state == "closed"
            assert service.running


class TestRestartBackoff:
    """Post-abort pool restarts are damped, and counted apart from starts."""

    def test_restarts_counted_separately_from_pool_starts(self):
        with WorkerService(workers=2, restart_backoff_ms=1.0) as service:
            assert service.run(_square, [1, 2]) == [1, 4]
            assert service.stats.pool_starts == 1
            assert service.stats.restarts == 0  # first start: not a restart
            with pytest.raises(WorkerCrashError):
                service.run(_kill_or_linger, ["die", "a", "b", "c"])
            assert service.run(_square, [3, 5]) == [9, 25]
            assert service.stats.aborts == 1
            assert service.stats.pool_starts == 2
            assert service.stats.restarts == 1  # post-abort start

    def test_backoff_grows_with_consecutive_aborts(self):
        import time

        with WorkerService(
            workers=2,
            restart_backoff_ms=120.0,
            restart_backoff_max_ms=400.0,
        ) as service:
            with pytest.raises(WorkerCrashError):
                service.run(_kill_or_linger, ["die", "a", "b", "c"])
            with pytest.raises(WorkerCrashError):
                service.run(_kill_or_linger, ["die", "a", "b", "c"])
            assert service._consecutive_aborts == 2
            # Third start pays ~2x the base backoff (damping doubled).
            started = time.monotonic()
            assert service.run(_square, [4, 5]) == [16, 25]
            assert time.monotonic() - started >= 0.2
            # Success resets the damping: the next abort starts over.
            assert service._consecutive_aborts == 0
            assert service.stats.restarts == 2

    def test_success_resets_backoff_damping(self):
        with WorkerService(workers=2, restart_backoff_ms=1.0) as service:
            with pytest.raises(WorkerCrashError):
                service.run(_kill_or_linger, ["die", "a", "b", "c"])
            assert service._consecutive_aborts == 1
            assert service.run(_square, [2, 3]) == [4, 9]
            assert service._consecutive_aborts == 0
            assert service._last_abort is None


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
