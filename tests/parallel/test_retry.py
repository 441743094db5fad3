"""The self-healing executor: retry, backoff, quarantine, fault plans."""

import os
import time

import numpy as np
import pytest

from repro.errors import ConfigError, PoisonTaskError
from repro.faults import FAULT_PLAN_ENV
from repro.parallel import (
    RetryPolicy,
    resolve_retry_policy,
    retry_stats,
    run_tasks,
    sharded_forward,
    shutdown_worker_service,
)
from repro.parallel.retry import (
    RETRY_BACKOFF_MS_ENV,
    RETRY_MAX_ATTEMPTS_ENV,
    RETRY_TASK_TIMEOUT_MS_ENV,
    reset_retry_stats,
)
from repro.quant import FP32, convert
from repro.snn import build_network
from repro.snn.encoding import RateEncoder

#: A policy with no sleeps: fault-plan tests retry in a tight loop.
FAST = dict(backoff_ms=0.0, backoff_max_ms=0.0)


def _square(x):
    return x * x


@pytest.fixture(scope="module")
def deployable():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=77
    )
    net.eval()
    return convert(net, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(23)
    return rng.random((8, 3, 8, 8)).astype(np.float32)


@pytest.fixture(autouse=True)
def _fresh_pool_and_no_ambient_plan(monkeypatch):
    """Each test starts with no fault plan and ends with no warm pool
    (fault plans must never leak into other test modules' pools). The
    shared service's circuit breaker is pinned out of the way: this
    module's repeated induced crashes would otherwise open it, and an
    open breaker degrades to inline execution -- where injection is off
    by design and nothing under test would run."""
    from repro.parallel import CircuitBreaker, shared_service

    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    monkeypatch.setattr(
        shared_service(), "breaker", CircuitBreaker(threshold=10000)
    )
    shutdown_worker_service()
    yield
    shutdown_worker_service()


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_ms": -1.0},
            {"backoff_max_ms": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
            {"task_timeout_s": 0.0},
        ],
    )
    def test_nonsense_rejected_typed(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "field",
        ["backoff_ms", "backoff_max_ms", "backoff_factor", "task_timeout_s"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_explicit_values_rejected(self, field, value):
        """A ``nan`` backoff made every delay ``nan``; an ``inf`` round
        timeout or factor is no bound at all."""
        with pytest.raises(ConfigError, match=field):
            RetryPolicy(**{field: value})

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(RETRY_MAX_ATTEMPTS_ENV, "5")
        monkeypatch.setenv(RETRY_BACKOFF_MS_ENV, "10")
        monkeypatch.setenv(RETRY_TASK_TIMEOUT_MS_ENV, "1500")
        policy = resolve_retry_policy()
        assert policy.max_attempts == 5
        assert policy.backoff_ms == 10.0
        assert policy.task_timeout_s == 1.5

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(RETRY_MAX_ATTEMPTS_ENV, "5")
        assert resolve_retry_policy(max_attempts=2).max_attempts == 2

    def test_bad_env_rejected_typed(self, monkeypatch):
        monkeypatch.setenv(RETRY_MAX_ATTEMPTS_ENV, "many")
        with pytest.raises(ConfigError):
            resolve_retry_policy()

    @pytest.mark.parametrize(
        "env,value",
        [
            (RETRY_BACKOFF_MS_ENV, "nan"),
            (RETRY_BACKOFF_MS_ENV, "inf"),
            (RETRY_TASK_TIMEOUT_MS_ENV, "inf"),
        ],
    )
    def test_non_finite_env_rejected_typed(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ConfigError, match="finite"):
            resolve_retry_policy()


class TestBackoffDeterminism:
    def test_same_coordinate_same_delay(self):
        policy = RetryPolicy(seed=3)
        assert policy.backoff_delay_s(4, 2) == policy.backoff_delay_s(4, 2)

    def test_jitter_stays_in_band_and_grows_with_attempt(self):
        policy = RetryPolicy(
            backoff_ms=100.0, backoff_factor=2.0, backoff_max_ms=10000.0,
            jitter=0.5,
        )
        for attempt, base in [(1, 0.1), (2, 0.2), (3, 0.4)]:
            delay = policy.backoff_delay_s(0, attempt)
            assert base * 0.5 <= delay <= base * 1.5

    def test_cap_applies(self):
        policy = RetryPolicy(
            backoff_ms=100.0, backoff_max_ms=150.0, jitter=0.0
        )
        assert policy.backoff_delay_s(0, 5) == pytest.approx(0.15)

    def test_tasks_decorrelated(self):
        policy = RetryPolicy(jitter=0.5)
        delays = {policy.backoff_delay_s(task, 1) for task in range(8)}
        assert len(delays) > 1


class TestCrashRecovery:
    def test_injected_crash_recovers_with_identical_results(self):
        reset_retry_stats()
        clean = run_tasks(
            _square, list(range(6)), workers=2, retry=RetryPolicy(**FAST)
        )
        assert clean == [x * x for x in range(6)]
        os.environ[FAULT_PLAN_ENV] = "crash@1:0"
        try:
            healed = run_tasks(
                _square, list(range(6)), workers=2, retry=RetryPolicy(**FAST)
            )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        assert healed == clean
        stats = retry_stats()
        assert stats.retries >= 1
        assert stats.recovered_calls == 1
        assert stats.quarantined == 0

    def test_sharded_forward_retried_bytes_identical(
        self, deployable, images
    ):
        """The ISSUE's core gate, in miniature: a rate-coded sharded
        forward that loses a worker mid-call and retries produces the
        byte-identical merged output of a fault-free run."""
        clean = sharded_forward(
            deployable, images, 2, RateEncoder(seed=5), shard_size=2,
            workers=2, retry=RetryPolicy(**FAST),
        )
        shutdown_worker_service()
        os.environ[FAULT_PLAN_ENV] = "crash@0:0"
        try:
            healed = sharded_forward(
                deployable, images, 2, RateEncoder(seed=5), shard_size=2,
                workers=2, retry=RetryPolicy(**FAST),
            )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        assert healed.logits.tobytes() == clean.logits.tobytes()
        assert healed.stats.per_layer == clean.stats.per_layer
        assert healed.input_spike_totals == clean.input_spike_totals

    def test_corrupt_fault_proves_the_injection_seam(self):
        """A ``corrupt`` fault visibly changes a result -- evidence the
        byte-compare gates would catch silent corruption."""
        os.environ[FAULT_PLAN_ENV] = "corrupt@1"
        try:
            values = run_tasks(
                _square, [1, 2, 3], workers=2, retry=RetryPolicy(**FAST)
            )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        assert values == [1, 5, 9]  # task 1: 4 + 1

    def test_no_retry_keeps_legacy_semantics(self):
        """``retry=None`` stays the historical fail-the-call path: no
        task tagging, no fault-plan seam, no quarantine."""
        os.environ[FAULT_PLAN_ENV] = "corrupt@1"
        try:
            values = run_tasks(_square, [1, 2, 3], workers=2)
        finally:
            del os.environ[FAULT_PLAN_ENV]
        assert values == [1, 4, 9]


class TestWedgeRecovery:
    def test_wedged_task_recovers_within_task_timeout(self):
        policy = RetryPolicy(task_timeout_s=1.0, **FAST)
        os.environ[FAULT_PLAN_ENV] = "wedge@1:0~30"
        started = time.monotonic()
        try:
            values = run_tasks(
                _square, list(range(4)), workers=2, retry=policy
            )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        assert values == [x * x for x in range(4)]
        assert time.monotonic() - started < 15.0


class TestPoisonQuarantine:
    def test_three_strike_poison_raises_with_partials(self):
        reset_retry_stats()
        os.environ[FAULT_PLAN_ENV] = "crash@0:0,crash@0:1,crash@0:2"
        try:
            with pytest.raises(PoisonTaskError) as excinfo:
                run_tasks(
                    _square,
                    list(range(4)),
                    workers=2,
                    retry=RetryPolicy(max_attempts=3, **FAST),
                )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        err = excinfo.value
        assert err.quarantined == [0]
        assert err.results[0] is None
        assert err.results[1:] == [1, 4, 9]
        assert err.attempts == {0: 3}
        assert set(err.fingerprints) == {0}
        assert len(err.fingerprints[0]) == 64  # sha256 hex
        assert retry_stats().quarantined == 1

    def test_max_attempts_one_disables_retry(self):
        os.environ[FAULT_PLAN_ENV] = "crash@1:0"
        try:
            with pytest.raises(PoisonTaskError) as excinfo:
                run_tasks(
                    _square,
                    [5, 6],
                    workers=2,
                    retry=RetryPolicy(max_attempts=1, **FAST),
                )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        assert excinfo.value.quarantined == [1]

    def test_innocent_neighbours_survive_isolation(self):
        """Tasks that merely shared a dying pool are not blamed: every
        non-poison task completes and is attached to the error."""
        os.environ[FAULT_PLAN_ENV] = (
            "crash@3:0,crash@3:1"
        )
        try:
            with pytest.raises(PoisonTaskError) as excinfo:
                run_tasks(
                    _square,
                    list(range(8)),
                    workers=2,
                    retry=RetryPolicy(max_attempts=2, **FAST),
                )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        err = excinfo.value
        assert err.quarantined == [3]
        survivors = [
            err.results[index] for index in range(8) if index != 3
        ]
        assert survivors == [x * x for x in range(8) if x != 3]


class TestSerialFallbackSafety:
    def test_serial_fallback_never_injects(self, monkeypatch):
        """workers=1 executes inline in the parent, where a crash fault
        would kill the caller -- injection must be off by design."""
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0:0")
        values = run_tasks(
            _square, [1, 2, 3], workers=1, retry=RetryPolicy(**FAST)
        )
        assert values == [1, 4, 9]

    def test_unparsable_plan_fails_fast_in_parent(self, monkeypatch):
        from repro.errors import FaultPlanError

        monkeypatch.setenv(FAULT_PLAN_ENV, "explode@0")
        with pytest.raises(FaultPlanError):
            run_tasks(
                _square, [1, 2, 3], workers=2, retry=RetryPolicy(**FAST)
            )
