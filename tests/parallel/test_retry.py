"""The self-healing pooled path: retry, backoff, quarantine, fault plans."""

import dataclasses
import hashlib
import os
import pickle
import time

import numpy as np
import pytest

from repro.errors import ConfigError, PoisonTaskError, WorkerTimeoutError
from repro.faults import FAULT_PLAN_ENV
from repro.parallel import (
    RetryPolicy,
    resolve_retry_policy,
    retry_stats,
    run_tasks,
    sharded_forward,
    shutdown_worker_service,
)
from repro.parallel.config import (
    RETRY_BACKOFF_MAX_MS_ENV,
    RETRY_BACKOFF_MS_ENV,
    RETRY_MAX_ATTEMPTS_ENV,
    RETRY_TASK_TIMEOUT_MS_ENV,
)
from repro.parallel.retry import reset_retry_stats
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
    (fault plans must never leak into other test modules' pools)."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
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
            {"task_timeout_s": 0.0},
            {"task_timeout_s": -1.0},
            {"max_attempts": 2.5},
            {"max_attempts": True},
        ],
    )
    def test_nonsense_rejected_typed(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "field",
        ["backoff_ms", "backoff_max_ms", "task_timeout_s"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_explicit_values_rejected(self, field, value):
        """A ``nan`` backoff made every delay ``nan``; an ``inf`` round
        timeout is no bound at all."""
        with pytest.raises(ConfigError, match=field):
            RetryPolicy(**{field: value})

    def test_numpy_integer_attempts_accepted(self):
        assert RetryPolicy(max_attempts=np.int64(2)).max_attempts == 2

    def test_exactly_four_knobs(self):
        """One backoff is left: the jitter, its seed and the growth
        factor are gone, and passing them is an error, not a no-op."""
        assert [field.name for field in dataclasses.fields(RetryPolicy)] == [
            "max_attempts", "backoff_ms", "backoff_max_ms", "task_timeout_s",
        ]
        for removed in ("backoff_factor", "jitter", "seed"):
            with pytest.raises(TypeError):
                RetryPolicy(**{removed: 1.0})

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(RETRY_MAX_ATTEMPTS_ENV, "5")
        monkeypatch.setenv(RETRY_BACKOFF_MS_ENV, "10")
        monkeypatch.setenv(RETRY_BACKOFF_MAX_MS_ENV, "300")
        monkeypatch.setenv(RETRY_TASK_TIMEOUT_MS_ENV, "1500")
        policy = resolve_retry_policy()
        assert policy.max_attempts == 5
        assert policy.backoff_ms == 10.0
        assert policy.backoff_max_ms == 300.0
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
            (RETRY_BACKOFF_MAX_MS_ENV, "nan"),
            (RETRY_TASK_TIMEOUT_MS_ENV, "inf"),
        ],
    )
    def test_non_finite_env_rejected_typed(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ConfigError, match="finite"):
            resolve_retry_policy()


class TestBackoffDeterminism:
    """The one restart wait: a pure function of the policy and the
    number of consecutive pool aborts."""

    def test_no_wait_before_the_first_abort(self):
        assert RetryPolicy().restart_wait_s(0) == 0.0

    def test_doubles_per_consecutive_abort(self):
        policy = RetryPolicy(backoff_ms=100.0, backoff_max_ms=10000.0)
        waits = [policy.restart_wait_s(aborts) for aborts in (1, 2, 3, 4)]
        assert waits == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_cap_applies(self):
        policy = RetryPolicy(backoff_ms=100.0, backoff_max_ms=150.0)
        assert policy.restart_wait_s(5) == pytest.approx(0.15)

    def test_zero_backoff_never_waits(self):
        policy = RetryPolicy(**FAST)
        assert {policy.restart_wait_s(aborts) for aborts in range(6)} == {0.0}

    def test_long_abort_streak_stays_at_the_cap(self):
        """``2.0 ** 1024`` overflows; a crash-looping service reaching
        that many consecutive aborts must still wait the cap, not
        raise ``OverflowError``."""
        policy = RetryPolicy(backoff_ms=100.0, backoff_max_ms=2000.0)
        assert policy.restart_wait_s(5000) == pytest.approx(2.0)
        assert RetryPolicy(**FAST).restart_wait_s(5000) == 0.0


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

    def test_default_policy_heals_and_injects(self, monkeypatch):
        """``retry=None`` resolves the ``REPRO_RETRY_*`` policy: a plain
        pooled call (the sweeps', fig1's and the simulator's path) is
        tagged for the fault plan and heals a crashed task."""
        monkeypatch.setenv(RETRY_BACKOFF_MS_ENV, "0")
        monkeypatch.setenv(FAULT_PLAN_ENV, "corrupt@1")
        assert run_tasks(_square, [1, 2, 3], workers=2) == [1, 5, 9]
        reset_retry_stats()
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@1:0")
        assert run_tasks(_square, list(range(6)), workers=2) == [
            x * x for x in range(6)
        ]
        assert retry_stats().recovered_calls == 1

    def test_env_max_attempts_reaches_default_pooled_calls(self, monkeypatch):
        """With ``retry=None`` the attempt budget comes from
        ``REPRO_RETRY_MAX_ATTEMPTS``: at 1, a task whose worker dies on
        its first attempt is quarantined instead of healed."""
        monkeypatch.setenv(RETRY_BACKOFF_MS_ENV, "0")
        monkeypatch.setenv(RETRY_MAX_ATTEMPTS_ENV, "1")
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@1:0")
        with pytest.raises(PoisonTaskError) as excinfo:
            run_tasks(_square, [5, 6], workers=2)
        assert excinfo.value.quarantined == [1]
        assert excinfo.value.attempts == {1: 1}


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

    def test_env_task_timeout_reaches_default_pooled_calls(self, monkeypatch):
        """With ``retry=None`` the round bound comes from
        ``REPRO_RETRY_TASK_TIMEOUT_MS``, so a plain pooled call heals a
        wedged task instead of waiting it out."""
        monkeypatch.setenv(RETRY_BACKOFF_MS_ENV, "0")
        monkeypatch.setenv(RETRY_TASK_TIMEOUT_MS_ENV, "1000")
        monkeypatch.setenv(FAULT_PLAN_ENV, "wedge@1:0~30")
        started = time.monotonic()
        values = run_tasks(_square, list(range(4)), workers=2)
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


    def test_each_poison_task_quarantined_with_its_fingerprint(self):
        """Two poison tasks are quarantined independently, each with
        its attempt count and the sha256 of its pickled payload."""
        payloads = [10, 11, 12, 13, 14]
        os.environ[FAULT_PLAN_ENV] = "crash@1:0,crash@1:1,crash@4:0,crash@4:1"
        try:
            with pytest.raises(PoisonTaskError) as excinfo:
                run_tasks(
                    _square,
                    payloads,
                    workers=2,
                    retry=RetryPolicy(max_attempts=2, **FAST),
                )
        finally:
            del os.environ[FAULT_PLAN_ENV]
        err = excinfo.value
        assert sorted(err.quarantined) == [1, 4]
        assert err.attempts == {1: 2, 4: 2}
        assert err.results == [100, None, 144, 169, None]
        for index in (1, 4):
            blob = pickle.dumps(
                payloads[index], protocol=pickle.HIGHEST_PROTOCOL
            )
            assert err.fingerprints[index] == hashlib.sha256(blob).hexdigest()


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


class TestRestartWaitBudget:
    def test_restart_wait_is_charged_to_the_call_budget(self, monkeypatch):
        """After four consecutive aborts the next pool restart waits
        100 ms * 2**3 = 800 ms under the call's policy. A call with a
        0.15 s budget must still return or raise within that budget plus
        one liveness poll: the wait is clamped to what is left of the
        budget, never added on top of it."""
        from repro.parallel import pool

        single_shot = RetryPolicy(max_attempts=1, **FAST)
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0:0")
        for _ in range(4):
            with pytest.raises(PoisonTaskError):
                run_tasks(_square, [1, 2], workers=2, retry=single_shot)
        monkeypatch.delenv(FAULT_PLAN_ENV)
        policy = RetryPolicy(backoff_ms=100.0, backoff_max_ms=2000.0)
        budget = 0.15
        started = time.monotonic()
        try:
            run_tasks(_square, [1, 2], workers=2, retry=policy, timeout=budget)
        except WorkerTimeoutError:
            pass
        elapsed = time.monotonic() - started
        assert elapsed < budget + pool._LIVENESS_POLL_S + 0.1
        # The pool came back: the next call needs no budget to succeed.
        assert run_tasks(_square, [3, 4], workers=2, retry=policy) == [9, 16]

    def test_budget_spent_waiting_raises_typed_timeout(self, monkeypatch):
        """A restart wait longer than the whole budget ends the call
        with a typed ``WorkerTimeoutError`` at the budget: it neither
        sleeps the full wait nor starts a round with no time left."""
        from repro.parallel import pool

        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0:0")
        with pytest.raises(PoisonTaskError):
            run_tasks(
                _square, [1, 2], workers=2,
                retry=RetryPolicy(max_attempts=1, **FAST),
            )
        monkeypatch.delenv(FAULT_PLAN_ENV)
        policy = RetryPolicy(backoff_ms=5000.0, backoff_max_ms=5000.0)
        budget = 0.2
        started = time.monotonic()
        with pytest.raises(WorkerTimeoutError):
            run_tasks(_square, [1, 2], workers=2, retry=policy, timeout=budget)
        elapsed = time.monotonic() - started
        assert budget <= elapsed < budget + pool._LIVENESS_POLL_S + 0.1

    def test_restart_wait_counted_from_the_abort(self, monkeypatch):
        """The wait runs from the abort, not from the next call: a call
        arriving after the wait has elapsed restarts the pool at once."""
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0:0")
        policy = RetryPolicy(max_attempts=1, backoff_ms=1000.0,
                             backoff_max_ms=1000.0)
        with pytest.raises(PoisonTaskError):
            run_tasks(_square, [1, 2], workers=2, retry=policy)
        monkeypatch.delenv(FAULT_PLAN_ENV)
        time.sleep(1.05)
        started = time.monotonic()
        assert run_tasks(_square, [3, 4], workers=2, retry=policy) == [9, 16]
        assert time.monotonic() - started < 0.6
