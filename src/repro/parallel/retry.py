"""Retry policy and counters of the self-healing pooled path.

Pooled calls detect a SIGKILL'd worker or a wedged cell as a typed
:class:`~repro.errors.WorkerCrashError` /
:class:`~repro.errors.WorkerTimeoutError` instead of hanging, and
*recover* from it: :meth:`repro.parallel.service.WorkerService.run`
re-executes only the lost tasks on a restarted pool, isolates suspects
so crash attribution is exact, and quarantines a task that kills its
worker on every allowed attempt behind a typed
:class:`~repro.errors.PoisonTaskError` (see the service's module
docstring). This module holds what that loop is configured and observed
by: the :class:`RetryPolicy`, its environment resolution
(``REPRO_RETRY_*``), and the per-process :class:`RetryStats`. Every
pooled :func:`~repro.parallel.pool.run_tasks` call resolves the policy
from the environment unless one is passed, so long sweeps get recovery
without threading a policy through every caller.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.parallel.config import (
    RETRY_BACKOFF_MAX_MS_ENV,
    RETRY_BACKOFF_MS_ENV,
    RETRY_MAX_ATTEMPTS_ENV,
    RETRY_TASK_TIMEOUT_MS_ENV,
    env_number as _env_number,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How a pooled call recovers from worker crashes and timeouts.

    ``max_attempts`` is the per-task budget: attempt 1 is the original
    execution, and a task whose worker dies on ``max_attempts``
    consecutive attempts is quarantined (``max_attempts=1`` disables
    retries while keeping per-task result harvesting and fault
    injection). Every failed round aborts the pool, and the restart
    waits ``backoff_ms * 2**(consecutive aborts - 1)``, capped at
    ``backoff_max_ms``, counted from the abort and charged to the call's
    ``timeout``. ``task_timeout_s`` bounds each attempt of each task,
    counted from when it reaches a worker, so one wedged task cannot
    consume the whole per-call ``timeout`` -- and a long call made of
    short tasks is never cut short by it.
    """

    max_attempts: int = 3
    backoff_ms: float = 50.0
    backoff_max_ms: float = 2000.0
    task_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        # bool is an int subclass; 2.5 attempts would quietly mean 3.
        attempts = self.max_attempts
        if (
            isinstance(attempts, bool)
            or not isinstance(attempts, numbers.Integral)
            or attempts < 1
        ):
            raise ConfigError(
                f"retry max_attempts must be an integer >= 1, got {attempts!r}"
            )
        # Comparisons with nan are false, so each range check below also
        # refuses nan.
        for name in ("backoff_ms", "backoff_max_ms"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(
                    f"retry {name} must be finite and >= 0, got {value}"
                )
        if self.task_timeout_s is not None and not 0 < self.task_timeout_s < math.inf:
            raise ConfigError(
                f"retry task_timeout_s must be finite and > 0, "
                f"got {self.task_timeout_s}"
            )

    def restart_wait_s(self, consecutive_aborts: int) -> float:
        """Seconds a pool restart waits after ``consecutive_aborts``
        aborts in a row: none before the first, then ``backoff_ms``
        doubling per abort, capped at ``backoff_max_ms``. No jitter.
        The exponent stops at 64: ``2.0 ** 1024`` overflows, and a
        long-lived service can count that many aborts in a row."""
        if consecutive_aborts < 1:
            return 0.0
        return min(
            self.backoff_ms * 2.0 ** min(consecutive_aborts - 1, 64),
            self.backoff_max_ms,
        ) / 1000.0


def resolve_retry_policy(
    max_attempts: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
) -> RetryPolicy:
    """The retry policy pooled calls use by default.

    Explicit arguments win; otherwise ``REPRO_RETRY_MAX_ATTEMPTS``
    (default 3), ``REPRO_RETRY_BACKOFF_MS`` (default 50),
    ``REPRO_RETRY_BACKOFF_MAX_MS`` (default 2000) and
    ``REPRO_RETRY_TASK_TIMEOUT_MS`` (default unset = unbounded attempts)
    fill the gaps. ``REPRO_RETRY_MAX_ATTEMPTS=1`` disables retries.
    """
    if max_attempts is None:
        max_attempts = int(_env_number(RETRY_MAX_ATTEMPTS_ENV, 3, int))
    if task_timeout_s is None:
        timeout_ms = _env_number(RETRY_TASK_TIMEOUT_MS_ENV, 0.0)
        task_timeout_s = timeout_ms / 1000.0 if timeout_ms > 0 else None
    return RetryPolicy(
        max_attempts=max_attempts,
        backoff_ms=_env_number(RETRY_BACKOFF_MS_ENV, 50.0),
        backoff_max_ms=_env_number(RETRY_BACKOFF_MAX_MS_ENV, 2000.0),
        task_timeout_s=task_timeout_s,
    )


@dataclass
class RetryStats:
    """Per-process counters of the self-healing executor."""

    calls: int = 0  # pooled calls served
    retries: int = 0  # task re-executions after a crash/timeout
    recovered_calls: int = 0  # calls that saw a failure yet completed
    quarantined: int = 0  # tasks given up on (PoisonTaskError raised)

    def as_dict(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "retries": self.retries,
            "recovered_calls": self.recovered_calls,
            "quarantined": self.quarantined,
        }


_STATS = RetryStats()  # repro: lint-ok[P102] per-process observability counters; never read by result-producing code


def retry_stats() -> RetryStats:
    """This process's self-healing counters (bench/observability surface)."""
    return _STATS


def reset_retry_stats() -> None:
    global _STATS
    _STATS = RetryStats()
