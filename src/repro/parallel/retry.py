"""Self-healing pooled execution: retry, backoff, poison quarantine.

PR 7 gave pooled calls honest failure *detection*: a SIGKILL'd worker or
a wedged cell surfaces as a typed :class:`~repro.errors.WorkerCrashError`
/ :class:`~repro.errors.WorkerTimeoutError` instead of a hang. This
module adds *recovery*. Every shard cell in this package is a pure
function of its coordinates (the counter-stream invariant from PR 5), so
re-executing a lost shard on a fresh pool is guaranteed byte-identical
-- the only thing standing between one transient worker death and a
completed call is bookkeeping. :func:`run_tasks_resilient` is that
bookkeeping:

* tasks are submitted individually (through
  :meth:`repro.parallel.service.WorkerService.run_indexed`), so a crash
  mid-call keeps every completed result and re-executes **only** the
  lost tasks;
* failed tasks are retried up to :attr:`RetryPolicy.max_attempts` times
  with exponential backoff whose jitter is drawn from the deterministic
  counter streams in :mod:`repro.utils.rng` -- two runs of the same
  failing workload back off identically;
* after the first failure, suspect tasks (those that were in flight
  when the pool died) are re-executed in *isolation* -- one task per
  round -- so crash attribution is exact: an innocent task that shared
  a pool with a poison one completes on its solo attempt instead of
  being blamed alongside it;
* a task that takes down its worker on ``max_attempts`` consecutive
  attempts is quarantined: the call raises a typed
  :class:`~repro.errors.PoisonTaskError` carrying the surviving partial
  results and the poison payload's fingerprint, instead of retrying
  forever;
* every task is tagged with its ``(index, attempt)`` coordinate, which
  is also the injection seam for the deterministic fault plans of
  :mod:`repro.faults` (``REPRO_FAULT_PLAN``).

The policy resolves from the environment (``REPRO_RETRY_*``), so long
sweeps get recovery without threading a policy through every caller;
``run_tasks(retry=None)`` keeps the historical fail-the-call semantics.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigError,
    PoisonTaskError,
    WorkerTimeoutError,
)
from repro.faults.plan import active_fault_spec, cached_plan, in_worker_process

# The env constants and reader were defined here historically; they
# moved to the layer's config module (rule P101) and stay importable.
from repro.parallel.config import (  # noqa: F401
    RETRY_BACKOFF_MAX_MS_ENV,
    RETRY_BACKOFF_MS_ENV,
    RETRY_MAX_ATTEMPTS_ENV,
    RETRY_TASK_TIMEOUT_MS_ENV,
    env_number as _env_number,
)
from repro.parallel.service import shared_service


@dataclass(frozen=True)
class RetryPolicy:
    """How a pooled call recovers from worker crashes and timeouts.

    ``max_attempts`` is the per-task budget: attempt 1 is the original
    execution, and a task whose worker dies on ``max_attempts``
    consecutive attempts is quarantined (``max_attempts=1`` disables
    retries while keeping per-task result harvesting and fault
    injection). ``backoff_ms * backoff_factor**(attempt-1)``, capped at
    ``backoff_max_ms``, is slept before each re-execution, scaled by a
    deterministic jitter in ``[1-jitter, 1+jitter]`` drawn from
    ``counter_rng(seed, task, attempt)`` -- reproducible, but still
    decorrelated across tasks. ``task_timeout_s`` bounds each *recovery
    round* (per-task budget), so one wedged task cannot consume the
    whole per-call ``timeout``.
    """

    max_attempts: int = 3
    backoff_ms: float = 50.0
    backoff_factor: float = 2.0
    backoff_max_ms: float = 2000.0
    jitter: float = 0.5
    seed: int = 0
    task_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}"
            )
        # Comparisons with nan are false, so each range check below also
        # refuses nan.
        for name in ("backoff_ms", "backoff_max_ms"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(
                    f"retry {name} must be finite and >= 0, got {value}"
                )
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ConfigError(
                f"retry backoff_factor must be finite and >= 1, "
                f"got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                f"retry jitter must be in [0, 1], got {self.jitter}"
            )
        if self.task_timeout_s is not None and not 0 < self.task_timeout_s < math.inf:
            raise ConfigError(
                f"retry task_timeout_s must be finite and > 0, "
                f"got {self.task_timeout_s}"
            )

    def backoff_delay_s(self, task: int, attempt: int) -> float:
        """Deterministic backoff before re-executing ``task`` at ``attempt``."""
        from repro.utils.rng import counter_rng

        base_ms = min(
            self.backoff_ms * self.backoff_factor ** max(0, attempt - 1),
            self.backoff_max_ms,
        )
        if base_ms <= 0:
            return 0.0
        draw = float(counter_rng(self.seed, task, attempt).random())
        scale = 1.0 + self.jitter * (2.0 * draw - 1.0)
        return base_ms * scale / 1000.0


def resolve_retry_policy(
    max_attempts: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
) -> RetryPolicy:
    """The retry policy recoverable entry points use by default.

    Explicit arguments win; otherwise ``REPRO_RETRY_MAX_ATTEMPTS``
    (default 3), ``REPRO_RETRY_BACKOFF_MS`` (default 50),
    ``REPRO_RETRY_BACKOFF_MAX_MS`` (default 2000) and
    ``REPRO_RETRY_TASK_TIMEOUT_MS`` (default unset = unbounded rounds)
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

    calls: int = 0  # resilient pooled calls served
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


def _resilient_cell(task: Tuple[Optional[str], int, int, Callable, object]):
    """Worker-side cell wrapper: fault injection at the (task, attempt) seam.

    Faults only apply inside real worker processes -- inline execution
    (serial fallback, breaker degraded mode) runs the cell untouched,
    because a ``crash`` fault in the parent would kill the caller
    instead of simulating a worker death.
    """
    spec, index, attempt, fn, payload = task
    plan = None
    if spec is not None and in_worker_process():
        plan = cached_plan(spec)
        plan.apply_before(index, attempt)
    result = fn(payload)
    if plan is not None:
        result = plan.apply_after(index, attempt, result)
    return result


def _payload_fingerprint(payload) -> str:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def run_tasks_resilient(
    fn: Callable,
    payloads: List,
    count: int,
    initializer: Optional[Callable] = None,
    initargs: Tuple = (),
    timeout: Optional[float] = None,
    policy: Optional[RetryPolicy] = None,
) -> List:
    """``run_tasks`` semantics with shard-level recovery (see module doc).

    ``count`` is the already-resolved worker cap (> 1 -- the serial
    fallback never routes here). ``timeout`` bounds the whole call,
    retries and backoff included; on expiry the typed error of the last
    failed round propagates.
    """
    policy = policy if policy is not None else resolve_retry_policy()
    n = len(payloads)
    spec = active_fault_spec()
    if spec is not None:
        cached_plan(spec)  # fail fast on an unparsable plan, in the parent
    deadline = None if timeout is None else time.monotonic() + timeout
    results: Dict[int, object] = {}
    attempts = [0] * n
    pending = list(range(n))
    quarantined: List[int] = []
    had_failure = False
    _STATS.calls += 1

    while True:
        runnable = []
        for index in pending:
            if attempts[index] >= policy.max_attempts:
                if index not in quarantined:
                    quarantined.append(index)
                    _STATS.quarantined += 1
            else:
                runnable.append(index)
        pending = runnable
        if not pending:
            break
        suspects = [index for index in pending if attempts[index] > 0]
        if suspects:
            # Isolation: re-execute one suspect per round so a crash is
            # attributed to exactly the task that caused it.
            batch = [suspects[0]]
        else:
            batch = pending
        _STATS.retries += sum(1 for index in batch if attempts[index] > 0)
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise WorkerTimeoutError(
                f"pooled call exhausted its {timeout:.3f}s budget with "
                f"{len(pending)} task(s) still unrecovered"
            )
        bounds = [
            value
            for value in (remaining, policy.task_timeout_s)
            if value is not None
        ]
        round_timeout = min(bounds) if bounds else None
        tasks = [
            (index, (spec, index, attempts[index], fn, payloads[index]))
            for index in batch
        ]
        # The service owns the circuit breaker and restart backoff.
        done, dispatched, error = shared_service().run_indexed(
            _resilient_cell,
            tasks,
            workers=min(count, len(batch)),
            initializer=initializer,
            initargs=initargs,
            timeout=round_timeout,
        )
        results.update(done)
        pending = [index for index in pending if index not in results]
        if error is None:
            continue
        had_failure = True
        # Only tasks that actually reached a worker are suspects; tasks
        # still queued behind the submission window keep attempt 0.
        for index in batch:
            if index in dispatched and index not in results:
                attempts[index] += 1
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise error
        failed = [
            index
            for index in batch
            if index in dispatched and index not in results
        ]
        anchor = failed[0] if failed else (batch[0] if batch else 0)
        delay = policy.backoff_delay_s(anchor, attempts[anchor])
        if remaining is not None:
            delay = min(delay, max(0.0, remaining))
        if delay > 0:
            time.sleep(delay)

    if quarantined:
        ordered = [results.get(index) for index in range(n)]
        fingerprints = {
            index: _payload_fingerprint(payloads[index])
            for index in quarantined
        }
        raise PoisonTaskError(
            f"{len(quarantined)} of {n} task(s) killed their worker on "
            f"{policy.max_attempts} consecutive attempt(s) and were "
            f"quarantined (indices {sorted(quarantined)}); "
            f"{n - len(quarantined)} surviving result(s) attached",
            results=ordered,
            quarantined=quarantined,
            fingerprints=fingerprints,
            attempts={index: attempts[index] for index in quarantined},
        )
    if had_failure:
        _STATS.recovered_calls += 1
    return [results[index] for index in range(n)]
