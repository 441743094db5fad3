"""Worker-count resolution for the sharded/pooled execution subsystem.

One knob, four sources, strict precedence:

1. an explicit ``workers=`` argument at the call site,
2. a scoped :func:`workers_override` (tests pin behaviour with it),
3. the ``REPRO_WORKERS`` environment variable,
4. ``os.cpu_count()``.

``REPRO_WORKERS=1`` is the documented serial fallback: every parallel
entry point then runs its shards/cells inline in the calling process,
with *identical results* (see the package docstring's determinism
guarantees). Worker processes are always started with ``REPRO_WORKERS=1``
in their environment so a cell can itself call parallel entry points
without ever nesting process pools.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ConfigError

WORKERS_ENV = "REPRO_WORKERS"

ON_SHARD_FAILURE_ENV = "REPRO_ON_SHARD_FAILURE"

START_METHOD_ENV = "REPRO_START_METHOD"

RETRY_MAX_ATTEMPTS_ENV = "REPRO_RETRY_MAX_ATTEMPTS"

RETRY_BACKOFF_MS_ENV = "REPRO_RETRY_BACKOFF_MS"

RETRY_BACKOFF_MAX_MS_ENV = "REPRO_RETRY_BACKOFF_MAX_MS"

RETRY_TASK_TIMEOUT_MS_ENV = "REPRO_RETRY_TASK_TIMEOUT_MS"

# Scoped worker-count override (tests pin behaviour with it); cleared in
# pool workers by _reset_override_for_worker so a parent's override
# never leaks into a cell's own parallel entry points.
_WORKERS_OVERRIDE: Optional[int] = None  # repro: lint-ok[P102] per-process scoped override; workers reset it on bootstrap


def env_number(name: str, default: float, cast=float) -> float:
    """A finite numeric env var, or ``default`` when unset/blank.

    ``nan`` and ``inf`` parse as floats but are rejected: a ``nan``
    backoff would make every pool restart wait ``nan`` seconds.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {raw!r}")
    return value


def service_start_method() -> str:
    """Start method for service pools: env override, then the default.

    The default is ``fork`` only on Linux (cheap worker startup);
    ``spawn`` everywhere else -- notably macOS, where forking after the
    Objective-C runtime / Accelerate BLAS initialises is unsafe and
    CPython itself switched the default to spawn.
    """
    method = os.environ.get(START_METHOD_ENV)
    if method is None:
        linux = sys.platform.startswith("linux")
        if linux and "fork" in mp.get_all_start_methods():
            return "fork"
        return "spawn"
    if method not in mp.get_all_start_methods():
        raise ConfigError(
            f"{START_METHOD_ENV} must be one of "
            f"{mp.get_all_start_methods()}, got {method!r}"
        )
    return method


def resolve_on_shard_failure() -> str:
    """What callers should do when a shard is quarantined as poison.

    ``REPRO_ON_SHARD_FAILURE``: ``raise`` (the default -- a
    :class:`~repro.errors.PoisonTaskError` propagates and the whole call
    fails) or ``skip`` (callers that can degrade, e.g.
    ``ExperimentContext.evaluate``, record the failed shards and
    continue on the surviving partial results).
    """
    value = os.environ.get(ON_SHARD_FAILURE_ENV, "raise").strip().lower()
    if value not in ("raise", "skip"):
        raise ConfigError(
            f"{ON_SHARD_FAILURE_ENV} must be 'raise' or 'skip', got {value!r}"
        )
    return value


def _validated(value: int, source: str) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{source} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{source} must be >= 1, got {value}")
    return value


def resolve_workers(workers: Optional[int] = None) -> int:
    """The worker count to use, honouring the precedence above."""
    if workers is not None:
        return _validated(workers, "workers")
    if _WORKERS_OVERRIDE is not None:
        return _WORKERS_OVERRIDE
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        return _validated(env, WORKERS_ENV)
    return os.cpu_count() or 1


def _reset_override_for_worker() -> None:
    """Drop an inherited override inside a freshly bootstrapped worker.

    Under a ``fork`` start method a scoped :func:`workers_override` in
    the parent would survive into the child and shadow the child's
    ``REPRO_WORKERS=1`` environment -- re-enabling the nested pools the
    bootstrap exists to prevent.
    """
    global _WORKERS_OVERRIDE
    _WORKERS_OVERRIDE = None


@contextmanager
def workers_override(workers: int) -> Iterator[int]:
    """Temporarily pin the resolved worker count (test/bench scoping)."""
    global _WORKERS_OVERRIDE
    workers = _validated(workers, "workers")
    previous = _WORKERS_OVERRIDE
    _WORKERS_OVERRIDE = workers
    try:
        yield workers
    finally:
        _WORKERS_OVERRIDE = previous
