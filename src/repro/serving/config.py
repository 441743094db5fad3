"""Serving configuration: the dynamic-batching policy knobs.

Every knob resolves the same way the rest of the repo's configuration
does -- explicit argument first, then a ``REPRO_SERVE_*`` environment
variable, then the baked-in default -- and is validated eagerly
(:class:`~repro.errors.ConfigError` on nonsense), so a misconfigured
server fails at construction, not mid-traffic.

The policy in one sentence: a request admitted to a model queue waits at
most ``max_wait_ms`` for up to ``max_batch - 1`` companions, rides the
assembled batch through the execution path, and must produce a response
within ``timeout_ms`` of admission or its caller gets a typed
:class:`~repro.errors.RequestTimeoutError`; a queue holding
``queue_depth`` requests rejects new admissions outright
(:class:`~repro.errors.QueueFullError`) instead of buffering without
bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

MAX_BATCH_ENV = "REPRO_SERVE_MAX_BATCH"
MAX_WAIT_ENV = "REPRO_SERVE_MAX_WAIT_MS"
QUEUE_DEPTH_ENV = "REPRO_SERVE_QUEUE_DEPTH"
TIMEOUT_ENV = "REPRO_SERVE_TIMEOUT_MS"
DRAIN_ENV = "REPRO_SERVE_DRAIN_MS"


@dataclass(frozen=True)
class ServeConfig:
    """Resolved dynamic-batching policy of one :class:`InferenceServer`.

    Attributes:
        max_batch: most samples one assembled batch may carry (>= 1).
        max_wait_ms: longest the batcher holds the oldest queued request
            open for companions before executing a partial batch
            (>= 0; 0 batches whatever is queued at wake-up, which still
            coalesces bursts that arrive between executions).
        queue_depth: bounded per-model queue; admission beyond it is
            rejected with :class:`~repro.errors.QueueFullError` (>= 1).
        timeout_ms: default per-request deadline, measured from
            admission (> 0; 0 disables deadlines -- callers then wait
            indefinitely unless they pass their own timeout).
        drain_ms: how long a graceful drain waits for queued and
            in-flight work before failing what remains (>= 0).
    """

    max_batch: int = 8
    max_wait_ms: float = 2.0
    queue_depth: int = 64
    timeout_ms: float = 1000.0
    drain_ms: float = 2000.0


def _env_int(env: str, minimum: int) -> Optional[int]:
    raw = os.environ.get(env)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{env} must be an integer, got {raw!r}")
    if value < minimum:
        raise ConfigError(f"{env} must be >= {minimum}, got {value}")
    return value


def _env_float(env: str, minimum: float) -> Optional[float]:
    raw = os.environ.get(env)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{env} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{env} must be finite, got {raw!r}")
    if value < minimum:
        raise ConfigError(f"{env} must be >= {minimum}, got {value}")
    return value


def resolve_serve_config(
    max_batch: Optional[int] = None,
    max_wait_ms: Optional[float] = None,
    queue_depth: Optional[int] = None,
    timeout_ms: Optional[float] = None,
    drain_ms: Optional[float] = None,
) -> ServeConfig:
    """A validated :class:`ServeConfig`.

    Explicit (non-``None``) arguments win, then the ``REPRO_SERVE_*``
    environment, then the defaults. Raises
    :class:`~repro.errors.ConfigError` on unparseable, non-finite or
    out-of-range values, wherever they came from.
    """
    defaults = ServeConfig()

    def pick(explicit, env_value, default, name, minimum):
        if explicit is not None:
            value = explicit
        elif env_value is not None:
            return env_value  # already validated by the env reader
        else:
            return default
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        return value

    return ServeConfig(
        max_batch=int(
            pick(max_batch, _env_int(MAX_BATCH_ENV, 1),
                 defaults.max_batch, "max_batch", 1)
        ),
        max_wait_ms=float(
            pick(max_wait_ms, _env_float(MAX_WAIT_ENV, 0.0),
                 defaults.max_wait_ms, "max_wait_ms", 0.0)
        ),
        queue_depth=int(
            pick(queue_depth, _env_int(QUEUE_DEPTH_ENV, 1),
                 defaults.queue_depth, "queue_depth", 1)
        ),
        timeout_ms=float(
            pick(timeout_ms, _env_float(TIMEOUT_ENV, 0.0),
                 defaults.timeout_ms, "timeout_ms", 0.0)
        ),
        drain_ms=float(
            pick(drain_ms, _env_float(DRAIN_ENV, 0.0),
                 defaults.drain_ms, "drain_ms", 0.0)
        ),
    )
