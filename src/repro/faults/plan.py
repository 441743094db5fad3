"""Deterministic fault plans, injected at the pool seam.

PR 7's fault tests monkeypatched executors and SIGKILL'd live workers by
hand -- effective, but ad-hoc: every failure mode needed bespoke test
plumbing, and none of it could be replayed outside a test process. This
module turns those faults into *data*: a fault plan is a small spec
string (usually shipped through ``REPRO_FAULT_PLAN``) describing which
``(task index, attempt)`` coordinates misbehave and how. The retry layer
(:mod:`repro.parallel.retry`) tags every pooled task with its index and
attempt, and the worker-side cell wrapper consults the plan *inside the
worker process* before and after running the real cell. Because the plan
keys on coordinates rather than wall-clock or pids, a CI run replays the
exact same faults every time -- chaos testing without the chaos.

Plan grammar
------------

A spec is a comma-separated list of entries::

    seed=N                     # seed of the probabilistic entries (default 0)
    KIND@TASK                  # fault task TASK on attempt 0
    KIND@TASK:ATTEMPT          # fault task TASK on attempt ATTEMPT
    KIND@TASK:ATTEMPT~SECONDS  # with a duration (wedge / slow)
    KIND%PROB                  # fault any (task, attempt) with probability PROB
    KIND%PROB~SECONDS          # probabilistic, with a duration

with ``KIND`` one of:

* ``crash`` -- the worker SIGKILLs itself before running the cell
  (an OOM-kill / segfault stand-in; surfaces as
  :class:`~repro.errors.WorkerCrashError` in the parent);
* ``wedge`` -- the worker sleeps ``SECONDS`` (default 3600) *instead of*
  finishing promptly; recovery relies on the caller's timeout budget
  (surfaces as :class:`~repro.errors.WorkerTimeoutError`);
* ``slow`` -- the worker sleeps ``SECONDS`` (default 0.2) and then runs
  the cell normally (a slow-start / cold-cache stand-in);
* ``corrupt`` -- the cell runs normally but its result is deterministically
  mutated before returning (a silent-corruption stand-in; exists so
  byte-compare gates can prove they would catch it).

Probabilistic entries draw from the counter stream
``counter_rng(seed, task, attempt, kind)`` (:mod:`repro.utils.rng`), so
whether a given coordinate faults is a pure function of the plan -- the
same plan fires the same faults at any worker count, shard geometry or
execution order.

Faults are only ever applied inside real worker processes
(:func:`mark_worker_process` is called by the pool bootstraps); the
serial fallback and the circuit breaker's inline degraded mode execute
cells in the parent, where a ``crash`` fault would kill the caller
itself, so injection is skipped there by design.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultPlanError

# Historical home of these names; the env read moved to the layer's
# config module (rule P101) and both stay importable from here.
from repro.faults.config import (  # noqa: F401
    FAULT_PLAN_ENV,
    active_fault_spec,
)

#: Fault kinds, in the order that keys their probabilistic counter
#: streams (appending is fine; reordering would change which coordinates
#: existing probabilistic plans fire on).
KINDS = ("crash", "wedge", "slow", "corrupt")

_DEFAULT_SECONDS = {"wedge": 3600.0, "slow": 0.2}

_IN_WORKER = False  # repro: lint-ok[P102] per-process bootstrap flag; set once by the pool initializer


def mark_worker_process() -> None:
    """Record that this process is a pool worker (called by bootstraps).

    Only marked processes apply fault plans: a ``crash`` fault executed
    in the parent (serial fallback, breaker degraded mode) would kill
    the caller rather than simulate a worker death.
    """
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    """Whether this process was bootstrapped as a pool worker."""
    return _IN_WORKER


@dataclass(frozen=True)
class FaultSpec:
    """One plan entry: a fault kind bound to coordinates or a probability."""

    kind: str
    task: Optional[int] = None  # None => probabilistic over all tasks
    attempt: int = 0
    seconds: Optional[float] = None
    probability: Optional[float] = None

    def matches(self, seed: int, task: int, attempt: int) -> bool:
        if self.task is not None:
            return self.task == task and self.attempt == attempt
        from repro.utils.rng import counter_rng

        kind_index = KINDS.index(self.kind)
        draw = float(counter_rng(seed, task, attempt, kind_index).random())
        return draw < float(self.probability or 0.0)

    def duration(self) -> float:
        if self.seconds is not None:
            return self.seconds
        return _DEFAULT_SECONDS.get(self.kind, 0.0)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, validated fault plan (see the module docstring grammar)."""

    seed: int
    entries: Tuple[FaultSpec, ...]

    def faults_for(self, task: int, attempt: int) -> List[FaultSpec]:
        """The entries that fire at ``(task, attempt)``, in plan order."""
        return [
            entry
            for entry in self.entries
            if entry.matches(self.seed, task, attempt)
        ]

    def apply_before(self, task: int, attempt: int) -> None:
        """Apply pre-cell faults (crash / wedge / slow) at a coordinate.

        Runs in the worker process, immediately before the real cell.
        ``crash`` never returns; ``wedge`` sleeps out the caller's
        budget; ``slow`` delays and falls through to the cell.
        """
        for entry in self.faults_for(task, attempt):
            if entry.kind == "crash":  # pragma: no cover - kills the worker
                os.kill(os.getpid(), signal.SIGKILL)
            elif entry.kind in ("wedge", "slow"):
                time.sleep(entry.duration())

    def apply_after(self, task: int, attempt: int, result):
        """Apply post-cell faults (corrupt) to the cell's result."""
        for entry in self.faults_for(task, attempt):
            if entry.kind == "corrupt":
                result = _corrupt_result(result)
        return result


def _corrupt_result(result):
    """Deterministically mutate a cell result (silent-corruption model).

    Handles the result shapes pooled cells actually return -- objects
    carrying a ``logits`` array (shard forwards), bare numpy arrays, and
    plain numbers -- by perturbing one value; anything else is replaced
    wholesale with a marker string (still a changed byte stream, which
    is all a corruption fault needs to be).
    """
    import numpy as np

    logits = getattr(result, "logits", None)
    if logits is not None and hasattr(logits, "flat"):
        corrupted = np.array(logits, copy=True)
        corrupted.flat[0] += 1.0
        result.logits = corrupted
        return result
    if isinstance(result, np.ndarray):
        corrupted = np.array(result, copy=True)
        if corrupted.size:
            corrupted.flat[0] += 1
        return corrupted
    if isinstance(result, (int, float)):
        return result + 1
    return "<corrupted-by-fault-plan>"


def _parse_entry(entry: str) -> FaultSpec:
    seconds = None
    if "~" in entry:
        entry, _, raw_seconds = entry.partition("~")
        try:
            seconds = float(raw_seconds)
        except ValueError:
            raise FaultPlanError(
                f"fault-plan duration must be a number, got {raw_seconds!r}"
            )
        # time.sleep refuses NaN and overflows past TIMEOUT_MAX: reject
        # both here rather than as an untyped error inside the worker.
        if not 0.0 <= seconds <= threading.TIMEOUT_MAX:
            raise FaultPlanError(
                "fault-plan duration must be finite, >= 0 and <= "
                f"{threading.TIMEOUT_MAX:g} s, got {seconds}"
            )
    if "@" in entry:
        kind, _, coords = entry.partition("@")
        attempt = 0
        task_part, _, attempt_part = coords.partition(":")
        try:
            task = int(task_part)
            if attempt_part:
                attempt = int(attempt_part)
        except ValueError:
            raise FaultPlanError(
                f"fault-plan coordinates must be integers, got {coords!r}"
            )
        if task < 0 or attempt < 0:
            raise FaultPlanError(
                f"fault-plan coordinates must be >= 0, got {coords!r}"
            )
        spec = FaultSpec(
            kind=kind.strip(), task=task, attempt=attempt, seconds=seconds
        )
    elif "%" in entry:
        kind, _, raw_prob = entry.partition("%")
        try:
            probability = float(raw_prob)
        except ValueError:
            raise FaultPlanError(
                f"fault-plan probability must be a number, got {raw_prob!r}"
            )
        if not 0.0 <= probability <= 1.0:
            raise FaultPlanError(
                f"fault-plan probability must be in [0, 1], got {probability}"
            )
        spec = FaultSpec(
            kind=kind.strip(), probability=probability, seconds=seconds
        )
    else:
        raise FaultPlanError(
            f"unrecognised fault-plan entry {entry!r} "
            "(expected KIND@TASK[:ATTEMPT][~SECONDS], KIND%PROB[~SECONDS] "
            "or seed=N)"
        )
    if spec.kind not in KINDS:
        raise FaultPlanError(
            f"unknown fault kind {spec.kind!r} (expected one of {KINDS})"
        )
    return spec


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse and validate a plan spec; :class:`FaultPlanError` on nonsense."""
    seed = 0
    entries: List[FaultSpec] = []
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("seed="):
            try:
                seed = int(raw[len("seed="):])
            except ValueError:
                raise FaultPlanError(
                    f"fault-plan seed must be an integer, got {raw!r}"
                )
            continue
        entries.append(_parse_entry(raw))
    if not entries:
        raise FaultPlanError(
            f"fault plan {spec!r} contains no fault entries"
        )
    return FaultPlan(seed=seed, entries=tuple(entries))


_PLAN_CACHE: Dict[str, FaultPlan] = {}  # repro: lint-ok[P102] per-process parse cache keyed by spec text; identical in every process


def cached_plan(spec: str) -> FaultPlan:
    """Parse-once cache for the worker-side hot path (specs are tiny)."""
    plan = _PLAN_CACHE.get(spec)
    if plan is None:
        plan = parse_fault_plan(spec)
        _PLAN_CACHE[spec] = plan
    return plan
