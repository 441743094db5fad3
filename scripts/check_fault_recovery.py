"""Fault-recovery gate for the self-healing parallel executor.

Three phases over the same rate-coded 4-shard workload used by the
parallel determinism gate:

* **clean**: a fault-free 2-worker sharded evaluation, rendered into
  the canonical byte report (logits digest, per-layer spike statistics,
  input totals, dispatch counters).
* **faulted**: the identical call under a pinned fault plan -- one
  worker crash (SIGKILL mid-shard) and one wedge (a shard that hangs
  until the per-task timeout kills it). The retry engine must heal both
  and the merged report must be **byte-identical** to the clean run:
  counter-based encoding streams make every retried shard a pure
  function of (seed, global sample index, timestep), so recovery is not
  allowed to perturb a single bit.
* **poison**: a shard that dies on every attempt must be quarantined
  after ``max_attempts`` strikes and surface as a typed
  :class:`PoisonTaskError` carrying the surviving shards' results.

Wired into ``scripts/perf_smoke.sh``; run standalone with:

    PYTHONPATH=src python scripts/check_fault_recovery.py
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(os.path.isdir(os.path.join(p, "repro")) for p in sys.path if p):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

# Restart waits only slow the gate.
os.environ["REPRO_RETRY_BACKOFF_MS"] = "0"
os.environ["REPRO_RETRY_BACKOFF_MAX_MS"] = "0"

import numpy as np

from repro.errors import PoisonTaskError
from repro.faults import FAULT_PLAN_ENV
from repro.parallel import (
    RetryPolicy,
    retry_stats,
    sharded_forward,
    shutdown_worker_service,
)
from repro.parallel.retry import reset_retry_stats
from repro.quant import FP32, convert
from repro.snn import build_vgg9
from repro.snn.encoding import RateEncoder
from repro.snn.neuron import LIFConfig

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_parallel_determinism import canonical_report  # noqa: E402

SHARDS = 4
TIMESTEPS = 4
RATE_SEED = 11

#: Shard 0 loses its worker on the first attempt; shard 2 wedges for
#: 30 s (far beyond the per-task timeout) on its first attempt. Both
#: recover on retry.
RECOVERY_PLAN = "seed=0,crash@0:0,wedge@2:0~30"

#: Shard 0 dies on every one of its three allowed attempts.
POISON_PLAN = "seed=0,crash@0:0,crash@0:1,crash@0:2"


def build_workload():
    network = build_vgg9(
        num_classes=10,
        population=200,
        input_shape=(3, 16, 16),
        channel_scale=0.125,
        lif=LIFConfig(threshold=1.0),
        seed=42,
    )
    network.eval()
    deployable = convert(network, FP32)
    rng = np.random.default_rng(7)
    images = rng.random((12, 3, 16, 16)).astype(np.float32)
    return deployable, images


def run_report(deployable, images, policy) -> bytes:
    out = sharded_forward(
        deployable,
        images,
        TIMESTEPS,
        RateEncoder(seed=RATE_SEED),
        shards=SHARDS,
        workers=2,
        retry=policy,
    )
    return canonical_report(out, counters=True)


def main() -> int:
    deployable, images = build_workload()
    policy = RetryPolicy(
        max_attempts=3, backoff_ms=0.0, backoff_max_ms=0.0,
        task_timeout_s=3.0,
    )
    failures = []
    clean = run_report(deployable, images, policy)

    shutdown_worker_service()  # the plan is read at worker spawn
    reset_retry_stats()
    os.environ[FAULT_PLAN_ENV] = RECOVERY_PLAN
    try:
        faulted = run_report(deployable, images, policy)
    finally:
        del os.environ[FAULT_PLAN_ENV]
        shutdown_worker_service()

    stats = retry_stats()
    if faulted != clean:
        failures.append(
            "faulted run is not byte-identical to the clean run "
            f"(plan {RECOVERY_PLAN!r})"
        )
    if stats.retries < 2:
        failures.append(
            f"expected >=2 retries (1 crash + 1 wedge), saw "
            f"{stats.retries}: the plan did not exercise recovery"
        )
    if stats.recovered_calls < 1:
        failures.append("no call was recorded as recovered")
    if stats.quarantined != 0:
        failures.append(
            f"recoverable plan quarantined {stats.quarantined} task(s)"
        )

    os.environ[FAULT_PLAN_ENV] = POISON_PLAN
    try:
        run_report(deployable, images, policy)
        failures.append(
            "poison shard was not quarantined: the call succeeded "
            f"under plan {POISON_PLAN!r}"
        )
    except PoisonTaskError as err:
        survivors = sum(1 for r in err.results if r is not None)
        if err.quarantined != [0]:
            failures.append(
                f"expected quarantined shards [0], got {err.quarantined}"
            )
        if survivors != SHARDS - 1:
            failures.append(
                f"expected {SHARDS - 1} surviving shard results, "
                f"got {survivors}"
            )
    finally:
        del os.environ[FAULT_PLAN_ENV]
        shutdown_worker_service()

    for failure in failures:
        print(f"FAULT RECOVERY FAILURE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        "fault recovery gate passed "
        f"({SHARDS} shards, 2 workers: 1 crash + 1 wedge healed with "
        f"{stats.retries} retries, {len(clean)}-byte reports identical; "
        "3-strike poison shard quarantined with "
        f"{SHARDS - 1} surviving shards attached)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
