"""Determinism gate for the parallel execution path.

Two workloads, both rendered into canonical JSON reports (logits digest,
per-layer spike statistics, input totals, dispatch counters) and
byte-compared:

* **direct-coded**: the same sharded evaluation three times -- twice
  through a 2-worker process pool and once through the serial fallback.
  Any difference between the two pooled runs, or between pooled and
  serial, is a determinism regression.
* **rate-coded**: counter-based encoding streams make rate coding a
  pure function of (seed, global sample index, timestep), so the gate
  demands more -- for the multi-shard geometries {2, 4} the full
  2-worker report (dispatch counters included) must byte-match the
  same-geometry serial run, and logits, spike statistics and input
  totals must byte-match the *unsharded* ``model.forward`` across all
  geometries {1, 2, 4}. (Dispatch counters tally per-(shard, timestep)
  decisions, so they are compared per geometry, not across geometries
  -- see ``repro/parallel/shard.py``.) Rate coding was exempt from this
  gate while encoder snapshots made it geometry-dependent; any
  difference now is a regression of the counter-stream invariant.
* **engine lanes**: one process splitting a batch into sample lanes on
  threads (``repro.runtime.lanes``) must byte-match the one-lane
  forward (what ``REPRO_WORKERS=1`` runs): direct coding at batch 64
  (with and without ``record=True``), rate coding with ``record=True``
  at batch 32 (recorded trains included), and the
  ``HybridSimulator.run`` report of an int4 rate-coded batch of 32.
  The recorded runs also check the trains' dtype contract: every
  binary train is uint8 and direct coding's analog input float32, so
  a silent fallback to float32 spike trains (four times the memory)
  fails the gate.
* **fresh processes**: dense/event routing is a pure function of the
  plan and the input activity, so two fresh interpreters must print
  byte-identical dispatch counters for the same direct- and rate-coded
  forwards at batch 1 and batch 64.

Wired into ``scripts/perf_smoke.sh``; run standalone with:

    PYTHONPATH=src python scripts/check_parallel_determinism.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(os.path.isdir(os.path.join(p, "repro")) for p in sys.path if p):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np

from repro.parallel import sharded_forward, workers_override
from repro.quant import FP32, INT4, convert
from repro.runtime import blas
from repro.runtime.lanes import lane_count
from repro.snn import build_vgg9
from repro.snn.encoding import RateEncoder
from repro.snn.neuron import LIFConfig

SHARDS = 4
TIMESTEPS = 2

RATE_GEOMETRIES = (1, 2, 4)
RATE_WORKERS = (1, 2)
RATE_TIMESTEPS = 4
RATE_SEED = 11

LANE_WORKERS = 2
LANE_DIRECT_BATCH = 64
LANE_RATE_BATCH = 32
#: Two lanes of 16 and 17 samples: cycle sums from unequal lane slices.
LANE_ODD_BATCH = 33

FRESH_BATCHES = (1, 64)
#: Makes the script print its counters record instead of gating.
COUNTERS_FLAG = "--print-counters"


def build_network():
    network = build_vgg9(
        num_classes=10,
        population=200,
        input_shape=(3, 16, 16),
        channel_scale=0.125,
        lif=LIFConfig(threshold=1.0),
        seed=42,
    )
    network.eval()
    return network


def build_workload():
    deployable = convert(build_network(), FP32)
    rng = np.random.default_rng(7)
    images = rng.random((12, 3, 16, 16)).astype(np.float32)
    return deployable, images


def canonical_report(output, counters: bool = True) -> bytes:
    """A byte-stable rendering of everything a merged run produces.

    ``counters=False`` drops the dispatch counters -- the one quantity
    that legitimately depends on the shard geometry -- for the
    cross-geometry comparisons.
    """
    record = {
        "logits_sha256": hashlib.sha256(
            np.ascontiguousarray(output.logits).tobytes()
        ).hexdigest(),
        "samples": output.stats.samples,
        "timesteps": output.stats.timesteps,
        "per_layer": output.stats.per_layer,
        "per_layer_timestep": output.stats.per_layer_timestep,
        "input_totals": output.input_spike_totals,
    }
    if counters:
        record["counters"] = {
            name: counter.as_dict()
            for name, counter in (output.runtime_counters or {}).items()
        }
    return json.dumps(record, sort_keys=True).encode("utf-8")


def check_direct(deployable, images, failures) -> int:
    pooled_a = canonical_report(
        sharded_forward(deployable, images, TIMESTEPS, shards=SHARDS, workers=2)
    )
    pooled_b = canonical_report(
        sharded_forward(deployable, images, TIMESTEPS, shards=SHARDS, workers=2)
    )
    serial = canonical_report(
        sharded_forward(deployable, images, TIMESTEPS, shards=SHARDS, workers=1)
    )
    if pooled_a != pooled_b:
        failures.append("direct: two 2-worker runs produced different reports")
    if pooled_a != serial:
        failures.append("direct: 2-worker run differs from the serial fallback")
    return len(pooled_a)


def check_rate(deployable, images, failures) -> int:
    """Counter-stream invariant: rate coding is geometry-invariant.

    shards=1 is compared against the unsharded forward only: with a
    single shard ``sharded_forward`` takes the in-process serial path
    for every worker count, so a pooled-vs-serial comparison there
    would exercise identical code and claim coverage it does not have.
    """
    unsharded = canonical_report(
        deployable.forward(images, RATE_TIMESTEPS, RateEncoder(seed=RATE_SEED)),
        counters=False,
    )
    report_bytes = 0
    for shards in RATE_GEOMETRIES:
        per_workers = {}
        worker_counts = RATE_WORKERS if shards > 1 else (1,)
        for workers in worker_counts:
            out = sharded_forward(
                deployable,
                images,
                RATE_TIMESTEPS,
                RateEncoder(seed=RATE_SEED),
                shards=shards,
                workers=workers,
            )
            per_workers[workers] = canonical_report(out)
            report_bytes = len(per_workers[workers])
            if canonical_report(out, counters=False) != unsharded:
                failures.append(
                    f"rate: shards={shards} workers={workers} differs from "
                    "the unsharded forward (logits/stats/input totals)"
                )
        if shards > 1 and per_workers[2] != per_workers[1]:
            failures.append(
                f"rate: shards={shards} pooled run differs from the serial "
                "fallback (full report incl. counters)"
            )
    return report_bytes


def trains_digest(output) -> str:
    digest = hashlib.sha256()
    for name, train in sorted(output.spike_trains_stacked.items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(train).tobytes())
    return digest.hexdigest()


def recorded_report(output, analog_first: bool, label: str, failures) -> bytes:
    """The canonical report and trains digest of a recorded forward;
    a recorded train of the wrong dtype is a failure."""
    first = next(iter(output.spike_trains_stacked))
    for name, train in output.spike_trains_stacked.items():
        want = np.dtype(np.float32 if analog_first and name == first else np.uint8)
        if train.dtype != want:
            failures.append(
                f"lanes: {label}: recorded {name} train is {train.dtype}, "
                f"not {want}"
            )
    return canonical_report(output) + trains_digest(output).encode()


def simulation_report(report) -> bytes:
    return json.dumps({
        "latency_ms": report.latency_ms,
        "energy_mj": report.energy_mj,
        "spikes_per_image": report.total_spikes_per_image,
        "layers": [repr(layer) for layer in report.layers],
        "logits_sha256": hashlib.sha256(report.logits.tobytes()).hexdigest(),
    }, sort_keys=True).encode("utf-8")


def check_lanes(deployable, failures) -> str:
    """Lanes against one lane, all in this process."""
    from repro.baselines.rate_coded import rate_coded_config
    from repro.hw.config import lw_config
    from repro.hw.simulator import HybridSimulator

    if not blas.available():
        return "lanes: skipped (BLAS thread count not controllable: one lane)"
    rng = np.random.default_rng(13)
    direct = rng.random((LANE_DIRECT_BATCH, 3, 16, 16)).astype(np.float32)
    rate = direct[:LANE_RATE_BATCH]
    simulator = HybridSimulator(
        convert(build_network(), INT4), rate_coded_config(lw_config("cifar10", INT4))
    )
    runs = {
        "direct forward, batch 64": lambda: canonical_report(
            deployable.forward(direct, TIMESTEPS)
        ),
        "direct forward, record=True, batch 64": lambda: recorded_report(
            deployable.forward(direct, TIMESTEPS, record=True),
            True, "direct forward, record=True", failures,
        ),
        "rate forward, record=True, batch 32": lambda: recorded_report(
            deployable.forward(
                rate, RATE_TIMESTEPS, RateEncoder(seed=RATE_SEED), record=True
            ),
            False, "rate forward, record=True", failures,
        ),
        "HybridSimulator.run, int4 rate, batch 32": lambda: simulation_report(
            simulator.run(rate, RATE_TIMESTEPS, RateEncoder(seed=RATE_SEED))
        ),
        "HybridSimulator.run, int4 rate, batch 33": lambda: simulation_report(
            simulator.run(
                direct[:LANE_ODD_BATCH], RATE_TIMESTEPS,
                RateEncoder(seed=RATE_SEED),
            )
        ),
    }
    for name, run in runs.items():
        with workers_override(1):
            one_lane = run()
        with workers_override(LANE_WORKERS):
            if lane_count(LANE_RATE_BATCH) < 2:
                failures.append(f"lanes: {name} would run in one lane")
            lanes = run()
        if lanes != one_lane:
            failures.append(f"lanes: {name} differs from the one-lane forward")
    return f"lanes: {len(runs)} runs x {LANE_WORKERS} lanes vs one lane"


def counters_record() -> bytes:
    """The gate model's dispatch counters for direct- and rate-coded
    forwards at every batch of :data:`FRESH_BATCHES`, as canonical JSON."""
    deployable, _ = build_workload()
    rng = np.random.default_rng(17)
    images = rng.random((max(FRESH_BATCHES), 3, 16, 16)).astype(np.float32)
    record = {}
    for batch in FRESH_BATCHES:
        for coding, encoder in (("direct", None), ("rate", RateEncoder)):
            out = deployable.forward(
                images[:batch], RATE_TIMESTEPS,
                encoder(seed=RATE_SEED) if encoder else None,
            )
            record[f"{coding}, batch {batch}"] = {
                name: counter.as_dict()
                for name, counter in out.runtime_counters.items()
            }
    return json.dumps(record, sort_keys=True).encode("utf-8")


def check_fresh_processes(failures) -> str:
    """Counters of two fresh interpreters, byte-compared."""
    command = [sys.executable, os.path.abspath(__file__), COUNTERS_FLAG]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(command, capture_output=True)
        if proc.returncode != 0:
            failures.append(
                f"fresh processes: counters run exited {proc.returncode}: "
                + proc.stderr.decode("utf-8", "replace").strip()[-2000:]
            )
            return "fresh processes: failed"
        outputs.append(proc.stdout)
    if outputs[0] != outputs[1]:
        failures.append(
            "fresh processes: two interpreters printed different dispatch "
            "counters for the same forwards"
        )
    return f"fresh processes: 2 x {len(outputs[0])}-byte counter records"


def main() -> int:
    if COUNTERS_FLAG in sys.argv[1:]:
        sys.stdout.buffer.write(counters_record() + b"\n")
        return 0
    deployable, images = build_workload()
    failures = []
    direct_bytes = check_direct(deployable, images, failures)
    rate_bytes = check_rate(deployable, images, failures)
    lanes_summary = check_lanes(deployable, failures)
    fresh_summary = check_fresh_processes(failures)
    for failure in failures:
        print(f"PARALLEL NON-DETERMINISM: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        "parallel determinism gate passed "
        f"(direct: {SHARDS} shards, 2 workers, {direct_bytes}-byte report "
        "compared 3 ways; rate: shards {2,4} x workers {1,2} vs serial, "
        f"shards {{1,2,4}} vs unsharded, {rate_bytes}-byte reports; "
        f"{lanes_summary}; {fresh_summary})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
