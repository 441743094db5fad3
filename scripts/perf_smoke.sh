#!/usr/bin/env bash
# Perf smoke gate for the inference runtime.
#
# Runs the runtime hot-path bench at tiny scale and fails (exit 1) if
# the event-driven path is slower than the legacy per-timestep loop at
# any density <= 5%, if the runtime forward is slower than the legacy
# forward end-to-end, or if the blocked event kernel is slower than the
# dense kernel at the two sparsest blocked_scatter densities on the
# deep-VGG9 (K >= 500) shape, or if, at the two sparsest
# quantized_kernels densities, the int8 event kernel is slower than the
# float event kernel or the int8 dense kernel takes more than 1.25x the
# float dense kernel's time (nothing arbitrates int vs float by speed:
# quantized conv layers run the integer kernels wherever the overflow
# bound holds, which is only free while they run at float speed), or if
# the bench's int8p2 forward diverges from the reference oracle. Wire
# this into CI so future PRs cannot silently regress the event-driven
# win. Results land in
# BENCH_runtime.<scale>.json at the repo root (plain BENCH_runtime.json
# is reserved for the canonical small-scale record tracked across PRs).
#
# Also runs the blocked routing gate (every deep-VGG9 conv shape must
# calibrate a k-block and route its density <= 5% timesteps to the event
# path bit-exactly), the docs drift gate (every REPRO_* variable and CLI
# flag must be registered in repro/analysis/registry.py and documented in
# docs/CONFIGURATION.md, and every REPRO_* token that
# docs/CONFIGURATION.md mentions must be registered), the static analysis
# gate (scripts/check_static.py: repro lint must report zero fresh
# findings -- determinism, cross-process safety, typed-error discipline
# and registry drift, see docs/LINTING.md -- plus ruff when installed)
# and the parallel determinism gate: the direct-coded sharded evaluation
# path with 2 workers, twice, byte-compared against each other and
# against the serial fallback, plus the rate-coded counter-stream gate --
# logits, spike statistics and input totals byte-identical against the
# unsharded forward for shards in {1,2,4}, and the full pooled report
# (counters included) byte-identical to serial at shards {2,4} x 2
# workers (exit 1 on any difference). Rate coding was exempt while
# encoder snapshots made it geometry-dependent. The same gate
# byte-compares the engine's sample lanes (one batch split over threads
# inside one forward) against the one-lane forward that REPRO_WORKERS=1
# runs: direct coding at batch 64, plain and with record=True, rate
# coding with record=True at batch 32 (recorded trains included) and the
# HybridSimulator.run report of an int4 rate-coded batch, at batch 32 and
# at batch 33, whose lanes of 16 and 17 samples reduce unequal slices of
# every train to cycle sums. The recorded rate-coded forward and the
# batch-33 simulator run are repeated in lanes at a one-sample block
# budget (max_fused_elements=1: every lane computes each conv current one
# sample at a time) and byte-compared against the same one-lane run at
# the default budget. The recorded runs also fail the gate when a
# binary layer's train is not uint8 or direct coding's analog input not
# float32. Last, it starts two fresh interpreters that each print the
# gate model's dispatch counters (LayerCounters.as_dict() per layer) for
# direct- and rate-coded forwards at batch 1 and batch 64, and
# byte-compares the two outputs: dense/event routing depends on the plan
# and the input activity alone, never on timing.
#
# The fault recovery gate exercises the self-healing executor under a
# pinned deterministic fault plan (one worker crash + one wedged shard
# on a 4-shard rate-coded run): the healed run must byte-match the
# fault-free run, and a 3-strike poison shard must surface as a typed
# PoisonTaskError carrying the surviving shards (exit 1 otherwise).
# The bench's fault_recovery section records the recovery overhead.
#
# The serving determinism gate closes the loop online: every sample
# served through the dynamic batcher (burst, scattered and 2-worker
# pooled arrival patterns, direct and rate coding) must byte-match the
# offline forward of the same samples; the bench's serving section
# additionally gates nominal-load p99 latency against its
# self-calibrated bound and full admission accounting at overload.
#
# The benchmark's own correctness checks run last: perfbench/run.py
# on offline_direct_b64 (routed batch-64 logits and spike statistics
# byte-compared against a forced-dense forward) and sim_rate_int4 (the
# simulator report compared against its reference) must report
# "correct": true and "failed": 0 on its last line.
#
# Usage: scripts/perf_smoke.sh            (tiny scale, the default)
#        REPRO_BENCH_SCALE=small scripts/perf_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export REPRO_BENCH_SCALE="${REPRO_BENCH_SCALE:-tiny}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python benchmarks/bench_runtime_hotpaths.py --smoke
python scripts/check_blocked_routing.py
python scripts/check_docs.py
python scripts/check_static.py
python scripts/check_serving_determinism.py
python scripts/check_parallel_determinism.py
python scripts/check_fault_recovery.py

perfbench_correct() {
    local last
    last=$(python3 perfbench/run.py --workload "$1" --seed 7919 \
        --seconds 2 --trace 0 | tail -n 1)
    python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' "$last" || { echo "perfbench $1 failed its checks: $last" >&2; exit 1; }
    echo "perfbench $1 gate passed (correct, 0 failed)"
}
perfbench_correct offline_direct_b64
perfbench_correct sim_rate_int4
