"""Routing gate for the blocked event path on deep-VGG9 conv shapes.

For every deep-VGG9 conv shape (K >= 500 -- the shapes that failed the
unblocked BLAS-fold probe and were locked onto the dense path before the
blocked k-fold landed) this gate asserts, at paper-regime densities
(<= 5%):

1. the shape resolves to a positive calibrated k-block,
2. the dispatcher actually routes its sparse timesteps to the event
   path (density policy: pure eligibility, deterministic), and
3. the event-routed result is bit-identical to the forced-dense run of
   the same engine -- the canonical blocked fold shared by both kernels.

Exit code 1 on any violation. Wired into ``scripts/perf_smoke.sh``; run
standalone with:

    PYTHONPATH=src python scripts/check_blocked_routing.py
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(os.path.isdir(os.path.join(p, "repro")) for p in sys.path if p):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np

from repro.runtime import (
    InferenceEngine,
    resolve_event_block,
    runtime_overrides,
)
from repro.runtime.refshapes import DEEP_VGG9_SHAPES, make_conv_network_plan

DENSITIES = (0.01, 0.04)
TIMESTEPS = 2
BATCH = 2


def main() -> int:
    failures = []
    for index, (cin, height, width, cout) in enumerate(DEEP_VGG9_SHAPES):
        plan = make_conv_network_plan(
            cin, height, width, cout, seed=100 + index
        )
        conv = plan.layers[0]
        k = conv.geometry.k
        block = resolve_event_block(conv)
        if not block:
            failures.append(
                f"K={k}: no calibrated k-block (resolution {block!r})"
            )
            continue
        for density in DENSITIES:
            rng = np.random.default_rng(1000 + index)
            spikes = (
                rng.random((TIMESTEPS, BATCH, cin, height, width)) < density
            ).astype(np.float32)
            with runtime_overrides(force_path="dense"):
                dense = InferenceEngine(plan).run(spikes)
            routed = InferenceEngine(plan).run(spikes)
            counters = routed.counters[conv.name]
            if counters.dense_steps != 0:
                failures.append(
                    f"K={k} @ {density:.0%}: {counters.dense_steps} of "
                    f"{TIMESTEPS} timesteps stayed dense "
                    f"({counters.as_dict()})"
                )
            if not np.array_equal(routed.accumulated, dense.accumulated):
                failures.append(
                    f"K={k} @ {density:.0%}: event-routed result diverged "
                    "from the forced-dense run"
                )
        print(f"K={k}: k_block={block}, event-routed bit-exactly at "
              + ", ".join(f"{d:.0%}" for d in DENSITIES))
    for failure in failures:
        print(f"BLOCKED ROUTING REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"blocked routing gate passed ({len(DEEP_VGG9_SHAPES)} deep shapes, "
        f"densities {DENSITIES})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
