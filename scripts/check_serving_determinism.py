"""Determinism gate for the online serving path.

The serving layer's core contract: logits served through the dynamic
batcher are byte-identical to the offline forward of the same samples,
for any arrival pattern. This gate builds the same tiny VGG9 workload
the parallel gate uses, serves every sample through three adversarial
arrival patterns -- a contiguous burst, a scattered shuffled replay
through small batches, and a pooled (2-worker) server -- and
byte-compares each response against the unsharded offline forward, for
direct and counter-stream rate coding.

Any difference means dynamic batch composition leaked into the numbers
-- exactly the regression class the serving layer's
``GatherStreamEncoder`` + batch-split invariance are built to exclude.

Wired into ``scripts/perf_smoke.sh``; run standalone with:

    PYTHONPATH=src python scripts/check_serving_determinism.py
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(os.path.isdir(os.path.join(p, "repro")) for p in sys.path if p):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np

from repro.quant import FP32, convert
from repro.serving import InferenceServer, resolve_serve_config
from repro.snn import build_vgg9
from repro.snn.encoding import DirectEncoder, RateEncoder
from repro.snn.neuron import LIFConfig

TIMESTEPS = 4
RATE_SEED = 11

#: (label, max_batch, submission order) -- the arrival patterns served.
#: Orders are fixed so failures reproduce; the scattered order forces
#: non-contiguous stream gathers through every batch.
PATTERNS = (
    ("burst", 4, list(range(12))),
    ("scattered", 3, [7, 2, 11, 0, 5, 9, 1, 10, 4, 8, 3, 6]),
)


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


def make_encoder(coding):
    if coding == "direct":
        return DirectEncoder()
    return RateEncoder(seed=RATE_SEED)


def serve_pattern(deployable, images, coding, max_batch, order, workers=None):
    server = InferenceServer(
        resolve_serve_config(
            max_batch=max_batch,
            max_wait_ms=20.0,
            queue_depth=len(images) + 4,
            timeout_ms=0.0,
        )
    )
    try:
        server.register(
            "gate",
            deployable,
            TIMESTEPS,
            encoder=make_encoder(coding),
            workers=workers,
            shard_size=2 if workers else None,
        )
        pendings = [
            (index, server.submit("gate", images[index], stream_index=index))
            for index in order
        ]
        return {index: pending.result() for index, pending in pendings}
    finally:
        server.shutdown()


def check_coding(deployable, images, coding, failures) -> int:
    offline = deployable.forward(
        images, TIMESTEPS, make_encoder(coding), record=False
    ).logits
    compared = 0
    for label, max_batch, order in PATTERNS:
        responses = serve_pattern(deployable, images, coding, max_batch, order)
        for index, response in responses.items():
            compared += 1
            if (
                response.logits.tobytes()
                != np.ascontiguousarray(offline[index]).tobytes()
            ):
                failures.append(
                    f"{coding}/{label}: sample {index} served through "
                    f"max_batch={max_batch} differs from the offline forward"
                )
    # Pooled server: the batch executes on a 2-worker pool; bytes must
    # still match the inline offline forward.
    responses = serve_pattern(
        deployable, images, coding, 4, list(range(12)), workers=2
    )
    for index, response in responses.items():
        compared += 1
        if (
            response.logits.tobytes()
            != np.ascontiguousarray(offline[index]).tobytes()
        ):
            failures.append(
                f"{coding}/pooled: sample {index} served through a "
                "2-worker pool differs from the offline forward"
            )
    return compared


def main() -> int:
    deployable, images = build_workload()
    failures = []
    compared = 0
    for coding in ("direct", "rate"):
        compared += check_coding(deployable, images, coding, failures)
    for failure in failures:
        print(f"SERVING NON-DETERMINISM: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        "serving determinism gate passed "
        f"({compared} served responses byte-compared against the offline "
        "forward: burst + scattered + pooled patterns, direct and rate "
        "coding)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
