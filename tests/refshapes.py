"""Reference conv shapes for fold-calibration gates, benches and tests.

The deep-VGG9 shape list and the synthetic-plan constructors below are
shared by ``tests/runtime/test_fold_calibration.py``,
``scripts/check_blocked_routing.py`` and
``benchmarks/bench_runtime_hotpaths.py`` -- one definition, so the CI
gate, the perf record and the test suite provably guard the same
shapes. Weights are seeded-random: calibration verdicts depend only on
the GEMM shape, never the values. Like ``legacy_oracle.py`` beside it,
it is imported with ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.runtime.plan import LayerPlan, NetworkPlan, conv_geometry
from repro.utils.rng import new_rng

#: Deep-VGG9 (CIFAR scale) conv input shapes with K = Cin * 3 * 3 >= 500
#: -- conv2_2, conv3_1, conv3_2/3_3: the shapes whose full-K GEMM folds
#: multi-lane in this environment, reachable by the event path only
#: through the canonical blocked k-fold.
DEEP_VGG9_SHAPES: Tuple[Tuple[int, int, int, int], ...] = (
    # (cin, height, width, cout)
    (64, 16, 16, 128),
    (128, 8, 8, 256),
    (256, 8, 8, 256),
)


def make_conv_layer_plan(
    cin: int, height: int, width: int, cout: int, seed: int = 0,
    name: str = None,
) -> LayerPlan:
    """A standalone 3x3 same-padded conv :class:`LayerPlan` with seeded
    random weights."""
    geometry = conv_geometry(cin, height, width, 3, 1)
    rng = new_rng(seed)
    wmat = rng.standard_normal((cout, geometry.k)).astype(np.float32)
    return LayerPlan(
        name=name or f"conv{cin}x{height}",
        kind="conv",
        wmat=wmat,
        wT=np.ascontiguousarray(wmat.T),
        bias=rng.standard_normal(cout).astype(np.float32),
        input_shape=(cin, height, width),
        output_shape=(cout, height, width),
        geometry=geometry,
    )


def make_conv_network_plan(
    cin: int, height: int, width: int, cout: int, seed: int = 0,
    num_classes: int = 10,
) -> NetworkPlan:
    """A runnable conv + FC-head :class:`NetworkPlan` around one conv
    shape -- the minimal plan the engine's dispatcher can execute."""
    conv = make_conv_layer_plan(cin, height, width, cout, seed=seed)
    rng = new_rng(seed + 1)
    fc_w = rng.standard_normal(
        (num_classes, cout * height * width)
    ).astype(np.float32)
    head = LayerPlan(
        name="fc",
        kind="fc",
        wmat=fc_w,
        wT=np.ascontiguousarray(fc_w.T),
        bias=np.zeros(num_classes, dtype=np.float32),
        input_shape=(cout, height, width),
        output_shape=(num_classes,),
    )
    return NetworkPlan(
        layers=[conv, head],
        beta=0.5,
        threshold=1.0,
        num_classes=num_classes,
        population_group=1,
    )
