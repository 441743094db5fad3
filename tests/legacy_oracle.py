"""Reference oracle: the original per-timestep deployable forward loop.

:func:`forward_legacy` runs a :class:`~repro.quant.convert.DeployableNetwork`
one timestep at a time -- fresh im2col + einsum + dequantize per layer
and step, LIF by reset-by-subtraction, OR-pooling by reshape + max --
with none of the fused runtime's machinery: no plan, no dispatch, no
k-blocking, no byte trains. It is the independent reference the runtime
equivalence suite compares against, and the ``legacy`` arm of
``benchmarks/bench_runtime_hotpaths.py`` (kernel micro-benchmarks,
``end_to_end.legacy_ms`` and the smoke gates that compare against it).

It is not part of the package: tests import it as ``legacy_oracle``
(``tests/`` is on ``sys.path`` under pytest), the bench appends
``tests/`` to ``sys.path``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ShapeError
from repro.quant.convert import DeployableLayer, DeployableNetwork, DeployableOutput
from repro.snn.encoding import DirectEncoder, Encoder
from repro.snn.metrics import SpikeStats
from repro.tensor.ops import im2col


def forward_legacy(
    network: DeployableNetwork,
    images: np.ndarray,
    timesteps: int,
    encoder: Optional[Encoder] = None,
    record: bool = False,
) -> DeployableOutput:
    """``network.forward`` as the original per-timestep loop.

    Recorded trains are float32 (the runtime records binary trains as
    uint8; compare by value) and come both as per-timestep lists and
    stacked, so the hardware simulator can replay them. There are no
    dispatch counters: ``runtime_counters`` is ``None``.
    """
    images = network._checked_images(images, timesteps)
    encoder = encoder or DirectEncoder()
    n = images.shape[0]
    beta, theta = network.lif.beta, network.lif.threshold

    stats = SpikeStats(samples=n, timesteps=timesteps)
    input_totals: Dict[str, float] = {}
    trains: Optional[Dict[str, List[np.ndarray]]] = (
        {layer.name: [] for layer in network.layers} if record else None
    )
    membranes: Dict[str, Optional[np.ndarray]] = {
        layer.name: None for layer in network.layers
    }
    accumulated = np.zeros((n, network.population_size), dtype=np.float32)

    for t in range(timesteps):
        x = encoder.encode(images, t).data
        for layer in network.layers:
            if trains is not None:
                trains[layer.name].append(x.copy())
            input_totals[layer.name] = (
                input_totals.get(layer.name, 0.0) + float(x.sum())
            )
            current = layer_current(layer, x)
            previous = membranes[layer.name]
            integrated = current if previous is None else beta * previous + current
            spikes = (integrated > theta).astype(np.float32)
            membranes[layer.name] = integrated - spikes * theta
            stats.record(layer.name, t, spikes)
            x = spikes
            if layer.pool_after > 1:
                x = or_pool(x, layer.pool_after)
        accumulated += x

    logits = accumulated.reshape(
        n, network.num_classes, network.population_group
    ).sum(axis=2)
    return DeployableOutput(
        logits=logits,
        stats=stats,
        input_spike_totals=input_totals,
        spike_trains=trains,
        spike_trains_stacked=(
            {name: np.stack(series) for name, series in trains.items()}
            if trains is not None
            else None
        ),
    )


def layer_current(layer: DeployableLayer, x: np.ndarray) -> np.ndarray:
    """One layer's float32 current for one timestep's (N, ...) input."""
    weight = layer.effective_weight()
    bias = layer.effective_bias()
    if layer.kind == "conv":
        n = x.shape[0]
        cols = im2col(x, (layer.kernel, layer.kernel), 1, layer.padding)
        wmat = weight.reshape(layer.out_channels, -1)
        out = np.einsum("ok,nkp->nop", wmat, cols, optimize=True)
        oh, ow = layer.output_shape[1], layer.output_shape[2]
        return (
            out.reshape(n, layer.out_channels, oh, ow)
            + bias.reshape(1, -1, 1, 1)
        ).astype(np.float32)
    flat = x.reshape(x.shape[0], -1)
    if flat.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"layer {layer.name} expects {weight.shape[1]} inputs, "
            f"got {flat.shape[1]}"
        )
    return (flat @ weight.T + bias).astype(np.float32)


def or_pool(x: np.ndarray, window: int) -> np.ndarray:
    """OR-gate max pooling on binary (N, C, H, W) maps (Sec. IV-B)."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // window, window, w // window, window).max(axis=(3, 5))
