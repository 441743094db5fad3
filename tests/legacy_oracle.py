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
from repro.quant.quantizer import INT_ACCUMULATION_LIMIT, int_accumulation_bound
from repro.snn.encoding import DirectEncoder, Encoder
from repro.snn.metrics import SpikeStats
from repro.tensor.ops import im2col


def forward_legacy(
    network: DeployableNetwork,
    images: np.ndarray,
    timesteps: int,
    encoder: Optional[Encoder] = None,
    record: bool = False,
    reducer=None,
) -> DeployableOutput:
    """``network.forward`` as the original per-timestep loop.

    Recorded trains are float32 (the runtime records binary trains as
    uint8; compare by value) and come both as per-timestep lists and
    stacked. A ``reducer`` gets each layer's whole stacked train as one
    block, ``reducer(index, layer, train)`` after the loop, and its
    results come back in ``reduced`` as the runtime's do -- so the
    hardware simulator can time the oracle's trains. There are no
    dispatch counters: ``runtime_counters`` is ``None``.
    """
    images = network._checked_images(images, timesteps)
    encoder = encoder or DirectEncoder()
    n = images.shape[0]
    beta, theta = network.lif.beta, network.lif.threshold

    stats = SpikeStats(samples=n, timesteps=timesteps)
    input_totals: Dict[str, float] = {}
    trains: Optional[Dict[str, List[np.ndarray]]] = (
        {layer.name: [] for layer in network.layers}
        if record or reducer is not None
        else None
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
    stacked = (
        {name: np.stack(series) for name, series in trains.items()}
        if trains is not None
        else None
    )
    reduced = (
        {
            layer.name: [reducer(index, layer, stacked[layer.name])]
            for index, layer in enumerate(network.layers)
        }
        if reducer is not None
        else None
    )
    return DeployableOutput(
        logits=logits,
        stats=stats,
        input_spike_totals=input_totals,
        spike_trains=trains if record else None,
        spike_trains_stacked=stacked if record else None,
        reduced=reduced,
    )


def layer_current(layer: DeployableLayer, x: np.ndarray) -> np.ndarray:
    """One layer's float32 current for one timestep's (N, ...) input.

    A quantized conv layer on binary input follows the integer datapath
    rule: ``(sum q*x) * scale + bias`` in float32, with the integer sum
    computed exactly (in float64, exact far beyond the 2^24 bound) and
    dequantized by one float32 multiply. Every other step -- fp32
    layers, FC layers, analog input, a layer whose accumulation bound
    exceeds 2^24 -- uses the dequantized weights.
    """
    bias = layer.effective_bias()
    if layer.kind == "conv":
        n = x.shape[0]
        cols = im2col(x, (layer.kernel, layer.kernel), 1, layer.padding)
        oh, ow = layer.output_shape[1], layer.output_shape[2]
        if _runs_int(layer, x):
            q = layer.weight_q.reshape(layer.out_channels, -1)
            acc = np.einsum(
                "ok,nkp->nop", q.astype(np.float64), cols.astype(np.float64),
                optimize=True,
            ).astype(np.float32)
            scale = np.asarray(layer.weight_scale, dtype=np.float32)
            if scale.ndim:
                scale = scale.reshape(1, -1, 1)
            out = (acc * scale).reshape(n, layer.out_channels, oh, ow)
            return out + bias.reshape(1, -1, 1, 1)
        wmat = layer.effective_weight().reshape(layer.out_channels, -1)
        out = np.einsum("ok,nkp->nop", wmat, cols, optimize=True)
        return (
            out.reshape(n, layer.out_channels, oh, ow)
            + bias.reshape(1, -1, 1, 1)
        ).astype(np.float32)
    weight = layer.effective_weight()
    flat = x.reshape(x.shape[0], -1)
    if flat.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"layer {layer.name} expects {weight.shape[1]} inputs, "
            f"got {flat.shape[1]}"
        )
    return (flat @ weight.T + bias).astype(np.float32)


def _runs_int(layer: DeployableLayer, x: np.ndarray) -> bool:
    """Whether a conv layer's step takes the integer datapath: quantized
    weights within the 2^24 accumulation bound, and binary input."""
    return (
        layer.weight_scale is not None
        and int_accumulation_bound(layer.weight_q) <= INT_ACCUMULATION_LIMIT
        and bool(((x == 0) | (x == 1)).all())
    )


def or_pool(x: np.ndarray, window: int) -> np.ndarray:
    """OR-gate max pooling on binary (N, C, H, W) maps (Sec. IV-B)."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // window, window, w // window, window).max(axis=(3, 5))
