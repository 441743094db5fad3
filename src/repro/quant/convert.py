"""Conversion to a deployable (inference-only) network.

:func:`convert` takes a trained :class:`~repro.snn.network.SpikingNetwork`
-- plain or QAT-wrapped -- folds batch norm away, quantizes weights and
biases per the scheme, and emits a :class:`DeployableNetwork`: the exact
functional model of what the accelerator executes (integer weights +
scales, float membranes). The hardware simulator wraps this model with
timing, resource and power estimates; keeping function and timing apart
makes each independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QuantizationError, ShapeError
from repro.quant.fold import fold_batchnorm
from repro.quant.quantizer import dequantize_array, quantize_array
from repro.quant.schemes import FP32, QuantScheme, scheme_by_name
from repro.runtime import (
    BufferPool,
    InferenceEngine,
    LayerCounters,
    plan_deployable,
    runtime_config,
    stack_encoder_frames,
)
from repro.snn.encoding import DirectEncoder, Encoder
from repro.snn.metrics import SpikeStats
from repro.snn.network import SpikingNetwork
from repro.snn.neuron import LIFConfig
from repro.tensor.ops import im2col
from repro.utils.serialization import load_npz, save_npz


@dataclass
class DeployableLayer:
    """One weight-bearing layer in deployment form.

    ``weight_q`` holds integers (int32 storage) when quantized, floats for
    fp32. ``pool_after`` is the OR-pool window applied to this layer's
    output spikes (1 = none). ``is_input_layer`` marks the direct-coding
    dense-core layer.
    """

    name: str
    kind: str  # 'conv' | 'fc'
    weight_q: np.ndarray
    bias_q: np.ndarray
    weight_scale: Optional[np.ndarray]
    bias_scale: Optional[np.ndarray]
    kernel: int
    padding: int
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    pool_after: int = 1
    is_input_layer: bool = False

    def effective_weight(self) -> np.ndarray:
        """Dequantized weights -- what the shift-and-add units produce."""
        if self.weight_scale is None:
            return self.weight_q.astype(np.float32)
        return dequantize_array(self.weight_q, self.weight_scale)

    def effective_bias(self) -> np.ndarray:
        if self.bias_scale is None:
            return self.bias_q.astype(np.float32)
        return dequantize_array(self.bias_q, self.bias_scale)

    @property
    def out_channels(self) -> int:
        return int(self.weight_q.shape[0])

    @property
    def weight_count(self) -> int:
        return int(self.weight_q.size)

    def weight_storage_bits(self, weight_bits: int) -> int:
        """Bits of on-chip storage for this layer's weights + biases."""
        return (self.weight_q.size + self.bias_q.size) * weight_bits

    @property
    def zero_weight_fraction(self) -> float:
        """Fraction of exactly-zero weights (quantization snaps small
        weights to zero -- one mechanism behind Fig. 1's sparsity gain)."""
        return float((self.effective_weight() == 0).mean())


@dataclass
class DeployableOutput:
    """Results of one deployable forward pass.

    ``spike_trains`` keeps the legacy per-timestep list layout;
    ``spike_trains_stacked`` exposes the same trains as one ``(T, N, ...)``
    array per layer (zero-copy views of each other on the runtime path),
    which the hardware simulator consumes in a single batched pass.

    On the runtime path a binary train is uint8 with values in {0, 1}
    (every layer's input after the first, and a rate- or TTFS-coded
    first layer's); direct coding's analog first-layer input stays
    float32. The legacy loop records float32 trains of the same values,
    so compare trains by value. The runtime does not cast its trains
    back to float32: that copy would be four times their size.
    """

    logits: np.ndarray
    stats: SpikeStats
    input_spike_totals: Dict[str, float] = field(default_factory=dict)
    spike_trains: Optional[Dict[str, List[np.ndarray]]] = None
    spike_trains_stacked: Optional[Dict[str, np.ndarray]] = None
    runtime_counters: Optional[Dict[str, LayerCounters]] = None


class DeployableNetwork:
    """Inference-only network with (optionally) integer weights.

    Execution is pure NumPy -- no autograd tape -- and mirrors the
    hardware's arithmetic: dequantized weights, float membrane
    accumulation, reset-by-subtraction LIF, OR-pooling on spikes.
    """

    def __init__(
        self,
        layers: List[DeployableLayer],
        lif: LIFConfig,
        num_classes: int,
        scheme: QuantScheme,
        input_shape: Tuple[int, int, int],
    ) -> None:
        if not layers:
            raise QuantizationError("deployable network needs at least one layer")
        self.layers = layers
        self.lif = lif
        self.num_classes = num_classes
        self.scheme = scheme
        self.input_shape = tuple(input_shape)
        self.population_size = layers[-1].out_channels
        if self.population_size % num_classes:
            raise QuantizationError(
                f"population {self.population_size} not divisible by "
                f"{num_classes} classes"
            )
        self.population_group = self.population_size // num_classes
        self._runtime_plan = None
        self._runtime_buffers = BufferPool()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _checked_images(self, images: np.ndarray, timesteps: int) -> np.ndarray:
        """``images`` as float32, once they and ``timesteps`` are known
        to describe at least one step of a non-empty batch."""
        if timesteps < 1:
            raise ShapeError(f"timesteps must be >= 1, got {timesteps}")
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4 or images.shape[1:] != self.input_shape:
            raise ShapeError(
                f"expected (N, {self.input_shape}) images, got {images.shape}"
            )
        if images.shape[0] == 0:
            raise ShapeError("expected at least one image, got an empty batch")
        return images

    def forward(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        record: bool = False,
    ) -> DeployableOutput:
        """Run ``timesteps`` of inference on an image batch.

        Routes through the fused inference runtime unless it is
        disabled; see :mod:`repro.runtime`. Shapes on the unblocked
        fold (every layer, when ``event_kblock=0``) are bit-exact
        against :meth:`forward_legacy`; deep conv shapes on the default
        canonical blocked fold are bit-exact across every dispatch
        setting (forced dense == forced event == cost-routed) but may
        differ from the legacy loop's full-``K`` GEMM in the last ulp.
        """
        images = self._checked_images(images, timesteps)
        encoder = encoder or DirectEncoder()
        if runtime_config().enabled:
            return self._forward_runtime(images, timesteps, encoder, record)
        return self.forward_legacy(images, timesteps, encoder, record)

    def forward_legacy(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        record: bool = False,
    ) -> DeployableOutput:
        """The original per-timestep loop (reference + fallback path)."""
        images = self._checked_images(images, timesteps)
        encoder = encoder or DirectEncoder()
        encoder.reset()
        n = images.shape[0]
        beta, theta = self.lif.beta, self.lif.threshold

        stats = SpikeStats(samples=n, timesteps=timesteps)
        input_totals: Dict[str, float] = {}
        trains: Optional[Dict[str, List[np.ndarray]]] = (
            {layer.name: [] for layer in self.layers} if record else None
        )
        membranes: Dict[str, Optional[np.ndarray]] = {
            layer.name: None for layer in self.layers
        }
        accumulated = np.zeros((n, self.population_size), dtype=np.float32)

        for t in range(timesteps):
            x = encoder.encode(images, t).data
            for layer in self.layers:
                if trains is not None:
                    trains[layer.name].append(x.copy())
                input_totals[layer.name] = (
                    input_totals.get(layer.name, 0.0) + float(x.sum())
                )
                current = self._layer_current(layer, x)
                previous = membranes[layer.name]
                integrated = current if previous is None else beta * previous + current
                spikes = (integrated > theta).astype(np.float32)
                membranes[layer.name] = integrated - spikes * theta
                stats.record(layer.name, t, spikes)
                x = spikes
                if layer.pool_after > 1:
                    x = _or_pool(x, layer.pool_after)
            accumulated += x

        logits = accumulated.reshape(n, self.num_classes, self.population_group).sum(
            axis=2
        )
        return DeployableOutput(
            logits=logits,
            stats=stats,
            input_spike_totals=input_totals,
            spike_trains=trains,
        )

    def _forward_runtime(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Encoder,
        record: bool,
    ) -> DeployableOutput:
        stacked, time_invariant = stack_encoder_frames(
            encoder, images, timesteps, record=record
        )
        if self._runtime_plan is None:
            self._runtime_plan = plan_deployable(self)
        engine = InferenceEngine(
            self._runtime_plan, buffers=self._runtime_buffers
        )
        result = engine.run(
            stacked,
            record=record,
            analog_first=encoder.analog_input,
            time_invariant=time_invariant,
        )
        n = images.shape[0]
        logits = result.accumulated.reshape(
            n, self.num_classes, self.population_group
        ).sum(axis=2)
        trains = (
            {name: list(arr) for name, arr in result.trains.items()}
            if result.trains is not None
            else None
        )
        return DeployableOutput(
            logits=logits,
            stats=result.stats,
            input_spike_totals=result.input_totals,
            spike_trains=trains,
            spike_trains_stacked=result.trains,
            runtime_counters=result.counters,
        )

    def invalidate_runtime_cache(self) -> None:
        """Drop the cached plan (call after mutating layer weights)."""
        self._runtime_plan = None
        self._runtime_buffers.clear()

    def weights_digest(self) -> str:
        """Content digest of the stored (quantized) parameters.

        Cheap (no dequantization) and stable across save/load; used to
        tie a ``.plan.npz`` sidecar to the exact model it was lowered
        from, so a retrain can never be served by a stale plan.
        """
        from repro.runtime import arrays_digest

        arrays = []
        for layer in self.layers:
            arrays.append(layer.weight_q)
            arrays.append(layer.bias_q)
            if layer.weight_scale is not None:
                arrays.append(layer.weight_scale)
            if layer.bias_scale is not None:
                arrays.append(layer.bias_scale)
        return arrays_digest(arrays)

    def attach_plan(self, plan) -> None:
        """Adopt a pre-lowered runtime plan (e.g. a ``.plan.npz`` sidecar).

        The plan must describe this network; origin (a deployable
        lowering, not a SpikingNetwork one), LIF constants and layer
        names/shapes are checked, a mismatched plan raises
        ``QuantizationError`` (weights are deliberately not compared --
        the sidecar *is* the lowered weight store; staleness is guarded
        by the ``model_digest`` check in :func:`repro.runtime.load_plan`).
        """
        if plan.source != "deployable" or plan.spike_rule != "threshold":
            raise QuantizationError(
                f"plan was lowered from {plan.source!r} (spike rule "
                f"{plan.spike_rule!r}); deployable networks require a "
                "deployable lowering"
            )
        if (
            plan.num_classes != self.num_classes
            or plan.population_group != self.population_group
            or plan.beta != self.lif.beta
            or plan.threshold != self.lif.threshold
        ):
            raise QuantizationError(
                "plan head/LIF constants do not match this network"
            )
        if len(plan.layers) != len(self.layers):
            raise QuantizationError(
                f"plan has {len(plan.layers)} layers; network has "
                f"{len(self.layers)}"
            )
        for plan_layer, layer in zip(plan.layers, self.layers):
            if (
                plan_layer.name != layer.name
                or plan_layer.kind != layer.kind
                or plan_layer.input_shape != tuple(layer.input_shape)
                or plan_layer.output_shape != tuple(layer.output_shape)
            ):
                raise QuantizationError(
                    f"plan layer {plan_layer.name!r} does not match network "
                    f"layer {layer.name!r}"
                )
        self._runtime_plan = plan

    def _layer_current(self, layer: DeployableLayer, x: np.ndarray) -> np.ndarray:
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

    def predict(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        batch_size: int = 128,
    ) -> np.ndarray:
        """Class predictions, batched to bound memory.

        Offsets are threaded per batch (``encoder.for_samples``) so
        counter-stream encodings do not depend on ``batch_size``.
        """
        encoder = encoder or DirectEncoder()
        outputs = []
        for start in range(0, len(images), batch_size):
            out = self.forward(
                images[start : start + batch_size],
                timesteps,
                encoder.for_samples(start),
            )
            outputs.append(out.logits.argmax(axis=1))
        return np.concatenate(outputs) if outputs else np.empty(0, dtype=int)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        arrays: Dict[str, np.ndarray] = {}
        meta = {
            "scheme": self.scheme.name,
            "num_classes": self.num_classes,
            "input_shape": list(self.input_shape),
            "lif_beta": self.lif.beta,
            "lif_threshold": self.lif.threshold,
            "layers": [],
        }
        for index, layer in enumerate(self.layers):
            prefix = f"layer{index}"
            arrays[f"{prefix}.weight_q"] = layer.weight_q
            arrays[f"{prefix}.bias_q"] = layer.bias_q
            if layer.weight_scale is not None:
                arrays[f"{prefix}.weight_scale"] = layer.weight_scale
                arrays[f"{prefix}.bias_scale"] = layer.bias_scale
            meta["layers"].append(
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "kernel": layer.kernel,
                    "padding": layer.padding,
                    "input_shape": list(layer.input_shape),
                    "output_shape": list(layer.output_shape),
                    "pool_after": layer.pool_after,
                    "is_input_layer": layer.is_input_layer,
                    "quantized": layer.weight_scale is not None,
                }
            )
        save_npz(path, arrays, meta)

    @classmethod
    def load(cls, path: str) -> "DeployableNetwork":
        arrays, meta = load_npz(path)
        layers = []
        for index, info in enumerate(meta["layers"]):
            prefix = f"layer{index}"
            quantized = info["quantized"]
            layers.append(
                DeployableLayer(
                    name=info["name"],
                    kind=info["kind"],
                    weight_q=arrays[f"{prefix}.weight_q"],
                    bias_q=arrays[f"{prefix}.bias_q"],
                    weight_scale=arrays.get(f"{prefix}.weight_scale") if quantized else None,
                    bias_scale=arrays.get(f"{prefix}.bias_scale") if quantized else None,
                    kernel=info["kernel"],
                    padding=info["padding"],
                    input_shape=tuple(info["input_shape"]),
                    output_shape=tuple(info["output_shape"]),
                    pool_after=info["pool_after"],
                    is_input_layer=info["is_input_layer"],
                )
            )
        return cls(
            layers,
            lif=LIFConfig(beta=meta["lif_beta"], threshold=meta["lif_threshold"]),
            num_classes=meta["num_classes"],
            scheme=scheme_by_name(meta["scheme"]),
            input_shape=tuple(meta["input_shape"]),
        )

    def describe(self) -> str:
        lines = [
            f"DeployableNetwork({self.scheme.name}, input={self.input_shape}, "
            f"classes={self.num_classes})"
        ]
        for layer in self.layers:
            pool = f" +pool{layer.pool_after}" if layer.pool_after > 1 else ""
            dense = " [dense-core]" if layer.is_input_layer else ""
            lines.append(
                f"  {layer.name:<10s} {layer.kind:<5s} "
                f"{layer.input_shape} -> {layer.output_shape}{pool}{dense}"
            )
        return "\n".join(lines)


def _or_pool(x: np.ndarray, window: int) -> np.ndarray:
    """OR-gate max pooling on binary maps (hardware Sec. IV-B)."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // window, window, w // window, window).max(axis=(3, 5))


def convert(network: SpikingNetwork, scheme: QuantScheme = FP32) -> DeployableNetwork:
    """Fold BN, quantize, and package ``network`` for deployment."""
    folded = fold_batchnorm(network)
    layers: List[DeployableLayer] = []
    pending: Optional[DeployableLayer] = None
    for stage in network.stages:
        if stage.spec.kind == "pool":
            if pending is None:
                raise QuantizationError("pool layer precedes any compute layer")
            pending.pool_after = stage.spec.kernel
            continue
        weight, bias = folded[stage.name]
        if scheme.is_float:
            weight_q, weight_scale = weight, None
            bias_q, bias_scale = bias, None
        else:
            weight_q, weight_scale = quantize_array(weight, scheme)
            bias_scheme = QuantScheme(bits=scheme.bits, per_channel=False)
            bias_q, bias_scale = quantize_array(bias, bias_scheme)
        layer = DeployableLayer(
            name=stage.name,
            kind="conv" if stage.spec.kind == "conv" else "fc",
            weight_q=weight_q,
            bias_q=bias_q,
            weight_scale=weight_scale,
            bias_scale=bias_scale,
            kernel=stage.spec.kernel if stage.spec.kind == "conv" else 0,
            padding=(stage.spec.kernel // 2) if stage.spec.kind == "conv" else 0,
            input_shape=stage.input_shape,
            output_shape=stage.output_shape,
            is_input_layer=not layers,
        )
        layers.append(layer)
        pending = layer
    return DeployableNetwork(
        layers,
        lif=network.lif_config,
        num_classes=network.num_classes,
        scheme=scheme,
        input_shape=network.input_shape,
    )
