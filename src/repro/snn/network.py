"""The spiking network: multi-timestep execution, recording, readout.

A :class:`SpikingNetwork` is built from parsed :class:`~repro.snn.arch.LayerSpec`
tokens. Execution unrolls ``T`` timesteps (BPTT when gradients are on),
threading LIF membrane state through time, and produces

* class logits from the population-coded output layer (spike counts
  summed over time and grouped per class, following reference [14]),
* per-layer spike statistics (Fig. 1 / workload model Eq. 3), and
* optionally the full per-layer input trains that the hardware simulator
  replays cycle-accurately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ArchitectureError, ShapeError
from repro.snn.arch import LayerSpec, VGG9_ARCH, parse_architecture
from repro.snn.encoding import DirectEncoder, Encoder
from repro.snn.layers import (
    BatchNorm2d,
    Module,
    SpikeMaxPool2d,
    SpikingConv2d,
    SpikingLinear,
)
from repro.snn.metrics import SpikeStats
from repro.snn.neuron import LIFConfig, LIFNeuron
from repro.snn.surrogate import Surrogate
from repro.tensor import Tensor, no_grad
from repro.utils.rng import SeedLike, fork_rng, new_rng


@dataclass
class _Stage:
    """One executable step of the network (compute layer or pool)."""

    spec: LayerSpec
    layer: Optional[Module] = None
    bn: Optional[BatchNorm2d] = None
    lif: Optional[LIFNeuron] = None
    pool: Optional[SpikeMaxPool2d] = None
    input_shape: Tuple[int, ...] = ()
    output_shape: Tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_compute(self) -> bool:
        return self.spec.is_compute


@dataclass
class NetworkOutput:
    """Everything one forward pass produces.

    Attributes:
        logits: (N, num_classes) class scores (accumulated population
            spike counts); a Tensor so losses can backpropagate.
        stats: spike statistics for this batch.
        input_spike_totals: per compute layer, the number of *input*
            events it consumed (drives the Eq. 3 workload model). The
            analog input layer under direct coding reports pixel count.
        spike_trains: when recording, per compute layer a list of T
            arrays holding the layer's input at each timestep (binary for
            sparse layers; analog frame for the direct-coded input layer),
            as float32.
        output_spike_counts: (N, P) spike counts of the output layer.
    """

    logits: Tensor
    stats: SpikeStats
    input_spike_totals: Dict[str, float] = field(default_factory=dict)
    spike_trains: Optional[Dict[str, List[np.ndarray]]] = None
    output_spike_counts: Optional[np.ndarray] = None


class SpikingNetwork(Module):
    """A feed-forward SNN assembled from an architecture string.

    Args:
        specs: parsed layer specs (see :func:`repro.snn.arch.parse_architecture`).
        input_shape: (channels, height, width) of one input frame.
        num_classes: classification classes; the population layer size
            must be divisible by this.
        lif: LIF hyper-parameters shared by all layers (paper: beta=0.15,
            theta=0.5).
        surrogate: surrogate gradient; default fast sigmoid.
        use_batchnorm: attach layer-wise BN after each convolution
            (Sec. V-A); folded away at deployment.
        seed: weight-initialisation seed.
    """

    def __init__(
        self,
        specs: Sequence[LayerSpec],
        input_shape: Tuple[int, int, int],
        num_classes: int,
        lif: Optional[LIFConfig] = None,
        surrogate: Optional[Surrogate] = None,
        use_batchnorm: bool = True,
        seed: SeedLike = None,
    ) -> None:
        if len(input_shape) != 3:
            raise ShapeError(f"input_shape must be (C, H, W), got {input_shape}")
        self.specs = list(specs)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.num_classes = int(num_classes)
        self.lif_config = lif or LIFConfig()
        self.surrogate = surrogate
        self.use_batchnorm = use_batchnorm
        rng = new_rng(seed)
        self.stages: List[_Stage] = self._build(rng)
        self._validate_output()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, rng: np.random.Generator) -> List[_Stage]:
        stages: List[_Stage] = []
        channels, height, width = self.input_shape
        flattened = False
        for spec in self.specs:
            if spec.kind == "conv":
                if flattened:
                    raise ArchitectureError(
                        f"conv layer {spec.name} after a fully connected layer"
                    )
                layer = SpikingConv2d(
                    channels,
                    spec.units,
                    kernel_size=spec.kernel,
                    seed=fork_rng(rng, spec.name),
                )
                bn = BatchNorm2d(spec.units) if self.use_batchnorm else None
                stage = _Stage(
                    spec=spec,
                    layer=layer,
                    bn=bn,
                    lif=LIFNeuron(self.lif_config, self.surrogate),
                    input_shape=(channels, height, width),
                    output_shape=(spec.units, height, width),
                )
                channels = spec.units
            elif spec.kind == "pool":
                if height % spec.kernel or width % spec.kernel:
                    raise ArchitectureError(
                        f"pool {spec.name} window {spec.kernel} does not divide "
                        f"spatial size {(height, width)}"
                    )
                stage = _Stage(
                    spec=spec,
                    pool=SpikeMaxPool2d(spec.kernel),
                    input_shape=(channels, height, width),
                    output_shape=(
                        channels,
                        height // spec.kernel,
                        width // spec.kernel,
                    ),
                )
                height //= spec.kernel
                width //= spec.kernel
            else:  # fc / population
                in_features = channels * height * width if not flattened else channels
                layer = SpikingLinear(
                    in_features, spec.units, seed=fork_rng(rng, spec.name)
                )
                stage = _Stage(
                    spec=spec,
                    layer=layer,
                    lif=LIFNeuron(self.lif_config, self.surrogate),
                    input_shape=(in_features,),
                    output_shape=(spec.units,),
                )
                channels = spec.units
                height = width = 1
                flattened = True
            stages.append(stage)
        return stages

    def _validate_output(self) -> None:
        last = self.stages[-1]
        if not last.is_compute:
            raise ArchitectureError("network must end with a compute layer")
        out_units = last.spec.units
        if out_units % self.num_classes:
            raise ArchitectureError(
                f"output layer size {out_units} is not divisible by "
                f"num_classes={self.num_classes} (population coding needs "
                "equal groups)"
            )
        self.population_size = out_units
        self.population_group = out_units // self.num_classes

    # ------------------------------------------------------------------
    # Module protocol
    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for stage in self.stages:
            if stage.layer is not None:
                params.extend(stage.layer.parameters())
            if stage.bn is not None:
                params.extend(stage.bn.parameters())
        return params

    def train(self, mode: bool = True) -> "SpikingNetwork":
        self.training = mode
        for stage in self.stages:
            if stage.layer is not None:
                stage.layer.train(mode)
            if stage.bn is not None:
                stage.bn.train(mode)
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for stage in self.stages:
            if stage.layer is not None:
                for key, value in stage.layer.state_dict().items():
                    state[f"{stage.name}.{key}"] = value
            if stage.bn is not None:
                for key, value in stage.bn.state_dict().items():
                    state[f"{stage.name}.bn.{key}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for stage in self.stages:
            if stage.layer is not None:
                sub = _extract(state, f"{stage.name}.", exclude=f"{stage.name}.bn.")
                stage.layer.load_state_dict(sub)
            if stage.bn is not None:
                stage.bn.load_state_dict(_extract(state, f"{stage.name}.bn."))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        record: bool = False,
    ) -> NetworkOutput:
        """Run ``timesteps`` steps of the network on an image batch.

        Training and inference run the same time-major Tensor loop; under
        :func:`~repro.tensor.no_grad` it records no autograd tape.
        Deployed inference runs on the fused runtime through
        :class:`~repro.quant.convert.DeployableNetwork`.

        Args:
            images: (N, C, H, W) float array (analog frames in [0, 1]).
            timesteps: T >= 1; the paper uses T=2 for direct coding and
                T=25 for the rate-coding comparison.
            encoder: input encoder; defaults to direct coding.
            record: additionally capture per-layer input trains (needed to
                replay the batch on the hardware model).
        """
        if timesteps < 1:
            raise ShapeError(f"timesteps must be >= 1, got {timesteps}")
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4 or images.shape[1:] != self.input_shape:
            raise ShapeError(
                f"expected images of shape (N, {self.input_shape}), got {images.shape}"
            )
        if images.shape[0] == 0:
            raise ShapeError("expected at least one image, got an empty batch")
        encoder = encoder or DirectEncoder()
        stats = SpikeStats(samples=images.shape[0], timesteps=timesteps)
        input_totals: Dict[str, float] = {}
        trains: Optional[Dict[str, List[np.ndarray]]] = (
            {s.name: [] for s in self.stages if s.is_compute} if record else None
        )
        membranes: Dict[str, Optional[Tensor]] = {
            stage.name: None for stage in self.stages if stage.is_compute
        }
        accumulated: Optional[Tensor] = None

        for t in range(timesteps):
            x = encoder.encode(images, t)
            for stage in self.stages:
                if stage.pool is not None:
                    x = stage.pool(x)
                    continue
                if trains is not None:
                    trains[stage.name].append(x.data.copy())
                input_totals[stage.name] = (
                    input_totals.get(stage.name, 0.0) + float(x.data.sum())
                )
                current = stage.layer(x)
                if stage.bn is not None:
                    current = stage.bn(current)
                spikes, membranes[stage.name] = stage.lif.step(
                    current, membranes[stage.name]
                )
                stats.record(stage.name, t, spikes.data)
                x = spikes
            accumulated = x if accumulated is None else accumulated + x

        logits = self._readout(accumulated)
        return NetworkOutput(
            logits=logits,
            stats=stats,
            input_spike_totals=input_totals,
            spike_trains=trains,
            output_spike_counts=accumulated.data.copy(),
        )

    __call__ = forward

    def _readout(self, counts: Tensor) -> Tensor:
        """Population readout: sum each class's neuron group (ref. [14])."""
        n = counts.shape[0]
        grouped = counts.reshape(n, self.num_classes, self.population_group)
        return grouped.sum(axis=2)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def predict(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        batch_size: int = 64,
    ) -> np.ndarray:
        """Inference-mode class predictions over a (possibly large) set:
        the Tensor loop of :meth:`forward` in eval mode under ``no_grad``.

        Batches thread the global sample offset into the encoder
        (``for_samples``), so counter-stream encodings are independent
        of ``batch_size`` -- sample ``i`` draws the same spikes whether
        the set is predicted in one pass or in chunks.
        """
        was_training = self.training
        self.eval()
        encoder = encoder or DirectEncoder()
        predictions: List[np.ndarray] = []
        try:
            with no_grad():
                for start in range(0, len(images), batch_size):
                    batch = images[start : start + batch_size]
                    out = self.forward(
                        batch, timesteps, encoder.for_samples(start)
                    )
                    predictions.append(out.logits.data.argmax(axis=1))
        finally:
            self.train(was_training)
        return np.concatenate(predictions) if predictions else np.empty(0, dtype=int)

    def compute_stages(self) -> List[_Stage]:
        """Weight-bearing stages in execution order."""
        return [stage for stage in self.stages if stage.is_compute]

    def describe(self) -> str:
        lines = [f"SpikingNetwork(input={self.input_shape}, classes={self.num_classes})"]
        for stage in self.stages:
            shape = " -> ".join(str(s) for s in (stage.input_shape, stage.output_shape))
            lines.append(f"  {stage.name:<10s} {stage.spec.kind:<10s} {shape}")
        return "\n".join(lines)


def _extract(
    state: Dict[str, np.ndarray], prefix: str, exclude: str = "\0"
) -> Dict[str, np.ndarray]:
    return {
        key[len(prefix) :]: value
        for key, value in state.items()
        if key.startswith(prefix) and not key.startswith(exclude)
    }


def build_network(
    arch: str,
    input_shape: Tuple[int, int, int],
    num_classes: int,
    population: Optional[int] = None,
    channel_scale: float = 1.0,
    lif: Optional[LIFConfig] = None,
    surrogate: Optional[Surrogate] = None,
    use_batchnorm: bool = True,
    seed: SeedLike = None,
) -> SpikingNetwork:
    """Parse ``arch`` and construct the network in one call."""
    specs = parse_architecture(arch, population=population, channel_scale=channel_scale)
    return SpikingNetwork(
        specs,
        input_shape=input_shape,
        num_classes=num_classes,
        lif=lif,
        surrogate=surrogate,
        use_batchnorm=use_batchnorm,
        seed=seed,
    )


def build_vgg9(
    num_classes: int = 10,
    population: int = 1000,
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    channel_scale: float = 1.0,
    lif: Optional[LIFConfig] = None,
    surrogate: Optional[Surrogate] = None,
    seed: SeedLike = None,
) -> SpikingNetwork:
    """The paper's VGG9 (Sec. V-A), optionally channel-scaled.

    Population defaults: 1000 for SVHN/CIFAR10, 5000 for CIFAR100.
    """
    return build_network(
        VGG9_ARCH,
        input_shape=input_shape,
        num_classes=num_classes,
        population=population,
        channel_scale=channel_scale,
        lif=lif,
        surrogate=surrogate,
        seed=seed,
    )
