"""Spike statistics and classification metrics.

The paper's headline sparsity results (Fig. 1) are phrased in *total
spike counts*; :class:`SpikeStats` collects them per layer and per
timestep so both the figure harness and the hardware workload model
(Eq. 3 needs per-input-feature-map spike counts) can be fed from one
recording pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class SpikeStats:
    """Accumulated spike counts for one network evaluation.

    Counts are totals over all processed samples; ``per_layer`` maps layer
    name -> spikes *emitted by that layer's LIF output*, and
    ``per_layer_timestep`` keeps the timestep split needed for latency
    modelling. ``samples`` lets callers derive per-image averages.

    Every recorded count is an exact integer, stored as a float: the
    inference engine passes the number of spikes it counted, and the
    float32 ``spikes.sum()`` recorded otherwise equals that number while
    a layer-timestep has fewer than 2^24 spikes (float32 counts ones
    exactly up to there).
    """

    per_layer: Dict[str, float] = field(default_factory=dict)
    per_layer_timestep: Dict[str, List[float]] = field(default_factory=dict)
    neuron_counts: Dict[str, int] = field(default_factory=dict)
    samples: int = 0
    timesteps: int = 0

    def record(
        self,
        layer: str,
        t: int,
        spikes: Optional[np.ndarray] = None,
        count: Optional[int] = None,
        neurons: Optional[int] = None,
    ) -> None:
        """Accumulate ``layer``'s spikes at ``t``: a (batch, ...) binary
        spike tensor, or -- when the caller counted them while writing
        its trains -- their ``count`` and the layer's per-sample
        ``neurons``."""
        if spikes is not None:
            count = spikes.sum() if count is None else count
            neurons = int(np.prod(spikes.shape[1:]))
        count = float(count)
        self.per_layer[layer] = self.per_layer.get(layer, 0.0) + count
        series = self.per_layer_timestep.setdefault(layer, [])
        while len(series) <= t:
            series.append(0.0)
        series[t] += count
        self.neuron_counts[layer] = int(neurons)

    def merge(self, other: "SpikeStats") -> None:
        for layer, count in other.per_layer.items():
            self.per_layer[layer] = self.per_layer.get(layer, 0.0) + count
        for layer, series in other.per_layer_timestep.items():
            mine = self.per_layer_timestep.setdefault(layer, [])
            while len(mine) < len(series):
                mine.append(0.0)
            for t, value in enumerate(series):
                mine[t] += value
        self.neuron_counts.update(other.neuron_counts)
        self.samples += other.samples
        self.timesteps = max(self.timesteps, other.timesteps)

    @property
    def total_spikes(self) -> float:
        return sum(self.per_layer.values())

    def spikes_per_image(self) -> float:
        if self.samples == 0:
            return 0.0
        return self.total_spikes / self.samples

    def layer_spikes_per_image(self, layer: str) -> float:
        if self.samples == 0:
            return 0.0
        return self.per_layer.get(layer, 0.0) / self.samples

    def sparsity(self, layer: str) -> float:
        """Fraction of *silent* neuron-timesteps for ``layer`` (1 = all silent)."""
        neurons = self.neuron_counts.get(layer)
        if not neurons or not self.samples or not self.timesteps:
            return 0.0
        opportunities = neurons * self.samples * self.timesteps
        return 1.0 - self.per_layer.get(layer, 0.0) / opportunities

    def summary(self) -> str:
        lines = [f"total spikes: {self.total_spikes:.0f} over {self.samples} image(s)"]
        for layer in sorted(self.per_layer):
            lines.append(
                f"  {layer}: {self.layer_spikes_per_image(layer):.1f} spikes/image, "
                f"sparsity {self.sparsity(layer) * 100.0:.1f}%"
            )
        return "\n".join(lines)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of (N, C) scores against integer labels (N,)."""
    if len(logits) == 0:
        return 0.0
    predictions = np.asarray(logits).argmax(axis=1)
    return float((predictions == np.asarray(labels)).mean())
