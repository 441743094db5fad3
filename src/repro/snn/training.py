"""Surrogate-gradient BPTT trainer.

Mirrors the paper's training setup (Sec. V-A): snnTorch-style direct
training with surrogate gradients, Adam, cross-entropy on the
population-count logits, layer-wise batch norm. Works identically for
float and quantization-aware (fake-quant wrapped) networks, which is how
the fp32-vs-int4 comparison keeps everything else equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.snn.encoding import Encoder, make_encoder
from repro.snn.network import SpikingNetwork
from repro.tensor import ops
from repro.tensor.optim import Adam
from repro.utils.rng import SeedLike, new_rng
from repro.utils.timing import Stopwatch


@dataclass
class TrainingConfig:
    """Hyper-parameters for one training run.

    Attributes:
        epochs: passes over the training set.
        batch_size: SGD minibatch size.
        lr: Adam learning rate.
        timesteps: BPTT unroll length T (paper: 2 for direct coding).
        encoder: 'direct' or 'rate'.
        seed: shuffling / rate-sampling seed.
        grad_clip: optional L-inf gradient clip (0 disables).
        verbose: print one line per epoch.
    """

    epochs: int = 5
    batch_size: int = 32
    lr: float = 2e-3
    timesteps: int = 2
    encoder: str = "direct"
    seed: SeedLike = 0
    grad_clip: float = 0.0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.timesteps < 1:
            raise ConfigError(f"timesteps must be >= 1, got {self.timesteps}")


@dataclass
class TrainingResult:
    """Loss/accuracy history of a completed run."""

    epoch_losses: List[float] = field(default_factory=list)
    epoch_train_accuracy: List[float] = field(default_factory=list)
    epoch_test_accuracy: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def final_test_accuracy(self) -> float:
        return self.epoch_test_accuracy[-1] if self.epoch_test_accuracy else 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Trains a :class:`SpikingNetwork` with BPTT + Adam.

    Args:
        network: the model (possibly QAT-wrapped; anything exposing the
            Module protocol with a ``forward(images, T, encoder)``).
        config: hyper-parameters.
        loss_fn: optional override; default cross-entropy on logits.
    """

    def __init__(
        self,
        network: SpikingNetwork,
        config: Optional[TrainingConfig] = None,
        loss_fn: Optional[Callable] = None,
    ) -> None:
        self.network = network
        self.config = config or TrainingConfig()
        self.loss_fn = loss_fn or ops.cross_entropy
        self.optimizer = Adam(network.parameters(), lr=self.config.lr)
        self._rng = new_rng(self.config.seed)

    def fit(
        self,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        test_images: Optional[np.ndarray] = None,
        test_labels: Optional[np.ndarray] = None,
    ) -> TrainingResult:
        """Run the full training loop; returns the per-epoch history."""
        cfg = self.config
        result = TrainingResult()
        watch = Stopwatch()
        with watch.section("fit"):
            n = len(train_images)
            encoder = self._make_encoder()
            for epoch in range(cfg.epochs):
                self.network.train(True)
                order = self._rng.permutation(n)
                losses: List[float] = []
                correct = 0
                for begin in range(0, n, cfg.batch_size):
                    batch_idx = order[begin : begin + cfg.batch_size]
                    images = train_images[batch_idx]
                    labels = train_labels[batch_idx]
                    # Counter-stream encoders key draws on the global sample
                    # index; advance it by (epoch, position-in-epoch) so
                    # every training step sees fresh encoding noise instead
                    # of replaying the indices of the first batch.
                    loss, batch_correct = self._step(
                        images, labels, encoder.for_samples(epoch * n + begin)
                    )
                    losses.append(loss)
                    correct += batch_correct
                result.epoch_losses.append(float(np.mean(losses)))
                result.epoch_train_accuracy.append(correct / n)
                if test_images is not None and test_labels is not None:
                    predictions = self.network.predict(
                        test_images, cfg.timesteps, self._make_encoder()
                    )
                    test_acc = float((predictions == test_labels).mean())
                    result.epoch_test_accuracy.append(test_acc)
                if cfg.verbose:
                    test_part = (
                        f", test acc {result.epoch_test_accuracy[-1] * 100.0:.1f}%"
                        if result.epoch_test_accuracy
                        else ""
                    )
                    print(
                        f"epoch {epoch + 1}/{cfg.epochs}: "
                        f"loss {result.epoch_losses[-1]:.4f}, "
                        f"train acc {result.epoch_train_accuracy[-1] * 100.0:.1f}%"
                        f"{test_part}"
                    )
        result.wall_seconds = watch.total("fit")
        return result

    def _step(self, images: np.ndarray, labels: np.ndarray, encoder: Encoder):
        """One optimisation step; returns (loss value, #correct)."""
        cfg = self.config
        self.optimizer.zero_grad()
        out = self.network.forward(images, cfg.timesteps, encoder)
        loss = self.loss_fn(out.logits, labels)
        loss.backward()
        if cfg.grad_clip > 0:
            for param in self.optimizer.params:
                if param.grad is not None:
                    np.clip(param.grad, -cfg.grad_clip, cfg.grad_clip, out=param.grad)
        self.optimizer.step()
        predictions = out.logits.data.argmax(axis=1)
        return float(loss.data), int((predictions == labels).sum())

    def _make_encoder(self) -> Encoder:
        return make_encoder(
            self.config.encoder, seed=self._rng.integers(0, 2**31 - 1)
        )

    def evaluate(
        self, images: np.ndarray, labels: np.ndarray, batch_size: int = 64
    ) -> float:
        """Test accuracy with the trainer's encoder/timesteps."""
        predictions = self.network.predict(
            images, self.config.timesteps, self._make_encoder(), batch_size
        )
        return float((predictions == labels).mean())
