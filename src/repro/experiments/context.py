"""Shared experiment context: datasets, trained models, disk cache.

Training is the expensive step, so deployed models are cached on disk
keyed by (scale, dataset, scheme, coding, seed); every harness that needs
"the int4 CIFAR10 model" gets the same artifact. Test-set evaluation
results are memoised in this process *and* persisted as ``.eval.json``
sidecars next to the model artifacts (:mod:`repro.experiments.evalcache`),
so pooled workers and later runs share evaluations instead of redoing
them.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.datasets import Dataset, make_dataset, train_test_split
from repro.errors import ExperimentError, PoisonTaskError, ReproError
from repro.experiments.evalcache import (
    EvaluationResult,
    eval_cache_enabled,
    eval_cache_path,
    invalidate_evaluations,
    save_evaluation,
    try_load_evaluation,
)
from repro.experiments.presets import ScalePreset, get_preset
from repro.parallel import merge_outputs, shard_slices, sharded_forward
from repro.parallel.config import resolve_on_shard_failure
from repro.quant import DeployableNetwork, convert, prepare_qat
from repro.quant.schemes import QuantScheme, scheme_by_name
from repro.runtime import (
    plan_deployable,
    plan_sidecar_path,
    runtime_config,
    save_plan,
    try_load_plan,
)
from repro.snn import (
    Trainer,
    TrainingConfig,
    build_vgg9,
    make_encoder,
)
from repro.snn.metrics import SpikeStats

_DATASET_CLASSES = {"svhn": 10, "cifar10": 10, "cifar100": 100}

__all__ = ["EvaluationResult", "ExperimentContext"]


class ExperimentContext:
    """Caches datasets and trained models across experiment harnesses.

    Args:
        scale: preset name ('tiny' | 'small' | 'paper').
        workspace: directory for cached artifacts.
        seed: master seed; every derived model/dataset is deterministic
            in (scale, seed).
        verbose: print progress (training epochs etc.).
        eval_cache: persist test-set evaluations as ``.eval.json``
            sidecars in the workspace and reuse them across processes;
            ``None`` resolves the ``REPRO_EVAL_CACHE`` environment
            default (on).
        encoder_seed: base seed of the counter-based stochastic encoding
            streams used for test-set evaluation (rate coding); ``None``
            derives the historical default ``seed + 99``. Every
            (sample, timestep) draw is a pure function of
            ``(encoder_seed, global sample index, timestep)``, so the
            same value reproduces the same spike trains at any shard or
            worker geometry -- the CLI exposes it as ``--encoder-seed``.
    """

    def __init__(
        self,
        scale: str = "small",
        workspace: str = "artifacts",
        seed: int = 0,
        verbose: bool = False,
        eval_cache: Optional[bool] = None,
        encoder_seed: Optional[int] = None,
    ) -> None:
        self.preset: ScalePreset = get_preset(scale)
        self.workspace = workspace
        self.seed = seed
        self.verbose = verbose
        self.encoder_seed = encoder_seed
        self.eval_cache = (
            eval_cache_enabled() if eval_cache is None else bool(eval_cache)
        )
        self._datasets: Dict[str, Tuple[Dataset, Dataset]] = {}
        self._models: Dict[str, DeployableNetwork] = {}
        # Keyed (cache_key, numeric signature): forced-integer and float
        # evaluations of the same model never alias in the memo.
        self._evaluations: Dict[Tuple[str, str], EvaluationResult] = {}
        # Cells that degraded under REPRO_ON_SHARD_FAILURE=skip: one
        # record per evaluation that lost quarantined shards (cache key,
        # shard indices, payload fingerprints, samples lost). A sweep
        # that completes with this non-empty completed *degraded*.
        self.failed_cells: list = []
        # Shard granularity of test-set evaluation: the historical
        # serial loop's 128-sample batches. Results are invariant to it
        # (counter-stream encoding); tests shrink it to exercise
        # multi-shard behaviour on tiny test sets.
        self.eval_batch = 128

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    def dataset(self, name: str) -> Tuple[Dataset, Dataset]:
        """(train, test) splits for a dataset name, memoised."""
        if name not in _DATASET_CLASSES:
            raise ExperimentError(f"unknown dataset {name!r}")
        if name not in self._datasets:
            classes = _DATASET_CLASSES[name]
            preset = self.preset
            total = preset.train_samples_for(classes) + preset.test_samples
            data = make_dataset(
                name, total, image_size=preset.image_size, seed=self.seed
            )
            test_fraction = preset.test_samples / total
            self._datasets[name] = train_test_split(
                data, test_fraction, seed=self.seed + 1
            )
        return self._datasets[name]

    def num_classes(self, name: str) -> int:
        return _DATASET_CLASSES[name]

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def model_key(self, dataset: str, scheme: str, coding: str) -> str:
        return f"{self.preset.name}_{dataset}_{scheme}_{coding}_s{self.seed}"

    def model_path(self, key: str) -> str:
        return os.path.join(self.workspace, "models", f"{key}.npz")

    def trained(
        self, dataset: str, scheme: str = "fp32", coding: str = "direct"
    ) -> DeployableNetwork:
        """A trained, converted model (loaded from cache when possible)."""
        key = self.model_key(dataset, scheme, coding)
        if key in self._models:
            return self._models[key]
        path = self.model_path(key)
        if os.path.exists(path):
            model = DeployableNetwork.load(path)
        else:
            model = self._train(dataset, scheme_by_name(scheme), coding)
            model.save(path)
        self._ensure_plan_sidecar(model, path)
        self._models[key] = model
        return model

    def _ensure_plan_sidecar(self, model: DeployableNetwork, path: str) -> None:
        """Attach (and persist) the lowered runtime plan next to ``path``.

        Cold-started worker processes load the ``.plan.npz`` sidecar and
        skip lowering + BLAS-fold calibration; a stale or mismatched
        sidecar (digest of the stored parameters differs -- e.g. a
        retrain under an old sidecar), or one in an older format, is
        silently rebuilt from the model and re-saved.
        """
        sidecar = plan_sidecar_path(path)
        digest = model.weights_digest()
        loaded = try_load_plan(sidecar, model_digest=digest)
        if loaded is not None:
            try:
                model.attach_plan(loaded)
                return
            except ReproError:
                pass  # stale artifact from an older model: rebuild below
        plan = plan_deployable(model)
        model.attach_plan(plan)
        save_plan(plan, sidecar, model_digest=digest)

    def _train(
        self, dataset: str, scheme: QuantScheme, coding: str
    ) -> DeployableNetwork:
        preset = self.preset
        train, _test = self.dataset(dataset)
        classes = self.num_classes(dataset)
        if self.verbose:
            print(
                f"[ctx] training {dataset} {scheme.name} {coding} "
                f"({preset.name} scale, {len(train)} samples)"
            )
        network = build_vgg9(
            num_classes=classes,
            population=preset.population(classes),
            input_shape=(3, preset.image_size, preset.image_size),
            channel_scale=preset.channel_scale,
            seed=self.seed,
        )
        if not scheme.is_float:
            prepare_qat(network, scheme)
        timesteps = (
            preset.direct_timesteps
            if coding == "direct"
            else preset.rate_timesteps
        )
        epochs = (
            preset.epochs_for(classes)
            if coding == "direct"
            else preset.rate_epochs
        )
        # 100-way classification needs a gentler step to avoid the
        # uniform-logits collapse mode of deep SNN training.
        lr = preset.lr * (0.5 if classes >= 100 else 1.0)
        config = TrainingConfig(
            epochs=epochs,
            batch_size=preset.batch_size,
            lr=lr,
            timesteps=timesteps,
            encoder=coding,
            seed=self.seed,
            verbose=self.verbose,
        )
        Trainer(network, config).fit(train.images, train.labels)
        network.eval()
        return convert(network, scheme)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def numeric_signature(model: DeployableNetwork) -> str:
        """Identity of the numeric path an evaluation of ``model`` runs on.

        ``"float32"`` for float models and for ``int_kernels`` 'off' or
        'auto' -- 'auto' only takes the integer path where it proved
        bit-exact against float, so its numbers *are* float numbers.
        Forced integer runs (``int_kernels='on'``) may legitimately
        differ, so they are signed with the quantization scheme and a
        fingerprint of the dequantization scales: cache entries from
        either path are never served to the other.
        """
        if model.scheme.is_float or runtime_config().int_kernels != "on":
            return "float32"
        digest = hashlib.sha256()
        for layer in model.layers:
            if layer.weight_scale is not None:
                scale = np.ascontiguousarray(
                    np.asarray(layer.weight_scale, dtype=np.float32)
                )
                digest.update(scale.tobytes())
        return (
            f"int-forced/{model.scheme.name}/"
            f"scales={digest.hexdigest()[:16]}"
        )

    def timesteps_for(self, coding: str) -> int:
        return (
            self.preset.direct_timesteps
            if coding == "direct"
            else self.preset.rate_timesteps
        )

    def evaluation_encoder(self, coding: str):
        """The encoder every test-set evaluation of this context uses.

        Stochastic schemes key their counter streams on the resolved
        encoder seed (``encoder_seed`` or the historical ``seed + 99``
        default), so two contexts with equal (seed, encoder_seed)
        produce byte-identical encoded trains -- in any process, at any
        shard geometry.
        """
        resolved = (
            self.seed + 99 if self.encoder_seed is None else self.encoder_seed
        )
        return make_encoder(coding, seed=resolved)

    def evaluate(
        self,
        dataset: str,
        scheme: str = "fp32",
        coding: str = "direct",
        max_samples: Optional[int] = None,
        timesteps: Optional[int] = None,
    ) -> EvaluationResult:
        """Test-set accuracy + spike statistics of a cached model.

        Results are memoised in-process and -- unless the evaluation
        cache is disabled -- persisted as a ``.eval.json`` sidecar next
        to the model artifact, guarded by the model's weights digest
        (a retrain invalidates the entry) and the encoding stream
        signature (a different ``encoder_seed`` or scheme invalidates
        it). A warm entry is returned bit-identically without touching
        the test set.
        """
        # An explicit encoder seed gets its own entry (default-seed runs
        # keep the historical key, so existing warm workspaces stay
        # warm): alternating --encoder-seed values coexist on disk
        # instead of thrashing one file through the signature guard.
        encoder_part = (
            "" if self.encoder_seed is None else f"_e{self.encoder_seed}"
        )
        cache_key = (
            f"{self.model_key(dataset, scheme, coding)}"
            f"{encoder_part}_n{max_samples}_t{timesteps}"
        )
        # Forced-integer runs produce (legitimately) different numbers
        # than the float/auto path, so they memoise and guard under
        # their own numeric signature -- a float entry is never served
        # to an integer run, and vice versa. The common float path skips
        # materialising the model for pure memo hits.
        forced_int = (
            runtime_config().int_kernels == "on"
            and not scheme_by_name(scheme).is_float
        )
        model = self.trained(dataset, scheme, coding) if forced_int else None
        numeric = (
            self.numeric_signature(model) if forced_int else "float32"
        )
        memo_key = (cache_key, numeric)
        if memo_key in self._evaluations:
            return self._evaluations[memo_key]
        if model is None:
            model = self.trained(dataset, scheme, coding)
        encoder = self.evaluation_encoder(coding)
        if self.eval_cache:
            cached = try_load_evaluation(
                self.eval_cache_file(cache_key),
                model_digest=model.weights_digest(),
                encoding=encoder.stream_signature(),
                numeric=numeric,
            )
            if cached is not None:
                if self.verbose:
                    print(f"[ctx] eval cache hit: {cache_key}")
                self._evaluations[memo_key] = cached
                return cached
        _train, test = self.dataset(dataset)
        images, labels = test.images, test.labels
        if max_samples is not None:
            images, labels = images[:max_samples], labels[:max_samples]
        steps = timesteps or self.timesteps_for(coding)
        batch = self.eval_batch
        degraded = None
        if not len(images):
            # An empty evaluation set has no shard to run.
            stats, input_events, correct, samples = SpikeStats(), {}, 0, 0
        else:
            # Every encoding -- direct, TTFS and counter-stream rate
            # coding -- splits freely: shard at the same 128-sample
            # granularity a serial batch loop uses (the merge is
            # bit-identical to it) and let REPRO_WORKERS decide how many
            # processes serve the shards. Workers cold-start from the
            # cached .npz + .plan.npz sidecar.
            model_path = self.model_path(self.model_key(dataset, scheme, coding))
            try:
                out = sharded_forward(
                    model,
                    images,
                    steps,
                    encoder,
                    shard_size=batch,
                    model_path=model_path if os.path.exists(model_path) else None,
                )
                eval_labels = labels
            except PoisonTaskError as exc:
                # Self-healing already retried the lost shards; landing
                # here means some shard killed its worker on every
                # allowed attempt. Under REPRO_ON_SHARD_FAILURE=skip the
                # sweep degrades instead of dying: the surviving shards
                # (pure functions of their coordinates, so still
                # byte-exact) are merged, the failure is recorded in
                # ``failed_cells``, and the degraded result is *not*
                # persisted to the eval cache.
                if resolve_on_shard_failure() != "skip":
                    raise
                pieces = shard_slices(len(images), shard_size=batch)
                survivors = [
                    (piece, part)
                    for piece, part in zip(pieces, exc.results)
                    if part is not None
                ]
                if not survivors:
                    raise
                out = merge_outputs([part for _, part in survivors])
                eval_labels = np.concatenate(
                    [labels[piece] for piece, _ in survivors]
                )
                degraded = {
                    "cache_key": cache_key,
                    "quarantined_shards": list(exc.quarantined),
                    "fingerprints": dict(exc.fingerprints),
                    "samples_lost": int(len(images) - len(eval_labels)),
                }
                self.failed_cells.append(degraded)
                if self.verbose:
                    print(
                        f"[ctx] degraded evaluation {cache_key}: shards "
                        f"{degraded['quarantined_shards']} quarantined, "
                        f"{degraded['samples_lost']} samples lost"
                    )
            stats = out.stats
            input_events = dict(out.input_spike_totals)
            correct = int((out.logits.argmax(axis=1) == eval_labels).sum())
            samples = int(out.logits.shape[0])
        result = EvaluationResult(
            accuracy=correct / samples if samples else 0.0,
            spikes_per_image=stats.spikes_per_image(),
            per_layer_spikes={
                layer: stats.layer_spikes_per_image(layer)
                for layer in stats.per_layer
            },
            input_events_per_image={
                name: value / samples for name, value in input_events.items()
            },
            samples=samples,
        )
        if self.eval_cache and degraded is None:
            # Degraded (partial-shard) results are never persisted: the
            # cache must only ever serve full-test-set numbers.
            save_evaluation(
                self.eval_cache_file(cache_key),
                result,
                model_digest=model.weights_digest(),
                encoding=encoder.stream_signature(),
                numeric=numeric,
            )
        if degraded is None:
            self._evaluations[memo_key] = result
        return result

    def eval_cache_file(self, cache_key: str) -> str:
        """Disk path of one evaluation-cache entry in this workspace."""
        return eval_cache_path(
            os.path.join(self.workspace, "models"), cache_key
        )

    def invalidate_eval_cache(self) -> int:
        """Drop every persisted evaluation in this workspace (and the
        in-process memo); returns the number of disk entries removed."""
        self._evaluations.clear()
        return invalidate_evaluations(os.path.join(self.workspace, "models"))

    def sim_images(self, dataset: str) -> Tuple[np.ndarray, np.ndarray]:
        """A fixed batch for hardware simulation runs."""
        _train, test = self.dataset(dataset)
        n = min(self.preset.sim_samples, len(test))
        return test.images[:n], test.labels[:n]
