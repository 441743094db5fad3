"""Experiment context tests (tiny scale -- fast end-to-end training)."""

import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.context import ExperimentContext
from repro.experiments.presets import PRESETS, get_preset


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    workspace = str(tmp_path_factory.mktemp("artifacts"))
    return ExperimentContext(scale="tiny", workspace=workspace, seed=0)


class TestPresets:
    def test_known_presets(self):
        assert set(PRESETS) == {"tiny", "small", "paper"}

    def test_population_divisible(self):
        preset = get_preset("small")
        assert preset.population(10) % 10 == 0
        assert preset.population(100) % 100 == 0

    def test_unknown_preset(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            get_preset("huge")

    def test_scale_ordering(self):
        assert (
            PRESETS["tiny"].image_size
            < PRESETS["small"].image_size
            < PRESETS["paper"].image_size
        )

    def test_rate_timesteps_exceed_direct(self):
        for preset in PRESETS.values():
            assert preset.rate_timesteps > preset.direct_timesteps


class TestContext:
    def test_dataset_split_sizes(self, ctx):
        train, test = ctx.dataset("cifar10")
        assert len(test) == ctx.preset.test_samples
        assert len(train) >= 10

    def test_dataset_memoised(self, ctx):
        a = ctx.dataset("cifar10")
        b = ctx.dataset("cifar10")
        assert a is b

    def test_unknown_dataset(self, ctx):
        with pytest.raises(ExperimentError):
            ctx.dataset("mnist")

    def test_trained_model_cached_on_disk(self, ctx):
        model = ctx.trained("cifar10", "fp32")
        path = ctx.model_path(ctx.model_key("cifar10", "fp32", "direct"))
        assert os.path.exists(path)
        # Second call loads from memory cache.
        assert ctx.trained("cifar10", "fp32") is model

    def test_disk_cache_survives_new_context(self, ctx):
        ctx.trained("cifar10", "fp32")
        fresh = ExperimentContext(
            scale="tiny", workspace=ctx.workspace, seed=0
        )
        model = fresh.trained("cifar10", "fp32")
        assert model.layers[0].name == "conv1_1"

    @pytest.mark.parametrize("leftover", ["garbage", "stale", "empty", "torn"])
    def test_leftover_plan_file_ignored(self, ctx, leftover):
        """A ``<model>.plan.npz`` left in a workspace by older versions is
        never read or rewritten: the model lowers itself and computes
        the same logits, byte for byte, whatever that file holds."""
        model = ctx.trained("cifar10", "int4")
        path = ctx.model_path(ctx.model_key("cifar10", "int4", "direct"))
        if leftover == "garbage":
            payload = b"\x00\x01not-a-zip-archive\xff" * 64
        elif leftover == "empty":
            payload = b""
        else:  # another model's archive, whole or cut short
            ctx.trained("cifar10", "fp32")
            fp32_path = ctx.model_path(ctx.model_key("cifar10", "fp32", "direct"))
            with open(fp32_path, "rb") as handle:
                payload = handle.read()
            if leftover == "torn":
                payload = payload[: len(payload) // 2]
        leftover_path = path[: -len(".npz")] + ".plan.npz"
        with open(leftover_path, "wb") as handle:
            handle.write(payload)
        try:
            fresh = ExperimentContext(
                scale="tiny", workspace=ctx.workspace, seed=0
            )
            reloaded = fresh.trained("cifar10", "int4")
            _, test = ctx.dataset("cifar10")
            steps = ctx.timesteps_for("direct")
            want = model.forward(test.images[:8], steps).logits
            got = reloaded.forward(test.images[:8], steps).logits
            assert got.tobytes() == want.tobytes()
            with open(leftover_path, "rb") as handle:
                assert handle.read() == payload
        finally:
            os.unlink(leftover_path)

    def test_evaluate_returns_metrics(self, ctx):
        result = ctx.evaluate("cifar10", "fp32", max_samples=40)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.spikes_per_image > 0
        assert "conv2_1" in result.per_layer_spikes
        assert "conv2_1" in result.input_events_per_image
        assert result.samples == 40

    def test_evaluate_empty_set(self, ctx):
        """An empty evaluation set has no shard to run: it reports zero
        samples at zero accuracy instead of failing."""
        result = ctx.evaluate("cifar10", "fp32", max_samples=0)
        assert result.samples == 0
        assert result.accuracy == 0.0
        assert result.per_layer_spikes == {}
        assert result.input_events_per_image == {}

    def test_evaluate_memoised(self, ctx):
        a = ctx.evaluate("cifar10", "fp32", max_samples=40)
        b = ctx.evaluate("cifar10", "fp32", max_samples=40)
        assert a is b

    def test_int4_model_trains(self, ctx):
        model = ctx.trained("cifar10", "int4")
        assert model.scheme.name == "int4"

    def test_sim_images_bounded(self, ctx):
        images, labels = ctx.sim_images("cifar10")
        assert len(images) <= ctx.preset.sim_samples
        assert len(images) == len(labels)

    def test_timesteps_for(self, ctx):
        assert ctx.timesteps_for("direct") == ctx.preset.direct_timesteps
        assert ctx.timesteps_for("rate") == ctx.preset.rate_timesteps


class TestDegradedEvaluation:
    """Poison shards under ``REPRO_ON_SHARD_FAILURE``: raise or degrade.

    Real end-to-end: a genuine worker pool, a deterministic fault plan
    SIGKILLing one shard's worker on every allowed attempt, and the
    context either propagating the typed quarantine or completing on
    the surviving shards.
    """

    @pytest.fixture(autouse=True)
    def _fast_recovery(self, monkeypatch):
        """No restart waits: these tests SIGKILL workers repeatedly and
        must not crawl through backoff sleeps."""
        from repro.parallel import shutdown_worker_service

        monkeypatch.setenv("REPRO_RETRY_BACKOFF_MS", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_MAX_MS", "0")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        shutdown_worker_service()
        yield
        shutdown_worker_service()

    def _fresh(self, ctx):
        """A context sharing ``ctx``'s trained artifacts, 4-shard evals."""
        fresh = ExperimentContext(
            scale="tiny", workspace=ctx.workspace, seed=0, eval_cache=False
        )
        fresh.eval_batch = 30  # 120 test samples -> 4 shards
        return fresh

    def test_poison_shard_raises_typed_by_default(self, ctx, monkeypatch):
        from repro.errors import PoisonTaskError

        ctx.trained("cifar10", "fp32")  # train once outside the fault plan
        monkeypatch.delenv("REPRO_ON_SHARD_FAILURE", raising=False)
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "crash@1:0,crash@1:1,crash@1:2"
        )
        with pytest.raises(PoisonTaskError) as excinfo:
            self._fresh(ctx).evaluate("cifar10", "fp32")
        err = excinfo.value
        assert err.quarantined == [1]
        survivors = [part for part in err.results if part is not None]
        assert len(survivors) == 3

    def test_skip_mode_completes_on_survivors(self, ctx, monkeypatch):
        clean = self._fresh(ctx).evaluate("cifar10", "fp32")
        assert clean.samples == 120
        monkeypatch.setenv("REPRO_ON_SHARD_FAILURE", "skip")
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "crash@1:0,crash@1:1,crash@1:2"
        )
        fresh = self._fresh(ctx)
        degraded = fresh.evaluate("cifar10", "fp32")
        assert degraded.samples == 90  # one 30-sample shard lost
        (record,) = fresh.failed_cells
        assert record["quarantined_shards"] == [1]
        assert record["samples_lost"] == 30
        assert list(record["fingerprints"]) == [1]
        # Degraded results are never memoised or persisted: with the
        # faults gone, the same context recomputes the full test set.
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        recovered = fresh.evaluate("cifar10", "fp32")
        assert recovered.samples == 120
        assert recovered.accuracy == clean.accuracy

    def test_skip_mode_never_caches_degraded_results(self, ctx, monkeypatch):
        import os as _os

        cached_ctx = ExperimentContext(
            scale="tiny", workspace=ctx.workspace, seed=0, eval_cache=True
        )
        cached_ctx.eval_batch = 30
        monkeypatch.setenv("REPRO_ON_SHARD_FAILURE", "skip")
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "crash@0:0,crash@0:1,crash@0:2"
        )
        degraded = cached_ctx.evaluate("cifar10", "fp32", max_samples=119)
        assert degraded.samples == 89
        entry = cached_ctx.eval_cache_file(
            "tiny_cifar10_fp32_direct_s0_n119_tNone"
        )
        assert not _os.path.exists(entry)

    def test_skip_with_no_survivors_still_raises(self, ctx, monkeypatch):
        from repro.errors import PoisonTaskError

        monkeypatch.setenv("REPRO_ON_SHARD_FAILURE", "skip")
        monkeypatch.setenv("REPRO_RETRY_MAX_ATTEMPTS", "2")
        monkeypatch.setenv("REPRO_FAULT_PLAN", "crash%1")  # every coordinate
        with pytest.raises(PoisonTaskError):
            self._fresh(ctx).evaluate("cifar10", "fp32")

    def test_on_shard_failure_env_validated(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.parallel.config import resolve_on_shard_failure

        monkeypatch.setenv("REPRO_ON_SHARD_FAILURE", "shrug")
        with pytest.raises(ConfigError):
            resolve_on_shard_failure()
        monkeypatch.setenv("REPRO_ON_SHARD_FAILURE", "skip")
        assert resolve_on_shard_failure() == "skip"
        monkeypatch.delenv("REPRO_ON_SHARD_FAILURE")
        assert resolve_on_shard_failure() == "raise"
