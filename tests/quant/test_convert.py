"""Deployable-network conversion tests: the golden functional model."""

import os

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.quant import (
    DeployableNetwork,
    FP32,
    INT4,
    convert,
)
from repro.runtime import runtime_overrides
from repro.snn import build_network
from repro.snn.encoding import RateEncoder
from repro.tensor import no_grad


class TestConvertStructure:
    def test_layer_list(self, tiny_deployable):
        names = [layer.name for layer in tiny_deployable.layers]
        assert names == ["conv1_1", "conv2_1", "fc1"]

    def test_pool_attachment(self, tiny_deployable):
        pools = {l.name: l.pool_after for l in tiny_deployable.layers}
        assert pools == {"conv1_1": 2, "conv2_1": 2, "fc1": 1}

    def test_input_layer_flag(self, tiny_deployable):
        flags = [l.is_input_layer for l in tiny_deployable.layers]
        assert flags == [True, False, False]

    def test_fp32_has_no_scales(self, tiny_deployable):
        assert all(l.weight_scale is None for l in tiny_deployable.layers)

    def test_int4_has_scales_and_integers(self, tiny_deployable_int4):
        for layer in tiny_deployable_int4.layers:
            assert layer.weight_scale is not None
            assert np.abs(layer.weight_q).max() <= 7

    def test_describe(self, tiny_deployable):
        text = tiny_deployable.describe()
        assert "dense-core" in text
        assert "fp32" in text


class TestFunctionalEquivalence:
    def test_fp32_deploy_matches_eval_network(
        self, tiny_trained_network, tiny_deployable, tiny_dataset
    ):
        _, test = tiny_dataset
        images = test.images[:16]
        with no_grad():
            reference = tiny_trained_network.forward(images, 2)
        deployed = tiny_deployable.forward(images, 2)
        np.testing.assert_allclose(
            deployed.logits, reference.logits.data, atol=1e-3
        )
        assert deployed.stats.total_spikes == reference.stats.total_spikes

    def test_int4_accuracy_close_to_fp32(
        self, tiny_deployable, tiny_deployable_int4, tiny_dataset
    ):
        _, test = tiny_dataset
        fp32_acc = (
            tiny_deployable.predict(test.images, 2) == test.labels
        ).mean()
        int4_acc = (
            tiny_deployable_int4.predict(test.images, 2) == test.labels
        ).mean()
        # The paper's headline: accuracies within a few points.
        assert abs(fp32_acc - int4_acc) < 0.25

    def test_rate_encoder_runs(self, tiny_deployable, tiny_dataset):
        _, test = tiny_dataset
        out = tiny_deployable.forward(
            test.images[:8], 4, RateEncoder(seed=0)
        )
        assert out.logits.shape == (8, 10)

    def test_recording(self, tiny_deployable, tiny_dataset):
        _, test = tiny_dataset
        out = tiny_deployable.forward(test.images[:4], 2, record=True)
        assert set(out.spike_trains) == {"conv1_1", "conv2_1", "fc1"}
        assert len(out.spike_trains["conv1_1"]) == 2

    def test_shape_validation(self, tiny_deployable, rng):
        with pytest.raises(ShapeError):
            tiny_deployable.forward(
                rng.random((2, 3, 9, 9)).astype(np.float32), 2
            )

    @pytest.mark.parametrize("timesteps", [0, -1])
    @pytest.mark.parametrize("runtime", [True, False])
    def test_rejects_no_timesteps(
        self, tiny_deployable, tiny_dataset, timesteps, runtime
    ):
        _, test = tiny_dataset
        with runtime_overrides(enabled=runtime):
            with pytest.raises(ShapeError, match="timesteps"):
                tiny_deployable.forward(test.images[:4], timesteps)

    @pytest.mark.parametrize("runtime", [True, False])
    def test_rejects_empty_batch(self, tiny_deployable, runtime):
        empty = np.zeros((0, 3, 8, 8), dtype=np.float32)
        with runtime_overrides(enabled=runtime):
            with pytest.raises(ShapeError, match="empty"):
                tiny_deployable.forward(empty, 2, RateEncoder(seed=0))

    def test_zero_weight_fraction_nonneg(self, tiny_deployable_int4):
        for layer in tiny_deployable_int4.layers:
            assert 0.0 <= layer.zero_weight_fraction <= 1.0

    def test_int4_zeroes_more_weights_than_fp32(
        self, tiny_deployable, tiny_deployable_int4
    ):
        fp32_zero = np.mean(
            [l.zero_weight_fraction for l in tiny_deployable.layers]
        )
        int4_zero = np.mean(
            [l.zero_weight_fraction for l in tiny_deployable_int4.layers]
        )
        assert int4_zero > fp32_zero


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_deployable_int4, tiny_dataset, tmp_path):
        _, test = tiny_dataset
        path = os.path.join(tmp_path, "model.npz")
        tiny_deployable_int4.save(path)
        restored = DeployableNetwork.load(path)
        a = tiny_deployable_int4.forward(test.images[:8], 2).logits
        b = restored.forward(test.images[:8], 2).logits
        np.testing.assert_array_equal(a, b)

    def test_load_preserves_scheme(self, tiny_deployable_int4, tmp_path):
        path = os.path.join(tmp_path, "model.npz")
        tiny_deployable_int4.save(path)
        restored = DeployableNetwork.load(path)
        assert restored.scheme.name == "int4"
        assert restored.lif.beta == tiny_deployable_int4.lif.beta


class TestPredictBatching:
    def test_batched_equals_single(self, tiny_deployable, tiny_dataset):
        _, test = tiny_dataset
        small = tiny_deployable.predict(test.images[:10], 2, batch_size=3)
        big = tiny_deployable.predict(test.images[:10], 2, batch_size=100)
        np.testing.assert_array_equal(small, big)
