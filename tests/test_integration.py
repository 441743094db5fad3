"""Cross-module integration tests: the full train -> quantize -> deploy ->
simulate pipeline, and golden-model agreements between subsystems."""

import numpy as np
import pytest
from legacy_oracle import layer_current

from repro.hw.config import AcceleratorConfig
from repro.hw.event_sim import EventDrivenLayerSim
from repro.hw.simulator import HybridSimulator
from repro.quant import FP32, INT4, convert, prepare_qat
from repro.snn import Trainer, TrainingConfig, build_network
from repro.snn.encoding import RateEncoder
from repro.tensor import no_grad


class TestFullPipeline:
    def test_train_quantize_deploy_simulate(self, tiny_dataset):
        """The complete paper workflow at tiny scale."""
        train, test = tiny_dataset
        net = build_network("8C3-MP2-16C3-MP2-40", (3, 8, 8), 10, seed=0)
        prepare_qat(net, INT4)
        config = TrainingConfig(epochs=2, lr=3e-3, seed=0)
        Trainer(net, config).fit(train.images, train.labels)
        net.eval()
        deployable = convert(net, INT4)
        hw = AcceleratorConfig(name="e2e", allocation=(1, 2, 2), scheme=INT4)
        report = HybridSimulator(deployable, hw).run(
            test.images[:16], 2, labels=test.labels[:16]
        )
        assert report.accuracy is not None
        assert report.energy_mj > 0
        assert report.throughput_fps > 0

    def test_deployable_matches_network_spike_for_spike(
        self, tiny_trained_network, tiny_deployable, tiny_dataset
    ):
        _, test = tiny_dataset
        images = test.images[:8]
        with no_grad():
            net_out = tiny_trained_network.forward(images, 3, record=True)
        dep_out = tiny_deployable.forward(images, 3, record=True)
        for layer in ("conv1_1", "conv2_1", "fc1"):
            for t in range(3):
                np.testing.assert_array_equal(
                    net_out.spike_trains[layer][t].reshape(8, -1),
                    dep_out.spike_trains[layer][t].reshape(8, -1),
                    err_msg=f"{layer} t={t}",
                )


class TestEventSimAgainstDeployable:
    def test_event_sim_reproduces_deployable_layer(
        self, tiny_deployable, tiny_dataset
    ):
        """Replaying a recorded spike train through the event-driven
        golden sim reproduces the deployable's membrane current."""
        _, test = tiny_dataset
        out = tiny_deployable.forward(test.images[:2], 1, record=True)
        layer = tiny_deployable.layers[1]  # conv2_1 (sparse)
        train = out.spike_trains[layer.name][0][0]  # sample 0, t=0
        sim = EventDrivenLayerSim(nc_count=1, chunk_bits=32)
        result = sim.run_conv(train, layer.effective_weight(), padding=1)
        expected = layer_current(layer, train[None])[0]
        bias = layer.effective_bias().reshape(-1, 1, 1)
        np.testing.assert_allclose(
            result.membrane + bias, expected, atol=1e-3
        )


class TestCodingComparison:
    def test_direct_vs_rate_spike_structure(self, tiny_deployable, tiny_dataset):
        """Rate coding at high T produces more input events than direct
        coding's replayed analog frame feeds forward -- Table II's spike
        gap mechanism."""
        _, test = tiny_dataset
        images = test.images[:16]
        direct = tiny_deployable.forward(images, 2)
        rate = tiny_deployable.forward(images, 12, RateEncoder(seed=0))
        assert rate.stats.spikes_per_image() > direct.stats.spikes_per_image()

    def test_rate_coded_simulation_dense_off(self, tiny_deployable, tiny_dataset):
        _, test = tiny_dataset
        config = AcceleratorConfig(
            name="rate",
            allocation=(1, 2, 2),
            scheme=FP32,
            use_dense_core=False,
        )
        report = HybridSimulator(tiny_deployable, config).run(
            test.images[:8], 6, RateEncoder(seed=1)
        )
        assert all(layer.engine == "sparse" for layer in report.layers)


class TestQuantizationSparsityMechanism:
    def test_int4_conversion_preserves_most_predictions(
        self, tiny_deployable, tiny_deployable_int4, tiny_dataset
    ):
        _, test = tiny_dataset
        fp32_pred = tiny_deployable.predict(test.images, 2)
        int4_pred = tiny_deployable_int4.predict(test.images, 2)
        agreement = (fp32_pred == int4_pred).mean()
        # The tiny fixture net is barely trained, so post-training int4
        # (no QAT) perturbs its noisy decision boundary substantially;
        # the invariant is agreement well above the 10% chance floor.
        # QAT-level accuracy parity is exercised by the Fig. 1 bench.
        assert agreement > 0.15

    def test_quantized_weights_sparser(self, tiny_deployable, tiny_deployable_int4):
        for fp32_layer, int4_layer in zip(
            tiny_deployable.layers, tiny_deployable_int4.layers
        ):
            assert (
                int4_layer.zero_weight_fraction
                >= fp32_layer.zero_weight_fraction
            )
