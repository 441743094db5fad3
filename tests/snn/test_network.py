"""SpikingNetwork construction, execution and recording tests."""

import numpy as np
import pytest

from repro.errors import ArchitectureError, ShapeError
from repro.snn import build_network, build_vgg9
from repro.snn.encoding import DirectEncoder, RateEncoder
from repro.tensor import no_grad

ARCH = "8C3-MP2-16C3-MP2-40"


@pytest.fixture
def net():
    return build_network(ARCH, (3, 8, 8), num_classes=10, seed=3)


@pytest.fixture
def images(rng):
    return rng.random((4, 3, 8, 8)).astype(np.float32)


class TestConstruction:
    def test_stage_shapes(self, net):
        shapes = [s.output_shape for s in net.compute_stages()]
        assert shapes == [(8, 8, 8), (16, 4, 4), (40,)]

    def test_population_grouping(self, net):
        assert net.population_size == 40
        assert net.population_group == 4

    def test_rejects_indivisible_population(self):
        with pytest.raises(ArchitectureError, match="divisible"):
            build_network("8C3-33", (3, 8, 8), num_classes=10)

    def test_rejects_conv_after_fc(self):
        with pytest.raises(ArchitectureError):
            build_network("10-8C3", (3, 8, 8), num_classes=2)

    def test_rejects_pool_mismatch(self):
        with pytest.raises(ArchitectureError):
            build_network("8C3-MP3-10", (3, 8, 8), num_classes=2)

    def test_vgg9_builder(self):
        net = build_vgg9(10, population=100, input_shape=(3, 16, 16), channel_scale=0.125)
        names = [s.name for s in net.compute_stages()]
        assert names == [
            "conv1_1", "conv1_2", "conv2_1", "conv2_2",
            "conv3_1", "conv3_2", "conv3_3", "fc1", "fc2",
        ]

    def test_describe_contains_layers(self, net):
        text = net.describe()
        assert "conv1_1" in text and "fc1" in text


class TestForward:
    def test_logit_shape(self, net, images):
        out = net.forward(images, timesteps=2)
        assert out.logits.shape == (4, 10)

    def test_rejects_bad_timesteps(self, net, images):
        with pytest.raises(ShapeError):
            net.forward(images, timesteps=0)

    def test_rejects_bad_shape(self, net, rng):
        with pytest.raises(ShapeError):
            net.forward(rng.random((4, 3, 9, 9)).astype(np.float32), 2)

    @pytest.mark.parametrize("training", [False, True])
    def test_rejects_empty_batch(self, net, training):
        """An empty batch is refused as a shape fault in either mode,
        as ``DeployableNetwork.forward`` refuses it."""
        net.train(training)
        with no_grad(), pytest.raises(ShapeError, match="empty batch"):
            net.forward(np.zeros((0, 3, 8, 8), np.float32), timesteps=2)

    @pytest.mark.parametrize("training", [False, True])
    def test_tape_follows_grad_mode_only(self, net, images, training):
        """Either mode records the autograd tape with gradients on and
        none under ``no_grad``: eval and training run one loop."""
        net.train(training)
        assert net.forward(images, 2).logits.requires_grad
        with no_grad():
            assert not net.forward(images, 2).logits.requires_grad

    @pytest.mark.parametrize("qat", [False, True], ids=["fp32", "qat_int4"])
    def test_no_grad_forward_matches_tape_forward(self, net, images, qat):
        """``predict``'s eval forward under ``no_grad`` computes what the
        taped loop does, bit for bit: logits, counts, stats and trains."""
        if qat:
            from repro.quant import INT4, prepare_qat

            prepare_qat(net, INT4)
        net.eval()
        with no_grad():
            plain = net.forward(images, 2, record=True)
        taped = net.forward(images, 2, record=True)
        assert taped.logits.requires_grad
        assert taped.logits.data.tobytes() == plain.logits.data.tobytes()
        assert np.array_equal(
            taped.output_spike_counts, plain.output_spike_counts
        )
        assert taped.input_spike_totals == plain.input_spike_totals
        assert taped.stats.per_layer == plain.stats.per_layer
        assert taped.spike_trains.keys() == plain.spike_trains.keys()
        for name, trains in taped.spike_trains.items():
            for t, train in enumerate(trains):
                assert np.array_equal(train, plain.spike_trains[name][t])

    def test_spike_stats_populated(self, net, images):
        out = net.forward(images, timesteps=2)
        assert set(out.stats.per_layer) == {"conv1_1", "conv2_1", "fc1"}
        assert out.stats.samples == 4
        assert out.stats.timesteps == 2

    def test_more_timesteps_more_spikes(self, net, images):
        with no_grad():
            short = net.forward(images, timesteps=1)
            long = net.forward(images, timesteps=4)
        assert long.stats.total_spikes > short.stats.total_spikes

    def test_deterministic_under_direct_coding(self, net, images):
        with no_grad():
            a = net.forward(images, 2).logits.data
            b = net.forward(images, 2).logits.data
        np.testing.assert_array_equal(a, b)

    def test_recording_trains(self, net, images):
        out = net.forward(images, 2, record=True)
        assert set(out.spike_trains) == {"conv1_1", "conv2_1", "fc1"}
        assert len(out.spike_trains["conv2_1"]) == 2  # one per timestep
        # conv2_1's input is post-pool: 8 channels at 4x4.
        assert out.spike_trains["conv2_1"][0].shape == (4, 8, 4, 4)

    def test_recorded_sparse_inputs_are_binary(self, net, images):
        out = net.forward(images, 2, record=True)
        values = np.unique(out.spike_trains["conv2_1"][0])
        assert set(values).issubset({0.0, 1.0})

    def test_input_totals_match_trains(self, net, images):
        out = net.forward(images, 2, record=True)
        for name, trains in out.spike_trains.items():
            total = sum(float(t.sum()) for t in trains)
            assert out.input_spike_totals[name] == pytest.approx(total)

    def test_output_spike_counts_shape(self, net, images):
        out = net.forward(images, 2)
        assert out.output_spike_counts.shape == (4, 40)

    def test_logits_are_group_sums(self, net, images):
        out = net.forward(images, 2)
        counts = out.output_spike_counts.reshape(4, 10, 4).sum(axis=2)
        np.testing.assert_allclose(out.logits.data, counts, rtol=1e-5)


class TestEncoders:
    def test_rate_encoding_changes_inputs(self, net, images):
        with no_grad():
            out1 = net.forward(images, 4, RateEncoder(seed=1), record=True)
            out2 = net.forward(images, 4, RateEncoder(seed=2), record=True)
        t1 = out1.spike_trains["conv1_1"][0]
        t2 = out2.spike_trains["conv1_1"][0]
        assert not np.array_equal(t1, t2)

    def test_rate_input_is_binary(self, net, images):
        out = net.forward(images, 2, RateEncoder(seed=0), record=True)
        values = np.unique(out.spike_trains["conv1_1"][0])
        assert set(values).issubset({0.0, 1.0})

    def test_direct_input_is_analog(self, net, images):
        out = net.forward(images, 2, DirectEncoder(), record=True)
        train = out.spike_trains["conv1_1"][0]
        np.testing.assert_array_equal(train, images)


class TestStateDict:
    def test_roundtrip_preserves_outputs(self, net, images):
        clone = build_network(ARCH, (3, 8, 8), num_classes=10, seed=99)
        clone.load_state_dict(net.state_dict())
        net.eval()
        clone.eval()
        with no_grad():
            a = net.forward(images, 2).logits.data
            b = clone.forward(images, 2).logits.data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_parameters_count(self, net):
        # conv(w+b) + bn(gamma+beta) per conv, fc(w+b): 2*2+2*2... explicit:
        # conv1_1: 2 + 2(bn), conv2_1: 2 + 2(bn), fc1: 2 -> 10 tensors.
        assert len(net.parameters()) == 10

    def test_train_eval_propagates(self, net):
        net.eval()
        assert all(
            not stage.bn.training
            for stage in net.compute_stages()
            if stage.bn is not None
        )


class TestPredict:
    def test_prediction_shape_and_range(self, net, images):
        preds = net.predict(images, 2, batch_size=2)
        assert preds.shape == (4,)
        assert preds.min() >= 0 and preds.max() < 10

    def test_matches_forward_argmax(self, net, images):
        net.eval()
        with no_grad():
            want = net.forward(images, 2).logits.data.argmax(axis=1)
        assert np.array_equal(net.predict(images, 2, batch_size=3), want)

    def test_restores_training_mode(self, net, images):
        net.train(True)
        net.predict(images, 2)
        assert net.training
