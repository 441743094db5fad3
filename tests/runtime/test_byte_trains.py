"""The engine's spike trains are bytes.

Binary trains -- every layer's input after the first, and a rate- or
TTFS-coded first layer's -- are recorded as uint8 {0, 1}; direct
coding's analog input stays float32. The per-timestep list and the
stacked train share memory, sharding keeps the dtype, and a recorded
rate-coded forward's traced peak stays within what byte trains and one
float32 current take.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.parallel import sharded_forward
from repro.quant import FP32, INT4, convert
from repro.runtime.config import MAX_FUSED_ELEMENTS
from repro.snn import build_network, build_vgg9
from repro.snn.encoding import DirectEncoder, RateEncoder, TtfsEncoder
from repro.snn.neuron import LIFConfig


@pytest.fixture(scope="module")
def deployable():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=5
    )
    net.eval()
    return convert(net, FP32)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(3).random((6, 3, 8, 8)).astype(np.float32)


def assert_byte_train(train):
    assert train.dtype == np.uint8
    assert set(np.unique(train).tolist()) <= {0, 1}


class TestDtypeContract:
    @pytest.mark.parametrize(
        "encoder", [RateEncoder(seed=2), TtfsEncoder(timesteps=3)],
        ids=["rate", "ttfs"],
    )
    def test_binary_trains_are_bytes(self, deployable, images, encoder):
        out = deployable.forward(images, 3, encoder, record=True)
        legacy = deployable.forward_legacy(images, 3, encoder, record=True)
        for name, stacked in out.spike_trains_stacked.items():
            assert_byte_train(stacked)
            for t, frame in enumerate(legacy.spike_trains[name]):
                assert np.array_equal(stacked[t], frame)

    def test_direct_input_stays_float(self, deployable, images):
        out = deployable.forward(images, 3, DirectEncoder(), record=True)
        first = out.spike_trains_stacked["conv1_1"]
        assert first.dtype == np.float32
        for frame in first:
            assert np.array_equal(frame, images)
        for name, stacked in out.spike_trains_stacked.items():
            if name != "conv1_1":
                assert_byte_train(stacked)

    def test_list_views_the_stack(self, deployable, images):
        out = deployable.forward(images, 3, RateEncoder(seed=4), record=True)
        for name, stacked in out.spike_trains_stacked.items():
            for t, frame in enumerate(out.spike_trains[name]):
                assert np.shares_memory(frame, stacked)
                assert frame.dtype == stacked.dtype

    def test_sharded_trains_stay_bytes(self, deployable, images):
        plain = deployable.forward(images, 3, RateEncoder(seed=4), record=True)
        merged = sharded_forward(
            deployable, images, 3, RateEncoder(seed=4),
            shards=3, workers=1, record=True,
        )
        for name, stacked in plain.spike_trains_stacked.items():
            assert_byte_train(merged.spike_trains_stacked[name])
            assert np.array_equal(merged.spike_trains_stacked[name], stacked)
            for t, frame in enumerate(merged.spike_trains[name]):
                assert frame.dtype == np.uint8
                assert np.array_equal(frame, stacked[t])

    def test_public_encode_stays_float(self, images):
        for encoder in (RateEncoder(seed=2), TtfsEncoder(timesteps=3)):
            frame = encoder.encode(images, 1).data
            assert frame.dtype == np.float32
            out = np.empty(images.shape, dtype=np.uint8)
            encoder.encode_into(images, 1, out)
            assert np.array_equal(out, frame)


class TestRecordedPeak:
    """The benchmark-size VGG9 (channel scale 0.25) on a recorded,
    rate-coded, batch-64, T=12 forward."""

    BATCH = 64
    TIMESTEPS = 12

    def test_peak_within_byte_trains_and_one_current(self):
        network = build_vgg9(
            num_classes=10, population=500, input_shape=(3, 32, 32),
            channel_scale=0.25, lif=LIFConfig(threshold=1.0), seed=42,
        )
        network.eval()
        model = convert(network, INT4)
        images = np.random.default_rng(1).random(
            (self.BATCH, 3, 32, 32), dtype=np.float32
        )
        # Plan lowering, calibration and the pooled scratch happen once.
        model.forward(images, self.TIMESTEPS, RateEncoder(seed=1), record=True)
        tracemalloc.start()
        try:
            out = model.forward(
                images, self.TIMESTEPS, RateEncoder(seed=1), record=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        steps = self.TIMESTEPS * self.BATCH
        # One byte per neuron-step: every recorded input train and the
        # output train.
        trains = steps * (
            sum(math.prod(layer.input_shape) for layer in model.layers)
            + model.layers[-1].output_shape[0]
        )
        # The float32 current of the widest layer, all lanes together.
        current = 4 * steps * max(
            math.prod(layer.output_shape) for layer in model.layers
        )
        scratch = 16 * MAX_FUSED_ELEMENTS
        assert peak <= trains + current + scratch, (
            f"peak {peak / 1e6:.1f} MB > bound "
            f"{(trains + current + scratch) / 1e6:.1f} MB"
        )
        assert sum(t.nbytes for t in out.spike_trains_stacked.values()) < trains
