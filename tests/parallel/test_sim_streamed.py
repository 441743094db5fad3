"""The exact simulator reduces trains as the engine streams them.

:meth:`HybridSimulator.run` never records a spike train: the engine
hands it each sample block of every layer's input train, in its lane,
and the block is reduced to cycle sums there. The oracle here is the
recorded path -- one ``forward(record=True)`` whose whole trains
``sparse_layer_cycle_sums`` reduces -- and every streamed report must
pickle to the same bytes, whatever the coding, lanes, blocks or shards.
"""

import pickle

import numpy as np
import pytest

from repro.hw.config import AcceleratorConfig
from repro.hw.simulator import HybridSimulator, sparse_layer_cycle_sums
from repro.parallel import sharded_forward, workers_override
from repro.quant import INT4, convert
from repro.runtime import blas, runtime_overrides
from repro.snn import build_network
from repro.snn.encoding import DirectEncoder, RateEncoder

TIMESTEPS = 3
BATCH = 24  # two lanes of 12 samples
SHARDS = 3

CODINGS = {
    # Table II methodology: rate coding with the dense core gated off,
    # so the input layer's train is reduced too.
    "rate-sparse-input": (RateEncoder, False),
    "direct-dense-input": (DirectEncoder, True),
}


@pytest.fixture(scope="module")
def model():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=77
    )
    net.eval()
    return convert(net, INT4)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(12).random((BATCH, 3, 8, 8)).astype(
        np.float32
    )


def _simulator(model, dense_core):
    config = AcceleratorConfig(
        name="stream", allocation=(1, 2, 2), scheme=INT4,
        use_dense_core=dense_core,
    )
    return HybridSimulator(model, config)


def _encoder(coding):
    kind = CODINGS[coding][0]
    return kind(seed=5) if kind is RateEncoder else kind()


def recorded_report(simulator, images, labels, coding, shards=None):
    """The oracle: whole recorded trains, reduced after the forward (a
    serial ``sharded_forward`` of the same geometry for a sharded run,
    whose merged counters count every shard's steps)."""
    config = simulator.config
    with workers_override(1):
        if shards is None:
            out = simulator.network.forward(
                images, TIMESTEPS, _encoder(coding), record=True
            )
        else:
            out = sharded_forward(
                simulator.network, images, TIMESTEPS, _encoder(coding),
                shards=shards, workers=1, record=True,
            )
    sums = {
        layer.name: sparse_layer_cycle_sums(
            layer, cores, out.spike_trains_stacked[layer.name],
            config.compression_chunk_bits,
        )
        for index, (layer, cores) in enumerate(
            zip(simulator.network.layers, config.allocation)
        )
        if not (index == 0 and config.use_dense_core)
    }
    return simulator._report_from_sums(
        out, sums, TIMESTEPS, len(images), _encoder(coding), labels,
        shards=shards or 1,
    )


def _one_lane(simulator, images, labels, encoder):
    with workers_override(1):
        return simulator.run(images, TIMESTEPS, encoder, labels=labels)


def _two_lanes(simulator, images, labels, encoder):
    if not blas.available():
        pytest.skip("BLAS thread count not controllable: one lane")
    with workers_override(2):
        return simulator.run(images, TIMESTEPS, encoder, labels=labels)


def _one_sample_blocks(simulator, images, labels, encoder):
    with runtime_overrides(max_fused_elements=1):
        return simulator.run(images, TIMESTEPS, encoder, labels=labels)


def _pooled_shards(simulator, images, labels, encoder):
    return simulator.run(
        images, TIMESTEPS, encoder, labels=labels, shards=SHARDS, workers=2
    )


RUNS = {
    "one-lane": _one_lane,
    "two-lanes": _two_lanes,
    "one-sample-blocks": _one_sample_blocks,
    "pooled-shards": _pooled_shards,
}


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize("coding", list(CODINGS))
def test_streamed_report_equals_recorded_reduction(model, images, coding, run):
    simulator = _simulator(model, dense_core=CODINGS[coding][1])
    labels = np.arange(BATCH) % 10
    shards = SHARDS if run == "pooled-shards" else None
    want = recorded_report(simulator, images, labels, coding, shards)
    got = RUNS[run](simulator, images, labels, _encoder(coding))
    assert got.layers == want.layers
    assert got.notes == want.notes
    assert pickle.dumps(got) == pickle.dumps(want)


def test_simulator_records_no_train(model, images, monkeypatch):
    """No exact-mode path asks the forward to record its trains."""
    simulator = _simulator(model, dense_core=False)
    forward = type(model).forward
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(kwargs.get("record", False))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(type(model), "forward", spy)
    simulator.run(images, TIMESTEPS, RateEncoder(seed=5))
    simulator.run(images, TIMESTEPS, RateEncoder(seed=5), shards=3, workers=1)
    assert calls == [False] * 4
