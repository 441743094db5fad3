"""Property tests for the engine's per-layer hot loop.

The in-place LIF scan (into float32 or byte trains), the separable
OR-pool, the per-block spike pass and the count-fed spike statistics
are pure performance rewrites: each must reproduce its allocating
reference bit for bit, for any input hypothesis can find.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_oracle import forward_legacy

from repro.quant import FP32, convert
from repro.runtime import runtime_overrides
from repro.runtime.engine import spike_pass
from repro.runtime.kernels import BufferPool, or_pool
from repro.snn import build_network
from repro.snn.encoding import DirectEncoder, RateEncoder
from repro.snn import neuron
from repro.snn.neuron import lif_scan


#: The two spike rules the reference scan implements: ``u > theta`` and
#: the training loop's surrogate Heaviside ``(u - theta) > 0``. The
#: engine's one-rule scan must equal the reference under both.
SPIKE_RULES = ("threshold", "shifted")


def reference_scan(current, beta, threshold, rule):
    """The allocating stepwise scan the in-place one must match."""
    spikes = np.empty(current.shape, dtype=np.float32)
    membrane = None
    for t in range(current.shape[0]):
        integrated = current[t] if membrane is None else membrane * beta + current[t]
        if rule == "threshold":
            fired = (integrated > threshold).astype(np.float32)
        else:
            fired = ((integrated - threshold) > 0).astype(np.float32)
        membrane = integrated - fired * threshold
        spikes[t] = fired
    return spikes, membrane


@st.composite
def currents(draw):
    """A (T, ...) float32 current, salted with values that tie with the
    threshold (and with zero), optionally a time-invariant broadcast."""
    threshold = draw(st.sampled_from([0.5, 1.0, 0.1]))
    steps = draw(st.integers(1, 12))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    invariant = draw(st.booleans())
    frames = 1 if invariant else steps
    values = rng.normal(scale=threshold, size=(frames,) + shape).astype(np.float32)
    ties = rng.random(values.shape)
    values[ties < 0.2] = np.float32(threshold)
    values[(ties >= 0.2) & (ties < 0.3)] = np.float32(-0.0)
    values[(ties >= 0.3) & (ties < 0.35)] = np.float32(threshold / 2)
    if invariant:
        values = np.broadcast_to(values[0], (steps,) + shape)
    return values, threshold


class TestLifScanProperties:
    @given(
        currents(),
        st.sampled_from([0.0, 0.15, 1.0]),
        st.sampled_from([1, 7, neuron.LIF_BLOCK_ELEMENTS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_in_place_scan_matches_reference(self, drawn, beta, block):
        """The one-rule scan equals the reference under either spike
        rule, on currents salted with values equal to the threshold."""
        current, threshold = drawn
        default_block = neuron.LIF_BLOCK_ELEMENTS
        neuron.LIF_BLOCK_ELEMENTS = block  # small blocks split every shape
        try:
            spikes, membrane = lif_scan(current, beta, threshold)
        finally:
            neuron.LIF_BLOCK_ELEMENTS = default_block
        # Skipping the discarded final reset leaves the train unchanged.
        train, none = lif_scan(current, beta, threshold, final_reset=False)
        assert none is None
        assert spikes.dtype == np.float32
        for rule in SPIKE_RULES:
            want_spikes, want_membrane = reference_scan(
                current, beta, threshold, rule
            )
            assert spikes.tobytes() == want_spikes.tobytes(), rule
            assert membrane.dtype == want_membrane.dtype
            assert membrane.tobytes() == want_membrane.tobytes(), rule
            assert train.tobytes() == want_spikes.tobytes(), rule

    @given(
        currents(),
        st.sampled_from([0.0, 0.15, 1.0]),
        st.sampled_from([1, 7, neuron.LIF_BLOCK_ELEMENTS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_byte_train_matches_float_train(self, drawn, beta, block):
        """A uint8 ``out`` holds the float32 train's values, and the
        membrane the reset leaves is byte-identical."""
        current, threshold = drawn
        want_spikes, want_membrane = lif_scan(current, beta, threshold)
        default_block = neuron.LIF_BLOCK_ELEMENTS
        neuron.LIF_BLOCK_ELEMENTS = block
        try:
            out = np.full(current.shape, 7, dtype=np.uint8)
            spikes, membrane = lif_scan(current, beta, threshold, out=out)
        finally:
            neuron.LIF_BLOCK_ELEMENTS = default_block
        assert np.shares_memory(spikes, out)
        assert set(np.unique(out).tolist()) <= {0, 1}
        assert np.array_equal(out, want_spikes)
        assert membrane.tobytes() == want_membrane.tobytes()


@st.composite
def pooled_currents(draw):
    """A (T, N, C, H, W) float32 current whose H and W tile ``window``."""
    window = draw(st.sampled_from([2, 4]))
    steps = draw(st.integers(1, 6))
    samples = draw(st.integers(1, 9))
    channels = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    shape = (steps, samples, channels, rows * window, cols * window)
    current = rng.normal(scale=1.0, size=shape).astype(np.float32)
    current[rng.random(shape) < 0.2] = np.float32(0.5)  # ties with theta
    return current, window


class TestSpikePassProperties:
    @given(
        pooled_currents(),
        st.sampled_from([0.0, 0.15, 1.0]),
        st.sampled_from([1, 7, neuron.LIF_BLOCK_ELEMENTS]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_pass_matches_whole_train(self, drawn, beta, block, pool_it):
        """LIF -> counts -> OR-pool -> counts, one block of samples at a
        time, equals the whole-train scan, pool and counts."""
        current, window = drawn
        window = window if pool_it else 1
        threshold = 0.5
        want_spikes, _ = lif_scan(current, beta, threshold, final_reset=False)
        want_out = or_pool(want_spikes, window)
        want_counts = [int(np.count_nonzero(step)) for step in want_spikes]
        want_out_counts = [int(np.count_nonzero(step)) for step in want_out]
        out = np.full(want_out.shape, 7, dtype=np.uint8)
        default_block = neuron.LIF_BLOCK_ELEMENTS
        neuron.LIF_BLOCK_ELEMENTS = block
        try:
            counts, out_counts = spike_pass(
                current, beta, threshold, window, out, BufferPool()
            )
        finally:
            neuron.LIF_BLOCK_ELEMENTS = default_block
        assert np.array_equal(out, want_out)
        assert counts == want_counts
        assert out_counts == want_out_counts


class TestOrPoolProperties:
    @given(
        st.sampled_from([2, 4]),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reshape_max_on_strided_input(
        self, window, batch, channels, rows, cols, binary, seed
    ):
        rng = np.random.default_rng(seed)
        # Every other column of a wider array: a non-contiguous view.
        shape = (batch, channels, rows * window, 2 * cols * window)
        base = rng.random(shape)
        base = (base < 0.3) if binary else base - 0.5
        x = base.astype(np.float32)[..., ::2]
        assert not x.flags["C_CONTIGUOUS"]
        want = x.reshape(
            batch, channels, rows, window, cols, window
        ).max(axis=(3, 5))
        got = or_pool(x, window)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_NETWORKS = {}


def deployable(arch):
    """One seeded, untrained deployable per architecture (built lazily:
    hypothesis calls the test many times)."""
    if arch not in _NETWORKS:
        network = build_network(
            arch, input_shape=(3, 8, 8), num_classes=10, seed=31
        )
        network.eval()
        _NETWORKS[arch] = convert(network, FP32)
    return _NETWORKS[arch]


class TestCountFedStatistics:
    @given(
        st.sampled_from(["8C3-MP2-16C3-MP2-40", "6C3-12C3-MP4-20"]),
        st.sampled_from(["direct", "rate"]),
        st.integers(1, 5),
        st.integers(1, 6),
        st.sampled_from([None, "dense", "event"]),
        st.floats(0.2, 3.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_stats_equal_legacy(
        self, arch, coding, timesteps, batch, force_path, gain, seed
    ):
        """Spike statistics and input totals the engine derives from one
        count per timestep equal the legacy loop's per-step reductions."""
        network = deployable(arch)
        rng = np.random.default_rng(seed)
        images = (rng.random((batch, 3, 8, 8)) * gain).astype(np.float32)

        def encoder():
            return DirectEncoder() if coding == "direct" else RateEncoder(seed=seed)

        legacy = forward_legacy(network, images, timesteps, encoder())
        with runtime_overrides(force_path=force_path):
            runtime = network.forward(images, timesteps, encoder())
        assert runtime.stats.per_layer == legacy.stats.per_layer
        assert runtime.stats.per_layer_timestep == legacy.stats.per_layer_timestep
        assert runtime.stats.neuron_counts == legacy.stats.neuron_counts
        assert runtime.input_spike_totals == legacy.input_spike_totals
        assert np.array_equal(runtime.logits, legacy.logits)

