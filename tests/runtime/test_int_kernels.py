"""Integer datapath: exact integer-accumulating kernels, probes and dispatch.

Quantized deployables historically dequantized to float32 and ran the
float kernels -- the "int8" runtime was float inference in disguise.
These tests pin the actual integer lowering: the int kernels' mutual
exactness (every partial sum is an integer within 2^24, exact in
float32 in any fold order, so dense and event int always agree, up to
the accumulation bound itself), the bit-exactness probe that decides
whether the integer
path may replace float under ``int_kernels='auto'``, the overflow bound
that gates every integer dispatch, and the per-layer counter
attribution of every int/float decision.
"""

import numpy as np
import pytest

from repro.quant import INT8_P2, convert, quantize_array
from repro.quant.schemes import scheme_by_name
from repro.runtime import (
    InferenceEngine,
    LayerCounters,
    attach_int_lowering,
    calibrate_int_exact,
    dense_conv_int,
    event_conv_int,
    runtime_config,
    runtime_overrides,
)
from repro.runtime.kernels import dense_conv
from repro.runtime.refshapes import (
    make_conv_layer_plan,
    make_conv_network_plan,
)
from repro.snn import build_network
from repro.snn.encoding import RateEncoder


def binary_batch(shape, density, seed=7, batch=3):
    rng = np.random.default_rng(seed)
    return (rng.random((batch,) + tuple(shape)) < density).astype(np.float32)


def make_int_layer(cin, h, w, cout, seed=0, pow2=True):
    """A conv LayerPlan whose wmat is the exact dequantization of an
    attached int8 lowering (the invariant ``plan_deployable`` upholds
    for quantized models)."""
    layer = make_conv_layer_plan(cin, h, w, cout, seed=seed)
    scheme = INT8_P2 if pow2 else scheme_by_name("int8")
    q, scale = quantize_array(layer.wmat, scheme)
    wmat = (q.astype(np.float32) * scale.reshape(-1, 1)).astype(np.float32)
    layer.wmat = wmat
    layer.wT = np.ascontiguousarray(wmat.T)
    attach_int_lowering(layer, q, scale)
    return layer


class TestIntKernels:
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3])
    def test_int_dense_equals_int_event_always(self, density):
        """Integer addition is associative: the two int flavours agree
        bit-for-bit at every density, pow2 scales or not."""
        for pow2 in (True, False):
            layer = make_int_layer(8, 6, 6, 12, seed=3, pow2=pow2)
            x = binary_batch((8, 6, 6), density, seed=5)
            dense = dense_conv_int(layer, x)
            event, updates = event_conv_int(layer, x)
            assert np.array_equal(dense, event)
            assert updates >= 0

    def test_pow2_layer_matches_float_bit_exactly(self):
        layer = make_int_layer(8, 6, 6, 12, seed=4, pow2=True)
        x = binary_batch((8, 6, 6), 0.1, seed=6)
        want = dense_conv(layer, x)
        assert np.array_equal(dense_conv_int(layer, x), want)
        got, _ = event_conv_int(layer, x)
        assert np.array_equal(got, want)

    def test_pow2_layer_probes_exact(self):
        layer = make_int_layer(8, 6, 6, 12, seed=7, pow2=True)
        assert calibrate_int_exact(layer) is True

    def test_arbitrary_scales_fail_the_probe(self):
        """max|w|/qmax scales produce inexact dequantized weights; the
        probe must catch the drift so 'auto' never serves different
        numbers than float."""
        layer = make_int_layer(8, 6, 6, 12, seed=8, pow2=False)
        assert calibrate_int_exact(layer) is False

    def test_no_lowering_means_no_verdict(self):
        layer = make_conv_layer_plan(8, 6, 6, 12, seed=9)
        assert not layer.has_int_lowering
        assert calibrate_int_exact(layer) is False

    def test_deep_shape_probes_exact_at_k2304(self):
        """The deepest VGG9 geometry (K = 256*3*3 = 2304): worst-case
        |acc| = 127 * 2304 < 2^24, so the pow2 integer path stays exact
        at full paper depth."""
        layer = make_int_layer(256, 4, 4, 16, seed=10, pow2=True)
        assert layer.int_bound <= 127 * 2304
        assert layer.int_overflow_ok
        assert calibrate_int_exact(layer) is True


class TestExactAtAccumulationBound:
    """The float32 fold is exact only because every partial sum stays
    within 2^24; pin it where that margin is thinnest."""

    CIN, H, W, COUT = 64, 4, 4, 6
    TAPS = 512  # of K = 576; 512 * 32767 lands 512 below 2^24

    def _layer(self):
        layer = make_conv_layer_plan(self.CIN, self.H, self.W, self.COUT, seed=21)
        k = layer.geometry.k
        rng = np.random.default_rng(21)
        signs = rng.choice(np.array([-1, 1]), size=(self.COUT, k))
        signs[0] = 1  # all-ones input drives channel 0 to the bound
        signs[1] = -1  # ... and channel 1 to its negative
        taps = np.zeros((self.COUT, k), dtype=bool)
        for row in taps:
            row[rng.permutation(k)[: self.TAPS]] = True
        q = np.where(taps, signs * 32767, 0)
        scale = (rng.random(self.COUT) * 2.0**-18).astype(np.float32)
        attach_int_lowering(layer, q, scale)
        return layer

    def _reference(self, layer, x):
        """int64 ``wq @ cols``, dequantized by the documented rule."""
        g = layer.geometry
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))).astype(np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (3, 3), axis=(2, 3)
        )  # (B, Cin, OH, OW, 3, 3)
        cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(x.shape[0], g.k, g.p)
        acc = layer.wq.astype(np.int64) @ cols
        assert np.abs(acc).max() <= (1 << 24)
        current = acc.astype(np.float32)
        current *= layer.wq_scale.reshape(1, -1, 1)
        current += layer.bias.reshape(1, -1, 1)
        return current.reshape(x.shape[0], layer.out_channels, g.oh, g.ow)

    def test_bound_within_one_weight_of_limit(self):
        from repro.quant import INT_ACCUMULATION_LIMIT

        layer = self._layer()
        assert layer.wq.dtype == np.int16
        assert layer.int_bound == self.TAPS * 32767
        assert 0 <= INT_ACCUMULATION_LIMIT - layer.int_bound < 32767
        assert layer.int_overflow_ok

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    @pytest.mark.parametrize("fill", ["ones", "random"])
    def test_int_kernels_equal_int64_reference(self, fill, dtype):
        """At the bound, on a float32 train and on a byte train alike."""
        layer = self._layer()
        shape = (5, self.CIN, self.H, self.W)
        if fill == "ones":
            x = np.ones(shape, dtype=dtype)
        else:
            x = binary_batch(shape[1:], 0.5, seed=22, batch=shape[0])
            x = x.astype(dtype)
        want = self._reference(layer, x)
        if fill == "ones":  # the bound is reached, both signs
            g = layer.geometry
            acc = layer.wq.astype(np.int64) @ np.ones(g.k, dtype=np.int64)
            assert acc[0] == layer.int_bound and acc[1] == -layer.int_bound
        # Two samples per im2col chunk: the dense fold runs in 3 chunks.
        per_sample = layer.geometry.k * layer.geometry.p
        dense = dense_conv_int(layer, x, max_elements=2 * per_sample)
        event, _ = event_conv_int(layer, x)
        assert np.array_equal(dense, want)
        assert np.array_equal(event, want)


class TestOverflowGate:
    def _overflowing_layer(self):
        """An int16 lowering whose worst-case accumulator exceeds 2^24
        (576 taps * 32767 > 2^24): the bound check must refuse it."""
        layer = make_conv_layer_plan(64, 4, 4, 8, seed=11)
        q = np.full((8, layer.geometry.k), 32767, dtype=np.int32)
        attach_int_lowering(layer, q, np.float32(2.0**-20))
        return layer

    def test_bound_exceeds_limit(self):
        from repro.quant import INT_ACCUMULATION_LIMIT

        layer = self._overflowing_layer()
        assert layer.wq.dtype == np.int16
        assert layer.int_bound > INT_ACCUMULATION_LIMIT
        assert not layer.int_overflow_ok

    def test_int16_range_enforced(self):
        """A magnitude past int16 is refused, not wrapped on storage
        (40000 would otherwise be stored as -25536)."""
        from repro.errors import QuantizationError

        layer = make_conv_layer_plan(4, 4, 4, 2, seed=3)
        q = np.zeros((2, layer.geometry.k), dtype=np.int32)
        q[0, 0] = 32767
        q[1, 1] = -32767
        attach_int_lowering(layer, q, np.float32(2.0**-20))
        assert layer.wq.dtype == np.int16
        assert int(layer.wq[0, 0]) == 32767
        for value in (40000, -32768):
            q[1, 1] = value
            with pytest.raises(QuantizationError):
                attach_int_lowering(layer, q, np.float32(2.0**-20))

    def test_probe_refuses_overflowing_layer(self):
        assert calibrate_int_exact(self._overflowing_layer()) is False

    def test_engine_attributes_overflow_fallback(self):
        """Even under forced integer mode the engine must keep an
        overflow-risky layer on float -- and say so in the counters."""
        plan = make_conv_network_plan(64, 4, 4, 8, seed=11)
        conv = plan.layers[0]
        q = np.full((8, conv.geometry.k), 32767, dtype=np.int32)
        attach_int_lowering(conv, q, np.float32(2.0**-20))
        spikes = binary_batch((64, 4, 4), 0.02, seed=12, batch=2)
        with runtime_overrides(int_kernels="on"):
            out = InferenceEngine(plan).run(spikes)
        counters = out.counters[conv.name]
        assert counters.int_dense_steps == 0
        assert counters.int_event_steps == 0
        assert counters.float_overflow_steps > 0


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def int_model(self):
        net = build_network(
            "8C3-MP2-16C3-MP2-40",
            input_shape=(3, 8, 8),
            num_classes=10,
            seed=77,
        )
        net.eval()
        return convert(net, INT8_P2)

    @pytest.fixture(scope="class")
    def arb_model(self):
        net = build_network(
            "8C3-MP2-16C3-MP2-40",
            input_shape=(3, 8, 8),
            num_classes=10,
            seed=77,
        )
        net.eval()
        return convert(net, scheme_by_name("int8"))

    @pytest.fixture(scope="class")
    def images(self):
        rng = np.random.default_rng(13)
        # Faint images -> sparse rate-coded trains -> event-routed
        # steps.
        return (rng.random((4, 3, 8, 8)) * 0.1).astype(np.float32)

    def test_auto_int_path_is_bit_exact_and_attributed(
        self, int_model, images
    ):
        """The headline fix: an int8(p2) deployable actually executes
        integer event steps, and its logits still match the float path
        bit for bit."""
        encoder = RateEncoder(seed=0)
        with runtime_overrides(int_kernels="off"):
            want = int_model.forward(images, 6, encoder)
        with runtime_overrides(
            int_kernels="auto",
            dispatch_threshold=0.25,
        ):
            got = int_model.forward(images, 6, encoder)
        assert np.array_equal(got.logits, want.logits)
        int_events = sum(
            c.int_event_steps for c in got.runtime_counters.values()
        )
        int_updates = sum(
            c.int_event_updates for c in got.runtime_counters.values()
        )
        assert int_events > 0
        assert int_updates > 0

    def test_arbitrary_scales_fall_back_to_float_with_attribution(
        self, arb_model, images
    ):
        """Auto mode on non-pow2 int8: the probe fails, every step runs
        float, and the counters attribute the reason."""
        encoder = RateEncoder(seed=0)
        with runtime_overrides(int_kernels="off"):
            want = arb_model.forward(images, 4, encoder)
        with runtime_overrides(
            int_kernels="auto",
            dispatch_threshold=0.25,
        ):
            got = arb_model.forward(images, 4, encoder)
        assert np.array_equal(got.logits, want.logits)
        counters = got.runtime_counters
        assert sum(c.int_event_steps for c in counters.values()) == 0
        assert sum(c.int_dense_steps for c in counters.values()) == 0
        assert sum(c.float_exactness_steps for c in counters.values()) > 0

    def test_off_mode_never_runs_int(self, int_model, images):
        with runtime_overrides(int_kernels="off"):
            out = int_model.forward(images, 4, RateEncoder(seed=0))
        counters = out.runtime_counters
        assert sum(c.int_event_steps for c in counters.values()) == 0
        assert sum(c.int_dense_steps for c in counters.values()) == 0

    def test_forced_int_is_deterministic_across_paths(
        self, arb_model, images
    ):
        """int_kernels='on' forces the integer path even where it
        differs from float -- but integer associativity makes the result
        identical at every dispatch split (dense vs event vs routed)."""
        encoder = RateEncoder(seed=0)
        outs = []
        for overrides in (
            dict(int_kernels="on", force_path="dense"),
            dict(int_kernels="on", force_path="event"),
            dict(int_kernels="on"),
        ):
            with runtime_overrides(**overrides):
                outs.append(arb_model.forward(images, 4, encoder))
        for other in outs[1:]:
            assert np.array_equal(outs[0].logits, other.logits)
        forced = outs[1].runtime_counters
        assert sum(c.int_event_steps for c in forced.values()) > 0

    def test_forced_int_batch_split_invariance(self, arb_model, images):
        """Shard-merge determinism survives on the integer path: half
        batches concatenate to the full-batch logits exactly."""
        encoder = RateEncoder(seed=0)
        with runtime_overrides(int_kernels="on"):
            whole = arb_model.forward(images, 4, encoder).logits
            lo = arb_model.forward(images[:2], 4, encoder).logits
            hi = arb_model.forward(
                images[2:], 4, encoder.for_samples(2)
            ).logits
        assert np.array_equal(whole, np.concatenate([lo, hi]))


class TestCounters:
    def test_fallback_reasons_map_to_fields(self):
        c = LayerCounters()
        c.count_float_fallback("exactness", 2)
        c.count_float_fallback("overflow")
        assert c.float_exactness_steps == 2
        assert c.float_overflow_steps == 1

    def test_unknown_reason_rejected(self):
        """Nothing vetoes the integer kernels on speed, so ``cost`` is
        not a fallback reason either."""
        for reason in ("vibes", "cost"):
            with pytest.raises(ValueError):
                LayerCounters().count_float_fallback(reason)

    def test_as_dict_and_merge_carry_int_fields(self):
        a = LayerCounters()
        a.int_dense_steps = 1
        a.int_event_steps = 2
        a.int_event_updates = 30
        a.float_overflow_steps = 1
        b = LayerCounters()
        b.int_event_steps = 3
        b.float_exactness_steps = 4
        a.merge(b)
        d = a.as_dict()
        assert d["int_dense_steps"] == 1
        assert d["int_event_steps"] == 5
        assert d["int_event_updates"] == 30
        assert d["float_overflow_steps"] == 1
        assert d["float_exactness_steps"] == 4
