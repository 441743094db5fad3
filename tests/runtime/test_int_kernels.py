"""Integer datapath: exact integer-accumulating kernels and dispatch.

Quantized deployables historically dequantized to float32 and ran the
float kernels -- the "int8" runtime was float inference in disguise.
These tests pin the actual integer lowering: the int kernels' mutual
exactness (every partial sum is an integer within 2^24, exact in
float32 in any fold order, so dense and event int always agree, up to
the accumulation bound itself), the dequantization rule they follow
under any scales, the overflow bound that gates every integer dispatch,
the default path running them on every binary step of a quantized
conv layer, and the per-layer counter attribution of every int/float
decision.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from legacy_oracle import forward_legacy
from refshapes import (
    make_conv_layer_plan,
    make_conv_network_plan,
)

from repro.parallel import workers_override
from repro.quant import FP32, INT4, INT8_P2, convert, quantize_array
from repro.quant.convert import DeployableNetwork
from repro.quant.schemes import scheme_by_name
from repro.runtime import (
    InferenceEngine,
    LayerCounters,
    attach_int_lowering,
    dense_conv_int,
    event_conv_int,
    runtime_overrides,
)
from repro.runtime.kernels import _pack_shift, dense_conv
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


def int64_reference(layer, x):
    """The documented integer rule computed in int64: ``wq @ cols``,
    checked within 2^24, then ``fl(acc * scale) + bias`` in float32."""
    g = layer.geometry
    pad = g.padding
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded.astype(np.int64), (g.kernel, g.kernel), axis=(2, 3)
    )  # (B, Cin, OH, OW, K, K)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(x.shape[0], g.k, g.p)
    acc = layer.wq.astype(np.int64) @ cols
    assert np.abs(acc).max() <= (1 << 24)
    current = acc.astype(np.float32)
    current *= np.asarray(layer.wq_scale).reshape(1, -1, 1)
    current += layer.bias.reshape(1, -1, 1)
    return current.reshape(x.shape[0], layer.out_channels, g.oh, g.ow)


def int_steps(out):
    return sum(
        c.int_dense_steps + c.int_event_steps
        for c in out.runtime_counters.values()
    )


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

    def test_max_abs_layer_follows_dequantize_rule(self):
        """Max-abs scales: both int kernels compute ``(sum q*x) * scale +
        bias`` in float32 -- the documented rule -- not the dequantized
        float weights' fold."""
        layer = make_int_layer(8, 6, 6, 12, seed=8, pow2=False)
        x = binary_batch((8, 6, 6), 0.3, seed=9)
        want = int64_reference(layer, x)
        assert np.array_equal(dense_conv_int(layer, x), want)
        assert np.array_equal(event_conv_int(layer, x)[0], want)

    def test_layer_without_lowering_never_runs_int(self):
        """A float conv layer (no integer lowering) keeps the float
        kernels on binary input, and no overflow fallback is counted."""
        plan = make_conv_network_plan(8, 6, 6, 12, seed=9)
        conv = plan.layers[0]
        assert not conv.has_int_lowering
        spikes = binary_batch((2, 8, 6, 6), 0.1, seed=9, batch=3)
        counters = InferenceEngine(plan).run(spikes).counters[conv.name]
        assert counters.dense_steps + counters.event_steps > 0
        assert counters.int_dense_steps == 0
        assert counters.int_event_steps == 0
        assert counters.float_overflow_steps == 0

    def test_deep_shape_exact_at_k2304(self):
        """The deepest VGG9 geometry (K = 256*3*3 = 2304): worst-case
        |acc| = 127 * 2304 < 2^24, so the pow2 integer path stays exact
        at full paper depth."""
        layer = make_int_layer(256, 4, 4, 16, seed=10, pow2=True)
        assert layer.int_bound <= 127 * 2304
        assert layer.int_overflow_ok
        x = binary_batch((256, 4, 4), 0.1, seed=10, batch=2)
        want = dense_conv(layer, x)
        assert np.array_equal(dense_conv_int(layer, x), want)
        assert np.array_equal(event_conv_int(layer, x)[0], want)


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
        want = int64_reference(layer, x)
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


class TestExactAtPackingLimit:
    """The dense int kernel packs two binary frames into one GEMM column
    while ``bound * (2**m + 1) + 2**(m - 1) <= 2**24``; pin the last
    bound that packs (2047, ``m = 12``) and the first that does not
    (2048), at every pair and odd-frame placement across chunks."""

    CIN, H, W, COUT = 16, 4, 4, 5  # K = 144

    def _layer(self, bound):
        """Channel 0 sums to ``+bound`` on an all-ones input, channel 1
        to ``-bound``; the others stay inside the bound."""
        layer = make_conv_layer_plan(self.CIN, self.H, self.W, self.COUT, seed=31)
        k = layer.geometry.k
        rng = np.random.default_rng(31)
        q = rng.integers(-7, 8, size=(self.COUT, k))
        edge = np.zeros(k, dtype=np.int64)
        edge[: bound // 127] = 127
        edge[bound // 127] = bound % 127
        q[0] = rng.permutation(edge)
        q[1] = -rng.permutation(edge)
        scale = (rng.random(self.COUT) * 2.0**-8).astype(np.float32)
        attach_int_lowering(layer, q, scale)
        assert layer.int_bound == bound
        return layer

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("frames", [1, 2, 5])
    @pytest.mark.parametrize("bound, shift", [(2047, 12), (2048, None)])
    def test_dense_int_equals_int64_reference(
        self, bound, shift, frames, chunk, dtype
    ):
        """Frames ``0, 3`` are all ones (both signs at the bound), the
        rest random: 5 frames pack as (0, 2), (1, 3) and 4 alone, so
        the bound lands in both halves of a pair and the odd frame in
        its own chunk at ``chunk`` 1 and 2."""
        layer = self._layer(bound)
        assert _pack_shift(layer.int_bound, frames) == (
            shift if frames > 1 else None
        )
        x = binary_batch((self.CIN, self.H, self.W), 0.5, seed=frames, batch=frames)
        x[::3] = 1
        x = x.astype(dtype)
        want = int64_reference(layer, x)
        g = layer.geometry
        ones = layer.wq.astype(np.int64) @ np.ones(g.k, dtype=np.int64)
        assert ones[0] == bound and ones[1] == -bound
        dense = dense_conv_int(layer, x, max_elements=chunk * g.k * g.p)
        assert np.array_equal(dense, want)
        assert np.array_equal(event_conv_int(layer, x)[0], want)


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

    def test_engine_attributes_overflow_fallback(self):
        """The engine keeps an overflow-risky layer on float -- and says
        so in the counters."""
        plan = make_conv_network_plan(64, 4, 4, 8, seed=11)
        conv = plan.layers[0]
        q = np.full((8, conv.geometry.k), 32767, dtype=np.int32)
        attach_int_lowering(conv, q, np.float32(2.0**-20))
        spikes = binary_batch((2, 64, 4, 4), 0.02, seed=12, batch=3)
        out = InferenceEngine(plan).run(spikes)
        counters = out.counters[conv.name]
        assert counters.int_dense_steps == 0
        assert counters.int_event_steps == 0
        assert counters.float_overflow_steps > 0

    def test_engine_runs_int_within_bound(self):
        """The same network with a lowering inside the bound runs every
        binary step of its conv layer on the integer kernels."""
        plan = make_conv_network_plan(64, 4, 4, 8, seed=11)
        conv = plan.layers[0]
        q = np.full((8, conv.geometry.k), 127, dtype=np.int32)
        attach_int_lowering(conv, q, np.float32(2.0**-20))
        assert conv.int_overflow_ok
        spikes = binary_batch((2, 64, 4, 4), 0.02, seed=12, batch=3)
        counters = InferenceEngine(plan).run(spikes).counters[conv.name]
        assert counters.int_dense_steps + counters.int_event_steps == (
            counters.dense_steps + counters.event_steps
        ) > 0
        assert counters.float_overflow_steps == 0


def float_twin(model):
    """``model`` with its quantized weights replaced by their float32
    dequantization: the same weights, run on the float datapath."""
    layers = [
        replace(layer, weight_q=layer.effective_weight(), weight_scale=None)
        for layer in model.layers
    ]
    return DeployableNetwork(
        layers, model.lif, model.num_classes, FP32, model.input_shape
    )


class TestEngineIntegration:
    @staticmethod
    def _model(scheme):
        net = build_network(
            "8C3-MP2-16C3-MP2-40",
            input_shape=(3, 8, 8),
            num_classes=10,
            seed=77,
        )
        net.eval()
        return convert(net, scheme)

    @pytest.fixture(scope="class")
    def int_model(self):
        return self._model(INT8_P2)

    @pytest.fixture(scope="class")
    def arb_model(self):
        return self._model(scheme_by_name("int8"))

    @pytest.fixture(scope="class")
    def images(self):
        rng = np.random.default_rng(13)
        # Faint images -> sparse rate-coded trains -> event-routed
        # steps.
        return (rng.random((4, 3, 8, 8)) * 0.1).astype(np.float32)

    def test_pow2_int_path_is_bit_exact_and_attributed(
        self, int_model, images
    ):
        """An int8(p2) deployable actually executes integer event steps,
        and its logits still match the float datapath bit for bit."""
        encoder = RateEncoder(seed=0)
        want = float_twin(int_model).forward(images, 6, encoder)
        with runtime_overrides(dispatch_threshold=0.25):
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

    def test_max_abs_int4_rate_forward_runs_int_kernels(self, images):
        """The Table II rate arm's numeric path: a default-config max-abs
        INT4 rate-coded forward adds integers in its conv layers."""
        out = self._model(INT4).forward(images, 6, RateEncoder(seed=0))
        assert int_steps(out) > 0

    def test_max_abs_logits_match_int_rule_oracle(self, arb_model, images):
        """Max-abs int8 logits equal the reference loop's, which computes
        int-lowered conv layers on binary input by the integer rule."""
        encoder = RateEncoder(seed=0)
        want = forward_legacy(arb_model, images, 4, encoder)
        got = arb_model.forward(images, 4, encoder)
        assert np.array_equal(got.logits, want.logits)
        assert int_steps(got) > 0

    def test_rate_coded_conv_steps_all_run_int(self, images):
        """Rate coding feeds every conv layer binary trains, so every
        step of every int-lowered conv layer runs the integer kernels,
        at INT4 and INT8 max-abs alike."""
        for scheme in (INT4, scheme_by_name("int8")):
            model = self._model(scheme)
            out = model.forward(images, 4, RateEncoder(seed=0))
            convs = [l.name for l in model.layers if l.kind == "conv"]
            assert convs
            for name in convs:
                c = out.runtime_counters[name]
                assert c.dense_steps + c.event_steps > 0
                assert c.int_dense_steps + c.int_event_steps == (
                    c.dense_steps + c.event_steps
                ), (scheme.name, name)
                assert c.float_overflow_steps == 0

    def test_direct_coded_first_layer_stays_float(self, arb_model):
        """Direct coding feeds the first conv layer analog pixels: that
        layer runs the float fold, the deeper conv layers integers."""
        bright = np.random.default_rng(13).random((4, 3, 8, 8))
        out = arb_model.forward(bright.astype(np.float32), 4)
        convs = [l.name for l in arb_model.layers if l.kind == "conv"]
        first = out.runtime_counters[convs[0]]
        assert first.int_dense_steps + first.int_event_steps == 0
        assert first.dense_steps + first.event_steps > 0
        deeper = [out.runtime_counters[name] for name in convs[1:]]
        assert sum(c.int_dense_steps + c.int_event_steps for c in deeper) > 0

    def test_fp32_model_never_runs_int(self, images):
        out = self._model(FP32).forward(images, 4, RateEncoder(seed=0))
        assert int_steps(out) == 0
        counters = out.runtime_counters.values()
        assert sum(c.float_overflow_steps for c in counters) == 0

    def test_int_is_deterministic_across_paths(self, arb_model, images):
        """Max-abs scales: integer associativity makes the result
        identical at every dispatch split (dense vs event vs routed)."""
        encoder = RateEncoder(seed=0)
        outs = []
        for overrides in (
            dict(force_path="dense"),
            dict(force_path="event"),
            dict(),
        ):
            with runtime_overrides(**overrides):
                outs.append(arb_model.forward(images, 4, encoder))
        for other in outs[1:]:
            assert np.array_equal(outs[0].logits, other.logits)
        assert int_steps(outs[0]) > 0
        forced = outs[1].runtime_counters
        assert sum(c.int_event_steps for c in forced.values()) > 0

    def test_int_batch_split_invariance(self, arb_model, images):
        """Shard-merge determinism survives on the integer path: half
        batches concatenate to the full-batch logits exactly."""
        encoder = RateEncoder(seed=0)
        whole = arb_model.forward(images, 4, encoder).logits
        lo = arb_model.forward(images[:2], 4, encoder).logits
        hi = arb_model.forward(images[2:], 4, encoder.for_samples(2)).logits
        assert np.array_equal(whole, np.concatenate([lo, hi]))

    @pytest.mark.parametrize("batch", [3, 17])
    def test_int4_odd_frames_pack_at_every_budget_and_lane_count(self, batch):
        """An int4 rate-coded forward at T=3 hands the dense int kernel
        odd frame counts on layers whose bound packs: 3 per one-sample
        block at ``max_fused_elements=1``; per fused block 9 (batch 3),
        51 (batch 17, one lane) or 24 and 27 (batch 17, two lanes).
        Logits, counters and recorded trains are byte-identical at
        every budget and lane count, and equal the reference loop's."""
        model = self._model(INT4)
        rng = np.random.default_rng(batch)
        images = rng.random((batch, 3, 8, 8)).astype(np.float32)
        encoder = RateEncoder(seed=0)
        outs = []
        for workers in (1, 2):
            for overrides in (dict(), dict(max_fused_elements=1)):
                with workers_override(workers), runtime_overrides(**overrides):
                    outs.append(model.forward(images, 3, encoder, record=True))
        convs = [l for l in model._runtime_plan.layers if l.kind == "conv"]
        assert all(_pack_shift(l.int_bound, 3) for l in convs)
        for layer in convs:
            assert outs[0].runtime_counters[layer.name].int_dense_steps > 0
        first = outs[0]
        for other in outs[1:]:
            assert other.logits.tobytes() == first.logits.tobytes()
            assert {k: c.as_dict() for k, c in other.runtime_counters.items()} == {
                k: c.as_dict() for k, c in first.runtime_counters.items()
            }
            for name, train in first.spike_trains_stacked.items():
                got = other.spike_trains_stacked[name]
                assert got.dtype == train.dtype
                assert got.tobytes() == train.tobytes()
        want = forward_legacy(model, images, 3, encoder, record=True)
        assert np.array_equal(first.logits, want.logits)
        for name, train in want.spike_trains_stacked.items():
            assert np.array_equal(first.spike_trains_stacked[name], train)


class TestCounters:
    def test_as_dict_and_merge_carry_int_fields(self):
        a = LayerCounters()
        a.int_dense_steps = 1
        a.int_event_steps = 2
        a.int_event_updates = 30
        a.float_overflow_steps = 1
        b = LayerCounters()
        b.int_event_steps = 3
        b.float_overflow_steps = 4
        a.merge(b)
        d = a.as_dict()
        assert d["int_dense_steps"] == 1
        assert d["int_event_steps"] == 5
        assert d["int_event_updates"] == 30
        assert d["float_overflow_steps"] == 5

    def test_as_dict_keys_are_the_counter_fields(self):
        """One key per counter field; the float fallback has a single
        reason left, the accumulation bound."""
        d = LayerCounters().as_dict()
        assert set(d) == {f.name for f in dataclasses.fields(LayerCounters)}
        assert [k for k in d if k.startswith("float_")] == [
            "float_overflow_steps"
        ]
