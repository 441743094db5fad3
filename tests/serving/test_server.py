"""InferenceServer behaviour: policy, admission, deadlines, lifecycle.

These tests drive the server through an injected executor (the same
seam the fault suite uses) so they pin down the *batching semantics* --
coalescing, backpressure, deadline handling, drain -- without paying
for real forwards. The bit-exactness of real execution is covered by
``test_batching_invariance.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    QueueFullError,
    RequestTimeoutError,
    ServerClosedError,
    ServingError,
    ShapeError,
)
from repro.serving import InferenceServer, resolve_serve_config
from repro.serving.config import (
    DRAIN_ENV,
    MAX_BATCH_ENV,
    MAX_WAIT_ENV,
    QUEUE_DEPTH_ENV,
    TIMEOUT_ENV,
    ServeConfig,
)


class _Model:
    input_shape = (1, 2, 2)

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise AssertionError("tests inject executors; forward is unused")


def _echo_executor(images, indices, timeout_s):
    """Logits row i = [stream_index, batch position, batch size]."""
    n = len(indices)
    return np.stack(
        [
            np.asarray([index, position, n], dtype=np.float32)
            for position, index in enumerate(indices)
        ]
    )


def _slow_executor(delay_s):
    def executor(images, indices, timeout_s):
        time.sleep(delay_s)
        return _echo_executor(images, indices, timeout_s)

    return executor


def _server(executor=_echo_executor, **knobs):
    knobs.setdefault("max_wait_ms", 5.0)
    knobs.setdefault("timeout_ms", 10000.0)
    server = InferenceServer(resolve_serve_config(**knobs))
    server.register("m", _Model(), timesteps=2, executor=executor)
    return server


IMG = np.zeros((1, 2, 2), dtype=np.float32)


class TestBatching:
    def test_burst_coalesces_up_to_max_batch(self):
        with _server(max_batch=4, max_wait_ms=50.0, queue_depth=32) as server:
            pendings = [
                server.submit("m", IMG, stream_index=i) for i in range(10)
            ]
            responses = [p.result() for p in pendings]
        sizes = [int(r.logits[2]) for r in responses]
        assert max(sizes) > 1  # the burst actually coalesced
        assert all(size <= 4 for size in sizes)
        assert all(r.batch_size == int(r.logits[2]) for r in responses)

    def test_requests_keep_their_stream_index(self):
        with _server(max_batch=3, max_wait_ms=50.0) as server:
            order = [5, 0, 9, 2, 7]
            pendings = [
                (i, server.submit("m", IMG, stream_index=i)) for i in order
            ]
            for index, pending in pendings:
                assert int(pending.result().logits[0]) == index

    def test_max_batch_one_disables_coalescing(self):
        with _server(max_batch=1, max_wait_ms=0.0) as server:
            pendings = [server.submit("m", IMG) for _ in range(5)]
            assert all(p.result().batch_size == 1 for p in pendings)

    def test_response_carries_prediction_and_latency(self):
        with _server(max_batch=1) as server:
            response = server.submit("m", IMG, stream_index=3).result()
        assert response.prediction == int(np.argmax(response.logits))
        assert response.latency_ms >= response.queue_ms >= 0.0
        assert response.model == "m"


class TestAdmission:
    def test_queue_overflow_rejected_typed(self):
        server = _server(
            executor=_slow_executor(0.2),
            max_batch=1,
            max_wait_ms=0.0,
            queue_depth=2,
            timeout_ms=0.0,
        )
        try:
            accepted, rejected = [], 0
            for i in range(10):
                try:
                    accepted.append(server.submit("m", IMG, stream_index=i))
                except QueueFullError:
                    rejected += 1
            assert rejected > 0
            for pending in accepted:
                pending.result()  # accepted work still completes
            stats = server.stats()["m"]
            assert stats["rejected_full"] == rejected
            assert stats["completed"] == len(accepted)
            assert stats["submitted"] == 10
        finally:
            server.shutdown()

    def test_unknown_model_rejected(self):
        with _server() as server:
            with pytest.raises(ServingError, match="no model registered"):
                server.submit("ghost", IMG)

    def test_wrong_shape_rejected(self):
        with _server() as server:
            with pytest.raises(ShapeError):
                server.submit("m", np.zeros((3, 2, 2), dtype=np.float32))

    def test_negative_stream_index_rejected(self):
        with _server() as server:
            with pytest.raises(ServingError):
                server.submit("m", IMG, stream_index=-1)

    def test_duplicate_registration_rejected(self):
        with _server() as server:
            with pytest.raises(ServingError, match="already registered"):
                server.register("m", _Model(), 2, executor=_echo_executor)


class TestDeadlines:
    def test_slow_execution_times_out_client_side(self):
        with _server(
            executor=_slow_executor(0.5), max_batch=1, timeout_ms=60.0
        ) as server:
            pending = server.submit("m", IMG)
            started = time.monotonic()
            with pytest.raises(RequestTimeoutError):
                pending.result()
            # Resolved at the deadline, not after the executor finished.
            assert time.monotonic() - started < 0.4

    def test_expired_queued_requests_dropped_server_side(self):
        server = _server(
            executor=_slow_executor(0.3),
            max_batch=1,
            max_wait_ms=0.0,
            queue_depth=8,
            timeout_ms=100.0,
        )
        try:
            pendings = [server.submit("m", IMG) for _ in range(3)]
            outcomes = []
            for pending in pendings:
                try:
                    pending.result()
                    outcomes.append("done")
                except RequestTimeoutError:
                    outcomes.append("timeout")
            assert "timeout" in outcomes  # queued behind the slow batch
            assert server.stats()["m"]["timed_out"] == outcomes.count(
                "timeout"
            )
        finally:
            server.shutdown()

    def test_per_request_override_beats_config_default(self):
        with _server(
            executor=_slow_executor(0.3), max_batch=1, timeout_ms=10000.0
        ) as server:
            pending = server.submit("m", IMG, timeout_ms=50.0)
            with pytest.raises(RequestTimeoutError):
                pending.result()

    def test_zero_timeout_disables_deadline(self):
        with _server(
            executor=_slow_executor(0.15), max_batch=1, timeout_ms=0.0
        ) as server:
            assert server.submit("m", IMG).result().batch_size == 1

    def test_explicit_result_wait_does_not_kill_the_request(self):
        """A caller's own (shorter) wait bound raises without resolving
        the request; a later wait still collects the response."""
        with _server(
            executor=_slow_executor(0.2), max_batch=1, timeout_ms=0.0
        ) as server:
            pending = server.submit("m", IMG)
            with pytest.raises(RequestTimeoutError, match="still pending"):
                pending.result(timeout=0.01)
            assert pending.result().batch_size == 1

    def test_deadline_propagated_to_executor(self):
        seen = []

        def capture(images, indices, timeout_s):
            seen.append(timeout_s)
            return _echo_executor(images, indices, timeout_s)

        with _server(executor=capture, max_batch=1, timeout_ms=500.0) as server:
            server.submit("m", IMG).result()
        assert len(seen) == 1 and seen[0] is not None
        assert 0.0 < seen[0] <= 0.5

    def test_no_deadline_propagates_none(self):
        seen = []

        def capture(images, indices, timeout_s):
            seen.append(timeout_s)
            return _echo_executor(images, indices, timeout_s)

        with _server(executor=capture, max_batch=1, timeout_ms=0.0) as server:
            server.submit("m", IMG).result()
        assert seen == [None]


class TestLifecycle:
    def test_drain_finishes_queued_work(self):
        server = _server(
            executor=_slow_executor(0.05),
            max_batch=2,
            max_wait_ms=0.0,
            timeout_ms=0.0,
        )
        pendings = [server.submit("m", IMG) for _ in range(6)]
        assert server.drain()
        for pending in pendings:
            assert pending.result().batch_size >= 1
        stats = server.stats()["m"]
        assert stats["completed"] == 6

    def test_submit_after_drain_rejected_typed(self):
        server = _server()
        server.drain()
        with pytest.raises(ServerClosedError):
            server.submit("m", IMG)
        assert server.stats()["m"]["rejected_closed"] == 1

    def test_hard_shutdown_fails_queued_requests_typed(self):
        server = _server(
            executor=_slow_executor(0.3),
            max_batch=1,
            max_wait_ms=0.0,
            timeout_ms=0.0,
        )
        pendings = [server.submit("m", IMG) for _ in range(4)]
        server.shutdown(drain=False)
        outcomes = []
        for pending in pendings:
            try:
                pending.result()
                outcomes.append("done")
            except ServerClosedError:
                outcomes.append("closed")
        # Nothing hangs; whatever had not started resolves as closed.
        assert outcomes.count("closed") >= 3

    def test_context_manager_shuts_down(self):
        with _server() as server:
            server.submit("m", IMG).result()
        with pytest.raises(ServerClosedError):
            server.submit("m", IMG)

    def test_register_after_shutdown_rejected(self):
        server = _server()
        server.shutdown()
        with pytest.raises(ServerClosedError):
            server.register("late", _Model(), 2, executor=_echo_executor)

    def test_models_listing(self):
        with _server() as server:
            server.register("n", _Model(), 2, executor=_echo_executor)
            assert server.models == ["m", "n"]


class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.max_batch == 8
        assert config.queue_depth == 64

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(MAX_BATCH_ENV, "16")
        monkeypatch.setenv(MAX_WAIT_ENV, "7.5")
        monkeypatch.setenv(QUEUE_DEPTH_ENV, "128")
        monkeypatch.setenv(TIMEOUT_ENV, "250")
        monkeypatch.setenv(DRAIN_ENV, "500")
        config = resolve_serve_config()
        assert config == ServeConfig(
            max_batch=16,
            max_wait_ms=7.5,
            queue_depth=128,
            timeout_ms=250.0,
            drain_ms=500.0,
        )

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(MAX_BATCH_ENV, "16")
        assert resolve_serve_config(max_batch=2).max_batch == 2

    @pytest.mark.parametrize(
        "env,value",
        [
            (MAX_BATCH_ENV, "0"),
            (MAX_BATCH_ENV, "eight"),
            (MAX_WAIT_ENV, "-1"),
            (QUEUE_DEPTH_ENV, "0"),
            (TIMEOUT_ENV, "soon"),
            (DRAIN_ENV, "-3"),
        ],
    )
    def test_bad_env_values_rejected(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ConfigError):
            resolve_serve_config()

    def test_bad_explicit_values_rejected(self):
        with pytest.raises(ConfigError):
            resolve_serve_config(queue_depth=0)
        with pytest.raises(ConfigError):
            resolve_serve_config(max_wait_ms=-0.5)

    @pytest.mark.parametrize(
        "env,value",
        [
            (MAX_WAIT_ENV, "nan"),  # Condition.wait(nan) raises in the batcher
            (TIMEOUT_ENV, "inf"),
            (DRAIN_ENV, "inf"),  # thread.join(inf) overflows at shutdown
            (DRAIN_ENV, "NaN"),
        ],
    )
    def test_non_finite_env_values_rejected(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ConfigError, match="finite"):
            resolve_serve_config()

    @pytest.mark.parametrize(
        "knob", ["max_wait_ms", "timeout_ms", "drain_ms"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_explicit_values_rejected(self, knob, value):
        with pytest.raises(ConfigError, match="finite"):
            resolve_serve_config(**{knob: value})


class TestStatsAccounting:
    def test_every_admission_resolves_exactly_once(self):
        """submitted == accepted + rejected; accepted == completed +
        timed_out + failed + still-pending(0 after shutdown)."""
        server = _server(
            executor=_slow_executor(0.05),
            max_batch=2,
            max_wait_ms=0.0,
            queue_depth=4,
            timeout_ms=90.0,
        )
        pendings = []
        for i in range(12):
            try:
                pendings.append(server.submit("m", IMG, stream_index=i))
            except QueueFullError:
                pass
        for pending in pendings:
            try:
                pending.result()
            except (RequestTimeoutError, ServerClosedError):
                pass
        server.shutdown()
        stats = server.stats()["m"]
        assert stats["submitted"] == 12
        assert (
            stats["accepted"] + stats["rejected_full"] == stats["submitted"]
        )
        assert (
            stats["completed"]
            + stats["timed_out"]
            + stats["failed"]
            + stats["rejected_closed"]
            == stats["accepted"]
        )

    def test_concurrent_submitters_are_safe(self):
        with _server(max_batch=4, max_wait_ms=2.0, queue_depth=256) as server:
            results = []
            lock = threading.Lock()

            def client(base):
                for i in range(20):
                    response = server.submit(
                        "m", IMG, stream_index=base + i
                    ).result()
                    with lock:
                        results.append(int(response.logits[0]))

            threads = [
                threading.Thread(target=client, args=(base,))
                for base in (0, 100, 200)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sorted(results) == sorted(
                base + i for base in (0, 100, 200) for i in range(20)
            )
            stats = server.stats()["m"]
            assert stats["completed"] == 60
