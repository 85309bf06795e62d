"""End-to-end service tests over real sockets (loopback).

Every test spins up an :class:`ImageService` on an ephemeral port
inside one ``asyncio.run`` and talks the real wire protocol to it, so
framing, scheduling, caching, streaming and containment are exercised
exactly as ``repro serve`` runs them.  Tests that need a request to
stay in flight hold the image worker on an event (:func:`held`)
instead of leaning on wall-clock timing.
"""

import asyncio
import json
import pickle
import struct
import threading

import numpy as np
import pytest

from repro.serve import ImageService, ServeSettings, decode_array, encode_frame, read_frame
from repro.serve import service as service_module
from repro.serve import workers

FAST = dict(host="127.0.0.1", port=0, workers=2)


class HeldWorker:
    """``form_image`` that counts its calls and blocks until released."""

    def __init__(self, form_image):
        self._form_image = form_image
        self._lock = threading.Lock()
        self._gate = threading.Event()
        self.calls = 0

    def __call__(self, payload):
        with self._lock:
            self.calls += 1
        # Bounded, so a test that fails before releasing still closes.
        self._gate.wait(timeout=60)
        return self._form_image(payload)

    def release(self):
        self._gate.set()


@pytest.fixture
def held(monkeypatch):
    """Image computes stay in flight until the test calls ``release()``."""
    hold = HeldWorker(workers.form_image)
    monkeypatch.setattr(workers, "form_image", hold)
    yield hold
    hold.release()


async def until(predicate):
    """Yield to the event loop until ``predicate()`` holds."""
    for _ in range(10_000):
        if predicate():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("condition never held")


def service_test(coro_fn, **settings):
    """Run ``coro_fn(service)`` against a started service, then close."""

    async def main():
        service = ImageService(ServeSettings(**{**FAST, **settings}))
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.close()

    return asyncio.run(main())


async def send_recv(reader, writer, obj, max_bytes=None):
    """One request; collect frames until the terminal one.

    Returns ``(terminal, partials)``.
    """
    writer.write(encode_frame(obj))
    await writer.drain()
    partials = []
    while True:
        frame = await read_frame(reader, max_bytes or (1 << 20))
        assert frame is not None, "server closed the connection mid-request"
        if frame.get("type") == "partial":
            partials.append(frame)
            continue
        return frame, partials


async def one_shot(service, obj):
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    try:
        return await send_recv(reader, writer, obj)
    finally:
        writer.close()
        await writer.wait_closed()


IMG = {"kind": "image", "pulses": 32, "ranges": 33}


class TestImagePath:
    def test_result_matches_direct_ffbp(self):
        async def scenario(service):
            frame, _ = await one_shot(service, {**IMG, "id": "r0"})
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "result"
        assert frame["id"] == "r0"
        assert frame["cached"] is False
        served = decode_array(frame["image"])

        from repro.eval.figures import default_scene
        from repro.sar.config import RadarConfig
        from repro.sar.ffbp import FfbpOptions, ffbp
        from repro.sar.simulate import simulate_compressed

        cfg = RadarConfig.small(n_pulses=32, n_ranges=33)
        data = simulate_compressed(
            cfg, default_scene(cfg), noise_sigma=0.05, seed=1234
        )
        expected = ffbp(data, cfg, FfbpOptions()).data
        np.testing.assert_array_equal(served, expected)

    def test_repeat_request_hits_the_response_cache(self):
        async def scenario(service):
            first, _ = await one_shot(service, {**IMG, "id": "cold"})
            # Fresh connection: the hit must come from the cache, not
            # any per-connection state.
            second, _ = await one_shot(service, {**IMG, "id": "warm"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return first, second, health

        first, second, health = service_test(scenario)
        assert first["cached"] is False
        assert second["cached"] is True
        # Byte-identical replay is the cache contract.
        assert second["image"]["sha256"] == first["image"]["sha256"]
        assert second["image"]["data_b64"] == first["image"]["data_b64"]
        assert health["cache"]["hits"] >= 1
        assert health["cache"]["stores"] >= 1

    def test_cached_reply_carries_no_stale_compute_ms(self):
        async def scenario(service):
            cold, _ = await one_shot(service, {**IMG, "id": "cold"})
            warm, _ = await one_shot(service, {**IMG, "id": "warm"})
            return cold, warm

        cold, warm = service_test(scenario)
        assert cold["cached"] is False
        assert cold["compute_ms"] > 0
        assert warm["cached"] is True
        assert "compute_ms" not in warm

    def test_cache_stores_content_without_timings(self, tmp_path):
        # compute_ms rides on the reply to an uncached request; the
        # content-addressed value on disk holds none.
        profile = {"kind": "profile", "backend": "analytic:e16",
                   "pulses": 32, "ranges": 33}

        async def scenario(service):
            image, _ = await one_shot(service, {**IMG, "id": "i"})
            prof, _ = await one_shot(service, {**profile, "id": "p"})
            return image, prof

        image, prof = service_test(scenario, cache_dir=str(tmp_path))
        assert image["compute_ms"] > 0
        assert prof["compute_ms"] > 0
        stored = [pickle.loads(p.read_bytes()) for p in tmp_path.rglob("*.pkl")]
        assert len(stored) == 2
        assert all("compute_ms" not in value for value in stored)

    def test_no_cache_mode_never_reports_cached(self):
        async def scenario(service):
            await one_shot(service, {**IMG, "id": "a"})
            frame, _ = await one_shot(service, {**IMG, "id": "b"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario, no_cache=True)
        assert frame["cached"] is False
        assert health["cache"] is None

    def test_identical_request_joins_the_compute_in_flight(self, held):
        async def scenario(service):
            first = asyncio.create_task(one_shot(service, {**IMG, "id": "a"}))
            await until(lambda: held.calls == 1)
            second = asyncio.create_task(one_shot(service, {**IMG, "id": "b"}))
            await until(lambda: service.stats.coalesced == 1)
            held.release()
            (a, _), (b, _) = await asyncio.gather(first, second)
            return a, b, service.stats

        a, b, stats = service_test(scenario)
        assert held.calls == 1
        assert stats.coalesced == 1
        assert stats.batches == 1
        assert a["image"]["sha256"] == b["image"]["sha256"]
        # The joiner gets its leader's outcome, timings included.
        assert a["cached"] is False and b["cached"] is False
        assert a["compute_ms"] == b["compute_ms"]

    def test_joiner_deadline_does_not_cancel_the_shared_compute(self, held):
        async def scenario(service):
            leader = asyncio.create_task(
                one_shot(service, {**IMG, "id": "lead"})
            )
            await until(lambda: held.calls == 1)
            joiner, _ = await asyncio.wait_for(
                one_shot(service, {**IMG, "id": "join", "deadline_ms": 50}),
                10.0,
            )
            held.release()
            led, _ = await asyncio.wait_for(leader, 10.0)
            return joiner, led, service.stats.coalesced

        joiner, led, coalesced = service_test(scenario)
        assert coalesced == 1
        assert joiner["code"] == "deadline"
        assert joiner["retries"] == 0
        assert led["type"] == "result"
        assert held.calls == 1

    def test_finished_compute_leaves_the_in_flight_table(self):
        async def scenario(service):
            first, _ = await one_shot(service, {**IMG, "id": "a"})
            inflight = dict(service._inflight)
            second, _ = await one_shot(service, {**IMG, "id": "b"})
            return first, inflight, second, service.stats.coalesced

        first, inflight, second, coalesced = service_test(scenario)
        assert inflight == {}
        assert first["cached"] is False
        assert second["cached"] is True  # a cache hit, not a join
        assert coalesced == 0

    def test_distinct_seeds_do_not_coalesce(self):
        async def scenario(service):
            a, _ = await one_shot(service, {**IMG, "id": "a", "noise_seed": 1})
            b, _ = await one_shot(service, {**IMG, "id": "b", "noise_seed": 2})
            return a, b

        a, b = service_test(scenario)
        assert a["image"]["sha256"] != b["image"]["sha256"]


class TestStreaming:
    def test_partials_cover_every_merge_level(self):
        async def scenario(service):
            streamed, partials = await one_shot(
                service, {**IMG, "id": "s", "stream": True}
            )
            batched, _ = await one_shot(service, {**IMG, "id": "b"})
            return streamed, partials, batched

        streamed, partials, batched = service_test(scenario)
        assert streamed["type"] == "result"
        assert streamed["compute_ms"] > 0
        assert partials, "streaming produced no partial frames"
        n_levels = partials[0]["n_levels"]
        assert [p["level"] for p in partials] == list(range(n_levels + 1))
        # Merge tree narrows to a single aperture at the top...
        assert partials[-1]["subapertures"] == 1
        assert partials[0]["subapertures"] > partials[-1]["subapertures"]
        # ...and the streamed final level IS the result image.
        assert partials[-1]["sha256"] == streamed["image"]["sha256"]
        # Streaming never changes the answer.
        assert streamed["image"]["sha256"] == batched["image"]["sha256"]

    def test_stream_data_carries_stage_bytes(self):
        async def scenario(service):
            _, partials = await one_shot(
                service,
                {**IMG, "id": "sd", "stream": True, "stream_data": True},
            )
            return partials

        partials = service_test(scenario)
        for p in partials:
            stage = decode_array(p["stage"])
            assert stage.shape[0] == p["subapertures"]
            assert stage.shape[1] == p["beams"]


class TestContainment:
    """Satellite: malformed input never takes the connection down."""

    def test_bad_json_then_connection_still_usable(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                bad = b"this is not json"
                writer.write(struct.pack(">I", len(bad)) + bad)
                await writer.drain()
                err = await read_frame(reader)
                ok, _ = await send_recv(reader, writer, {"kind": "health", "id": "h"})
                return err, ok
            finally:
                writer.close()
                await writer.wait_closed()

        err, ok = service_test(scenario)
        assert err["type"] == "error"
        assert err["code"] == "bad-json"
        assert ok["type"] == "health"

    def test_oversized_payload_then_connection_still_usable(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                body = json.dumps({"pad": "x" * 4096}).encode()
                writer.write(struct.pack(">I", len(body)) + body)
                await writer.drain()
                err = await read_frame(reader)
                ok, _ = await send_recv(reader, writer, {"kind": "health", "id": "h"})
                return err, ok
            finally:
                writer.close()
                await writer.wait_closed()

        err, ok = service_test(scenario, max_frame_bytes=2048)
        assert err["code"] == "oversized"
        assert ok["type"] == "health"

    def test_oversized_reply_is_answered_with_a_structured_error(self):
        # A 32x33 complex64 image encodes to ~11 KiB, over a 4 KiB limit.
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                # Bounded wait: a lost reply must fail, not hang, the test.
                err, _ = await asyncio.wait_for(
                    send_recv(reader, writer, {**IMG, "id": "big"}), 60.0
                )
                ok, _ = await send_recv(reader, writer, {"kind": "health", "id": "h"})
                return err, ok
            finally:
                writer.close()
                await writer.wait_closed()

        err, ok = service_test(scenario, max_frame_bytes=4096)
        assert err["type"] == "error"
        assert err["id"] == "big"
        assert err["code"] == "oversized"
        assert ok["type"] == "health"
        assert ok["errors"] == 1
        assert ok["served"] == 0

    def test_oversized_partial_ends_the_stream_with_one_error(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                streamed = {**IMG, "id": "st", "stream": True, "stream_data": True}
                err, partials = await asyncio.wait_for(
                    send_recv(reader, writer, streamed), 60.0
                )
                # The next frame on the connection answers the health
                # request: nothing more arrives for the cut stream.
                ok, stray = await send_recv(
                    reader, writer, {"kind": "health", "id": "h"}
                )
                return err, partials, ok, stray
            finally:
                writer.close()
                await writer.wait_closed()

        err, partials, ok, stray = service_test(scenario, max_frame_bytes=4096)
        assert err["type"] == "error"
        assert err["id"] == "st"
        assert err["code"] == "oversized"
        assert all(p["id"] == "st" for p in partials)
        assert ok["type"] == "health"
        assert stray == []

    def test_unknown_backend_is_a_structured_error(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                err, _ = await send_recv(
                    reader,
                    writer,
                    {"kind": "profile", "id": "p", "backend": "quantum:q9000"},
                )
                ok, _ = await send_recv(reader, writer, {"kind": "health", "id": "h"})
                return err, ok
            finally:
                writer.close()
                await writer.wait_closed()

        err, ok = service_test(scenario)
        assert err["type"] == "error"
        assert err["code"] == "unknown-backend"
        assert err["id"] == "p"
        assert ok["type"] == "health"

    def test_unknown_kind_is_a_structured_error(self):
        async def scenario(service):
            return await one_shot(service, {"kind": "teleport", "id": "t"})

        err, _ = service_test(scenario)
        assert err["type"] == "error"
        assert err["code"] == "bad-request"

    def test_error_counters_accumulate(self):
        async def scenario(service):
            await one_shot(service, {"kind": "image", "id": "x", "pulses": 1})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return health

        health = service_test(scenario)
        assert health["errors"] >= 1


class TestDeadlines:
    def test_deadline_yields_structured_timeout(self, held):
        async def scenario(service):
            frame, _ = await one_shot(
                service, {**IMG, "id": "slow", "deadline_ms": 1}
            )
            held.release()
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"
        assert frame["id"] == "slow"
        assert health["deadline_misses"] >= 1

    def test_default_deadline_from_settings(self, held):
        async def scenario(service):
            frame, _ = await one_shot(service, {**IMG, "id": "d"})
            held.release()
            return frame

        frame = service_test(scenario, default_deadline_ms=1.0)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"


class TestProfilePath:
    def test_profile_returns_machine_numbers(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {"kind": "profile", "id": "p", "backend": "analytic:e16", "pulses": 32, "ranges": 33},
            )
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "result"
        assert frame["cycles"] > 0
        assert frame["energy_j"] > 0

    def test_injected_fault_is_contained_and_counted(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "f",
                    "backend": "faulty(core:1@cycle=100:crash):event:e16",
                    "kernel": "autofocus",
                },
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "fault"
        assert frame["outcome"], "containment must carry the outcome report"
        assert health["faults"]["contained"] >= 1
        assert health["faults"]["last"]

    def test_stall_carries_a_blame_report(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "s",
                    "backend": "faulty(link:(0,0)->(0,1)@p=1:stall=500000):event:e16",
                    "kernel": "autofocus",
                    "watchdog": 5000,
                },
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["code"] == "stall"
        blame = frame["blame"]
        assert blame["channel"]
        assert blame["waited_cycles"] > 0
        assert health["faults"]["stalls"] >= 1
        assert health["faults"]["last_blame"] == blame


class TestLifecycle:
    def test_health_shape(self):
        async def scenario(service):
            frame, _ = await one_shot(service, {"kind": "health", "id": 9})
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "health"
        assert frame["id"] == 9
        assert frame["protocol"] == "repro-serve/1"
        assert frame["status"] == "ok"
        assert isinstance(frame["code_version"], str)
        assert frame["uptime_s"] >= 0
        assert isinstance(frame["memo"], dict)

    def test_shutdown_request_stops_serve_until_shutdown(self):
        async def main():
            service = ImageService(ServeSettings(**FAST))
            await service.start()
            waiter = asyncio.create_task(service.serve_until_shutdown())
            frame, _ = await one_shot(service, {"kind": "shutdown", "id": "bye"})
            await asyncio.wait_for(waiter, timeout=10)
            return frame

        frame = asyncio.run(main())
        assert frame["type"] == "ok"

    def test_close_lets_idle_connection_handlers_exit(self):
        # A handler still parked in read_frame when asyncio.run tears
        # the loop down is cancelled, and asyncio logs a traceback.
        async def main():
            service = ImageService(ServeSettings(**FAST))
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_recv(reader, writer, {"kind": "health", "id": "h"})
            handlers = list(service._clients.values())
            await service.close()
            writer.close()
            return handlers

        handlers = asyncio.run(main())
        assert len(handlers) == 1
        assert all(t.done() and not t.cancelled() for t in handlers)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ServeSettings(workers=0)
        with pytest.raises(ValueError):
            ServeSettings(max_frame_bytes=16)
        with pytest.raises(ValueError):
            ServeSettings(max_inflight=0)
        with pytest.raises(ValueError):
            ServeSettings(max_retries=-1)
        with pytest.raises(ValueError):
            # A chaos kill on an inline (jobs=1) group would take the
            # server itself down -- rejected at construction.
            ServeSettings(allow_chaos=True, group_jobs=1)


STALL_SPEC = "faulty(link:(0,0)->(0,1)@p=1:stall=500000):event:e16"
STALL_PROFILE = {
    "kind": "profile",
    "backend": STALL_SPEC,
    "kernel": "autofocus",
    "watchdog": 5000,
}


class TestResilience:
    def test_budget_exhaustion_is_structured_overloaded(self, held):
        async def scenario(service):
            r1, w1 = await asyncio.open_connection("127.0.0.1", service.port)
            r2, w2 = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                # First request is held in its compute, holding the
                # only admission slot ...
                w1.write(encode_frame({**IMG, "id": "slow"}))
                await w1.drain()
                await until(lambda: service._admission.inflight == 1)
                # ... so the second is rejected immediately.
                rejected, _ = await send_recv(r2, w2, {**IMG, "id": "rej"})
                held.release()
                admitted = await read_until_terminal(r1)
                health, _ = await one_shot(service, {"kind": "health", "id": "h"})
                return rejected, admitted, health
            finally:
                for w in (w1, w2):
                    w.close()
                    await w.wait_closed()

        rejected, admitted, health = service_test(scenario, max_inflight=1)
        assert rejected["type"] == "error"
        assert rejected["code"] == "overloaded"
        assert rejected["retry_after_ms"] > 0
        assert admitted["type"] == "result"  # the admitted one completes
        assert health["resilience"]["overloaded"] == 1
        assert health["resilience"]["admission"]["rejected"] == 1

    def test_per_connection_cap_rejects_pipelined_excess(self, held):
        by_id = service_test(
            pipelined_pair(held), max_connection_inflight=1
        )
        assert by_id["p0"]["type"] == "result"
        assert by_id["p1"]["code"] == "overloaded"

    def test_cap_rejection_hint_routes_through_admission(self, held):
        # Regression: the connection-cap (and drain) rejections must
        # carry the controller's pressure-scaled retry_hint(), not a
        # static constant snapshotted at boot.
        pair = pipelined_pair(held)

        async def scenario(service):
            service._admission.retry_hint = lambda: 777.25
            return await pair(service)

        by_id = service_test(scenario, max_connection_inflight=1)
        assert by_id["p1"]["code"] == "overloaded"
        assert by_id["p1"]["retry_after_ms"] == 777.25

    def test_chaos_marker_requires_allow_chaos(self, tmp_path):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "c",
                    "backend": "analytic:e16",
                    "fail_marker": str(tmp_path / "m"),
                },
            )
            return frame

        frame = service_test(scenario)  # allow_chaos defaults off
        assert frame["type"] == "error"
        assert frame["code"] == "bad-request"

    def test_serve_retry_heals_a_broken_pool(self, tmp_path):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "k",
                    "backend": "analytic:e16",
                    "pulses": 16,
                    "ranges": 17,
                    "fail_marker": str(tmp_path / "m"),
                    "fail_times": 1,
                },
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(
            scenario,
            allow_chaos=True,
            group_jobs=2,
            group_retries=0,
            max_retries=1,
            retry_backoff_ms=2.0,
        )
        assert frame["type"] == "result"
        assert frame["cycles"] > 0
        assert frame["retries"] == 1  # healed by the serve-level replay
        assert health["resilience"]["retries"] == 1
        assert health["resilience"]["pool_rebuilds"] >= 1

    def test_exhausted_retries_surface_structured_broken_pool(self, tmp_path):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "k",
                    "backend": "analytic:e16",
                    "pulses": 16,
                    "ranges": 17,
                    "fail_marker": str(tmp_path / "m"),
                    "fail_times": 8,  # outlasts every retry layer
                },
            )
            return frame

        frame = service_test(
            scenario,
            allow_chaos=True,
            group_jobs=2,
            group_retries=0,
            max_retries=1,
            retry_backoff_ms=2.0,
        )
        assert frame["type"] == "error"
        assert frame["code"] == "broken-pool"
        assert frame["retries"] == 1

    def test_breaker_degrades_event_requests_after_trip(self):
        async def scenario(service):
            tripping, _ = await one_shot(service, {**STALL_PROFILE, "id": "t"})
            degraded, _ = await one_shot(service, {**STALL_PROFILE, "id": "d"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return tripping, degraded, health

        tripping, degraded, health = service_test(
            scenario, breaker_window=4, breaker_failures=1, breaker_cooldown=4
        )
        assert tripping["code"] == "stall"
        # Post-trip the same spec answers on the analytic substitute.
        assert degraded["type"] == "result"
        assert degraded["degraded"] is True
        assert degraded["degraded_to"].endswith(":analytic:e16")
        breaker = health["resilience"]["breaker"]
        assert breaker["trips"] == 1
        assert health["resilience"]["degraded"] == 1
        assert health["window"]["events"].get("degraded") == 1

    def test_health_window_and_resilience_shape(self):
        async def scenario(service):
            await one_shot(service, {**IMG, "id": "w"})
            frame, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame

        frame = service_test(scenario)
        window = frame["window"]
        assert window["horizon_s"] > 0
        assert window["events"].get("served") == 1
        assert window["per_s"]["served"] > 0
        res = frame["resilience"]
        assert res["admission"]["budget"] >= 1
        assert res["breaker"]["trips"] == 0
        assert set(res) >= {
            "admission",
            "overloaded",
            "retries",
            "degraded",
            "pool_rebuilds",
            "breaker",
        }

    def test_executor_exception_is_a_structured_internal_error(
        self, monkeypatch
    ):
        def explode(*args):
            raise RuntimeError("executor exploded")

        monkeypatch.setattr(service_module, "_execute", explode)

        async def scenario(service):
            frame, _ = await one_shot(
                service, {"kind": "profile", "id": "x", "backend": "event:e16"}
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(
            scenario, breaker_window=4, breaker_failures=1
        )
        assert frame["type"] == "error"
        assert frame["code"] == "internal"
        assert frame["retries"] == 0
        # The failure fed the breaker like every other terminal.
        assert health["resilience"]["breaker"]["trips"] == 1

    def test_streaming_deadline_message_uses_effective_deadline(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service, {**IMG, "id": "sd", "stream": True}
            )
            return frame

        # Only the *settings-level* default applies; the message must
        # report that value, never "None ms".
        frame = service_test(scenario, default_deadline_ms=0.001)
        assert frame["code"] == "deadline"
        assert "0.001 ms" in frame["detail"]
        assert "None" not in frame["detail"]


def pipelined_pair(held):
    """Scenario: pipeline ``p0``, ``p1`` on one connection; ``p1`` is
    answered while ``p0`` is held in its compute.  Returns frames by id."""

    async def scenario(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        try:
            for rid in ("p0", "p1"):
                writer.write(encode_frame({**IMG, "id": rid}))
            await writer.drain()
            first = await read_until_terminal(reader)
            held.release()
            second = await read_until_terminal(reader)
            return {f["id"]: f for f in (first, second)}
        finally:
            writer.close()
            await writer.wait_closed()

    return scenario


async def read_until_terminal(reader):
    while True:
        frame = await read_frame(reader, 1 << 20)
        assert frame is not None, "server closed mid-request"
        if frame.get("type") != "partial":
            return frame
