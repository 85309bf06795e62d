"""Load-harness tests: percentiles, the repro-load/1 document, CLI glue."""

import asyncio
import json
import struct

import pytest

from repro.serve import ImageService, ServeSettings
from repro.serve.load import LOAD_SCHEMA, dump_load, format_load, percentile, run_load


class TestPercentile:
    def test_single_sample(self):
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 99) == 42.0

    def test_median_interpolates(self):
        assert percentile([1.0, 3.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        samples = [5.0, 1.0, 3.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0

    def test_p99_tracks_the_tail(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.5
        assert 99.0 <= percentile(samples, 99) <= 100.0
        assert percentile(samples, 100) == 100.0

    def test_order_independent(self):
        assert percentile([9.0, 1.0, 5.0], 50) == percentile([1.0, 5.0, 9.0], 50)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestRunLoad:
    def _run(self, **load_kwargs):
        async def main():
            service = ImageService(
                ServeSettings(host="127.0.0.1", port=0)
            )
            await service.start()
            try:
                return await run_load("127.0.0.1", service.port, **load_kwargs)
            finally:
                await service.close()

        return asyncio.run(main())

    def test_document_shape_and_zero_errors(self):
        doc = self._run(
            clients=2, requests=3, payload={"pulses": 32, "ranges": 33}
        )
        assert doc["schema"] == LOAD_SCHEMA
        assert doc["total"] == 6
        assert doc["errors"] == 0
        assert doc["error_detail"] == []
        lat = doc["latency_ms"]
        assert 0 < lat["p50"] <= lat["p99"] <= lat["max"]
        assert doc["throughput_rps"] > 0
        # Identical requests: repeats must be cache/coalesce-served and
        # byte-identical across every client.
        assert doc["byte_identical"] is True
        assert doc["cached_responses"] >= 1
        assert doc["server"]["served"] >= 6
        assert doc["server"]["cache"]["hits"] + doc["server"]["coalesced"] >= 1
        # The whole document must survive JSON (the bench trajectory).
        assert json.loads(dump_load(doc)) == doc

    def test_unique_mode_defeats_the_cache(self):
        doc = self._run(
            clients=2,
            requests=2,
            payload={"pulses": 32, "ranges": 33},
            unique=True,
        )
        assert doc["errors"] == 0
        assert doc["byte_identical"] is None

    def test_shutdown_after_stops_the_server(self):
        async def main():
            service = ImageService(
                ServeSettings(host="127.0.0.1", port=0)
            )
            await service.start()
            waiter = asyncio.create_task(service.serve_until_shutdown())
            doc = await run_load(
                "127.0.0.1",
                service.port,
                clients=1,
                requests=1,
                payload={"pulses": 32, "ranges": 33},
                shutdown_after=True,
            )
            await asyncio.wait_for(waiter, timeout=10)
            return doc

        doc = asyncio.run(main())
        assert doc["errors"] == 0

    def test_format_load_is_one_screen(self):
        doc = self._run(clients=1, requests=2, payload={"pulses": 32, "ranges": 33})
        text = format_load(doc)
        assert "p50" in text and "p99" in text
        assert "byte-identical: yes" in text
        assert len(text.splitlines()) <= 6

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            asyncio.run(run_load("127.0.0.1", 1, clients=0))


class TestUnreadableReplies:
    def test_oversized_reply_is_an_error_record(self):
        # A server allowed 4 MiB frames answers a 256x257 RDA image with
        # a ~1.4 MB reply, over the client's 1 MiB limit.  The request
        # gets an unstructured ``oversized`` record, and the run still
        # finishes: health is read and the shutdown is sent.
        async def main():
            service = ImageService(
                ServeSettings(
                    host="127.0.0.1", port=0, max_frame_bytes=4 << 20,
                )
            )
            await service.start()
            waiter = asyncio.create_task(service.serve_until_shutdown())
            doc = await run_load(
                "127.0.0.1",
                service.port,
                clients=1,
                requests=1,
                payload={"pulses": 256, "ranges": 257, "algorithm": "rda"},
                shutdown_after=True,
            )
            await asyncio.wait_for(waiter, timeout=10)
            return doc

        doc = asyncio.run(main())
        assert doc["total"] == 1
        assert doc["errors"] == 1
        assert doc["unstructured_errors"] == 1
        assert doc["error_detail"] == [{"id": "c0/r0", "code": "oversized"}]
        assert doc["server"]["served"] == 1
        assert "1 unstructured" in format_load(doc)

    def test_broken_stream_is_a_connection_error(self):
        # A reply cut off mid-frame leaves nothing to resynchronise on.
        async def handle(reader, writer):
            await reader.readexactly(4)
            writer.write(struct.pack(">I", 100) + b"{}")
            await writer.drain()
            writer.close()

        async def main():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ConnectionError, match="truncated"):
                    await run_load("127.0.0.1", port, clients=1, requests=1)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(main())
