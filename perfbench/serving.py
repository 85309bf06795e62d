"""The ``serve-fresh`` and ``serve-repeat`` workloads.

Each run spawns its own ``repro serve`` process with a private cache
directory and drives it over the public ``repro-serve/1`` protocol from
this one process, on at most ``nproc`` (capped at 2) connections:

1. set-up, repeated :data:`SETUP_REPS` times on fresh servers: spawn
   until the port file appears, then warm up (``serve-repeat``
   computes its hot set here);
2. a closed loop: passes over a fixed list of requests with
   :data:`DEPTH` requests in flight per connection.  It saturates the
   server and gives every end-to-end metric;
3. traced runs only: an open loop of seeded Poisson arrivals at a fixed
   rate, pipelined round-robin over the connections, each request timed
   from its *scheduled* send to its terminal frame.  Its latencies are
   per-layer diagnostics: on a shared host they moved with host load by
   up to 52% between runs (README).

The request streams below are pure functions of the workload seed;
the program sees only the generated requests.  End-to-end times are
reported at reference host speed (``perfbench.common``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import signal
import struct
import sys
import time
from collections import deque
from pathlib import Path

from perfbench.common import (
    Outcome,
    at_reference_speed,
    calibration_all_cpus_s,
    derive_seed,
    median,
    percentile,
    ratio,
    tail,
)
from perfbench.sim import PINNED_CYCLES
from perfbench.spans import NullTracer, Tracer

GRIDS = ((128, 129), (256, 257))
BLOCK_MIX = {
    (GRIDS[0], "ffbp"): 27,
    (GRIDS[0], "rda"): 3,
    (GRIDS[1], "ffbp"): 9,
    (GRIDS[1], "rda"): 1,
}
"""One stratified block of fresh requests: grids 3:1 and 1 RDA in 10 on
each grid.  Every block holds this mix, so every seed and pass asks for
the same work; the seed picks only the order and the noise seeds."""
BLOCK = sum(BLOCK_MIX.values())

OPEN_RATE_RPS = {"serve-fresh": 13.0, "serve-repeat": 70.0}
"""Open-loop arrival rates: fixed constants, about a third of the
closed-loop capacity measured on a 2-core host."""

DEPTH = 2
"""Requests each connection keeps in flight in the closed loop.  With
one, the run-to-run spread of the latency median was 1.6 times that of
throughput; a deeper queue keeps the server busy between requests."""

REPEAT_PASS = 40
"""Hot-set draws per ``serve-repeat`` saturation pass."""

SETUP_REPS = 3

MAX_FRAME_BYTES = 4 << 20
"""Frame ceiling passed to the server: an RDA image on the large grid
encodes to 1.4 MB, above the 1 MiB default."""

WARMUP_FRESH = 40
"""Fresh requests served in set-up before timing starts.  Without them
the first ~10 s of timing ran 20-40% slower than the rest."""

WARMUP_READS = 4
"""Rounds of cached hot-set reads in ``serve-repeat`` set-up."""

FRESH_SAMPLE = 8
"""``serve-fresh`` requests (two from each of the first four passes)
whose image is recomputed in process and compared byte for byte."""

_LEN = struct.Struct(">I")
TERMINAL = ("result", "error", "health", "ok")


# ---------------------------------------------------------------------------
# Request streams (pure functions of the seed)
# ---------------------------------------------------------------------------

def image_request(pulses: int, ranges: int, algorithm: str, noise_seed: int) -> dict:
    return {
        "kind": "image",
        "pulses": pulses,
        "ranges": ranges,
        "algorithm": algorithm,
        "noise_seed": noise_seed,
    }


def fresh_block(seed: int, tag: str, block: int) -> list[dict]:
    """One stratified block of ``serve-fresh`` requests, fresh noise seeds."""
    cells = [cell for cell, n in BLOCK_MIX.items() for _ in range(n)]
    random.Random(derive_seed(seed, "fresh-block", tag, block)).shuffle(cells)
    return [
        image_request(
            p, r, a, derive_seed(seed, "noise", tag, block * BLOCK + i)
        )
        for i, ((p, r), a) in enumerate(cells)
    ]


def fresh_stream(seed: int, tag: str, n: int) -> list[dict]:
    out: list[dict] = []
    block = 0
    while len(out) < n:
        out.extend(fresh_block(seed, tag, block))
        block += 1
    return out[:n]


def hot_set(seed: int) -> list[dict]:
    """The 12 ``serve-repeat`` payloads, in fixed popularity rank.

    The rank of each kind of payload is fixed so that every seed puts
    the same mix of frame sizes at the head of the Zipf curve; the seed
    picks only the scenes (noise seeds).
    """
    small, large = GRIDS

    def img(grid, algo, k):
        return image_request(*grid, algo, derive_seed(seed, "hot", k))

    profile = lambda backend, kernel: {  # noqa: E731
        "kind": "profile",
        "backend": backend,
        "kernel": kernel,
        "pulses": large[0],
        "ranges": large[1],
        "cores": 16,
    }
    return [
        img(small, "ffbp", 0),
        img(large, "ffbp", 1),
        profile("analytic:e16", "ffbp"),
        img(small, "ffbp", 2),
        profile("event:e16", "autofocus"),
        img(small, "ffbp", 3),
        img(small, "rda", 4),
        img(large, "ffbp", 5),
        profile("event:e16", "ffbp"),
        img(small, "ffbp", 6),
        profile("analytic:e16", "autofocus"),
        img(large, "rda", 7),
    ]


ZIPF_S = 1.1


def zipf_counts(n: int, k: int) -> list[int]:
    """How often each of ``k`` ranks comes up in ``n`` draws: the Zipf
    shares, rounded by largest remainder so that they sum to ``n``."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(k)]
    exact = [n * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(k), key=lambda r: counts[r] - exact[r])
    for rank in by_remainder[: n - sum(counts)]:
        counts[rank] += 1
    return counts


def zipf_draws(seed: int, tag: str, n: int, k: int, index: int = 0) -> list[int]:
    """``n`` hot-set ranks in seeded order, with the counts of
    :func:`zipf_counts`.  Independent draws put 6 to 16 large images in
    a pass of 40 depending on the seed, and latency followed them."""
    draws = [rank for rank, c in enumerate(zipf_counts(n, k)) for _ in range(c)]
    random.Random(derive_seed(seed, "zipf", tag, index)).shuffle(draws)
    return draws


MIN_OPEN_SAMPLES = 210
"""The open loop runs past its share of ``--seconds`` until it has sent
this many requests, so p95 always has at least 10 samples beyond it."""


def arrivals(seed: int, rate: float, duration: float) -> list[float]:
    """Poisson arrival offsets (s): all of ``[0, duration)``, and at least
    :data:`MIN_OPEN_SAMPLES` of them."""
    rng = random.Random(derive_seed(seed, "arrivals"))
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration and len(out) >= MIN_OPEN_SAMPLES:
            return out
        out.append(t)


def open_loop_plan(
    workload: str, seed: int, duration: float
) -> list[tuple[float, dict]]:
    times = arrivals(seed, OPEN_RATE_RPS[workload], duration)
    if workload == "serve-fresh":
        reqs = fresh_stream(seed, "open", len(times))
    else:
        hot = hot_set(seed)
        reqs = [hot[i] for i in zipf_draws(seed, "open", len(times), len(hot))]
    return list(zip(times, reqs))


def saturation_pass(workload: str, seed: int, index: int) -> list[dict]:
    """Pass ``index`` of the closed loop.

    Every pass holds the same mix in its own seeded order:
    ``serve-fresh`` passes are fresh blocks, ``serve-repeat`` passes
    are the Zipf counts of the hot set.
    """
    if workload == "serve-fresh":
        return fresh_block(seed, "saturation", index)
    hot = hot_set(seed)
    draws = zipf_draws(seed, "saturation", REPEAT_PASS, len(hot), index)
    return [hot[i] for i in draws]


def warmup_requests(workload: str, seed: int) -> list[dict]:
    """Set-up requests: the hot set computed once, then read back from
    the cache; or a run of fresh requests."""
    if workload == "serve-repeat":
        return hot_set(seed) * (1 + WARMUP_READS)
    return fresh_stream(seed, "warmup", WARMUP_FRESH)


# ---------------------------------------------------------------------------
# Per-request derivations (pure; checked by the self-tests)
# ---------------------------------------------------------------------------

def latency_ms(rec: dict) -> float:
    """Scheduled send to terminal frame; a failed request never arrives."""
    if rec.get("type") != "result":
        return math.inf
    return (rec["done"] - rec["sched"]) * 1e3


def transport_ms(rec: dict) -> float | None:
    """Client round trip minus the server's own ``elapsed_ms``."""
    if rec.get("type") != "result" or rec.get("elapsed_ms") is None:
        return None
    return (rec["done"] - rec["sent"]) * 1e3 - rec["elapsed_ms"]


def wait_ms(rec: dict) -> float | None:
    """Server time outside the compute: window, queue, executor, cache put.

    Only uncached responses qualify: a cached response carries the
    ``compute_ms`` of the cold run that filled the cache.
    """
    if (
        rec.get("type") != "result"
        or rec.get("cached")
        or rec.get("compute_ms") is None
    ):
        return None
    return rec["elapsed_ms"] - rec["compute_ms"]


def health_delta(before: dict, after: dict) -> dict:
    """Counter growth between two ``health`` snapshots."""

    def get(doc, *path):
        for key in path:
            doc = (doc or {}).get(key)
        return doc or 0

    paths = {
        "batches": ("batches",),
        "coalesced": ("coalesced",),
        "deadline_misses": ("deadline_misses",),
        "cache_hits": ("cache", "hits"),
        "cache_misses": ("cache", "misses"),
        "cache_stores": ("cache", "stores"),
        "memo_hits": ("memo", "hits"),
        "memo_misses": ("memo", "misses"),
        "overloaded": ("resilience", "overloaded"),
        "retries": ("resilience", "retries"),
        "degraded": ("resilience", "degraded"),
    }
    return {k: get(after, *p) - get(before, *p) for k, p in paths.items()}


def server_layer_metrics(delta: dict) -> dict[str, float]:
    """Per-layer ratios from a :func:`health_delta`.

    Every admitted request of a batch group either coalesces onto an
    identical payload or looks the cache up once.
    """
    lookups = delta["cache_hits"] + delta["cache_misses"]
    grouped = lookups + delta["coalesced"]
    return {
        "serve.batch_size_mean": ratio(grouped, delta["batches"]),
        "serve.coalesced_ratio": ratio(delta["coalesced"], grouped),
        "exec.cache_hit_ratio": ratio(delta["cache_hits"], lookups),
        "perf.memo_hit_ratio": ratio(
            delta["memo_hits"], delta["memo_hits"] + delta["memo_misses"]
        ),
    }


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------

class Server:
    """One ``repro serve`` child with a private cache directory."""

    def __init__(self, root: Path, workdir: Path, env: dict) -> None:
        self.root = root
        self.dir = workdir
        self.env = env
        self.proc = None
        self.port = None
        self.peak_rss_mib = 0.0

    async def start(self, timeout: float = 60.0) -> None:
        import subprocess

        self.dir.mkdir(parents=True)
        port_file = self.dir / "port"
        self.log = open(self.dir / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port-file", str(port_file),
                "--cache-dir", str(self.dir / "cache"),
                "--max-frame-bytes", str(MAX_FRAME_BYTES),
            ],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        deadline = time.perf_counter() + timeout
        while True:
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.port = int(text)
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"repro serve did not start: {self.log_tail()}"
                )
            await asyncio.sleep(0.005)

    def setup_peak_rss_mib(self) -> float:
        """Peak resident set so far (``VmHWM``), MiB.

        Read after the warm-up, which sends one request at a time, it is
        the footprint of the served work.  The peak over the whole run
        also depends on how the closed loop's concurrent requests happen
        to overlap: over fifteen ``serve-fresh`` runs it read either
        about 78 or about 96 MiB, lower when the host was faster.
        """
        status = Path("/proc") / str(self.proc.pid) / "status"
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM in {status}")

    def log_tail(self) -> str:
        self.log.flush()
        return (self.dir / "serve.log").read_bytes()[-2000:].decode(
            errors="replace"
        )

    async def stop(self, conn: "Conn | None", timeout: float = 20.0) -> int:
        """Ask for a clean shutdown, reap the process and read its peak RSS.

        Reaping through ``wait4`` gives the child's own resource usage,
        so the peak RSS is the server's alone.
        """
        if self.proc is None:
            return 0
        if conn is not None:
            try:
                await asyncio.wait_for(conn.call({"kind": "shutdown"}), 10)
            except (OSError, asyncio.TimeoutError, ConnectionError):
                pass
            await conn.close()
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.send_signal(signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            await asyncio.sleep(0.01)
        self.peak_rss_mib = usage.ru_maxrss / 1024.0
        self.log.close()
        self.proc = None
        return os.waitstatus_to_exitcode(status)

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            self.proc = None


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class Conn:
    """One pipelined connection: requests matched to replies by id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: dict[str, asyncio.Future] = {}
        self.reading = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self.reader.readexactly(_LEN.size)
                (n,) = _LEN.unpack(header)
                body = await self.reader.readexactly(n)
                done = time.perf_counter()
                frame = json.loads(body)
                if frame.get("type") not in TERMINAL:
                    continue
                fut = self.waiting.pop(str(frame.get("id")), None)
                if fut is not None and not fut.done():
                    fut.set_result((frame, n + _LEN.size, done))
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            for fut in self.waiting.values():
                if not fut.done():
                    fut.set_exception(ConnectionError(str(exc)))
            self.waiting.clear()

    def send(self, obj: dict) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.waiting[str(obj["id"])] = fut
        body = json.dumps(obj, separators=(",", ":")).encode()
        self.writer.write(_LEN.pack(len(body)) + body)
        return fut

    async def call(self, obj: dict) -> dict:
        obj = dict(obj, id=obj.get("id", f"ctl/{time.perf_counter_ns()}"))
        frame, _, _ = await self.send(obj)
        return frame

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.reading.cancel()
        try:
            await self.reading
        except (asyncio.CancelledError, ConnectionError):
            pass


def _record(rid: str, req: dict, sched: float, sent: float) -> dict:
    return {"id": rid, "request": req, "sched": sched, "sent": sent}


def _complete(rec: dict, result, keep: set) -> dict:
    frame, nbytes, done = result
    image = frame.get("image") or {}
    rec.update(
        done=done,
        nbytes=nbytes,
        type=frame.get("type"),
        code=frame.get("code"),
        cached=bool(frame.get("cached", False)),
        elapsed_ms=frame.get("elapsed_ms"),
        compute_ms=frame.get("compute_ms"),
        sha256=image.get("sha256"),
        cycles=frame.get("cycles"),
    )
    if rec["id"] in keep:
        rec["frame"] = frame
    return rec


async def _await(rec: dict, fut: asyncio.Future, keep: set, timeout: float) -> dict:
    try:
        return _complete(rec, await asyncio.wait_for(fut, timeout), keep)
    except (asyncio.TimeoutError, ConnectionError) as exc:
        rec.update(done=time.perf_counter(), type="lost", code=type(exc).__name__)
        return rec


async def open_loop(conns: list[Conn], plan, keep: set, tracer) -> list[dict]:
    """Send each request at its scheduled offset, round-robin over conns."""
    t0 = time.perf_counter() + 0.01
    pending = []
    for i, (offset, req) in enumerate(plan):
        sched = t0 + offset
        delay = sched - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        rid = f"open/{i}"
        fut = conns[i % len(conns)].send(dict(req, id=rid))
        rec = _record(rid, req, sched, time.perf_counter())
        pending.append(asyncio.create_task(_await(rec, fut, keep, 60.0)))
    records = list(await asyncio.gather(*pending))
    for rec in records:
        root = tracer.record("serve.request", rec["id"], rec["sched"], rec["done"])
        tracer.record("loadgen.delay", rec["id"], rec["sched"], rec["sent"], root)
        tracer.record("serve.roundtrip", rec["id"], rec["sent"], rec["done"], root)
    return records


async def saturate(
    conns: list[Conn],
    passes,
    seconds: float,
    keep: set,
    tracer,
    depth: int = 1,
) -> tuple[list[dict], list[float], list[float]]:
    """Closed loop: passes over fixed lists, ``depth`` requests in flight
    per connection.

    Calibration runs between passes, on every CPU, while the server is
    idle.
    Returns the records, the measured pass times and each pass's scale
    to reference speed (from the calibrations at both ends).  Each
    record carries the ``scale`` of its pass.
    """
    records: list[dict] = []
    pass_s: list[float] = []
    scales: list[float] = []
    deadline = time.perf_counter() + seconds
    index = 0
    cal = calibration_all_cpus_s()
    while time.perf_counter() < deadline or not pass_s:
        first = len(records)
        queue = deque(enumerate(passes(index)))
        t_pass = time.perf_counter()

        async def worker(conn: Conn) -> None:
            while queue:
                j, req = queue.popleft()
                rid = f"sat/{index}/{j}"
                now = time.perf_counter()
                rec = _record(rid, req, now, now)
                records.append(await _await(rec, conn.send(dict(req, id=rid)), keep, 60.0))
                tracer.record("serve.request", rid, now, records[-1]["done"])

        await asyncio.gather(*(worker(c) for c in conns for _ in range(depth)))
        pass_s.append(time.perf_counter() - t_pass)
        cals = [cal, calibration_all_cpus_s()]
        cal = cals[-1]
        scales.append(at_reference_speed(1.0, cals))
        for rec in records[first:]:
            rec["scale"] = scales[-1]
        index += 1
    return records, pass_s, scales


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, env) -> Outcome:
    return asyncio.run(_run(workload, seed, seconds, trace, env))


async def _run(workload, seed, seconds, trace, env) -> Outcome:
    out = Outcome()
    tracer = Tracer() if trace else NullTracer()
    n_conns = max(1, min(os.cpu_count() or 1, 2))
    plan = open_loop_plan(workload, seed, seconds / 2) if trace else []
    closed_s = seconds / 2 if trace else seconds
    sample_rng = random.Random(derive_seed(seed, "sample"))
    keep = set()
    if workload == "serve-fresh":
        keep = {
            f"sat/{p}/{j}"
            for p in range(FRESH_SAMPLE // 2)
            for j in sample_rng.sample(range(BLOCK), 2)
        }

    setups, wall_setups, warm = [], [], []
    server = conns = None
    try:
        cal = calibration_all_cpus_s()
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            server = Server(env.root, env.work / f"serve-{rep}", env.child_env)
            await server.start()
            conns = [await Conn.open(server.port) for _ in range(n_conns)]
            warm = []
            for i, req in enumerate(warmup_requests(workload, seed)):
                rid = f"warm/{i}"
                now = time.perf_counter()
                rec = _record(rid, req, now, now)
                keep_warm = {rid} if workload == "serve-repeat" else set()
                warm.append(
                    await _await(rec, conns[0].send(dict(req, id=rid)), keep_warm, 60.0)
                )
            wall_setups.append(time.perf_counter() - t0)
            cals = [cal, calibration_all_cpus_s()]
            cal = cals[-1]
            setups.append(at_reference_speed(wall_setups[-1], cals))
            if rep < SETUP_REPS - 1:
                for c in conns[1:]:
                    await c.close()
                await server.stop(conns[0])
                server = conns = None

        setup_rss_mib = server.setup_peak_rss_mib()
        h0 = await conns[0].call({"kind": "health"})
        sat_recs, wall_pass_s, pass_scale = await saturate(
            conns,
            lambda i: saturation_pass(workload, seed, i),
            closed_s,
            keep,
            tracer,
            DEPTH,
        )
        h1 = await conns[0].call({"kind": "health"})
        open_recs = await open_loop(conns, plan, set(), tracer)
        for c in conns[1:]:
            await c.close()
        rc = await server.stop(conns[0])
        conns = None
    finally:
        if conns:
            for c in conns:
                await c.close()
        if server is not None:
            server.kill()
    out.check(rc == 0, f"repro serve exited with code {rc}")

    for rec in warm:
        out.check(rec.get("type") == "result", f"{rec['id']}: {rec.get('code')}")
    timed = open_recs + sat_recs
    out.attempted += len(timed)
    for rec in timed:
        if rec.get("type") != "result":
            out.fail(f"{rec['id']}: {rec.get('type')} {rec.get('code')}")

    lat = [latency_ms(r) * r["scale"] for r in sat_recs]
    ok_sat = sum(1 for r in sat_recs if r.get("type") == "result")
    pass_s = [s * k for s, k in zip(wall_pass_s, pass_scale)]
    out.metric("setup_s", median(setups), "s")
    out.metric("latency_p50_ms", percentile(lat, 50), "ms")
    p95 = tail(lat, 95)
    out.metric("latency_p95_ms", p95["value"], "ms")
    out.metric("throughput_rps", ok_sat / sum(pass_s), "1/s")
    out.metric("run_s", median(pass_s), "s")
    out.metric("rss_peak_mb", setup_rss_mib, "MiB")
    out.details.update(
        closed_requests=len(sat_recs),
        closed_passes=len(pass_s),
        latency_p95=p95,
        setup_reps_s=wall_setups,
        rss_peak_whole_run_mb=server.peak_rss_mib,
        wall_latency_p50_ms=percentile(map(latency_ms, sat_recs), 50),
        wall_latency_p95_ms=percentile(map(latency_ms, sat_recs), 95),
        wall_run_s=median(wall_pass_s),
        connections=n_conns,
        depth=DEPTH,
    )

    _check_responses(workload, seed, out, warm, timed)

    if trace:
        delta = health_delta(h0, h1)
        layer = _layer_metrics(seed, out, sat_recs, open_recs, delta, tracer)
        out.details["health_delta"] = delta
        out.details["layers"] = layer
        out.tracer = tracer
    return out


def _check_responses(workload, seed, out: Outcome, warm, timed) -> None:
    """Correctness: served bytes and cycles against in-process references."""
    from repro.serve.protocol import decode_array, parse_request
    from repro.serve.workers import form_image, profile_kernel

    def payload(req):
        return parse_request(dict(req, id=None)).payload()

    if workload == "serve-fresh":
        cached = [r["id"] for r in timed if r.get("cached")]
        out.check(not cached, f"{len(cached)} cached responses on serve-fresh")
        for rec in timed:
            if "frame" not in rec:
                continue
            try:
                decode_array(rec["frame"]["image"])
                ok = form_image(payload(rec["request"]))["image"]["sha256"] == rec["sha256"]
            except (KeyError, ValueError):
                ok = False
            out.check(ok, f"{rec['id']}: served image differs from form_image")
        return

    # serve-repeat: every response of a hot payload must equal its reference.
    hot = hot_set(seed)
    refs = {}
    for k, req in enumerate(hot):
        if req["kind"] == "image":
            img = form_image(payload(req))["image"]
            refs[k] = ("sha256", img["sha256"])
            served = warm[k].get("frame", {}).get("image")
            try:
                ok = served is not None and decode_array(served) is not None
            except ValueError:
                ok = False
            out.check(ok, f"hot {k}: served image fails its digest")
        else:
            value = profile_kernel(payload(req))
            refs[k] = ("cycles", value["cycles"])
            if (req["backend"], req["kernel"]) == ("event:e16", "autofocus"):
                pin = PINNED_CYCLES["autofocus_mpmd"]
                out.check(
                    warm[k].get("cycles") == pin,
                    f"hot {k}: event autofocus cycles {warm[k].get('cycles')} "
                    f"!= pinned {pin}",
                )
    from repro.verify.oracles import CYCLES_TOL

    for kernel in ("ffbp", "autofocus"):
        ev = next(w for w, r in zip(warm, hot) if r.get("backend") == "event:e16" and r["kernel"] == kernel)
        an = next(w for w, r in zip(warm, hot) if r.get("backend") == "analytic:e16" and r["kernel"] == kernel)
        out.check(
            an.get("cycles") is not None
            and ev.get("cycles") is not None
            and CYCLES_TOL.allows(an["cycles"], ev["cycles"]),
            f"analytic {kernel} cycles {an.get('cycles')} outside CYCLES_TOL "
            f"of event {ev.get('cycles')}",
        )
    index = {json.dumps(r, sort_keys=True): k for k, r in enumerate(hot)}
    bad = 0
    for rec in warm + timed:
        if rec.get("type") != "result":
            continue
        field, want = refs[index[json.dumps(rec["request"], sort_keys=True)]]
        if rec.get(field) != want:
            bad += 1
    out.check(bad == 0, f"{bad} served hot-set responses differ from references")


def _layer_metrics(seed, out, closed, open_recs, delta, tracer) -> dict:
    """Per-layer metrics of the closed loop, plus the open loop's view."""
    ok = [r for r in closed if r.get("type") == "result"]
    transport = [t for t in map(transport_ms, ok) if t is not None]
    waits = [w for w in map(wait_ms, ok) if w is not None]
    hits = [r["elapsed_ms"] for r in ok if r.get("cached")]
    uncached_images = [
        r["compute_ms"]
        for r in ok
        if not r.get("cached") and r["request"]["kind"] == "image"
    ]
    m = {
        "serve.transport_p50_ms": median(transport) if transport else 0.0,
        "serve.frame_kib_mean": sum(r["nbytes"] for r in ok) / 1024 / max(len(ok), 1),
        "serve.wait_p50_ms": median(waits) if waits else 0.0,
        "serve.hit_elapsed_p50_ms": median(hits) if hits else 0.0,
        "serve.overloaded": delta["overloaded"],
        "serve.deadline_misses": delta["deadline_misses"],
        "serve.retries": delta["retries"],
        "serve.degraded": delta["degraded"],
        "exec.cache_stores": delta["cache_stores"],
        "sar.compute_p50_ms": median(uncached_images) if uncached_images else 0.0,
        "loadgen.open_p50_ms": percentile(map(latency_ms, open_recs), 50),
        "loadgen.open_p95_ms": percentile(map(latency_ms, open_recs), 95),
        "loadgen.late_p95_ms": percentile(
            [(r["sent"] - r["sched"]) * 1e3 for r in open_recs], 95
        ),
    }
    m.update(server_layer_metrics(delta))
    m.update(_inprocess_pass(seed, out, closed, tracer))
    return m


TRACED_SAMPLE = 12


def _inprocess_pass(seed, out, timed, tracer: Tracer) -> dict:
    """The served pipeline rebuilt from its public parts, once untraced
    and once traced, over a seeded sample of this run's requests.

    Gives the ``sar`` / ``serve`` encode / ``exec`` cache split that the
    server does not report, and the tracing overhead as traced minus
    untraced time per request.  The rebuilt image must equal the
    served one byte for byte.
    """
    import numpy as np

    from repro.eval.figures import default_scene
    from repro.exec.cache import ResultCache
    from repro.sar.config import RadarConfig
    from repro.sar.ffbp import FfbpOptions, ffbp
    from repro.sar.rda import range_doppler_image
    from repro.sar.simulate import simulate_compressed
    from repro.serve.protocol import encode_array, encode_frame

    served = {}
    for rec in timed:
        if rec.get("type") == "result" and rec["request"]["kind"] == "image":
            served.setdefault(json.dumps(rec["request"], sort_keys=True), rec)
    # Stratified by grid and algorithm, so every sar stage is sampled.
    rng = random.Random(derive_seed(seed, "traced-sample"))
    strata: dict[tuple, list[str]] = {}
    for key in sorted(served):
        req = served[key]["request"]
        strata.setdefault((req["pulses"], req["algorithm"]), []).append(key)
    per = max(1, TRACED_SAMPLE // max(len(strata), 1))
    picked = [
        key
        for _, keys in sorted(strata.items())
        for key in rng.sample(keys, min(per, len(keys)))
    ]
    cache_dir = Path(os.environ["TMPDIR"]) / "inprocess-cache"

    def one(req: dict, t) -> str:
        cfg = RadarConfig.small(n_pulses=req["pulses"], n_ranges=req["ranges"])
        with t.span("sar.simulate"):
            data = simulate_compressed(
                cfg, default_scene(cfg), noise_sigma=0.05, seed=req["noise_seed"]
            )
        if req["algorithm"] == "ffbp":
            with t.span("sar.ffbp"):
                image = ffbp(data, cfg, FfbpOptions()).data
        else:
            with t.span("sar.rda"):
                image = range_doppler_image(
                    np.asarray(data, np.complex128), cfg
                ).data
        with t.span("serve.encode_array"):
            value = {"image": encode_array(image), "algorithm": req["algorithm"]}
        cache = ResultCache(cache_dir)
        key = cache.entry_key("perfbench/image", req)
        with t.span("exec.cache_put"):
            cache.put(key, value)
        with t.span("exec.cache_get"):
            cache.get(key)
        with t.span("serve.encode_frame"):
            encode_frame(dict(value, id=0, type="result"), MAX_FRAME_BYTES)
        return value["image"]["sha256"]

    def timed_pass(t, label: str) -> list[float]:
        walls = []
        for i, key in enumerate(picked):
            req = json.loads(key)
            t0 = time.perf_counter()
            with t.span("inprocess.request", op=f"{label}/{i}"):
                sha = one(req, t)
            walls.append((time.perf_counter() - t0) * 1e3)
            out.check(
                sha == served[key]["sha256"],
                f"in-process image {label}/{i} differs from the served one",
            )
        return walls

    untraced = timed_pass(NullTracer(), "untraced")
    traced = timed_pass(tracer, "traced")
    shutil.rmtree(cache_dir, ignore_errors=True)

    def p50(name):
        d = tracer.durations_ms(name)
        return median(d) if d else 0.0

    return {
        "sar.simulate_ms": p50("sar.simulate"),
        "sar.ffbp_ms": p50("sar.ffbp"),
        "sar.rda_ms": p50("sar.rda"),
        "serve.encode_ms": p50("serve.encode_array") + p50("serve.encode_frame"),
        "exec.cache_put_ms": p50("exec.cache_put"),
        "exec.cache_get_ms": p50("exec.cache_get"),
        "trace.overhead_ms": median(traced) - median(untraced) if picked else 0.0,
    }
