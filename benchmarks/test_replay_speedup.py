"""Benchmark: a replay cache hit is >= 2x faster than a cold event run.

The replay tier (docs/architecture.md §16) earns its place only if a
repeated event-backend row is cheaper from the compiled schedule than
from the engine.  Each case times one cold ``event:e16`` run, warms the
schedule cache with one ``replay(event:e16)`` capture, then keeps the
best of ``N_HITS`` hits on fresh replay machines.  The cycles must be
identical: a fast hit that changed the answer would be no hit at all.

Locally the hit is 10-100x faster; the 2x floor leaves slack for
loaded CI runners.  Run with ``pytest benchmarks/test_replay_speedup.py
-s`` to see the measured ratios.
"""

from __future__ import annotations

import time

import pytest

from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
from repro.kernels.ffbp_common import plan_ffbp
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.backends import get_machine
from repro.sar.config import RadarConfig

SPEEDUP_FLOOR = 2.0
N_HITS = 3


def _ffbp_spmd16():
    plan = plan_ffbp(RadarConfig.small(n_pulses=256, n_ranges=257))
    return lambda backend: run_ffbp_spmd(get_machine(backend), plan, 16)


def _autofocus_mpmd():
    work = AutofocusWorkload()
    return lambda backend: run_autofocus_mpmd(get_machine(backend), work)


def _timed(fn, backend: str):
    t0 = time.perf_counter()
    res = fn(backend)
    return time.perf_counter() - t0, res


@pytest.mark.parametrize(
    "build", [_ffbp_spmd16, _autofocus_mpmd], ids=lambda f: f.__name__[1:]
)
def test_replay_hit_is_2x_faster_than_cold(build):
    workload = build()  # inputs (the FFBP plan) are built outside the timing
    cold_s, cold = _timed(workload, "event:e16")
    workload("replay(event:e16)")  # the capture fills the schedule cache
    hits = [_timed(workload, "replay(event:e16)") for _ in range(N_HITS)]
    hit_s = min(seconds for seconds, _ in hits)

    for _, res in hits:
        assert res.cycles == cold.cycles
    ratio = cold_s / hit_s
    print(
        f"\n{build.__name__[1:]}: cold event {cold_s * 1e3:.1f} ms, "
        f"replay hit {hit_s * 1e3:.2f} ms -> {ratio:.1f}x"
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"replay speedup {ratio:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
