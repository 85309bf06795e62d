"""Per-layer derivations on synthetic frames and health snapshots."""

import math

import pytest

from perfbench.serving import (
    health_delta,
    latency_ms,
    server_layer_metrics,
    transport_ms,
    wait_ms,
)


def _rec(**kw):
    base = {
        "type": "result",
        "sched": 10.000,
        "sent": 10.002,
        "done": 10.030,
        "elapsed_ms": 20.0,
        "compute_ms": 12.0,
        "cached": False,
    }
    base.update(kw)
    return base


def test_latency_runs_from_the_scheduled_send():
    assert latency_ms(_rec()) == pytest.approx(30.0)


def test_failed_or_refused_requests_have_infinite_latency():
    assert latency_ms(_rec(type="error", code="overloaded")) == math.inf
    assert latency_ms(_rec(type="lost")) == math.inf


def test_transport_is_client_round_trip_minus_server_elapsed():
    assert transport_ms(_rec()) == pytest.approx(8.0)
    assert transport_ms(_rec(type="error")) is None


def test_wait_uses_uncached_responses_only():
    assert wait_ms(_rec()) == pytest.approx(8.0)
    # A cached response replays the cold run's compute_ms: not a wait.
    assert wait_ms(_rec(cached=True)) is None
    assert wait_ms(_rec(compute_ms=None)) is None


def _health(batches, coalesced, hits, misses, stores, mh, mm, overloaded=0):
    return {
        "batches": batches,
        "coalesced": coalesced,
        "deadline_misses": 0,
        "cache": {"hits": hits, "misses": misses, "stores": stores},
        "memo": {"hits": mh, "misses": mm},
        "resilience": {"overloaded": overloaded, "retries": 0, "degraded": 0},
    }


def test_health_delta_and_ratios():
    before = _health(10, 2, 5, 5, 5, 100, 10)
    after = _health(40, 12, 75, 5, 5, 100, 10, overloaded=1)
    delta = health_delta(before, after)
    assert delta["batches"] == 30
    assert delta["cache_hits"] == 70
    assert delta["cache_misses"] == 0
    assert delta["overloaded"] == 1
    m = server_layer_metrics(delta)
    # 70 lookups + 10 coalesced requests over 30 batches.
    assert m["serve.batch_size_mean"] == pytest.approx(80 / 30)
    assert m["serve.coalesced_ratio"] == pytest.approx(10 / 80)
    assert m["exec.cache_hit_ratio"] == 1.0
    # No memo traffic in the window: the ratio reads 0, not a division error.
    assert m["perf.memo_hit_ratio"] == 0.0


def test_health_delta_tolerates_a_disabled_cache():
    before = _health(0, 0, 0, 0, 0, 0, 0)
    after = dict(_health(3, 0, 0, 0, 0, 4, 4), cache=None)
    delta = health_delta(before, after)
    assert delta["cache_hits"] == 0
    assert server_layer_metrics(delta)["perf.memo_hit_ratio"] == 0.5
