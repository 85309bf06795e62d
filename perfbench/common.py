"""Statistics, seeding, host facts and resource helpers shared by every
workload.  Stdlib only, so the self-tests run without the program."""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable

TAIL_SAMPLES = 10
"""A percentile is reported only with at least this many samples above it."""

CALIBRATION_LOOPS = 100_000
OBJECT_CALIBRATION_LOOPS = 7_000
REFERENCE_CALIBRATION_S = 0.010
"""Seconds a calibration loop takes on the reference host.

A shared host's speed drifts by 20-40% within a minute, and fixed
pure-Python loops slow down with it.  Every end-to-end time is measured
next to calibration loops and reported at reference speed: measured
seconds times ``REFERENCE_CALIBRATION_S`` over the median calibration
time around it (:func:`at_reference_speed`).  Both loops are sized to
take about 10 ms on a 2-core host.  They run none of the program's code,
so a change to the program moves only the measured side."""


def calibration_s() -> float:
    """Seconds one fixed arithmetic loop takes on this host right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class _Event:
    __slots__ = ("when", "owner")

    def __init__(self, when: int, owner: dict) -> None:
        self.when = when
        self.owner = owner


def object_calibration_s() -> float:
    """Seconds one fixed loop of object, heap and dict churn takes on
    this host right now.

    The simulator's time goes to such work, and it speeds up more than
    arithmetic when the host gets faster.  Over ten minutes in which the
    host's speed moved by half, the 30-second medians of a ``sim-sweep``
    pass over this loop's time stayed within 14.9-16.2, while over
    :func:`calibration_s` they ran from 66 to 76, lowest when the host
    was fastest.
    """
    t0 = time.perf_counter()
    queue: list = []
    owners: dict[int, int] = {}
    for i in range(OBJECT_CALIBRATION_LOOPS):
        heapq.heappush(queue, ((i * 7919) % 1009, i, _Event(i, owners)))
        owners[i & 511] = i
        if len(queue) > 256:
            heapq.heappop(queue)
    return time.perf_counter() - t0


def calibration_all_cpus_s() -> float:
    """Median :func:`calibration_s` over every CPU this process may use,
    each taken pinned to that CPU.

    Serving work runs in another process, on whichever CPU it is
    scheduled on, and the vCPUs of a shared host slow down separately:
    the benchmark process's own CPU once read 25% faster while the
    server's work did not speed up.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return median(times)


def at_reference_speed(seconds: float, calibrations: Iterable[float]) -> float:
    """``seconds`` of host time scaled to the reference host's speed,
    from the calibration times measured around it."""
    return seconds * REFERENCE_CALIBRATION_S / median(calibrations)


def derive_seed(seed: int, *parts: object) -> int:
    """A 63-bit seed derived from the workload seed and a path of tags.

    Distinct paths give independent streams; the same path always gives
    the same value, on any host and Python version.
    """
    material = "/".join(["perfbench", str(int(seed)), *map(str, parts)])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def percentile(samples: Iterable[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if frac == 0 or ordered[hi] == ordered[lo]:
        return ordered[lo]  # also keeps an infinite sample from giving nan
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(samples: Iterable[float]) -> float:
    return percentile(samples, 50.0)


def supported_percentile(n: int, beyond: int = TAIL_SAMPLES) -> float:
    """The highest percentile that leaves ``beyond`` samples above it.

    With ``n`` samples, ``beyond`` of them lie above the
    ``100 * (1 - beyond / n)``-th percentile; below ``beyond`` samples no
    tail percentile is supported and the answer is 0.
    """
    if n < beyond or n <= 0:
        return 0.0
    return 100.0 * (1.0 - beyond / n)


def tail(samples: list[float], q: float = 95.0) -> dict:
    """``q``-th percentile plus the evidence behind it.

    ``supported`` says whether at least :data:`TAIL_SAMPLES` samples
    lie above the percentile; callers report it next to the value.
    """
    n = len(samples)
    return {
        "value": percentile(samples, q),
        "q": q,
        "samples": n,
        "supported": supported_percentile(n) >= q,
        "max_supported_q": round(supported_percentile(n), 2),
    }


class Outcome:
    """What one workload run measured: metrics, counts and failures."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.details: dict = {}
        self.tracer = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; record it when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        """Record a failed operation already counted as attempted."""
        self.failures.append(what)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return float(num) / den if den else 0.0


def peak_rss_mib_self() -> float:
    """Peak resident set of this process, MiB (Linux ``ru_maxrss`` is KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        kib /= 1024
    return kib / 1024.0


def host_facts(root: Path) -> dict:
    """Facts that every output is stamped with."""
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": None,
        "git_commit": _git_commit(root),
        "code_version": None,
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        pass
    try:
        from repro.exec.cache import code_version

        facts["code_version"] = code_version()
    except ImportError:
        pass
    return facts


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree.

    The ceiling stops git from answering with an enclosing repository's
    commit when the checkout itself is not a repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
