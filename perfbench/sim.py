"""The ``sim-cycle`` and ``sim-sweep`` workloads.

Both run closed loop on one thread, calling the kernel runners
in-process on fresh ``get_machine(spec)`` machines, pass after pass
over a fixed list of operations until ``--seconds`` have elapsed.

- ``sim-cycle``: the Table-I rows at paper scale (1024 x 1001) on the
  cycle-accurate ``event:e16`` engine, plus sharded FFBP on
  ``event:4x(8x8)``.  Every run must reproduce its pinned cycle count.
- ``sim-sweep``: a seeded sweep of FFBP SPMD configurations plus
  autofocus MPMD, each captured once on ``replay(event:e16)`` in set-up
  and replayed several times per pass, each also run once per pass on
  ``analytic:e16``; sharded FFBP runs on ``analytic:4x(8x8)``.

Operation lists are pure functions of the seed (:func:`operations`);
the seed only orders the work and picks the sweep's core counts.
End-to-end times are reported at reference host speed
(``perfbench.common``).
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import random
import time
from pathlib import PurePath

from perfbench.common import (
    Outcome,
    at_reference_speed,
    object_calibration_s,
    derive_seed,
    median,
    peak_rss_mib_self,
    percentile,
    ratio,
    tail,
)
from perfbench.spans import NullTracer, Tracer

PINNED_CYCLES = {
    "ffbp_spmd16": 291_795_404,
    "ffbp_seq": 3_590_255_522,
    "autofocus_mpmd": 169_757,
    "autofocus_seq": 2_037_100,
    "ffbp_fabric": 220_378_005,
}
"""Simulated cycles of the paper-scale rows on ``event:e16`` (and the
sharded row on ``event:4x(8x8)``)."""

CYCLE_ROWS = tuple(PINNED_CYCLES)
SWEEP_PULSES = (128, 256, 512, 1024)
SWEEP_CORES = ((1, 2, 4, 8), (16,))
"""Per pulse count, the seed draws one core count from each group.  The
analytic model costs about the same for 1 to 8 cores and twice that for
16, so every seed does about the same amount of work."""

REPLAY_HITS = 3
"""Replays of each captured configuration per pass."""

TOL_MIN_PULSES = 256
"""Smallest FFBP scale the analytic-vs-event band applies to: below it
fixed costs dominate the parity ratio (``repro.verify.oracles``)."""

SETUP_REPS = 3

CALIBRATE_EVERY_S = 0.2
"""Host seconds of operations between two calibrations inside a pass.
A pass is calibrated at both ends and about this often in between, so
its scale follows the host speed of the moments it ran in."""

SHARE_MODULES = {
    ("machine", "event.py"): "machine.event",
    ("machine", "noc.py"): "machine.noc",
    ("machine", "chip.py"): "machine.chip",
    ("machine", "memory.py"): "machine.memory",
    ("machine", "dma.py"): "machine.dma",
    ("machine", "core.py"): "machine.core",
    ("machine", "energy.py"): "machine.energy",
    ("machine", "analytic.py"): "machine.analytic",
    ("machine", "fabric.py"): "machine.fabric",
    ("runtime", "channels.py"): "runtime.channels",
    ("replay", "fingerprint.py"): "replay.fingerprint",
}


# ---------------------------------------------------------------------------
# Operation lists (pure functions of the seed)
# ---------------------------------------------------------------------------

def sweep_configs(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(derive_seed(seed, "sweep-configs"))
    return [(p, rng.choice(group)) for p in SWEEP_PULSES for group in SWEEP_CORES]


def operations(workload: str, seed: int, index: int) -> list[tuple]:
    """The operations of pass ``index``, in seeded order."""
    if workload == "sim-cycle":
        ops = [("event", row) for row in CYCLE_ROWS]
    else:
        ops = []
        for pulses, cores in sweep_configs(seed):
            ops += [("replay", "ffbp", pulses, cores)] * REPLAY_HITS
            ops.append(("analytic", "ffbp", pulses, cores))
        ops += [("replay", "autofocus")] * REPLAY_HITS
        ops.append(("analytic", "autofocus"))
        ops += [("fabric", pulses) for pulses in SWEEP_PULSES]
    random.Random(derive_seed(seed, workload, "pass", index)).shuffle(ops)
    return ops


def op_label(op: tuple) -> str:
    if op[0] == "event":
        return f"kernels.{op[1]}"
    if op[0] == "fabric":
        return "machine.fabric"
    return "replay.hit" if op[0] == "replay" else "machine.analytic"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class Sim:
    """Plans, captures and runners for one workload run."""

    def __init__(self, workload: str, seed: int, out: Outcome) -> None:
        t0 = time.perf_counter()
        from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
        from repro.kernels.autofocus_seq import run_autofocus_seq_epiphany
        from repro.kernels.ffbp_common import plan_ffbp
        from repro.kernels.ffbp_fabric import run_ffbp_fabric
        from repro.kernels.ffbp_seq import run_ffbp_seq_epiphany
        from repro.kernels.ffbp_spmd import ffbp_spmd_kernel, run_ffbp_spmd
        from repro.kernels.opcounts import AutofocusWorkload
        from repro.machine.backends import get_machine
        from repro.perf import clear_memo, memo_stats
        from repro.sar.config import RadarConfig
        from repro.verify.oracles import CYCLES_TOL

        self.import_s = time.perf_counter() - t0
        self.workload = workload
        self.seed = seed
        self.out = out
        self.get_machine = get_machine
        self.plan_ffbp = plan_ffbp
        self.clear_memo = clear_memo
        self.memo_stats = memo_stats
        self.build_kernel = ffbp_spmd_kernel
        self.tol = CYCLES_TOL
        self.paper = RadarConfig.paper()
        self.work = AutofocusWorkload()
        self.run_spmd = run_ffbp_spmd
        self.run_fabric = run_ffbp_fabric
        self.rows = {
            "ffbp_spmd16": lambda: run_ffbp_spmd(
                get_machine("event:e16"), self.plan(1024), 16
            ),
            "ffbp_seq": lambda: run_ffbp_seq_epiphany(
                get_machine("event:e16"), self.plan(1024)
            ),
            "autofocus_mpmd": lambda: run_autofocus_mpmd(
                get_machine("event:e16"), self.work
            ),
            "autofocus_seq": lambda: run_autofocus_seq_epiphany(
                get_machine("event:e16"), self.work
            ),
            "ffbp_fabric": lambda: run_ffbp_fabric(
                get_machine("event:4x(8x8)"), self.plan(1024)
            ),
        }
        self.run_autofocus = run_autofocus_mpmd
        self.plan_ms: list[float] = []
        self.capture_ms: list[float] = []
        self.captured: dict[tuple, object] = {}
        self.fabric_ref: dict[int, int] = {}

    def plan(self, pulses: int):
        return self.plan_ffbp(dataclasses.replace(self.paper, n_pulses=pulses))

    # -- set-up -----------------------------------------------------------

    def setup_once(self) -> float:
        """Cold plans (and, for the sweep, captures) from an empty memo."""
        self.clear_memo()
        t0 = time.perf_counter()
        pulses = (1024,) if self.workload == "sim-cycle" else SWEEP_PULSES
        for p in pulses:
            t = time.perf_counter()
            self.plan(p)
            self.plan_ms.append((time.perf_counter() - t) * 1e3)
        if self.workload == "sim-sweep":
            self.captured.clear()
            for pulses, cores in sweep_configs(self.seed):
                self._capture(("ffbp", pulses, cores))
            self._capture(("autofocus",))
            for p in SWEEP_PULSES:
                res = self.run_fabric(self.get_machine("analytic:4x(8x8)"), self.plan(p))
                self.fabric_ref[p] = res.cycles
        return time.perf_counter() - t0

    def _capture(self, key: tuple) -> None:
        t = time.perf_counter()
        machine = self.get_machine("replay(event:e16)")
        res = self._run_key(machine, key)
        self.capture_ms.append((time.perf_counter() - t) * 1e3)
        self.out.check(
            machine.stats()["captures"] == 1, f"capture of {key} did not capture"
        )
        self.captured[key] = res

    def _run_key(self, machine, key: tuple):
        if key[0] == "ffbp":
            return self.run_spmd(machine, self.plan(key[1]), key[2])
        return self.run_autofocus(machine, self.work)

    # -- operations ---------------------------------------------------------

    def execute(self, op: tuple, tracer) -> tuple[float, int, str | None, bool]:
        """Run one operation.

        Returns its host ms, its simulated cycles, a failure or ``None``,
        and whether it was answered by a replay of a captured schedule.
        """
        kind = op[0]
        t0 = time.perf_counter()
        with tracer.span(op_label(op)):
            if kind == "event":
                res = self.rows[op[1]]()
            elif kind == "fabric":
                res = self.run_fabric(
                    self.get_machine("analytic:4x(8x8)"), self.plan(op[1])
                )
            else:
                spec = "replay(event:e16)" if kind == "replay" else "analytic:e16"
                machine = self.get_machine(spec)
                res = self._run_key(machine, op[1:])
        ms = (time.perf_counter() - t0) * 1e3
        replayed = kind == "replay" and machine.stats()["replays"] == 1
        return ms, res.cycles, self._verify(op, res, replayed), replayed

    def _verify(self, op: tuple, res, replayed: bool) -> str | None:
        kind = op[0]
        if kind == "event":
            want = PINNED_CYCLES[op[1]]
            if res.cycles != want:
                return f"{op[1]}: {res.cycles} cycles != pinned {want}"
            return None
        if kind == "fabric":
            want = self.fabric_ref[op[1]]
            if res.cycles != want:
                return f"fabric {op[1]}: {res.cycles} cycles != set-up {want}"
            return None
        ref = self.captured[op[1:]]
        if kind == "replay":
            if not replayed:
                return f"replay {op[1:]} missed its captured schedule"
            if (res.cycles, res.energy_joules) != (ref.cycles, ref.energy_joules):
                return f"replay {op[1:]} differs from its capture"
            return None
        if op[1] == "ffbp" and op[2] < TOL_MIN_PULSES:
            return None
        if not self.tol.allows(res.cycles, ref.cycles):
            return f"analytic {op[1:]}: {res.cycles} outside CYCLES_TOL of {ref.cycles}"
        return None

    def passes(self, seconds: float, tracer, first: int = 0) -> dict:
        """Closed loop over passes until ``seconds`` elapse.

        Operation and pass times are at reference speed.  A pass is
        calibrated at both ends and every :data:`CALIBRATE_EVERY_S` of
        operations; each run of operations between two calibrations is
        scaled by those two.  ``wall_pass_s`` keeps the measured times.
        """
        by_label: dict[str, list[float]] = {}
        op_ms: list[float] = []
        pass_s: list[float] = []
        wall_pass_s: list[float] = []
        cycles: list[int] = []
        replay_runs = replays = 0
        before = self.memo_stats()
        start = time.perf_counter()
        index = first
        cal = object_calibration_s()
        while time.perf_counter() - start < seconds or not pass_s:
            cals = [cal]
            groups: list[list[tuple[str, float]]] = [[]]
            since = 0.0
            total = 0
            with tracer.span("sim.pass", op=f"pass/{index}"):
                for op in operations(self.workload, self.seed, index):
                    if since >= CALIBRATE_EVERY_S:
                        cals.append(object_calibration_s())
                        groups.append([])
                        since = 0.0
                    self.out.attempted += 1
                    ms, cyc, failure, replayed = self.execute(op, tracer)
                    replay_runs += op[0] == "replay"
                    replays += replayed
                    if failure:
                        self.out.fail(failure)
                    groups[-1].append((op_label(op), ms))
                    since += ms / 1e3
                    total += cyc
            cal = object_calibration_s()
            cals.append(cal)
            scaled = wall = 0.0
            for k, group in enumerate(groups):
                scale = at_reference_speed(1.0, cals[k : k + 2])
                for label, ms in group:
                    op_ms.append(ms * scale)
                    by_label.setdefault(label, []).append(ms * scale)
                    scaled += ms * scale / 1e3
                    wall += ms / 1e3
            wall_pass_s.append(wall)
            pass_s.append(scaled)
            cycles.append(total)
            index += 1
        after = self.memo_stats()
        return {
            "op_ms": op_ms,
            "pass_s": pass_s,
            "wall_pass_s": wall_pass_s,
            "by_label": by_label,
            "cycles": cycles,
            "replay_runs": replay_runs,
            "replays": replays,
            "memo_hits": after["hits"] - before["hits"],
            "memo_misses": after["misses"] - before["misses"],
            "next": index,
        }

    def build_kernels(self, tracer, reps: int = 5) -> None:
        """Time ``ffbp_spmd_kernel`` (which computes the declared replay
        key) for each FFBP SPMD configuration, outside the timed passes."""
        configs = (
            [(1024, 16)] if self.workload == "sim-cycle" else sweep_configs(self.seed)
        )
        for rep in range(reps):
            for pulses, cores in configs:
                with tracer.span("kernels.build", op=f"build/{pulses}x{cores}/{rep}"):
                    self.build_kernel(self.plan(pulses), cores)

    def profile_pass(self, index: int) -> tuple[int, dict[str, float]]:
        """One pass under cProfile: engine steps and self-time shares."""
        prof = cProfile.Profile()
        ops = operations(self.workload, self.seed, index)
        prof.enable()
        for op in ops:
            self.execute(op, NullTracer())
        prof.disable()
        stats = pstats.Stats(prof).stats
        total = sum(v[2] for v in stats.values())
        events = 0
        shares = dict.fromkeys(SHARE_MODULES.values(), 0.0)
        for (filename, _line, func), (_cc, calls, tottime, _ct, _callers) in stats.items():
            parts = PurePath(filename).parts[-2:]
            layer = SHARE_MODULES.get(tuple(parts))
            if layer is None or "repro" not in PurePath(filename).parts:
                continue
            shares[layer] += tottime
            if layer == "machine.event" and func == "_step":
                events += calls
        return events, {k: ratio(v, total) for k, v in shares.items()}


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, env) -> Outcome:
    out = Outcome()
    cal = object_calibration_s()
    sim = Sim(workload, seed, out)
    cals = [cal, object_calibration_s()]
    import_s = at_reference_speed(sim.import_s, cals)
    reps, wall_reps = [], []
    for _ in range(SETUP_REPS):
        wall_reps.append(sim.setup_once())
        cals = [cals[-1], object_calibration_s()]
        reps.append(at_reference_speed(wall_reps[-1], cals))
    untraced = sim.passes(seconds / 2 if trace else seconds, NullTracer())

    op_ms, pass_s = untraced["op_ms"], untraced["pass_s"]
    p95 = tail(op_ms, 95)
    out.metric("setup_s", import_s + median(reps), "s")
    out.metric("latency_p50_ms", percentile(op_ms, 50), "ms")
    out.metric("latency_p95_ms", p95["value"], "ms")
    out.metric("throughput_rps", len(op_ms) / sum(pass_s), "1/s")
    out.metric("run_s", median(pass_s), "s")
    out.metric("rss_peak_mb", peak_rss_mib_self(), "MiB")
    out.details.update(
        passes=len(pass_s),
        operations=len(op_ms),
        latency_p95=p95,
        import_s=sim.import_s,
        setup_reps_s=wall_reps,
        wall_run_s=median(untraced["wall_pass_s"]),
        sim_cycles_per_pass=sorted(set(untraced["cycles"])),
    )
    out.check(
        len(set(untraced["cycles"])) == 1,
        f"simulated cycles per pass vary: {sorted(set(untraced['cycles']))}",
    )
    if not trace:
        return out

    tracer = Tracer()
    traced = sim.passes(seconds / 2, tracer, first=untraced["next"])
    sim.build_kernels(tracer)
    events, shares = sim.profile_pass(traced["next"])
    labels = untraced["by_label"]
    hits = labels.get("replay.hit", [])
    layer = {
        "kernels.plan_ms": median(sim.plan_ms),
        "kernels.build_ms": median(tracer.durations_ms("kernels.build")),
        "machine.events": events,
        "machine.ns_per_event": ratio(median(pass_s) * 1e9, events),
        "machine.sim_cycles": untraced["cycles"][0],
        "machine.analytic_ms": median(labels["machine.analytic"])
        if "machine.analytic" in labels
        else 0.0,
        "replay.hit_ms": median(hits) if hits else 0.0,
        "replay.hit_ratio": ratio(untraced["replays"], untraced["replay_runs"]),
        "replay.capture_ms": median(sim.capture_ms) if sim.capture_ms else 0.0,
        "perf.memo_hit_ratio": ratio(
            untraced["memo_hits"],
            untraced["memo_hits"] + untraced["memo_misses"],
        ),
        "trace.overhead_ms": (median(traced["pass_s"]) - median(pass_s)) * 1e3,
    }
    for row in CYCLE_ROWS:
        ms = labels.get(f"kernels.{row}")
        layer[f"kernels.{row}_ms"] = median(ms) if ms else 0.0
    layer.update({f"{k}.self_share": v for k, v in shares.items()})
    out.details["layers"] = layer
    out.tracer = tracer
    return out
