"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and a trace file is written under ``.perfbench/``.  The line before it
stamps the run with host facts.  Any failed operation or correctness
check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("serve-fresh", "serve-repeat", "sim-cycle", "sim-sweep")


class Env:
    """Where a run may write, and the environment its children get."""

    def __init__(self, root: Path, label: str) -> None:
        self.root = root
        self.out = root / ".perfbench"
        self.work = self.out / "tmp" / f"{label}-{os.getpid()}"
        self.work.mkdir(parents=True)
        child = dict(os.environ)
        child["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([child["PYTHONPATH"]] if child.get("PYTHONPATH") else [])
        )
        child["TMPDIR"] = str(self.work)
        self.child_env = child


def isolate(root: Path) -> None:
    """No run inherits warmth from another: drop the persistent caches."""
    for name in ("REPRO_CACHE_DIR", "REPRO_PERF_MEMO_BYTES"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root))


def parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def finite(value: float) -> float:
    """JSON has no infinity: a failed request's latency prints as 1e12 ms.

    Any such value comes with failures, so the run is already marked
    incorrect and exits non-zero.
    """
    return value if math.isfinite(value) else 1e12


def main(argv: list[str]) -> int:
    args = parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            "error: run from the root of a checkout holding src/repro and "
            "BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    isolate(ROOT)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = Env(ROOT, label)
    os.environ["TMPDIR"] = str(env.work)
    import tempfile

    tempfile.tempdir = str(env.work)

    from perfbench import serving, sim
    from perfbench.common import dump, host_facts
    from perfbench.spans import check_links

    module = serving if args.workload.startswith("serve") else sim
    try:
        out = module.run(args.workload, args.seed, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(env.work, ignore_errors=True)

    if args.trace:
        layers = out.details.pop("layers")
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
        unknown = sorted(set(layers) - set(values))
        if unknown:
            out.check(False, f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        values["error_rate"] = len(out.failures) / max(out.attempted, 1)
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: out.metrics[m["name"]][0] for m in wanted}
    metrics = {
        m["name"]: {"value": finite(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }

    stamp = host_facts(ROOT)
    stamp.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if args.trace:
        trace_path = env.out / "traces" / f"{label}.json"
        out.tracer.write(trace_path, stamp)
        problems = check_links(json.loads(trace_path.read_text()))
        out.check(not problems, f"trace file parent links: {problems[:3]}")
        print(f"perfbench: trace written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": min(len(out.failures), out.attempted),
        "metrics": metrics,
    }
    results = env.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = dict(result, stamp=stamp, details=out.details, failures=out.failures[:50])
    (results / f"{label}.json").write_text(json.dumps(doc, indent=1, default=str))

    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for failure in out.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("# host " + dump(stamp))
    print(dump(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
