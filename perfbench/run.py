"""ftqcost benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|report|qroam|all \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 runs the first half of the time untraced and the second half with
span tracing installed, and reports per-layer metrics per unit of work plus
the tracing overhead (traced minus untraced time per unit). --workload all
runs each workload in its own interpreter and prints the metrics under the
names used in the README of this directory.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Only the standard library is used; ftqcost is imported from ./src.
"""

from __future__ import annotations

import argparse
import bisect
import json
import operator
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
HELD_OUT_SEED = 20261017  # kept out of tuning; use it to confirm a claimed gain
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
NAMES = ("sweep", "report", "qroam")


def _percentile(values, weights, pct: float) -> float:
    """Weighted percentile, interpolated between the samples' midpoints.

    With equal weights the 50th percentile is the ordinary median.
    """
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    positions, cumulative = [], 0.0
    for _, weight in pairs:
        positions.append((cumulative + weight / 2) / total)
        cumulative += weight
    target = pct / 100
    i = bisect.bisect_left(positions, target)
    if i == 0:
        return pairs[0][0]
    if i == len(pairs):
        return pairs[-1][0]
    share = (target - positions[i - 1]) / (positions[i] - positions[i - 1])
    return pairs[i - 1][0] + share * (pairs[i][0] - pairs[i - 1][0])


class Loop:
    """Closed loop, one caller: the next operation starts when one returns."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.weights: list[float] = []
        self.round_rates: list[float] = []  # units per busy second, per round
        self.busy = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, workload, seconds: float, tracer=None) -> "Loop":
        """Run whole rounds, stopping at the round boundary nearest the deadline."""
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            first = len(self.latencies)
            for op in workload.round():
                self.once(workload, op, tracer)
            weights = self.weights[first:]
            weighted_busy = sum(map(operator.mul, weights, self.latencies[first:]))
            if weighted_busy > 0:
                self.round_rates.append(workload.units * sum(weights) / weighted_busy)
            now = time.perf_counter()
            if now + (now - started) / 2 >= deadline:
                return self

    def once(self, workload, op, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.unit += 1
        try:
            start = time.perf_counter()
            result = workload.call(op)
            elapsed = time.perf_counter() - start
            problems = workload.check(op, result)
        except Exception:  # any exception is a failed operation, not a crash
            problems = [traceback.format_exc()]
        else:
            self.latencies.append(elapsed)
            self.weights.append(workload.weight(op))
            self.busy += elapsed
            self.units += workload.units
        if problems:
            self.failed += 1
            self.problems += problems[: max(0, 5 - len(self.problems))]

    def per_unit_s(self) -> float:
        return self.busy / max(1, self.units)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import workloads
    from setup_time import MODULES, import_breakdown_ms, import_seconds
    from tracing import Tracer, layer_metrics

    OUT_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[name]
    workload = cls(random.Random(f"{name}:{seed}"), OUT_DIR)
    metrics, notes = {}, []

    if trace:
        breakdown = import_breakdown_ms(ROOT, cls.entry_modules, IMPORTTIME_REPEATS)
        for module in (*MODULES, "other"):
            metrics[f"setup.import_ms.{module}"] = (breakdown[module], "ms")
    else:
        setup = import_seconds(ROOT, cls.entry_modules, SETUP_REPEATS)
        metrics["setup_s"] = (statistics.median(setup), "s")

    warm = Loop()
    for op in workload.warmup():  # lazy set-up and caches fill here, untimed
        warm.once(workload, op)

    if not trace:
        loop = Loop().run(workload, seconds)
        loops = [warm, loop]
        lat, weights = loop.latencies, loop.weights
        metrics["throughput_per_s"] = (statistics.median(loop.round_rates), "1/s")
        metrics["latency_ms_p50"] = (1e3 * _percentile(lat, weights, 50), "ms")
        metrics["latency_ms_p90"] = (1e3 * _percentile(lat, weights, 90), "ms")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
        # p99 is printed but not a bounded metric: on a shared VM it moves
        # with other tenants' load far more than with the code.
        extra = dict(metrics, latency_ms_p99=(1e3 * _percentile(lat, weights, 99), "ms"))
        notes.append(f"samples={len(lat)} rounds={len(loop.round_rates)} unit={cls.unit}")
        for alias, metric in cls.aliases.items():
            notes.append(f"{alias} = {extra[metric][0]:.6g} {extra[metric][1]}")
    else:
        loop = Loop().run(workload, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Loop().run(workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        loops = [warm, loop, traced]
        layers, absent = layer_metrics(tracer, traced.units)
        metrics.update(layers)
        overhead = traced.per_unit_s() - loop.per_unit_s()
        metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
        metrics["trace.overhead_frac"] = (overhead / loop.per_unit_s(), "fraction")
        metrics["trace.absent_layers"] = (len(absent), "count")
        for metric, reason in absent.items():
            notes.append(f"absent: {metric}: {reason}")
        spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
        tracer.write_spans(spans_path)
        notes.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}"
                     f" (per unit: untraced {1e3 * loop.per_unit_s():.6g} ms,"
                     f" traced {1e3 * traced.per_unit_s():.6g} ms)")

    attempted = sum(x.attempted for x in loops)
    failed = sum(x.failed for x in loops)
    notes.insert(0, f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g}")
    for problem in [p for x in loops for p in x.problems][:5]:
        print(f"problem: {problem.rstrip()}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, notes


def run_all(seed: int, seconds: float, trace: bool):
    """Each workload in a fresh interpreter, so peak memory is its own."""
    printed, results = {}, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        for line in lines[:-1]:  # "name = value unit"
            fields = line.split()
            if len(fields) == 4 and fields[1] == "=":
                printed[fields[0]] = {"value": float(fields[2]), "unit": fields[3]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    if not trace:
        for alias in ("sweep_points_per_s", "report_ms_p50", "report_ms_p99",
                      "lookups_per_s", "lookup_ms_p50"):
            metrics[alias] = printed[alias]
        metrics["fail_frac"] = {"value": failed / attempted, "unit": "fraction"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ftqcost" / "__init__.py").is_file():
        print(f"error: ftqcost sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"held_out_seed={HELD_OUT_SEED} python={platform.python_version()} "
          f"nproc={os.cpu_count()} loadavg={','.join(f'{x:.2f}' for x in os.getloadavg())}")
    if args.workload == "all":
        result, notes = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(note)
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
