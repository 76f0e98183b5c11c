#!/usr/bin/env python3
"""Benchmark of the RAC reproduction: one workload per invocation.

    python3 perfbench/run.py --workload lan-steady --seed 1 --seconds 25 --trace 0

Run from the repository root; ``--workload all`` runs every workload in
turn, each in its own process, and exits non-zero if any check failed.

``--trace 0`` measures the end-to-end metrics: it repeats cold
iterations of the workload until ``--seconds`` is spent (at least the
fixed pass: every distinct input once, then, on lan-steady and
wan-lossy-dh, the first input again to check determinism) and reports
medians. ``--trace 1`` runs one untraced iteration, then the same
iteration with a span wrapped around every layer's public entry
points, and reports per-layer self times, counts and the tracing
overhead; its spans are written to ``.perfbench_out/``.

Every run checks correctness: the delivered payload multiset per
destination must equal the accepted sends, no honest node may be
evicted, and simulated statistics must be bit-identical whenever the
same input runs twice. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Seconds one timed run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 25
#: Extra cold set-ups per run, on top of one per iteration, so the
#: median set-up time rests on enough samples: at least the minimum,
#: then more while the budget (seconds) lasts, up to the maximum.
SETUP_REPEATS = (12, 1.5, 200)
#: Allowed drift between the traced wall time and the sum of layer
#: self times plus ``unattributed_s`` (float rounding only).
ACCOUNTING_TOLERANCE = 1e-6


def input_seed(seed: int, index: int) -> int:
    """The ``index``-th distinct input of a run with ``--seed seed``."""
    return seed * 1000 + index


def source_digest() -> str:
    """Hash of the package and benchmark source, keying the cross-run
    determinism log: a change to either may change the simulation."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_against_log(key: str, digest: str) -> "str | None":
    """Compare a simulated run's digest with earlier runs of the same
    input on the same source; record it when new."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            log = json.load(fh)
    except (OSError, ValueError):
        log = {}
    previous = log.get(key)
    if previous is not None and previous != digest:
        return f"simulated statistics of {key} differ from an earlier run ({previous[:12]} != {digest[:12]})"
    if previous is None:
        log[key] = digest
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(log, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return None


def fmt(value: float) -> str:
    return f"{value:.6g}"


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


class Run:
    """Collects iterations, correctness problems and output lines."""

    def __init__(self, workload) -> None:
        import bench_metrics

        self.m = bench_metrics
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self._source = source_digest() if workload.simulated else ""

    def judge(self, iteration, label: str) -> None:
        verdict = self.m.judge(iteration)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(f"{label}: {p}" for p in verdict.problems)
        if iteration.digest is not None:
            key = f"{self._source}/{self.workload.name}/{iteration.input_seed}"
            drift = check_against_log(key, iteration.digest)
            if drift:
                self.problems.append(f"{label}: {drift}")

    def same_simulation(self, a, b, label: str) -> None:
        if a.digest is not None and a.digest != b.digest:
            self.problems.append(f"{label}: simulated statistics of input {a.input_seed} are not bit-identical")

    def print_copies(self, iteration) -> None:
        config = iteration.extra["config"]
        groups = iteration.extra["groups"]
        measured = self.m.copies_per_message(iteration.counters)
        model = self.m.model_copies(self.workload.nodes, config, groups)
        mean_group = statistics.mean(groups) if groups else self.workload.nodes
        print(
            f"  copies per anonymous message: measured {fmt(measured)}, "
            f"rac_cost(N={self.workload.nodes}, G={mean_group:.4g}, L={config.num_relays}, "
            f"R={config.num_rings}) = {fmt(model)}, ratio {fmt(measured / model if model else 0.0)}"
        )
        print(
            "    base: transport data segments (TCP frames on live) per delivered message, "
            "shared over origin/relay/channel broadcasts; noise broadcasts (cover traffic) excluded"
        )

    def emit(self, metrics: "dict[str, float]") -> int:
        for problem in self.problems:
            print(f"  CHECK FAILED: {problem}")
        body = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.m.UNITS[name]} for name, value in metrics.items()
            },
        }
        print(json.dumps(body))
        return 0 if not self.problems else 1


def timed_run(workload, seed: int, seconds: float) -> int:
    import bench_workloads as bw

    run = Run(workload)
    started = time.perf_counter()
    plan = [input_seed(seed, j) for j in range(workload.inputs)]
    if workload.replay:
        plan.append(plan[0])
    iterations = []
    first_of = {}
    while True:
        if len(iterations) < len(plan):
            current = plan[len(iterations)]
        else:
            elapsed = time.perf_counter() - started
            per_iteration = elapsed / len(iterations)
            if elapsed + per_iteration > seconds:
                break
            current = plan[len(iterations) % workload.inputs]
        iteration = bw.run_iteration(workload, current, OUT)
        label = f"iteration {len(iterations)} (input {current})"
        run.judge(iteration, label)
        if current in first_of:
            run.same_simulation(first_of[current], iteration, label)
        else:
            first_of[current] = iteration
        iterations.append(iteration)
        if len(iterations) == len(plan):
            # Read after the fixed pass, so extra iterations a faster
            # program fits in do not raise it.
            rss_mb = run.m.peak_rss_mb()

    setups = [it.setup_s for it in iterations]
    least, budget, most = SETUP_REPEATS
    setup_started = time.perf_counter()
    for repeat in range(most):
        if repeat >= least and time.perf_counter() - setup_started > budget:
            break
        setups.append(bw.setup_only(workload, plan[0]))
    samples = [lat for j in range(workload.inputs) for lat in run.m.latencies(iterations[j])]
    metrics = run.m.end_to_end(iterations, setups, samples, rss_mb)

    clock = "simulated" if workload.simulated else "wall"
    units = dict(run.m.END_TO_END)
    print(
        f"workload {workload.name}, seed {seed}: {len(iterations)} iterations over inputs "
        f"{sorted(first_of)}, {time.perf_counter() - started:.1f} s"
    )
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups",
        "sim_node_s_per_s": f"median of {len(iterations)} iterations",
        "cpu_ms_per_msg": f"process + children CPU per delivered message, median of {len(iterations)}",
        "latency_p50_s": f"n={len(samples)} deliveries, {clock} clock, from when each send was due",
        "latency_p90_s": f"n={len(samples)}, {beyond(len(samples), 90)} samples beyond",
        "peak_rss_mb": "this process + its largest child, after the fixed pass",
    }
    for name, value in metrics.items():
        print(f"  {name:<18} {fmt(value):>12} {units[name]:<9} {notes[name]}")
    # p99 is printed, not gated: below 1000 samples fewer than ten lie beyond it.
    print(
        f"  {'latency_p99_s':<18} {fmt(run.m.percentile(samples, 99)):>12} {'s':<9} "
        f"n={len(samples)}, {beyond(len(samples), 99)} samples beyond"
    )
    attempted = run.attempted
    print(f"  {'fail_rate':<18} {fmt(run.failed / attempted if attempted else 0.0):>12} {'ratio':<9} {run.failed} of {attempted} attempted")
    if not workload.simulated:
        lateness = [s.issued - s.due for it in iterations for s in it.sends]
        print(
            f"  generator lateness  p50 {fmt(run.m.percentile(lateness, 50))} s, "
            f"p99 {fmt(run.m.percentile(lateness, 99))} s (n={len(lateness)})"
        )
    else:
        print("  generator lateness  0 by construction (sends scheduled in simulated time)")
    run.print_copies(iterations[0])
    return run.emit(metrics)


def traced_run(workload, seed: int) -> int:
    import bench_trace
    import bench_workloads as bw

    run = Run(workload)
    current = input_seed(seed, 0)
    # Sharded runs go inline both times: the tracer must see every shard
    # call, and the overhead ratio must compare like with like.
    serial = workload.name == "sharded-256"
    untraced = bw.run_iteration(workload, current, OUT, serial=serial)
    run.judge(untraced, "untraced iteration")

    tracer = bench_trace.Tracer()
    patches = bench_trace.install()
    try:
        traced = bw.run_iteration(workload, current, OUT, tracer=tracer, serial=serial)
    finally:
        patches.undo()
    run.judge(traced, "traced iteration")
    run.same_simulation(untraced, traced, "traced iteration")

    gap = run.m.accounting_gap(tracer)
    if abs(gap) > ACCOUNTING_TOLERANCE * max(1.0, tracer.wall_s):
        run.problems.append(f"layer self times miss {gap:.9f} s of the traced wall time")
    metrics = run.m.per_layer(workload, traced, tracer, untraced.run_wall_s)

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{workload.name}-{seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "metrics": metrics, "spans": tracer.to_dict()}, fh, indent=1)

    print(f"workload {workload.name}, seed {seed}: traced run of input {current}{' (inline shards)' if serial else ''}")
    layer_of = lambda name: name.split(".", 1)[0]
    previous = None
    for name, unit in run.m.PER_LAYER:
        if layer_of(name) != previous:
            previous = layer_of(name)
            print(f"  [{previous}]")
        print(f"    {name:<36} {fmt(metrics[name]):>14} {unit}")
    self_total = sum(metrics[f"{layer}.self_s"] for layer in bench_trace.LAYERS)
    print(
        f"  accounting: {fmt(self_total)} s layer self + {fmt(metrics['trace.unattributed_s'])} s "
        f"unattributed = {fmt(self_total + metrics['trace.unattributed_s'])} s of "
        f"{fmt(tracer.wall_s)} s traced wall (gap {gap:.3g} s); overhead "
        f"{fmt(metrics['trace.overhead_ratio'])}x the untraced {fmt(untraced.run_wall_s)} s"
    )
    if serial:
        print(
            f"  shard split: snapshot_save {fmt(metrics['shard.snapshot_save_s'])} s vs "
            f"epoch_loop {fmt(metrics['shard.epoch_loop_s'])} s of {fmt(tracer.wall_s)} s"
        )
    run.print_copies(traced)
    print(f"  spans: {os.path.relpath(trace_path, ROOT)}")
    return run.emit(metrics)


def benchmark_spec() -> "dict":
    """The ``BENCHMARK.json`` body, from the definitions in this package."""
    import bench_metrics as m
    import bench_workloads as bw

    def better(name: str) -> str:
        return "higher" if name in m.HIGHER_IS_BETTER else "lower"

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in bw.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": better(n), "bound": m.BOUNDS[n]} for n, u in m.END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": better(n)} for n, u in m.PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all' for each in turn")
    parser.add_argument("--write-spec", action="store_true", help="(re)write BENCHMARK.json and exit")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no package source at {SRC}/repro; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_workloads

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        # One process per workload, so no workload's peak memory or
        # warm state leaks into the next one's figures.
        codes = [
            subprocess.call(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            )
            for name in bench_workloads.WORKLOADS
        ]
        return max(codes)
    workload = bench_workloads.WORKLOADS.get(args.workload or "")
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.trace:
        return traced_run(workload, args.seed)
    return timed_run(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
