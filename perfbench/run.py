"""End-to-end benchmark of the Pangea reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kmeans-paging --seed 1 --seconds 40 --trace 0

A run repeats whole rounds on a fresh cluster while the next round is
expected to end within ``--seconds`` (at least ``MIN_ROUNDS``).  A round
times set-up, load and the workload's job passes, and checks every pass
against an answer computed apart from the program.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median set-up, load and
job-pass seconds (scaled to a reference machine speed, see
``end_to_end``), the simulated seconds of the load and of the median job
pass, and the peak resident memory of the process.

``--trace 1`` runs untraced rounds for half of ``--seconds``, then one
round with every layer's public entry points wrapped in spans
(``tracing.py``), and reports per-layer self time and calls, the
program's exact counters, and the tracing overhead.  The spans are
written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Each round repeats set-up until this many seconds are spent on it, so
#: that a set-up of a few milliseconds is still timed over many samples.
SETUP_SECONDS = 0.25
#: Size of the machine probe, about 15 ms on the sandbox.
PROBE_ITERATIONS = 64_000
#: The probe's time when the sandbox is quiet: phase times are reported
#: as if the run's median probe had taken this long.
PROBE_REFERENCE_S = 0.0125
#: How strongly phase times follow the probe.  When the host gets busier
#: the program's phases slow less than the probe's tight loop does: over
#: the runs this was tuned on, scaling by the square root of the probe
#: ratio left quartile spreads of 0.04-0.14 of the median on load_s and
#: job_s, against 0.07-0.17 unscaled; the full ratio did no better.
PROBE_EXPONENT = 0.5
#: Fewest rounds a run makes, however short ``--seconds`` is.
MIN_ROUNDS = 2
#: Fewest untraced rounds a traced run makes before its traced round.
MIN_TRACE_BASELINE_ROUNDS = 1

LAYERS = (
    "buffer.pool",
    "core.make_room",
    "fs.set_file",
    "fs.page_checksum",
    "util.stable_hash",
    "services.sequential",
    "services.shuffle",
    "services.hashsvc",
    "placement.partition_set",
    "placement.register_replica",
    "query.scheduler",
    "compute.stage",
    "sim.clock",
    "ml.kmeans",
    "tpch.datagen",
)

COUNTER_UNITS = {
    "core.evictions": "count",
    "core.eviction_rounds": "count",
    "core.pageouts": "count",
    "core.pageins": "count",
    "core.cost_cache_hit_ratio": "ratio",
    "fs.disk_bytes_written": "B",
    "fs.disk_bytes_read": "B",
    "fs.bytes_written_per_user_byte": "B/B",
    "sim.network_bytes_sent": "B",
    "buffer.peak_pool_bytes": "B",
    "services.hashsvc.spills": "count",
    "services.hashsvc.splits": "count",
    "services.hashsvc.reloads": "count",
    "query.batches_processed": "count",
    "query.mean_batch_fill": "records",
    "query.shuffled_bytes": "B",
    "query.copartitioned_joins": "count",
    "query.repartition_joins": "count",
    "query.parallel_stages": "count",
    "placement.colliding_objects": "count",
}


def import_program():
    """Import the program from this checkout's ``src``; exit 2 without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads


def machine_probe() -> float:
    """Seconds this machine takes right now for a fixed piece of Python.

    The sandbox's speed drifts by tens of percent over seconds to minutes
    (other tenants share the host), and a run's medians move with it.
    Phase times are scaled by the run's median probe (``end_to_end``).
    The probe mixes integer arithmetic with small-object allocation, the
    two kinds of work the program's hot paths do.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc ^ i) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
    table = {}
    for i in range(PROBE_ITERATIONS // 8):
        table[i] = (i, str(i), [i])
    return time.perf_counter() - start


class Round:
    """One round on a fresh cluster: set-up (repeated until
    ``setup_seconds`` are spent, keeping the last), load, then the
    workload's ``PASSES`` job passes over the loaded data.  Every pass is
    checked as soon as it ends; the checks are not timed.  A garbage
    collection precedes each timed phase, and a machine probe each phase
    (once for all the set-ups)."""

    def __init__(self, runner: "Runner", setup_seconds: float) -> None:
        workload = runner.workload
        probes = runner.probes
        self.setup_s: list[float] = []
        self.state = None
        gc.collect()
        probes.append(machine_probe())
        while not self.setup_s or sum(self.setup_s) < setup_seconds:
            self.state = None
            gc.collect()
            start = time.perf_counter()
            self.state = workload.setup(runner.seed)
            self.setup_s.append(time.perf_counter() - start)
        cluster = self.state.cluster
        gc.collect()
        probes.append(machine_probe())
        sim0 = cluster.barrier()
        start = time.perf_counter()
        workload.load(self.state)
        self.load_s = time.perf_counter() - start
        self.sim_load_s = cluster.barrier() - sim0
        self.job_s: list[float] = []
        self.sim_job_s: list[float] = []
        for index in range(workload.PASSES):
            gc.collect()
            probes.append(machine_probe())
            sim0 = cluster.barrier()
            start = time.perf_counter()
            output = workload.job(self.state)
            self.job_s.append(time.perf_counter() - start)
            self.sim_job_s.append(cluster.barrier() - sim0)
            runner.check(
                self.state, output, index, (self.sim_load_s, self.sim_job_s[-1])
            )


class Runner:
    """Runs rounds of one workload and keeps the operation tally."""

    def __init__(self, workloads, name: str, seed: int) -> None:
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.reference = None
        #: Machine probe times of every round, in run order.
        self.probes: list[float] = []
        #: Simulated seconds of (load, pass) by pass index, from the first
        #: round: every round replays the same inputs on a fresh cluster.
        self.simulated: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def check(self, state, output, index: int, simulated: tuple) -> None:
        """Count one job pass's operations and the ones that failed."""
        if self.reference is None:
            self.reference = self.workload.reference(state)
        verdicts, broken = self.workload.check(state, output, self.reference, index)
        broken += self.workloads.common_properties(state)
        if self.simulated.setdefault(index, simulated) != simulated:
            broken.append("simulated seconds differ between rounds of one seed")
        for problem in broken:
            print(f"perfbench: {self.workload.name}: {problem}", file=sys.stderr)
        for op, ok in verdicts:
            self.attempted += 1
            if not ok or broken:
                self.failed += 1
            if not ok:
                self.mismatched += 1
                print(f"perfbench: {self.workload.name}: {op} output is wrong",
                      file=sys.stderr)

    def run_round(self, setup_seconds: float = SETUP_SECONDS) -> "Round | None":
        """Run one round; a round that raises counts every operation it
        had left as failed."""
        attempted = self.attempted
        try:
            done = Round(self, setup_seconds)
        except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ops = self.workload.PASSES * self.workload.OPS_PER_PASS
            missing = ops - (self.attempted - attempted)
            self.attempted += missing
            self.failed += missing
            return None
        return done

    def run_for(self, seconds: float, min_rounds: int) -> list[Round]:
        """Run rounds while the next one is expected to fit in ``seconds``."""
        start = time.perf_counter()
        made: list[Round] = []
        durations: list[float] = []
        while True:
            elapsed = time.perf_counter() - start
            if len(durations) >= min_rounds and (
                elapsed + statistics.median(durations) > seconds
            ):
                return made
            round_start = time.perf_counter()
            done = self.run_round()
            durations.append(time.perf_counter() - round_start)
            if done is not None:
                done.state = None  # free the round's cluster before the next
                made.append(done)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def job_passes(rounds: list[Round]) -> list[float]:
    return [seconds for r in rounds for seconds in r.job_s]


def end_to_end(rounds: list[Round], probes: list[float]) -> "tuple[dict, str]":
    """The end-to-end metrics, and a line of the raw wall-clock medians.

    Wall-clock medians are scaled by ``PROBE_REFERENCE_S`` over the run's
    median probe time, to the power ``PROBE_EXPONENT``, which cancels most
    of the sandbox's speed drift between runs.  The simulated times are
    the same in every round of a seed.
    """
    raw = {
        "setup_s": statistics.median(s for r in rounds for s in r.setup_s),
        "load_s": statistics.median(r.load_s for r in rounds),
        "job_s": statistics.median(job_passes(rounds)),
    }
    probe = statistics.median(probes)
    scale = (PROBE_REFERENCE_S / probe) ** PROBE_EXPONENT
    metrics = {name: metric(value * scale, "s") for name, value in raw.items()}
    metrics["sim_load_s"] = metric(rounds[0].sim_load_s, "s")
    metrics["sim_job_s"] = metric(statistics.median(rounds[0].sim_job_s), "s")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = metric(peak_kib / 1024, "MB")
    line = (
        f"{len(rounds)} rounds, wall medians "
        + " ".join(f"{name}={value:.4f}" for name, value in raw.items())
        + f", probe median {probe * 1000:.2f} ms (scale {scale:.3f})"
    )
    return metrics, line


def traced_round(runner: Runner, trace_path: Path) -> "tuple[Round, dict]":
    from tracing import SpanTracer, trace_layers

    from repro.services.hashsvc import VirtualHashBuffer

    tracer = SpanTracer()
    trace_layers(tracer)
    hash_buffers = tracer.capture_instances(VirtualHashBuffer)
    try:
        # One set-up, so that every call count is exact.
        done = runner.run_round(setup_seconds=0.0)
    finally:
        tracer.restore()
    if done is None:
        raise SystemExit("perfbench: the traced round failed")
    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.calls"] = metric(calls, "count")
    counters = runner.workload.counters(done.state, hash_buffers)
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = metric(counters[name], unit)
    tracer.write(
        trace_path,
        {"workload": runner.workload.name, "seed": runner.seed, "job_s": done.job_s},
    )
    return done, metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    runner = Runner(workloads, args.workload, args.seed)

    if args.trace:
        baseline = runner.run_for(args.seconds / 2, MIN_TRACE_BASELINE_ROUNDS)
        if not baseline:
            print("perfbench: every untraced round failed", file=sys.stderr)
            return 1
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}"
        traced, metrics = traced_round(runner, trace_path)
        untraced_job_s = statistics.median(job_passes(baseline))
        traced_job_s = statistics.median(traced.job_s)
        metrics["trace.job_s"] = metric(traced_job_s, "s")
        metrics["trace.untraced_job_s"] = metric(untraced_job_s, "s")
        metrics["trace.overhead"] = metric(traced_job_s / untraced_job_s, "x")
    else:
        rounds = runner.run_for(args.seconds, MIN_ROUNDS)
        if not rounds:
            print("perfbench: every round failed", file=sys.stderr)
            return 1
        metrics, line = end_to_end(rounds, runner.probes)
        print(f"perfbench: {args.workload} seed {args.seed}: {line}", file=sys.stderr)
    result = {
        "correct": runner.mismatched == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
