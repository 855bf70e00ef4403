#!/usr/bin/env python3
"""omnalg benchmark runner: end-to-end metrics, or a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload projection --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` alternates untraced and traced rounds on the same inputs and reports
the per-layer metrics; the traced round's spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each metric with its unit and sample count, and the inputs the
program cannot answer today (cli-mixed only).

The benchmark imports omnalg from ``src/`` next to this directory and
changes nothing in it.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import types
from time import perf_counter, process_time

import climix
import layers
import workloads
from calibrate import NOMINAL_S, Reference
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "projection": (workloads.projection_setup, workloads.projection_round),
    "algebra-small": (workloads.small_setup, workloads.small_round),
    "algebra-deep": (workloads.deep_setup, workloads.deep_round),
    "cli-mixed": (climix.setup, climix.run_round),
}
SETUP_REPEATS = 21
SETUP_SHARE = 0.5
MIN_ROUNDS = 3
MIN_OPS = 100  # op_p90_ms needs ten samples above it
MIN_TRACED_PAIRS = 2


def import_omnalg() -> types.SimpleNamespace:
    """Import every omnalg module afresh (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "omnalg" or n.startswith("omnalg.")]:
        del sys.modules[name]
    om = types.SimpleNamespace()
    for short in layers.LAYER_MODULES:
        setattr(om, short, importlib.import_module("omnalg." + short))
    return om


def timed_setup(setup, seed: int) -> tuple:
    """Import plus input build, SETUP_REPEATS times; keeps the last.

    Each set-up is followed by a reference sample of SETUP_SHARE of its
    time, and is scaled by that sample's factor alone: set-ups are short
    and come first, so the factor of the timed phase would not describe
    the machine they ran on.
    """
    measured, nominal = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        om = import_omnalg()
        state = setup(om, seed)
        spent = perf_counter() - start
        gc.collect()  # drop the earlier imports before the next one
        reference = Reference(SETUP_SHARE)
        reference.owe(max(spent, 2 * NOMINAL_S / SETUP_SHARE))  # a call at least
        measured.append(spent)
        nominal.append(spent * reference.wall_factor())
    return om, state, measured, nominal


def revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


class Tally:
    """Checks across rounds, plus the rule that every round agrees."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.first_verdicts = None

    def add(self, gate: workloads.Gate) -> None:
        self.attempted += gate.attempted
        self.failed += gate.failed
        self.failures += gate.failures[:max(0, 10 - len(self.failures))]
        if self.first_verdicts is None:
            self.first_verdicts = gate.verdicts
        else:
            self.consistent("verdicts equal the first round's",
                            gate.verdicts == self.first_verdicts)

    def consistent(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def scaled_median(pairs: list, scale: float, unit: str, samples: str) -> tuple:
    """(measured, nominal) pairs as a metrics entry of ``end_to_end``."""
    measured = statistics.median(m for m, _ in pairs) * scale
    nominal = statistics.median(n for _, n in pairs) * scale
    return measured, unit, nominal / measured, samples


def end_to_end(run_round, om, state, seconds: float, setups: tuple,
               tally: Tally, lines: list) -> dict:
    reference = Reference()
    ops = workloads.Ops(reference=reference)
    walls, cpus, rounds = [], [], []
    begin = perf_counter()
    while (len(walls) < MIN_ROUNDS or len(ops.latencies) < MIN_OPS
           or perf_counter() - begin < seconds):
        gate = workloads.Gate()
        first = len(ops.latencies)
        ref_calls, ref_wall, ref_cpu = (reference.calls, reference.wall_s,
                                        reference.cpu_s)
        wall, cpu = perf_counter(), process_time()
        run_round(om, state, ops, gate)
        # the reference kernel ran inside the round; its time is not the round's
        walls.append(perf_counter() - wall - (reference.wall_s - ref_wall))
        cpus.append(process_time() - cpu - (reference.cpu_s - ref_cpu))
        tally.add(gate)
        calls = reference.calls - ref_calls
        factor = (NOMINAL_S * calls / (reference.wall_s - ref_wall) if calls
                  else None)
        rounds.append((ops.latencies[first:], ops.local[first:], factor))
    count = len(ops.latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_round = f"{count} operations; median over {len(walls)} rounds"
    fw, fc = reference.wall_factor(), reference.cpu_factor()
    # a percentile reads a few operations, and machine speed changes
    # within seconds, which the run's factor averages away: so a long
    # operation is scaled by the kernel calls paid right after it, and the
    # others by the kernel samples of their round.  Percentiles are taken
    # per round, then the median over rounds: a round is a fixed mix, and
    # pooling rounds would put a percentile that sits between two
    # operation costs on the extreme of one of them
    p50s, p90s = [], []
    for latencies, local, factor in rounds:
        scaled = [lat * (loc or factor or fw) for lat, loc in zip(latencies, local)]
        raw = statistics.quantiles(latencies, n=10, method="inclusive")
        nominal = statistics.quantiles(scaled, n=10, method="inclusive")
        p50s.append((raw[4], nominal[4]))
        p90s.append((raw[8], nominal[8]))
    # (measured value, unit, factor to nominal speed, samples)
    metrics = {
        "setup_s": scaled_median(list(zip(*setups)), 1, "s",
                                 f"median of {len(setups[0])} set-ups, each "
                                 "scaled by its own reference sample"),
        "wall_s": (statistics.fmean(walls), "s", fw, f"mean of {len(walls)} rounds"),
        "cpu_s": (statistics.fmean(cpus), "s", fc, f"mean of {len(cpus)} rounds"),
        "ops_per_s": (count / sum(walls), "1/s", 1 / fw, f"{count} operations"),
        "op_p50_ms": scaled_median(p50s, 1e3, "ms", per_round),
        "op_p90_ms": scaled_median(p90s, 1e3, "ms", per_round),
        "peak_rss_mb": (rss_mb, "MB", 1.0, "1 process"),
    }
    lines.append(f"reference: {reference.calls} kernel calls in the timed phase; wall "
                 f"factor {fw:.6g}, CPU factor {fc:.6g}; times are measured x factor "
                 "(percentiles: per operation or round, set-ups: per set-up)")
    for name, (value, unit, factor, samples) in metrics.items():
        lines.append(f"{name} = {value * factor:.6g} {unit}  "
                     f"({samples}; measured {value:.6g})")
    return {name: {"value": value * factor, "unit": unit}
            for name, (value, unit, factor, _) in metrics.items()}


def per_layer(run_round, om, state, seconds: float, seed: int, workload: str,
              tally: Tally, lines: list) -> dict:
    kernels = layers.exact_kernels(om, seed)
    tracer = Tracer()
    untraced, traced, self_times = [], [], []
    first = None
    begin = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - begin < seconds:
        plain = workloads.Gate()
        start = perf_counter()
        run_round(om, state, workloads.Ops(), plain)
        untraced.append(perf_counter() - start)
        tally.add(plain)

        gate = workloads.Gate()
        tracer.reset_aggregates()
        tracer.recording = not traced  # keep the spans of the first one
        layers.install(tracer, om)
        try:
            start = perf_counter()
            run_round(om, state, workloads.Ops(tracer), gate)
            traced.append(perf_counter() - start)
        finally:
            tracer.uninstall()
        tally.add(gate)
        snap = tracer.snapshot()
        snap["counts"].update(gate.stats)
        values = layers.layer_values(snap)
        counts = {k: values[k] for k in layers.EXACT_REPEAT}
        if first is None:
            first = values
        else:
            tally.consistent("traced counts repeat exactly",
                             counts == {k: first[k] for k in layers.EXACT_REPEAT})
        self_times.append(values)
    header = tracer.write_spans(os.path.join(HERE, "out", f"{workload}-seed{seed}"))
    lines.append(f"spans kept: {header['count']} (dropped {header['dropped']}) "
                 f"in perfbench/out/{workload}-seed{seed}.bin")
    values = dict(first)
    for name, (_, kind, _) in layers.SPAN_METRICS.items():
        if kind == "self_s":
            values[name] = statistics.median(v[name] for v in self_times)
    values.update(kernels)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    units = layers.units()
    units["trace.overhead_s"] = "s"
    lines.append(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}; "
                 f"self times are medians over traced rounds, counts repeat exactly")
    for name in sorted(values):
        lines.append(f"{name} = {values[name]:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "omnalg")):
        print(f"error: no omnalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    setup, run_round = WORKLOADS[args.workload]
    om, state, *setups = timed_setup(setup, args.seed)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}  python {sys.version.split()[0]}  "
             f"nproc {len(os.sched_getaffinity(0))}  revision {revision()}"]
    tally = Tally()
    if args.trace:
        metrics = per_layer(run_round, om, state, args.seconds, args.seed,
                            args.workload, tally, lines)
    else:
        metrics = end_to_end(run_round, om, state, args.seconds, setups,
                             tally, lines)
    # the known gaps are cli inputs: only cli-mixed probes them, and the
    # other workloads report their counts as 0, like any layer they skip
    gaps = (climix.probe_known_gaps(om, SRC) if args.workload == "cli-mixed"
            else [])
    for name, got, ok in gaps:
        lines.append(f"known gap: {name}: got {got}; "
                     f"{'answered right' if ok else 'wrong answer'} "
                     "(probed outside the timed work)")
    if args.trace:
        for name, value in (
                ("cli.known_gaps_open", sum(not ok for _, _, ok in gaps)),
                ("cli.known_gap_tracebacks",
                 sum(got == "traceback" for _, got, _ in gaps)),
                ("cli.known_gap_deadline_misses",
                 sum(got == "deadline" for _, got, _ in gaps))):
            metrics[name] = {"value": value, "unit": "count"}
            lines.append(f"{name} = {value} count")
    lines.append(f"checks: {tally.attempted} attempted, {tally.failed} failed, "
                 f"error_rate = {tally.failed / max(tally.attempted, 1):.6g}")
    for failure in tally.failures:
        lines.append(f"FAILED: {failure}")
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *text, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(text) + "\n")
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, rec in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = rec
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
