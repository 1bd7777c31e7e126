#!/usr/bin/env python3
"""Benchmark of the redblue library: four workloads measured end to end, and a
traced run that splits their time over the library's modules.

Run from the repository root, with numpy installed:

    python3 perfbench/run.py --workload mc-k4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

`--workload` takes one name, a comma-separated list, or `all`.  The last
line of standard output is the result as JSON, with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics BENCHMARK.json declares; with `--trace 1` they are its
per-layer metrics; a traced run ignores `--seconds` and replays a fixed
number of rounds per workload, so its counts do not depend on machine
speed.  Every time is scaled to a fixed machine speed by refspeed.py, so
that the drift of a shared host divides out; the printed table gives the
wall value beside it.  A run record (machine, versions, seed, solver, what
ran) is printed just before the result and saved, with the spans of a
traced run, under perfbench/out/.  perfbench/README.md explains the
workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy  # loaded before any set-up, so set-up times leave it out

import refspeed
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Workload, import_redblue

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9  # untraced runs set up at least this often
SETUP_SECONDS = 1.5  # and for at least this long, so short set-ups repeat more


@dataclass
class Pass:
    """What one pass over the rounds of a workload did.

    `wall` holds each op's time on `refspeed.clock()`, `latencies` the same
    times scaled to the reference kernel's nominal speed.
    """

    rounds: int = 0
    units: int = 0
    wall: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    summaries: list = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # op index -> reason
    peak_rss_mb: float = 0.0
    speed_samples: int = 0

    @property
    def measured_s(self) -> float:
        """Summed scaled op latencies; checks are not in it."""
        return sum(self.latencies)

    @property
    def scale(self) -> float:
        """Mean factor from wall to scaled time over the pass's ops."""
        return self.measured_s / sum(self.wall)


def run_rounds(w: Workload, seconds: float | None = None, rounds: int | None = None,
               check: bool = True) -> Pass:
    """Run whole rounds, for a fixed count or for about `seconds`.

    A round starts only while the rounds so far predict that it ends within
    `seconds` of wall time, so a run never exceeds `seconds` by more than one
    round and never measures less than one round.  Each op is timed alone;
    its check runs after, outside the timing.  A `refspeed.Gauge` is on for
    the whole pass and gives each op's scale to the nominal speed.
    """
    p = Pass()
    marks = []  # gauge sample counts at the start and end of each op
    start = perf_counter()
    with refspeed.Gauge() as gauge:
        while True:
            for op in w.round(p.rounds):
                index = len(p.wall)
                k0 = len(gauge.samples)
                t0 = refspeed.clock()
                try:
                    out = op.call()
                except Exception as exc:  # a failed op is counted and the run goes on
                    dt = refspeed.clock() - t0
                    out = None
                    if not p.failures:
                        traceback.print_exc()
                    p.failures[index] = f"{op.label} raised {exc!r}"
                else:
                    dt = refspeed.clock() - t0
                marks.append((k0, len(gauge.samples)))
                p.units += op.units
                p.wall.append(dt)
                p.labels.append(op.label)
                p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if out is None:
                    p.summaries.append(None)
                    continue
                p.summaries.append(w.summary(op, out))
                reason = w.check(op, out) if check else None
                if reason:
                    p.failures[index] = reason
                del out  # a large output must not stay alive during the next op
            p.rounds += 1
            if rounds is not None:
                if p.rounds >= rounds:
                    break
            elif (perf_counter() - start) * (p.rounds + 1) / p.rounds > seconds:
                break
        p.latencies = [dt * gauge.scale(*m) for dt, m in zip(p.wall, marks)]
        p.speed_samples = len(gauge.samples)
    return p


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(w: Workload, args: argparse.Namespace, rounds: int, solver_env: str | None) -> dict:
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REDBLUE_SOLVER": "unset" if solver_env is None
        else f"was {solver_env!r}; removed for this run",
        "plan": w.plan(rounds),
    }


def traced_replay(w: Workload, rb, seed: int) -> tuple[Pass, Pass, Tracer]:
    """Run `w.trace_rounds` rounds untraced (checked), then again traced.

    The round count is the workload's own, not a time budget, so the traced
    counts depend only on the seed and the library, never on machine speed.
    The untraced pass is the reference for the outputs and the overhead.
    """
    reference = run_rounds(w, rounds=w.trace_rounds)
    tracer = Tracer()
    tracer.install(rb)
    try:
        w.setup(rb, seed)
        traced = run_rounds(w, rounds=w.trace_rounds, check=False)
    finally:
        tracer.restore()
    return reference, traced, tracer


def run_one(name: str, args: argparse.Namespace) -> int:
    solver_env = os.environ.pop("REDBLUE_SOLVER", None)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[name]()
    setup_times = []
    repeats, seconds = (1, 0) if args.trace else (SETUP_REPEATS, SETUP_SECONDS)
    refspeed.warm_up()
    with refspeed.Gauge() as gauge:
        start = perf_counter()
        while len(setup_times) < repeats or perf_counter() - start < seconds:
            t0 = refspeed.clock()
            rb = import_redblue()
            w.setup(rb, args.seed)
            setup_times.append(refspeed.clock() - t0)
            gc.collect()  # the previous set-up's modules, so repeats do not raise the peak RSS
        # one factor for the phase: most set-ups are shorter than a sampling period
        setup_scale = gauge.scale(0, len(gauge.samples))
    setup_times = [dt * setup_scale for dt in setup_times]

    spans: list = []
    if args.trace:
        first, second, tracer = traced_replay(w, rb, args.seed)
        failures = dict(first.failures)
        for i, (a, b) in enumerate(zip(first.summaries, second.summaries)):
            if a != b:
                failures.setdefault(i, f"{first.labels[i]}: traced output differs")
        values = layer_metrics(tracer.spans)
        for m in declared["per_layer"]:  # span times to the nominal speed, as op times
            if m["unit"] in ("s", "us"):
                values[m["name"]] *= second.scale
        values["trace.overhead_frac"] = (second.measured_s - first.measured_s) / first.measured_s
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        spans = [s.as_list(t0) for s in tracer.spans]
        notes = {
            "trace.overhead_frac": f"traced {second.measured_s:.3f} s vs untraced "
                                   f"{first.measured_s:.3f} s over the same {first.rounds} rounds",
        }
        kind = "per_layer"
    else:
        first = run_rounds(w, seconds=args.seconds)
        failures = dict(first.failures)
        attempted = len(first.latencies)
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": first.units / first.measured_s,
            "op_p50_s": statistics.median(first.latencies),
            "peak_rss_mb": first.peak_rss_mb,
            "ok_frac": 1 - len(failures) / attempted,
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups (import + inputs)",
            "ops_per_s": f"{w.unit} per second: {first.units} in {first.measured_s:.3f} s "
                         f"of op time ({sum(first.wall):.3f} s wall)",
            "op_p50_s": f"median of {attempted} ops ({statistics.median(first.wall):.4g} s wall)",
            "peak_rss_mb": "process peak, sampled after each op and before its check",
            "ok_frac": f"1 - failed_frac; {len(failures)} of {attempted} ops failed",
        }
        kind = "end_to_end"

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]
    }
    result = {
        "correct": not failures,
        "attempted": len(first.latencies),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = run_record(w, args, first.rounds, solver_env)
    record["refspeed"] = {
        "nominal_s": refspeed.NOMINAL_S,
        "setup_scale": setup_scale,
        "scale": first.scale,
        "samples": first.speed_samples,
    }

    print(f"{name} seed={args.seed} trace={args.trace}: {first.rounds} rounds, "
          f"{len(first.latencies)} ops")
    for metric, entry in metrics.items():
        note = notes.get(metric, "")
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']:<6} {note}")
    for i, reason in sorted(failures.items())[:10]:
        print(f"  FAILED op {i}: {reason}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    ops = [list(row) for row in zip(first.labels, first.latencies, first.wall)]
    path.write_text(json.dumps({"record": record, "result": result, "ops": ops, "spans": spans}))
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_many(names: list[str], args: argparse.Namespace) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 2
        code = max(code, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"all, or comma-separated names from: {', '.join(WORKLOADS)}")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="how long an untraced run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}")
    args.names = names
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if len(args.names) > 1:
        return run_many(args.names, args)
    try:
        return run_one(args.names[0], args)
    except ImportError as exc:
        print(f"cannot import redblue from this checkout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
