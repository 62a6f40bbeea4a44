"""Benchmark runner for rayleigh_kit.

    python3 bench/run.py --workload census-certify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Workloads (see bench/README.md):

  census-certify     certify(m, e, f) on every pair of every simple rank-3
                     class with n = 7 and n = 8 (2387 pairs per pass)
  cli-session        one user running `python -m rayleigh_kit.cli` calls one
                     at a time, closed loop
  nonsimple-certify  certify on census classes with a parallel copy added

Times are reported in reference seconds, scaled by a calibration slice run
between operations (see workloads.py, "Machine speed"); measured seconds
are printed in the summary lines.  Set-up is repeated from cold caches
(SETUP_REPS times, and at least SETUP_MIN_S seconds in all) and its median
reported.  Passes then repeat, each from cold caches and each certify pass
with its own relabelling, until there are MIN_PASSES and the next one would
end after --seconds.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics.  With --trace 1 a traced pass runs between two untraced ones after
a traced set-up, and the JSON holds the per-layer metrics.  Human-readable
lines, including failed_share, undecided_share and per-subcommand CLI
latencies, come before it.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import workloads as w
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("census-certify", "cli-session", "nonsimple-certify")
SETUP_REPS = 3
SETUP_MIN_S = 1.0
MIN_PASSES = 2
IMPORT_REPS = 3


def median_of(values):
    return statistics.median(values) if values else 0.0


def p95(values):
    """95th percentile; for fewer than 20 values it lies among the largest."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="exclusive")[18]


class Workload:
    """Set-up, one measured pass, and the checks that need the whole run."""

    def __init__(self, name: str, seed: int, tally):
        self.name, self.seed, self.tally = name, seed, tally
        self.workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.emitted = 0

    def setup(self):
        w.clear_caches()
        if self.name == "cli-session":
            self.steps = w.cli_steps(self.seed, self.workdir)
            return
        if self.name == "census-certify":
            self.inputs = w.census_inputs(self.tally)
        else:
            self.inputs = w.nonsimple_inputs(self.tally)
        self.items = w.certify_items(self.inputs, w.pass_rng(self.seed, 0))

    def run_pass(self, index: int, in_process: bool = False):
        """Pass `index`; certify passes after the first are relabelled anew."""
        if self.name != "cli-session":
            if index:
                self.items = w.certify_items(self.inputs, w.pass_rng(self.seed, index))
            return w.certify_pass(self.items, self.tally)
        if in_process:
            result, self.emitted = w.cli_inprocess_pass(self.steps, self.tally)
            return result
        return w.cli_pass(self.steps, ROOT, self.tally)

    def finish(self, passes, label=""):
        """Checks across passes; returns summary lines."""
        lines = []
        if self.name == "cli-session":
            for kind in dict.fromkeys(passes[0].kinds):
                lat = [t for p in passes for t, k in zip(p.latencies, p.kinds) if k == kind]
                lines.append(f"{label}cli.{kind}_s: {median_of(lat):.4f} s "
                             f"(reference seconds, median of {len(lat)} calls)")
            return lines
        # Each pass relabels the inputs differently; the certified count of
        # every input must not change.
        self.tally.check(all(p.groups == passes[0].groups for p in passes),
                         "certified counts depend on the labelling")
        undecided = sum(v is False for p in passes for v in p.outcomes)
        attempted = sum(len(p.outcomes) for p in passes)
        lines.append(f"undecided_share: {undecided / attempted:.4f} "
                     f"({undecided} NOT CERTIFIED of {attempted} pairs)")
        return lines

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def timed_setup(wl: Workload) -> tuple[float, float]:
    """Median set-up time over SETUP_REPS or more reps, SETUP_MIN_S in all.

    Returns it in reference seconds and in measured seconds.
    """
    scaled, raw = [], []
    while len(raw) < SETUP_REPS or (sum(raw) < SETUP_MIN_S and len(raw) < 50):
        before = w.calibrate()
        start = time.perf_counter()
        wl.setup()
        raw.append(time.perf_counter() - start)
        speed = (before + w.calibrate()) / 2
        scaled.append(raw[-1] * w.REF_SLICE_S / speed)
    return median_of(scaled), median_of(raw)


def import_seconds(reps: int) -> float:
    """Median time for a fresh interpreter to import rayleigh_kit.cli."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rayleigh_kit.cli"],
                       cwd=ROOT, env=w.cli_env(), check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return median_of(times)


def measure(wl: Workload, seconds: float):
    """End-to-end run: set-up reps, then passes until `seconds` is spent."""
    setup_s, setup_raw = timed_setup(wl)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    walls = [sum(p.latencies) for p in passes]
    ops = sum(len(p.latencies) for p in passes)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-session" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_of(walls), "s"),
        "ops_per_s": (ops / sum(walls), "1/s"),
        "op_p50_ms": (median_of([median_of(p.latencies) * 1e3 for p in passes]), "ms"),
        "op_p95_ms": (median_of([p95(p.latencies) * 1e3 for p in passes]), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    raw_walls = [sum(p.raw) for p in passes]
    lines = [
        f"passes: {len(passes)} of {len(passes[0].latencies)} operations each",
        f"measured seconds: setup {setup_raw:.4f} s, pass {median_of(raw_walls):.4f} s "
        f"({median_of(raw_walls) / median_of(walls):.3f} times the reference seconds)",
    ]
    return metrics, lines + wl.finish(passes)


def trace(wl: Workload):
    """Per-layer run: traced set-up, then untraced, traced, untraced passes."""
    in_process = wl.name == "cli-session"
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        wl.setup()
    finally:
        tracer.restore()
    # Untraced passes on both sides of the traced one, so that drift in the
    # machine's speed does not show up as tracing overhead.
    plain = [wl.run_pass(0, in_process)]
    layers.instrument(tracer)
    try:
        traced = wl.run_pass(1, in_process)
    finally:
        tracer.restore()
    plain.append(wl.run_pass(2, in_process))
    if in_process:
        wl.tally.check(all(p.outcomes == traced.outcomes for p in plain),
                       "traced outputs differ from untraced ones")
    overhead = sum(traced.latencies) / median_of([sum(p.latencies) for p in plain])
    metrics = layers.layer_metrics(
        tracer,
        import_s=import_seconds(IMPORT_REPS),
        emit_bytes=wl.emitted,
        overhead_ratio=overhead,
    )
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.tsv")
    tracer.write_spans(spans_path)
    lines = [f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}"]
    for name, s in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<24} self {s:9.4f} s  calls {tracer.calls[name]}")
    return metrics, lines + wl.finish([plain[0], traced, plain[1]], "in-process ")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rayleigh_kit", "__init__.py")):
        print(f"error: no rayleigh_kit sources under {SRC}", file=sys.stderr)
        return 2
    # One core for this process and its CLI children, so that the calibration
    # slices measure the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    tally = w.Tally()
    wl = Workload(args.workload, args.seed, tally)
    try:
        if wl.name == "cli-session":
            import_seconds(1)  # compiles the package, so no measured call pays for it
        metrics, lines = trace(wl) if args.trace else measure(wl, args.seconds)
    finally:
        wl.cleanup()
    lines.append(f"failed_share: {tally.failed / max(tally.attempted, 1):.4f} "
                 f"({tally.failed} of {tally.attempted})")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    print(f"workload {wl.name}, seed {wl.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
