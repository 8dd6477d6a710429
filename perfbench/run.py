#!/usr/bin/env python3
"""The repository benchmark: fresh-process runs of four workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call builds the worker (perfbench/CMakeLists.txt, engine sources
from src/) into .bench_build/. Each sample is one fresh worker process that
makes one workload entry call; CPU time, peak RSS, page faults and
involuntary context switches come from wait4() on that process. Before
every sample a separate process times a fixed CPU loop (host.spin_ms) as
evidence of host noise; it never adjusts a metric.

--trace 0 measures the end-to-end metrics with tracing off and reports
medians. --trace 1 alternates untraced and traced processes (the engine's
existing trace on, plus layer probes after the workload) and reports the
per-layer metrics. Every sample's output is checked; a failed check, a
crash or a timeout is a failed run, and any failed run makes the command
exit 1. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKER = os.path.join(BUILD_DIR, "perfbench_worker")
SPILL_DIR = os.path.join(BUILD_ROOT, "spill")

# Input sizes per workload (see README.md for why each was chosen). The
# seed is passed separately; the same seed gives the same inputs.
WORKLOADS = {
    "wc-deca": {"words": 16_000_000, "keys": 200_000},
    "lr-spark": {"points": 640_000, "iters": 4},
    "serve-deca": {"records": 96_000, "stages": 16, "queries": 2048},
    "stream-deca": {"epochs": 160, "records": 50_000, "keys": 16384},
}

PROCESS_TIMEOUT_S = 60
MIN_SAMPLES = 3

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("job_s", "s"),
    ("records_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics reported by the worker's traced process.
TRACED_LAYERS = [
    ("jvm.gc_pause_ms", "ms"), ("jvm.gc_share", "ratio"),
    ("jvm.full_gcs", "count"), ("jvm.minor_gcs", "count"),
    ("jvm.pause_p99_ms", "ms"),
    ("jvm.full_gc_us", "us"), ("jvm.full_gc_ops", "count"),
    ("shuffle.write_ms", "ms"), ("shuffle.read_ms", "ms"),
    ("layers.compute_ms", "ms"), ("layers.residual_ms", "ms"),
    ("core.hash_insert_ns", "ns"), ("core.hash_insert_ops", "count"),
    ("tier.t0_hits", "count"), ("tier.t1_hits", "count"),
    ("tier.t2_hits", "count"), ("tier.t0_hit_ratio", "ratio"),
    ("tier.demotes_to_t1", "count"), ("tier.demotes_to_t2", "count"),
    ("tier.promotes", "count"), ("tier.admit_rejects", "count"),
    ("tier.promote_p99_ms", "ms"), ("tier.spill_ms", "ms"),
    ("tier.swapped_mb", "MB"),
    ("serde.ser_ms", "ms"), ("serde.deser_ms", "ms"),
    ("common.decode_ns", "ns"), ("common.decode_ops", "count"),
    ("alloc.allocs", "count"), ("alloc.bytes_requested", "bytes"),
    ("alloc.pair_ns", "ns"), ("alloc.pair_ops", "count"),
    ("memory.exec_peak_mb", "MB"), ("memory.storage_peak_mb", "MB"),
    ("memory.denied_reservations", "count"),
    ("net.wire_bytes", "bytes"), ("net.messages", "count"),
    ("net.encode_ms", "ms"), ("net.decode_ms", "ms"),
    ("net.frame_roundtrip_ns", "ns"), ("net.frame_roundtrip_ops", "count"),
    ("stream.pause_p99_ms", "ms"), ("stream.reclaim_p99_ms", "ms"),
    ("stream.reclaimed_mb", "MB"), ("stream.drift_kb", "KB"),
    ("exec.tasks", "count"), ("exec.task_ms", "ms"),
    ("exec.slowest_queue_ms", "ms"), ("exec.task_retries", "count"),
    ("trace.dropped_events", "count"),
]

# Per-layer metrics this script derives from the untraced processes of a
# --trace 1 call (wait4 counters, host calibration, serve latencies).
SCRIPT_LAYERS = [
    ("obs.trace_overhead", "ratio"),
    ("proc.minor_faults", "count"), ("proc.major_faults", "count"),
    ("proc.invol_ctx_switches", "count"),
    ("host.spin_ms", "ms"),
    ("serve.queries_per_s", "1/s"),
    ("serve.query_p50_ms", "ms"), ("serve.query_p99_ms", "ms"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the worker; False when it cannot."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_worker", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(WORKER)


class Proc:
    """One finished worker process: exit code, stdout and its rusage."""

    def __init__(self, args, timeout_s=PROCESS_TIMEOUT_S):
        child = subprocess.Popen([WORKER] + args, stdout=subprocess.PIPE)
        deadline = time.monotonic() + timeout_s
        self.timed_out = False
        try:
            # Polling wait4 keeps the child's rusage (Popen.wait drops it).
            # Output is one short line, so the pipe never fills before exit.
            while True:
                pid, status, self.rusage = os.wait4(child.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.timed_out = True
                    child.kill()
                    _, status, self.rusage = os.wait4(child.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            child.kill()
            os.wait4(child.pid, 0)
            raise
        child.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.out = child.stdout.read().decode()
        child.stdout.close()

    def result(self):
        """The worker's JSON line, or None when the process failed."""
        if self.code != 0 or self.timed_out:
            return None
        try:
            return json.loads(self.out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None


def spin_ms():
    p = Proc(["spin"])
    r = p.result()
    if r is None:
        raise RuntimeError("calibration loop failed")
    return r["spin_ms"]


def workload_args(workload, seed, trace=False, reference=False):
    args = ["run", workload, f"--seed={seed}", f"--spill-dir={SPILL_DIR}"]
    args += [f"--{k}={v}" for k, v in WORKLOADS[workload].items()]
    if trace:
        args.append("--trace")
    if reference:
        args.append("--reference")
    return args


def covers_input(workload, check):
    """True when a reference output accounts for the whole input."""
    size = WORKLOADS[workload]
    if workload == "lr-spark":
        return len(check["weights"].split(",")) == 10
    if workload == "serve-deca":
        return check["queries"] == size["stages"] * 4 * size["queries"]
    return (check["windows"] == size["epochs"] // 4 and
            check["records"] == size["epochs"] * size["records"])


class Sample:
    """One workload process: its worker result and wait4 counters."""

    def __init__(self, proc, spin, result):
        ru = proc.rusage
        self.spin_ms = spin
        self.result = result
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.peak_rss_mb = ru.ru_maxrss / 1024.0  # Linux reports KiB
        self.minor_faults = ru.ru_minflt
        self.major_faults = ru.ru_majflt
        self.invol_ctx_switches = ru.ru_nivcsw
        self.job_s = result["job_s"]
        self.setup_s = result["entry_s"] - result["job_s"]
        self.records_per_s = result["records"] / result["job_s"]


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.want = None

    def run_one(self, trace=False, reference=False):
        """Runs one workload process; returns its Sample or None."""
        spin = spin_ms()
        self.attempted += 1
        p = Proc(workload_args(self.workload, self.seed, trace, reference))
        r = p.result()
        if r is None:
            self.failed += 1
            log(f"run failed: exit={p.code} timed_out={p.timed_out}")
            return None
        if self.want is not None and r["check"] != self.want:
            self.failed += 1
            log(f"output check failed: got {r['check']}, want {self.want}")
            return None
        return Sample(p, spin, r)

    def reference(self):
        """Fixes the output every sample must reproduce exactly."""
        size = WORKLOADS[self.workload]
        if self.workload == "wc-deca":
            self.want = {"total": size["words"], "distinct": size["keys"]}
            return True
        # Same seed, another configuration (lr: Deca mode; serve, stream:
        # threads=0), in its own untimed process.
        ref = self.run_one(reference=True)
        if ref is None:
            return False
        want = ref.result["check"]
        if not covers_input(self.workload, want):
            self.failed += 1
            log(f"reference run did not cover its input: {want}")
            return False
        self.want = want
        return True


def quartiles(values):
    """(q1, median, q3), interpolated between samples for display."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def print_table(title, rows):
    print(title)
    print(f"  {'metric':<28}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>5}")
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"  {name:<28}{unit:<8}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{len(values):>5}")


def print_samples(samples, label):
    print(f"per-process samples ({label}):")
    print(f"  {'job_s':>9}{'setup_s':>9}{'cpu_s':>8}{'rss_mb':>8}"
          f"{'minflt':>9}{'majflt':>7}{'nivcsw':>8}{'spin_ms':>9}")
    for s in samples:
        print(f"  {s.job_s:>9.4f}{s.setup_s:>9.4f}{s.cpu_s:>8.3f}"
              f"{s.peak_rss_mb:>8.1f}{s.minor_faults:>9}{s.major_faults:>7}"
              f"{s.invol_ctx_switches:>8}{s.spin_ms:>9.2f}")


def measure_end_to_end(runner, seconds):
    samples = []
    start = time.monotonic()
    last = 0.0
    # Start a sample only when it is expected to finish inside the window.
    while (len(samples) < MIN_SAMPLES or
           time.monotonic() - start + last <= seconds):
        t0 = time.monotonic()
        s = runner.run_one()
        last = time.monotonic() - t0
        if s is None:
            return None
        samples.append(s)
    print_samples(samples, "tracing off")
    rows = [(name, unit, [getattr(s, name) for s in samples])
            for name, unit in END_TO_END]
    if runner.workload == "serve-deca":
        rows.append(("queries_per_s", "1/s",
                     [s.records_per_s for s in samples]))
        rows += [(name, "ms", [s.result[name] for s in samples])
                 for name in ("query_p50_ms", "query_p99_ms")]
    print_table(f"end-to-end, {runner.workload}, seed {runner.seed}", rows)
    return {name: statistics.median(values)
            for name, _, values in rows[:len(END_TO_END)]}


def measure_layers(runner, seconds):
    plain, traced = [], []
    start = time.monotonic()
    last = 0.0
    while (len(plain) < 1 or len(traced) < 1 or
           time.monotonic() - start + last <= seconds):
        t0 = time.monotonic()
        trace = len(traced) < len(plain)
        s = runner.run_one(trace=trace)
        last = time.monotonic() - t0
        if s is None:
            return None
        (traced if trace else plain).append(s)
    print_samples(plain, "tracing off")
    print_samples(traced, "traced, with probes")
    values = {name: [s.result["layers"][name] for s in traced]
              for name, _ in TRACED_LAYERS}
    values["obs.trace_overhead"] = [
        statistics.median([s.job_s for s in traced]) /
        statistics.median([s.job_s for s in plain]) - 1]
    values["proc.minor_faults"] = [s.minor_faults for s in plain]
    values["proc.major_faults"] = [s.major_faults for s in plain]
    values["proc.invol_ctx_switches"] = [s.invol_ctx_switches for s in plain]
    values["host.spin_ms"] = [s.spin_ms for s in plain + traced]
    serve = runner.workload == "serve-deca"
    values["serve.queries_per_s"] = [
        s.records_per_s if serve else 0 for s in plain]
    values["serve.query_p50_ms"] = [s.result["query_p50_ms"] for s in plain]
    values["serve.query_p99_ms"] = [s.result["query_p99_ms"] for s in plain]
    units = dict(TRACED_LAYERS + SCRIPT_LAYERS)
    rows = [(name, units[name], values[name]) for name in units]
    print_table(f"per-layer, {runner.workload}, seed {runner.seed}", rows)
    return {name: statistics.median(v) for name, _, v in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args()
    # A terminated benchmark still kills and reaps its current worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not build():
        log("build failed")
        return 2
    os.makedirs(SPILL_DIR, exist_ok=True)

    runner = Runner(opts.workload, opts.seed)
    measure = measure_layers if opts.trace else measure_end_to_end
    units = dict(TRACED_LAYERS + SCRIPT_LAYERS if opts.trace else END_TO_END)
    metrics = measure(runner, opts.seconds) if runner.reference() else None
    correct = metrics is not None and runner.failed == 0
    print(f"error_rate: {runner.failed / max(1, runner.attempted):.6g} "
          f"({runner.failed} of {runner.attempted} runs failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {} if metrics is None else {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
