#!/usr/bin/env python3
"""Builds and runs the datalog_eq benchmark for one workload.

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench_driver (Release) from the checkout's src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. Every measured pass runs in its own driver
process, so each pass's peak RSS is its own.

--trace 0 runs the untraced passes and prints the end-to-end metrics;
--trace 1 runs one serial pass for routing and a traced pass that times
every public call per layer, and prints the per-layer metrics. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics. Any failed output check prints "correct": false and exits 1;
a benchmark that cannot run (no sources, build error, crash) exits 2
without a result line.

Workloads: corpus-mix and corpus-nolinear (the ones BENCHMARK.json
lists) and eval, which runs the engine on random graphs and is left out
of BENCHMARK.json because its 4-thread timings are not steady on shared
hosts (perfbench/NOTES.md).

--scale tiny and --corrupt-certificate exist for perfbench/selftest.py.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("corpus-mix", "corpus-nolinear", "eval")
STAGES = ("lint", "forward", "linear", "unfold", "ptrees")
MIN_SETUP_SAMPLES = 3
# A parallel step repeats the parallel pass (each one a sample) for this
# long: one corpus-mix pass, three or so corpus-nolinear ones.
PARALLEL_STEP_SECONDS = 2.0
# Measuring (after the build) must end within this many seconds.
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / target / "perfbench").resolve()


def child_env(bdir):
    # Keep compiler temporaries inside the checkout.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(bdir, jobs):
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources: {ROOT / 'src'} is missing")
    env = child_env(bdir)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(jobs),
                  "--target", "perfbench_driver"])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    return bdir / "perfbench_driver"


class Driver:
    """Runs one driver subcommand and returns its JSON output. Every child
    must end by `deadline` (a time.monotonic() value)."""

    def __init__(self, exe, env, scale, deadline):
        self.exe = exe
        self.env = env
        self.scale = scale
        self.deadline = deadline

    def __call__(self, command, **kwargs):
        argv = [str(self.exe), command]
        for key, value in kwargs.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        argv += ["--scale", self.scale]
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  env=self.env,
                                  timeout=max(1.0, self.deadline -
                                              time.monotonic()),
                                  check=False)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{command} timed out") from err
        if proc.returncode != 0:
            raise BenchError(f"{command} exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def repeated(step, seconds):
    """The step that runs `step` until `seconds` have passed (at least
    once)."""
    def run():
        began = time.monotonic()
        step()
        while time.monotonic() - began < seconds:
            step()
    return run


def run_steps(steps, seconds):
    """Runs the functions `steps` in turn, cycle after cycle, and returns
    how often each ran. The first cycle always runs whole, so every metric
    gets a sample. After it, a step is skipped when, taking as long as its
    slowest earlier run, it would end past `seconds`, and the run ends
    when no step fits. So the run fills `seconds` although one corpus-mix
    serial pass takes a quarter of it."""
    took = [[] for _ in steps]
    start = time.monotonic()
    while True:
        ran = False
        for step, times in zip(steps, took):
            if times and time.monotonic() - start + max(times) > seconds:
                continue
            began = time.monotonic()
            step()
            times.append(time.monotonic() - began)
            ran = True
        if not ran:
            return [len(t) for t in took]


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Accumulates metrics, operation counts and output-check failures."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def count(self, result):
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        for error in result.get("errors", [])[:5]:
            log(f"failed operation: {error}")

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def corrupt_certificate(cert_file):
    """Re-points the last certificate of a stage file at the first one's
    instance: it still parses, but coverage is now wrong."""
    lines = cert_file.read_text().splitlines(keepends=True)
    heads = [i for i, line in enumerate(lines) if line.startswith("cert ")]
    if len(heads) < 2:
        raise BenchError(f"{cert_file} has too few certificates to corrupt")
    first_id = lines[heads[0]].split()[1]
    parts = lines[heads[-1]].split(" ")
    parts[1] = first_id
    lines[heads[-1]] = " ".join(parts)
    cert_file.write_text("".join(lines))


class SetupSampler:
    """Takes one set-up sample per call. The samples are spread over the
    run, between the passes, because a shared host's speed drifts over
    seconds; setup_s is their median."""

    def __init__(self, driver, run, command, output, **kwargs):
        self.take = lambda: driver(command, **kwargs)
        self.run = run
        self.output = output
        self.seconds = []
        self.first = None

    def sample(self):
        result = self.take()
        self.seconds.append(result["setup_s"])
        if self.output is not None:
            made = digest(self.output)
            self.run.check(self.first in (None, made),
                           "set-up made different inputs on a repeat")
            self.first = self.first or made
        return result

    def median(self):
        while len(self.seconds) < MIN_SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.seconds)


def verify(driver, run, corpus, name, certs_dir):
    """Checks that VerifyCorpus accepts one pass's certificates."""
    ver = driver("verify", corpus=corpus, certs=certs_dir)
    run.check(ver["ok"], f"VerifyCorpus rejected {name} certificates: "
              f"{ver['message']}")


def corpus_untraced(driver, run, work, args, threads, samples):
    corpus = work / "corpus.dlcq"
    setup = SetupSampler(driver, run, "setup", corpus,
                         workload=args.workload, corpus=corpus)
    instances = setup.sample()["instances"]
    serial_dir, parallel_dir = work / "serial", work / "parallel"
    serial_dir.mkdir()
    parallel_dir.mkdir()
    # The first serial pass's certificates, per stage. Every later pass,
    # serial or batch, must reproduce them byte for byte.
    first = {}
    tallies = {}

    def certs_match(cert_dir, problem):
        for stage in STAGES:
            run.check(digest(cert_dir / f"{stage}.cert") == first[stage],
                      f"{stage}: {problem}")

    def serial():
        ser = driver("serial", corpus=corpus, out=serial_dir, seed=args.seed)
        run.count(ser)
        samples.add(wall_s_serial=ser["wall_s"], rss_mb_serial=ser["rss_mb"])
        samples.latencies += ser["latency_ms"]
        if not first:
            first.update((s, digest(serial_dir / f"{s}.cert"))
                         for s in STAGES)
            tallies.update(ser["tallies"])
        certs_match(serial_dir, "per-instance certificates changed "
                    "between serial passes")
        run.check(ser["tallies"] == tallies,
                  f"verdict tallies changed: {tallies} then {ser['tallies']}")

    def parallel():
        par = driver("parallel", corpus=corpus, out=parallel_dir,
                     threads=threads)
        run.count(par)
        samples.add(wall_s_parallel=par["wall_s"],
                    rss_mb_parallel=par["rss_mb"],
                    cert_bytes=par["cert_bytes"])
        if args.corrupt_certificate:
            corrupt_certificate(parallel_dir / "forward.cert")
        certs_match(parallel_dir, "batch certificates differ from the "
                    "per-instance ones")
        run.check(par["tallies"] == tallies,
                  f"verdict tallies differ: serial {tallies} "
                  f"parallel {par['tallies']}")

    runs = run_steps([serial, repeated(parallel, PARALLEL_STEP_SECONDS),
                      setup.sample], args.seconds)
    log(f"{instances} instances; serial, parallel and set-up steps ran "
        f"{runs} times")
    # Every pass's certificates equal the first serial pass's, so checking
    # the last serial and the last parallel pass covers them all.
    verify(driver, run, corpus, "serial", serial_dir)
    verify(driver, run, corpus, "parallel", parallel_dir)
    samples.add(setup_s=setup.median())


def eval_untraced(driver, run, work, args, threads, samples):
    setup = SetupSampler(driver, run, "eval-setup", None, seed=args.seed)
    setup.sample()
    calls = []

    def serial():
        ser = driver("eval-pass", seed=args.seed, threads=1,
                     out=work / "serial.digest")
        run.count(ser)
        run.check(ser["mismatched"] == 0,
                  f"serial: {ser['mismatched']} fixpoints differ from the "
                  "BFS closure")
        samples.add(wall_s_serial=ser["wall_s"], rss_mb_serial=ser["rss_mb"])
        samples.latencies += ser["latency_ms"]
        calls.append(len(ser["latency_ms"]))

    def parallel():
        par = driver("eval-pass", seed=args.seed, threads=threads,
                     out=work / "parallel.digest")
        run.count(par)
        run.check(digest(work / "serial.digest") ==
                  digest(work / "parallel.digest"),
                  f"fixpoints differ between 1 and {threads} threads")
        run.check(par["mismatched"] == 0,
                  f"parallel: {par['mismatched']} fixpoints differ from "
                  "the BFS closure")
        samples.add(wall_s_parallel=par["wall_s"],
                    rss_mb_parallel=par["rss_mb"],
                    cert_bytes=par["output_bytes"])

    runs = run_steps([serial, setup.sample, parallel, parallel],
                     args.seconds)
    log(f"{calls[0]} evaluations; serial, set-up, parallel and parallel "
        f"ran {runs} times")
    samples.add(setup_s=setup.median())


UNITS = {
    "wall_s_serial": "s", "wall_s_parallel": "s", "latency_ms_p50": "ms",
    "latency_ms_p95": "ms", "setup_s": "s",
    "rss_mb_serial": "MB", "rss_mb_parallel": "MB", "cert_bytes": "bytes",
}


class Samples:
    """Every sample of every end-to-end metric a run takes. A metric is
    the median of its samples; the latency percentiles are taken over the
    per-call latencies of all serial passes together."""

    def __init__(self):
        self.values = {name: [] for name in UNITS}
        self.latencies = []

    def add(self, **values):
        for name, value in values.items():
            self.values[name].append(value)

    def medians(self):
        values = dict(self.values,
                      latency_ms_p50=[nearest_rank(self.latencies, 0.50)],
                      latency_ms_p95=[nearest_rank(self.latencies, 0.95)])
        return {name: statistics.median(v) for name, v in values.items()}


def untraced(driver, run, work, args, threads):
    measure = eval_untraced if args.workload == "eval" else corpus_untraced
    samples = Samples()
    measure(driver, run, work, args, threads, samples)
    for name, value in samples.medians().items():
        run.metric(name, value, UNITS[name])


def traced(driver, run, work, args, threads):
    spans = work / "spans.tsv"
    if args.workload == "eval":
        ser = driver("eval-pass", seed=args.seed, threads=1,
                     out=work / "serial.digest")
        trace = driver("eval-trace", seed=args.seed, threads=threads,
                       spans=spans)
    else:
        corpus = work / "corpus.dlcq"
        driver("setup", workload=args.workload, corpus=corpus)
        (work / "serial").mkdir()
        ser = driver("serial", corpus=corpus, out=work / "serial",
                     seed=args.seed)
        trace = driver("trace", corpus=corpus, certs=work / "serial",
                       spans=spans)
    run.count(ser)
    run.failed += int(trace["failed"])
    for mismatch in trace["mismatches"]:
        run.check(False, f"trace: {mismatch}")
    for name, entry in trace["metrics"].items():
        run.metric(name, entry["value"], entry["unit"])
    run.metric("trace.overhead_s",
               trace["metrics"]["trace.pipeline_s"]["value"] - ser["wall_s"],
               "s")
    log(f"span log: {spans}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-certificate", action="store_true")
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    threads = min(4, nproc)
    bdir = build_dir()
    try:
        exe = build(bdir, nproc)
        env = child_env(bdir)
        work = bdir / "work" / f"{args.workload}-{args.seed}-{args.trace}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        driver = Driver(exe, env, args.scale, time.monotonic() + RUN_LIMIT_S)
        host = driver("context")
        host.update(nproc=nproc, threads=threads, seed=args.seed,
                    workload=args.workload, commit=commit())
        run = Run()
        (traced if args.trace else untraced)(driver, run, work, args, threads)
    except BenchError as err:
        log(f"benchmark error: {err}")
        return 2

    for problem in run.problems:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps({"host": host}))
    for name, entry in run.metrics.items():
        print(f"{name:40} {entry['value']:>18.6f} {entry['unit']}")
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}),
          flush=True)
    return 0 if correct else 1


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
