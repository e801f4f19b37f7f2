#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload of BENCHMARK.json, untraced and traced, at --scale
   tiny: the run exits 0, its last stdout line has exactly the keys
   correct, attempted, failed and metrics, and it prints exactly the
   metrics BENCHMARK.json lists, each with its unit. The eval workload,
   which BENCHMARK.json leaves out (see NOTES.md), prints the end-to-end
   metrics and its own per-layer ones.
2. A corrupted certificate makes both output checks fail (the batch vs.
   per-instance byte comparison, and VerifyCorpus) and the run exit 1.
3. A copy holding only BENCHMARK.json and the benchmark's own files exits
   nonzero without printing a result.

Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py", "--seed", "1", "--seconds", "1"]


def run(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]] + ["eval"]:
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            what = f"{workload} --trace {trace}"
            proc, result = run(["--workload", workload, "--trace",
                                str(trace), "--scale", "tiny"])
            expect(proc.returncode == 0 and result is not None,
                   f"{what}: exits 0 with a result line")
            if result is None:
                print(proc.stderr[-2000:], file=sys.stderr)
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{what}: correct, attempted >= 1")
            got = {name: entry.get("unit")
                   for name, entry in result["metrics"].items()}
            if workload == "eval" and trace == 1:
                expect(all(got.values()) and "share.engine" in got,
                       f"{what}: engine metrics, with their units")
            else:
                want = {m["name"]: m["unit"] for m in listed}
                expect(got == want, f"{what}: exactly the listed metrics, "
                       "with their units")
            expect(all(isinstance(e["value"], (int, float))
                       for e in result["metrics"].values()),
                   f"{what}: numeric values")

    proc, result = run(["--workload", "corpus-mix", "--trace", "0",
                        "--scale", "tiny", "--corrupt-certificate"])
    expect(proc.returncode == 1 and result is not None
           and result["correct"] is False,
           "corrupted certificate: correct false, exit 1")
    expect("batch certificates differ" in proc.stderr,
           "corrupted certificate: byte comparison fails")
    expect("VerifyCorpus rejected" in proc.stderr,
           "corrupted certificate: VerifyCorpus rejects")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc, result = run(["--workload", "corpus-mix", "--trace", "0"],
                       cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "without sources: exits nonzero, prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
