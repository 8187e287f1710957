#!/usr/bin/env python3
"""Build and run the CFSF service benchmark.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 15 --trace 0

Every workload, untraced and traced, with the workload-separation check
and the tracing overhead (exit status non-zero on any failure):

    python3 perfbench/run.py --workload all [--seed 1] [--seconds 15]

Each call configures and builds the library (from ../src) and the
benchmark program into .bench_build/perfbench with CMake (Release); only
the first compiles everything, later calls rebuild what changed.  Build
output goes to stderr, so the last line of stdout is the program's JSON
result.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD, "cfsf_perfbench")
WORKLOADS = ["read_zipf", "mixed_rw", "ingest_restart"]


def build():
    """Configures and builds the benchmark program; False on failure."""
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "cfsf_perfbench",
              "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace, capture=False):
    """Runs the benchmark program once; returns (exit code, stdout or None)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", WORK]
    if not capture:
        return subprocess.run(command, cwd=ROOT).returncode, None
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def report_value(stdout, name):
    """A value from the program's 'e2e <name> <value> <unit> n=<count>' lines."""
    found = re.search(r"^e2e %s\s+(\S+)" % re.escape(name), stdout, re.M)
    return float(found.group(1)) if found else None


def separation_failures(layers):
    """The traced runs must show each workload doing its own work."""
    value = {w: {k: v["value"] for k, v in layers[w]["metrics"].items()}
             for w in layers}
    rz, rw, ir = value["read_zipf"], value["mixed_rw"], value["ingest_restart"]
    failures = []
    if not rw["core.topk_hit_ratio"] <= 0.9 * rz["core.topk_hit_ratio"]:
        failures.append("core.topk_hit_ratio on mixed_rw (%.3f) is not well "
                        "below read_zipf's (%.3f)"
                        % (rw["core.topk_hit_ratio"], rz["core.topk_hit_ratio"]))
    write_path = ["serve.fold_batch_ms", "wal.append_p50_us",
                  "wal.append_p99_us", "wal.fsyncs_per_append", "wal.appends"]
    for name in write_path:
        if rz[name] != 0:
            failures.append("%s is %g on read_zipf (must be 0)" % (name, rz[name]))
        for label, w in (("mixed_rw", rw), ("ingest_restart", ir)):
            if not w[name] > 0:
                failures.append("%s is 0 on %s" % (name, label))
    if not rz["net.predict_share"] > rw["net.predict_share"]:
        failures.append("net.predict_share on read_zipf (%.4f) is not larger "
                        "than on mixed_rw (%.4f)"
                        % (rz["net.predict_share"], rw["net.predict_share"]))
    return failures


def run_all(seed, seconds):
    ok = True
    untraced, traced = {}, {}
    for workload in WORKLOADS:
        for trace, into in ((0, untraced), (1, traced)):
            code, stdout = run_one(workload, seed, seconds, trace, capture=True)
            sys.stdout.write(stdout)
            result = last_json(stdout) if stdout else None
            if code != 0 or result is None or not result.get("correct"):
                print("perfbench: %s --trace %d failed (exit %d)"
                      % (workload, trace, code))
                ok = False
                continue
            into[workload] = (result, stdout)
    if len(traced) == len(WORKLOADS):
        failures = separation_failures({w: r for w, (r, _) in traced.items()})
        for failure in failures:
            print("separation FAIL " + failure)
        if not failures:
            print("separation ok: every workload does the work it was chosen for")
        ok = ok and not failures
    for workload in WORKLOADS:
        if workload in traced and workload in untraced:
            plain = report_value(untraced[workload][1], "op_p50_us")
            with_spans = traced[workload][0]["metrics"]["trace.op_p50_us"]["value"]
            print("tracing overhead %-15s op_p50 %+.1f us (traced %.1f - "
                  "untraced %.1f)" % (workload, with_spans - plain, with_spans,
                                      plain))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        return 1
    os.makedirs(WORK, exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
