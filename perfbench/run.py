#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the PEP libraries plus the benchmark binary) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs rebuild incrementally. The configuration-changing
environment variables (PEP_ENGINE, PEP_FUSE, PEP_OPT, PEP_KITER,
PEP_BENCH_*) are removed from the benchmark's environment, so the
pinned configuration holds whatever the caller's shell says.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. The
exit code is 0 when every correctness check passed, 1 when one failed,
and 2 when the benchmark could not be built or run (no result line).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = ("PEP_ENGINE", "PEP_FUSE", "PEP_OPT", "PEP_KITER")
WORKLOADS = ("replay-suite", "server-hot", "server-diverse")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def pinned_env():
    env = dict(os.environ)
    removed = sorted(k for k in env
                     if k in PINNED or k.startswith("PEP_BENCH_"))
    for key in removed:
        del env[key]
    return env, removed


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.join("bench", "common"), "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir, env):
    """Configure once, then build the benchmark target incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "pep_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "pep_perfbench")


def run_binary(command, env):
    """Run the benchmark, echoing its output; return its last line."""
    last = ""
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                          text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                line = line.rstrip("\n")
                if line:
                    if last:
                        print(last, flush=True)
                    last = line
            proc.wait()
        finally:
            timed_out = not watchdog.is_alive()
            watchdog.cancel()
    if timed_out:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, last


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (spec_path, error))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env, removed = pinned_env()
    if removed:
        print("pinned configuration: ignoring " + ", ".join(removed))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(build_dir, env)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(
        trace_dir, "%s-seed%d.json" % (args.workload, args.seed))

    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--commit", source_revision()]
    if args.trace:
        command += ["--trace-out", trace_out]
    code, last = run_binary(command, env)
    try:
        result = json.loads(last)
    except ValueError:
        fail("benchmark exited %d without a result line" % code)
    if args.trace:
        print("spans written to " + os.path.relpath(trace_out, ROOT))

    metrics = {}
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail("metric %s missing or not in %s" %
                 (metric["name"], metric["unit"]))
        metrics[metric["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
