#!/usr/bin/env python3
"""Serving-ledger benchmark runner.

    python3 perfbench/run.py --workload <gnn-warm|sampled-cold|model-warm>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
harness (perfbench/CMakeLists.txt) under .bench_build/perfbench; later
calls reuse the build. Each workload runs in its own harness process
with the engine's environment switches pinned (bytecode tier, static
verification off, tracing off) and a fresh native-artifact and temp
directory inside .bench_build that is removed afterwards, so one run
never reads another run's compiled kernels. The harness's last stdout
line is the JSON result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Engine switches read from the environment, pinned so that every run
# measures the shipped defaults whatever the caller's shell exports.
PINNED_ENV = {
    "SPARSETIR_NATIVE": "0",
    "SPARSETIR_VERIFY": "0",
    "SPARSETIR_TRACE": "0",
}


def build():
    """Configure (once) and build the harness; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        sys.exit("perfbench: sparsetir sources not found under " + ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, env=env,
                timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--",
             "-j%d" % (os.cpu_count() or 1)],
            check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)


def run_harness(argv):
    """Run the harness with a pinned environment; returns its exit code."""
    scratch_root = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("SPARSETIR_")}
        env.update(PINNED_ENV)
        env["SPARSETIR_NATIVE_CACHE_DIR"] = os.path.join(scratch, "native")
        env["TMPDIR"] = scratch
        print("env: " + " ".join(
            "%s=%s" % (k, env[k]) for k in sorted(env)
            if k.startswith("SPARSETIR_")), flush=True)
        proc = subprocess.Popen([BINARY] + argv, env=env, cwd=ROOT)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: harness timed out", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        argv = ["--selftest"]
    else:
        if args.workload is None or args.seed is None or not args.seconds:
            parser.error("--workload, --seed and --seconds are required")
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.exit(run_harness(argv))


if __name__ == "__main__":
    main()
