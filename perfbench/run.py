#!/usr/bin/env python3
"""Builds the HaoCL benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: small_launch, matmul_vm, buffer_relay (see perfbench/NOTES.md).
The build goes to .bench_build/perfbench under the checkout root (Release,
the repository's own compile flags). Build output goes to stderr; the
driver's stdout is passed through, and its last line is the JSON result.
With --trace 1 the spans are written to .bench_build/traces/.
Extra flags (--tiny, --plant-corruption) are passed to the driver as is.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "haocl_perfbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "host", "cluster_runtime.h")):
        sys.exit("perfbench: HaoCL sources not found under %s/src" % ROOT)
    # Keep the compiler's temporary files inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
