#!/usr/bin/env python3
"""Self-check of the HaoCL benchmark at tiny sizes.

    python3 perfbench/self_check.py

For every workload it runs the benchmark with tracing off and on and checks
that the run verifies, that the final JSON line carries exactly the metrics
BENCHMARK.json declares (with their units), and that every metric the notes
name for the workload is printed with its unit. It then plants one
corrupted output byte in each workload and expects verification to fail.
Exits non-zero on the first problem.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics printed as "metric <name> <value> <unit> n=<count>" lines.
COMMON = ["calib.tcp_rtt_us", "calib.memcpy_gbps", "error_frac",
          "peak_rss_mib"]
NAMED = {
    "small_launch": ["setup_s", "launch_p50_us", "launch_p99_us",
                     "pipelined_launches_per_s"],
    "matmul_vm": ["setup_s", "matmul_gflops"],
    "buffer_relay": ["setup_s", "relay_gbps", "relay_round_p90_ms"],
}
SELF_TIMES = ["api.self_us", "host.self_us", "nmp.self_us", "runtime.self_us"]
METRIC_LINE = re.compile(r"^metric (\S+)\s+(-?[0-9.]+)\s+(\S+)\s+n=(\d+)$")


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s trace=%d printed nothing:\n%s"
                             % (workload, trace, proc.stderr))
    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    return proc.returncode, json.loads(lines[-1]), printed


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, printed = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            expect(code == 0, "%s exited %d" % (tag, code))
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, "%s did not verify" % tag)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared[trace],
                   "%s JSON metrics differ from BENCHMARK.json: %s"
                   % (tag, sorted(set(units) ^ set(declared[trace]))))
            wanted = COMMON + (NAMED[workload] if trace == 0 else SELF_TIMES)
            missing = [m for m in wanted if m not in printed]
            expect(not missing, "%s did not print %s" % (tag, missing))
            print("ok   %s: %d metrics" % (tag, len(printed)))
        code, result, _ = run(workload, 0, "--plant-corruption")
        expect(code != 0 and not result["correct"] and result["failed"] > 0,
               "%s: a corrupted output byte was not detected" % workload)
        print("ok   %s: planted corruption detected (%d of %d failed)"
              % (workload, result["failed"], result["attempted"]))
    print("self-check passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print("self-check FAILED: %s" % error, file=sys.stderr)
        sys.exit(1)
