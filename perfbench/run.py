#!/usr/bin/env python3
"""The repository's end-to-end benchmark: build perfbench, run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload kernels-coarse --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --self-test

The first run in a checkout configures and builds the toolbox and the
perfbench program into .bench_build/; later runs only check that it is up
to date. An untraced run prints every end-to-end metric, a traced run
every per-layer metric; the last line of stdout is the result JSON. Set-up
time (setup_s) is measured here, from before a perfbench process is spawned
to its first timed request, over SETUP_RUNS processes; the median is
reported. A traced run prints every per-layer metric of BENCHMARK.json: a
metric whose layer the workload does not exercise reads 0 with 0 samples.
The exit code is non-zero when the build fails or any output check fails.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SETUP_RUNS = 7
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring perfbench up to date; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file():
        log(f"no CMakeLists.txt at {ROOT}: the toolbox sources are missing")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def spawn(args):
    """Run perfbench once. Returns (exit code, stdout lines, setup seconds)."""
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench timed out: " + " ".join(args))
        return 1, [], None
    lines = out.splitlines()
    setup_s = None
    for line in lines:
        if line.startswith("ready_ns "):
            setup_s = (int(line.split()[1]) - start_ns) * 1e-9
    return proc.returncode, lines, setup_s


def print_metric(name, value, unit, samples):
    print(f"metric {name:<40} {value!r:<14} {unit:<8} samples={samples}")


def run(workload, seed, seconds, trace, extra):
    """One benchmark run; prints its report and returns the exit code."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + extra
    setups = []
    if trace == 0:
        for _ in range(SETUP_RUNS - 1):
            code, _, setup_s = spawn(args + ["--setup-only"])
            if code != 0 or setup_s is None:
                log("set-up failed")
                return 1
            setups.append(setup_s)
    code, lines, setup_s = spawn(args)
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench exited with {code} and no result")
        return code or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if not line.startswith("ready_ns "):
            print(line)
    if trace == 0 and setup_s is not None:
        setups.append(setup_s)
        value = statistics.median(setups)
        result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        print_metric("setup_s", value, "s", len(setups))
    if trace == 1:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for m in spec["per_layer"]:
            if m["name"] not in result["metrics"]:
                result["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
                print_metric(m["name"], 0, m["unit"], 0)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return code if code else (0 if result["correct"] else 1)


def self_test():
    """Every named metric prints with its unit and a sample count, and a
    corrupted output marks the run failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def command(name, trace, *extra):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), *extra],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=SETUP_RUNS * RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        printed = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 5 and parts[0] == "metric":
                printed[parts[1]] = (parts[3], parts[4])
        return proc.returncode, result, printed

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, printed = command(name, trace)
            if code != 0 or not result.get("correct"):
                problems.append(f"{name} trace {trace}: exit {code}")
                continue
            for m in spec[key]:
                unit, samples = printed.get(m["name"], (None, ""))
                if unit != m["unit"] or not samples.startswith("samples="):
                    problems.append(f"{name}: {m['name']} not printed with "
                                    f"unit {m['unit']} and a sample count")
                elif result["metrics"].get(m["name"], {}).get("unit") != unit:
                    problems.append(f"{name}: {m['name']} not in result JSON")
        code, result, _ = command(name, 0, "--corrupt")
        if code == 0 or result.get("correct", True) or not result.get("failed"):
            problems.append(f"{name}: corrupted output not reported as failed")
    for p in problems:
        log("self-test: " + p)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one checked output (self-test)")
    args = parser.parse_args()
    if not build():
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace,
               ["--corrupt"] if args.corrupt else [])


if __name__ == "__main__":
    sys.exit(main())
