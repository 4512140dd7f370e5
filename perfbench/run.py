#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the simulator's src/ plus the perfbench program,
Release) under $CARGO_TARGET_DIR or .bench_build; later runs rebuild
incrementally.
The program's output is passed through; its last line is the result
object. Before passing it on, this script checks that the result names
exactly the metrics BENCHMARK.json lists for the chosen --trace mode,
with the same units. Build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=300).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr, timeout=850).returncode:
        fail("build failed")
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if trace == 1 else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir)
    spans_dir = build_dir / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans)]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=3 * args.seconds + 120)
    if run.returncode:
        sys.stderr.write(run.stdout)
        fail(f"perfbench exited with {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        sys.stderr.write(run.stdout)
        fail("perfbench's metrics do not match BENCHMARK.json")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
