#!/usr/bin/env python3
"""End-to-end benchmark of actuaryd: build, run, check, report.

One workload, as the harness contract asks (last stdout line is JSON):

    python3 perfbench/run.py --workload explore_cold --seed 7 --seconds 10 --trace 0

Every workload, printing all end-to-end metrics with units; exits
non-zero on any incorrect or failed answer:

    python3 perfbench/run.py

Steadiness mode: repeat each workload over seeds and print each
end-to-end metric's quartile spread next to its bound (and, with
--sets 2, how far the second set's median moved from the first's):

    python3 perfbench/run.py --steadiness 5 [--workloads explore_cold] [--sets 2] [--verbose]

The benchmark builds the repository's actuary_cli and its own driver
from source into .bench_build/ (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper_warm", "explore_cold", "scenario_cold")
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no repository sources next to perfbench/; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
                   "--target", "actuary_cli", "perfbench_driver"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def driver_command(workload, seed, seconds, trace):
    return [str(BUILD / "perfbench_driver"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--cli", str(BUILD / "chiplet" / "actuary_cli"),
            "--root", str(ROOT)]


def run_driver(workload, seed, seconds, trace, capture):
    """Runs one measurement; returns (exit code, stdout text or None)."""
    try:
        done = subprocess.run(driver_command(workload, seed, seconds, trace),
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    return done.returncode, done.stdout


def last_json(text):
    lines = [l for l in (text or "").splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartile_spread(values):
    """(q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def steadiness(args):
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for i in range(args.steadiness):
                seed = args.seed + s * args.steadiness + i
                code, out = run_driver(workload, seed, seconds, 0, True)
                result = last_json(out)
                if code != 0 or not result or not result["correct"]:
                    log(f"perfbench: {workload} seed {seed} failed")
                    return 1
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print(f"== {workload}: {args.steadiness} runs x {args.sets} set(s), "
              f"{seconds} s each")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}"
              f" {'bound/3':>8}  verdict"
              + ("   spread2    drift" if args.sets > 1 else ""))
        for name, bound in bounds.items():
            v = sets[0][name]
            med = statistics.median(v)
            spread = quartile_spread(v)
            ok = name == "setup_s" or spread < bound / 3
            line = (f"  {name:<20} {med:>12.6g} {spread:>8.4f} {bound:>6.3f}"
                    f" {bound / 3:>8.4f}  {'steady' if ok else 'WIDE  '}")
            if args.sets > 1:
                med2 = statistics.median(sets[1][name])
                drift = (med2 - med) / med if med else 0.0
                line += f"   {quartile_spread(sets[1][name]):7.4f}  {drift:+.4f}"
            if not ok:
                status = 1
            print(line, flush=True)
            if args.verbose:
                for values in sets:
                    print("      " + " ".join(f"{x:.6g}" for x in values[name]),
                          flush=True)
    return status


def all_workloads(args):
    seconds = args.seconds or bench_spec()["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, _ = run_driver(workload, args.seed, seconds, args.trace, False)
        if code != 0:
            print(f"== {workload}: FAILED (exit {code})", flush=True)
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="repeat each workload RUNS times and report spreads")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness: independent sets of RUNS (drift check)")
    parser.add_argument("--workloads", default="",
                        help="steadiness: comma-separated subset")
    parser.add_argument("--verbose", action="store_true",
                        help="steadiness: also print every run's value")
    args = parser.parse_args()

    if not build():
        return 2
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        return all_workloads(args)
    seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
    code, _ = run_driver(args.workload, args.seed, seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
