#!/usr/bin/env python3
"""gtw-bench: the simulator's cost harness.

Builds the benchmark (the library straight from src/ plus gtwbench/src)
into .bench_build/gtwbench, then runs one workload:

    python3 gtwbench/run.py --workload wan_bulk --seed 1 --seconds 10 --trace 0

Workloads: wan_bulk, fire_realtime, national_star (see gtwbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "gtwbench"


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "des" / "scheduler.hpp").is_file():
        sys.exit("gtwbench: library sources not found under %s" % (ROOT / "src"))
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "gtw_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["wan_bulk", "fire_realtime", "national_star"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print("gtwbench: build failed: %s" % err, file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("gtwbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
