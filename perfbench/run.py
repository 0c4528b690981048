#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload see_spec --seed 1 --seconds 15 --trace 0

Workloads: see_spec, mono_spec, fuzz_oracle, fig8_sweep (see README.md).
The harness is built in Release mode under .bench_build/perfbench; the
first run configures and compiles it, later runs only check it is up to
date. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. A harness that crashes
or hangs is reported as a failed run (correct false) and exit code 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("see_spec", "mono_spec", "fuzz_oracle", "fig8_sweep")

# A run must end within 180 s; the harness gets what the build leaves.
HARNESS_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "pp_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD / "pp_perfbench"


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def failed_run(reason):
    sys.stderr.write("perfbench: " + reason + "\n")
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt stores into the fuzz output region "
                             "(self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    exe = build()
    scratch = BUILD / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch)]
    if args.plant_fault:
        cmd.append("--plant-fault")
    env = dict(os.environ, PB_COMMIT=source_commit())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failed_run("harness exceeded %d s and was killed" % HARNESS_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        failed_run("harness exited with status %d" % proc.returncode)


if __name__ == "__main__":
    main()
