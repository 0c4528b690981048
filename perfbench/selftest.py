#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, through perfbench/run.py:
  1. every workload prints exactly the end-to-end metrics (--trace 0) and
     the per-layer metrics (--trace 1) that BENCHMARK.json names, each
     with its unit, and reports no failed operation;
  2. at the figure seed, see_spec and mono_spec simulate the machines of
     the checked-in figure tables (the ppsim suite totals);
  3. a planted fault (corrupted stores into the fuzz output region)
     raises the failed-operation count of a small fuzz_oracle run.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIGURE_SEED = 0x5eed5eed
# `ppsim --workload W --config see|monopath` totals over the eight programs.
SEE_COMMITTED = 5_180_958
SEE_CYCLES = 1_996_952
MONO_CYCLES = 2_207_146


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("selftest: %s exited with %d" % (" ".join(cmd),
                                                   proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, FIGURE_SEED, trace)
            where = "%s --trace %d" % (workload, trace)
            metrics = result["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected[trace]:
                problems.append("%s: metrics/units differ from "
                                "BENCHMARK.json: %s" % (
                                    where, sorted(set(got.items()) ^
                                                  set(expected[trace].items()))))
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append("%s: %d of %d operations failed" % (
                    where, result["failed"], result["attempted"]))
            if trace == 0:
                problems += ["%s: %s is not positive" % (where, name)
                             for name, m in metrics.items()
                             if not m["value"] > 0]
            if trace == 1 and workload in ("see_spec", "mono_spec"):
                committed = metrics["core.committed"]["value"]
                cycles = metrics["core.cycles"]["value"]
                want = ((SEE_COMMITTED, SEE_CYCLES)
                        if workload == "see_spec" else (None, MONO_CYCLES))
                if (want[0] not in (None, committed)) or cycles != want[1]:
                    problems.append("%s: %d committed / %d cycles, figure "
                                    "totals %s / %d" % (
                                        where, committed, cycles, want[0],
                                        want[1]))

    planted = run("fuzz_oracle", 1, 0, "--plant-fault")
    if planted["failed"] == 0 or planted["correct"]:
        problems.append("planted fault was not detected: %d failed of %d"
                        % (planted["failed"], planted["attempted"]))
    else:
        print("selftest: planted fault raised %d failed of %d attempted"
              % (planted["failed"], planted["attempted"]))

    for problem in problems:
        print("selftest: FAIL:", problem)
    if problems:
        sys.exit(1)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
