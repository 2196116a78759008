#!/usr/bin/env python3
"""Check that the named work counts repeat exactly for a fixed seed.

    python3 perfbench/repeat_counts.py --seed 1 --seconds 30

Runs two traced runs of every workload with the same seed and compares
the per-item counts below; exits 1 if any differs or any run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("analyze-verify", "scan-thresholds", "conjugacy-n6")
COUNTS = ("systems.step.calls", "dynamics.qp_jacobian.calls",
          "scalar_map.xi.calls", "scalar_map.brentq.calls")


def traced_counts(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} items failed")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    same = True
    for workload in WORKLOADS:
        first, second = (traced_counts(workload, args.seed, args.seconds)
                         for _ in range(2))
        for name in COUNTS:
            verdict = "same" if first[name] == second[name] else "DIFFERENT"
            same &= first[name] == second[name]
            print(f"{workload:16} {name:28} {first[name]!r:>12} "
                  f"{second[name]!r:>12} {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
