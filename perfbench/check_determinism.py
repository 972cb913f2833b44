#!/usr/bin/env python3
"""Check that the benchmark's simulated results are a function of the seed.

    python3 perfbench/check_determinism.py [--seconds 1]

For every workload, runs the benchmark twice at one seed and once at
another, plus a traced run at the first seed. The two same-seed runs
must agree exactly on the fingerprint (every simulated latency, every
deterministic counter, the recovery totals and the final simulated
clock) and on the simulated end-to-end metrics; the traced run must
print the same fingerprint, since spans only read the host clock; the
other seed must change the fingerprint, which shows that
the seed reaches the generated inputs. Run from the root of the
repository; exits 0 when every check holds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("server_rio", "server_journal", "crash_recover")
SIM_METRICS = ("sim_p50_us", "sim_tail_us")


def run(workload: str, seed: int, seconds: int, trace: int = 0):
    """Run one workload; return (fingerprint, simulated metrics)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
    prints = [l.split()[1] for l in lines if l.startswith("fingerprint ")]
    sim = {k: result["metrics"][k]["value"]
           for k in SIM_METRICS if k in result["metrics"]}
    return prints[0], sim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    ok = True
    for workload in WORKLOADS:
        first = run(workload, args.seed, args.seconds)
        again = run(workload, args.seed, args.seconds)
        traced = run(workload, args.seed, args.seconds, trace=1)
        other = run(workload, args.seed + 1, args.seconds)
        same = first == again
        untouched = traced[0] == first[0]
        moved = first[0] != other[0]
        print(f"{workload}: same seed {'identical' if same else 'DIFFERS'}"
              f" ({first[0]}), traced run "
              f"{'identical' if untouched else 'DIFFERS'}, other seed "
              f"{'changes it' if moved else 'DOES NOT change it'}"
              f" ({other[0]})")
        ok = ok and same and untouched and moved
    print("determinism: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
