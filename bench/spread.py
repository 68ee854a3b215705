"""Run the benchmark once per seed and report each metric's median and spread.

From the repository root:

    python3 bench/spread.py --workload analyze --seeds 1-10 --seconds 25

For every metric it prints the median over the seeds and the distance
between the first and third quartiles as a share of that median, the
figure BENCHMARK.json's bounds are set against.  The reference figures in
bench/README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed_shares = set()
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            return 1
        failed_shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        line = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {line}",
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} seeds, (failed, attempted) {sorted(failed_shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:40s} median {med:10.5g} {units[name]:5s} q1 {q1:10.5g} q3 {q3:10.5g}"
              f" spread {spread:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
