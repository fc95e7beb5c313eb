"""Run the benchmark over a range of seeds, on one checkout or alternating
between two, and print each metric's quartiles and spread.

    python3 perfbench/series.py --workload certify --seeds 1-10 --out RESULTS
    python3 perfbench/series.py --workload certify --seeds 1-10 --out RESULTS \\
        parent=../vclab-parent change=.

A checkout is given as NAME=PATH (default: this=<the checkout holding this
script>).  Runs go one at a time; with two checkouts, the one that runs first
alternates from seed to seed.  The standard output of each run is saved as
RESULTS/NAME/<workload>.<seed>.out, the input of perfbench/compare.py.  The
spread printed for a metric is the distance between its first and third
quartiles as a share of its median.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from compare import load_results, quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run perfbench over several seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", required=True)
    parser.add_argument("checkouts", nargs="*", default=[f"this={ROOT}"])
    args = parser.parse_args(argv)
    checkouts = [c.split("=", 1) for c in args.checkouts]
    for i, seed in enumerate(args.seeds):
        for name, path in checkouts if i % 2 == 0 else checkouts[::-1]:
            os.makedirs(os.path.join(args.out, name), exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=path, capture_output=True, text=True, timeout=600,
            )
            with open(os.path.join(args.out, name, f"{args.workload}.{seed}.out"), "w",
                      encoding="utf-8") as fh:
                fh.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                return 1
    for name, _ in checkouts:
        runs = load_results(os.path.join(args.out, name))[args.workload]
        values = [runs[s] for s in args.seeds]
        print(f"{name}: {args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"failed {sum(r['failed'] for r in values)}/{sum(r['attempted'] for r in values)}")
        for metric, first in values[0]["metrics"].items():
            q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in values])
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:<36} median {med:.6g} {first['unit']}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
