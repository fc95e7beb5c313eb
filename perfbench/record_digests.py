"""Record the artifact digest of every pool key of one workload.

    python3 perfbench/record_digests.py --workload certify

Run it only on the commit whose artifacts the benchmark compares against;
it writes perfbench/digests/<workload>.json and fails if any job fails its
exit-code or output check, since the benchmark's workloads must not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from vclab import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    args = parser.parse_args()
    scratch = os.path.join(ROOT, ".perfbench-run", f"record-{os.getpid()}")
    digests = []
    worst = 0.0
    try:
        for key in range(workloads.POOL):
            out_dir = os.path.join(scratch, str(key))
            os.makedirs(out_dir)
            argvs = workloads.job_argvs(args.workload, key, out_dir)
            t0 = time.perf_counter()
            reason = workloads.execute(cli.main, argvs)
            worst = max(worst, time.perf_counter() - t0)
            reason = reason or workloads.check_outputs(args.workload, argvs)
            if reason:
                print(f"key {key}: {reason}: {argvs}", file=sys.stderr)
                return 1
            digests.append(workloads.artifact_digest(argvs))
            shutil.rmtree(out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "digests"), exist_ok=True)
    with open(os.path.join(HERE, "digests", f"{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")
    print(f"{args.workload}: {len(digests)} digests, slowest job {worst:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
