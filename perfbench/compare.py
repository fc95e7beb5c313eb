"""Compare two sets of benchmark results, for example a parent commit and a
change, workload by workload and metric by metric.

    python3 perfbench/compare.py RESULTS/parent RESULTS/change

Each directory holds `<workload>.<seed>.out` files, the standard output of
perfbench/run.py, as perfbench/series.py writes them.  Runs are paired by
workload and seed.  For every metric the output gives each side's median and
quartiles, how many pairs the change won, and two verdicts:

- `verdict`: `better` when the change wins at least nine tenths of all pairs
  (ties count for neither side) and the medians differ by more than the
  distance between the parent's quartiles; `worse` under the same rule with
  the sides swapped; otherwise `unresolved`.
- `bound` (end-to-end metrics only): `ok` when the change's median is no
  worse than the parent's by more than the metric's bound in BENCHMARK.json,
  `regressed` when it is; `unresolved` when the parent's own quartile spread
  is wider than the bound, unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(directory: str) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result JSON}} from the .out files in a directory."""
    results: dict[str, dict[int, dict]] = defaultdict(dict)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        workload, seed = name[: -len(".out")].rsplit(".", 1)
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        results[workload][int(seed)] = json.loads(lines[-1])
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load_spec(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare_metric(parent: list[float], change: list[float], better: str, bound):
    """Verdicts for one metric over paired runs (parent[i] with change[i])."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    n = len(parent)
    separated = abs(cm - pm) > p3 - p1
    if separated and wins >= 0.9 * n:
        verdict = "better"
    elif separated and losses >= 0.9 * n:
        verdict = "worse"
    else:
        verdict = "unresolved"
    bound_verdict = "-"
    if bound is not None:
        if (p3 - p1) > bound * abs(pm):
            all_better = all(sign * (c - p) > 0 for p in parent for c in change)
            bound_verdict = "ok" if all_better else "unresolved"
        elif sign * (pm - cm) > bound * abs(pm):
            bound_verdict = "regressed"
        else:
            bound_verdict = "ok"
    return wins, verdict, bound_verdict


def _fmt(values) -> str:
    return "/".join(f"{v:.4g}" for v in quartiles(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of perfbench results")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="BENCHMARK.json giving each metric's direction and bound")
    args = parser.parse_args(argv)
    spec = load_spec(args.spec)
    parent, change = load_results(args.parent), load_results(args.change)
    print(f"{'workload':<15} {'metric':<36} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>6}  verdict     bound")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if len(seeds) < 10:
            print(f"{workload}: only {len(seeds)} paired seeds; at least ten are needed for a claim")
        if not seeds:
            continue
        names = parent[workload][seeds[0]]["metrics"]
        for name in names:
            if name not in spec:
                continue
            pv = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            cv = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            wins, verdict, bound_verdict = compare_metric(
                pv, cv, spec[name]["better"], spec[name].get("bound"))
            print(f"{workload:<15} {name:<36} {_fmt(pv):>32} {_fmt(cv):>32} "
                  f"{wins:>3}/{len(seeds):<2}  {verdict:<11} {bound_verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
