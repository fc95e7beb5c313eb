"""Benchmark for vclab: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports `vclab` from `src/`.
Each job is one CLI invocation (or a fixed bundle of them) made in-process
through `vclab.cli.main(argv)` with `--out` into `.perfbench-run/`, on argv
generated from the seed.  The next job starts when the previous one returns
(a researcher waiting for each experiment), on one thread.  After the timed
window every artifact is re-checked and compared with the digest recorded for
its job key at the seed commit; those checks are not timed.  Job and set-up
times are reported at the nominal speed of a fixed CPU yardstick timed
beside them (yardstick.py), since the host's speed swings within seconds.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the window
untraced and half with spans around each module's entry points, and prints
the per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 15


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="vclab closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def job_input(workload, keys, j, out_root):
    """(key, argvs) of job j; jobs past the pool use key j."""
    key = keys[j] if j < len(keys) else j
    return key, workloads.job_argvs(workload, key, os.path.join(out_root, str(j)))


def set_up(workload, seed, out_root):
    """What every CLI invocation pays before its first job: importing the
    CLI, plus generating this run's inputs."""
    sys.path.insert(0, SRC)
    from vclab import cli

    keys = workloads.job_keys(workload, seed)
    return cli, [job_input(workload, keys, j, out_root) for j in range(len(keys))]


def setup_seconds(workload, seed):
    """Median time of fresh processes that only do the set-up, at the
    yardstick's nominal speed, and their median wall time.

    No timeout is passed: with one, subprocess polls the child in sleeps of
    up to 50 ms, which would round every sample up to that grid."""
    samples = []
    refs = []
    ref_before = yardstick.measure()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
        ref_after = yardstick.measure()
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
    return (statistics.median(yardstick.nominal(s, r) for s, r in zip(samples, refs)),
            statistics.median(samples))


class Job:
    __slots__ = ("index", "key", "argvs", "seconds", "ref_s", "error")

    def __init__(self, index, key, argvs):
        self.index, self.key, self.argvs = index, key, argvs
        self.seconds = 0.0
        self.ref_s = 0.0
        self.error = None

    @property
    def nominal_s(self):
        """The job's wall time at the yardstick's nominal speed."""
        return yardstick.nominal(self.seconds, self.ref_s)


def run_window(cli, workload, inputs, out_root, first, seconds, tracer=None):
    """Run jobs back to back until `seconds` have passed; returns the jobs and
    the window's wall time (the last job is allowed to finish).  The
    yardstick is timed before the first job and after every job; a job's
    ref_s is the mean of the timings on either side of it."""
    jobs = []
    t_start = time.perf_counter()
    t_end = t_start
    ref_before = yardstick.measure()
    j = first
    while t_end - t_start < seconds:
        key, job_argv = inputs[j] if j < len(inputs) else job_input(workload, (), j, out_root)
        job = Job(j, key, job_argv)
        os.makedirs(os.path.join(out_root, str(j)))
        if tracer is not None:
            tracer.job = j
        t0 = time.perf_counter()
        job.error = workloads.execute(cli.main, job_argv)
        job.seconds = time.perf_counter() - t0
        ref_after = yardstick.measure()
        job.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        t_end = time.perf_counter()
        jobs.append(job)
        j += 1
    return jobs, t_end - t_start


def check_jobs(workload, jobs, recorded):
    """Fill in job.error for jobs whose outputs fail a check or whose
    artifacts differ from the recorded digest.  Returns how many jobs had a
    recorded digest to compare with."""
    compared = 0
    for job in jobs:
        if job.error is None:
            try:
                job.error = workloads.check_outputs(workload, job.argvs)
            except Exception as exc:  # an unreadable artifact is a failed job
                job.error = f"check raised {type(exc).__name__}: {exc}"
        if job.error is None and job.key < len(recorded):
            compared += 1
            if workloads.artifact_digest(job.argvs) != recorded[job.key]:
                job.error = "artifact bytes differ from the recorded digest"
    return compared


def tail(times):
    """The job time at the highest percentile with at least ten jobs beyond
    it, with that percentile; the slowest job if there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def load_digests(workload):
    path = os.path.join(HERE, "digests", f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report(lines, metrics, jobs):
    failed = sum(1 for job in jobs if job.error is not None)
    for line in lines:
        print(line)
    for job in jobs:
        if job.error is not None:
            print(f"FAILED job {job.index} (key {job.key}): {job.error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vclab", "cli.py")):
        print(f"error: no vclab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, ".perfbench-run", f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.setup_probe:
        set_up(args.workload, args.seed, out_root)
        return 0

    cli, inputs = set_up(args.workload, args.seed, out_root)
    recorded = load_digests(args.workload)
    setup_s, setup_wall_s = setup_seconds(args.workload, args.seed)
    try:
        if args.trace:
            plain, plain_s = run_window(cli, args.workload, inputs, out_root, 0, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, traced_s = run_window(cli, args.workload, inputs, out_root,
                                              len(plain), args.seconds / 2, tracer)
            finally:
                tracer.restore()
            jobs = plain + traced
        else:
            jobs, window_s = run_window(cli, args.workload, inputs, out_root, 0, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        compared = check_jobs(args.workload, jobs, recorded)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    ok = sum(1 for job in jobs if job.error is None)
    head = (f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, {ok} verified, "
            f"{compared} compared with a recorded digest")
    if not args.trace:
        times = [job.nominal_s for job in jobs]
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (ok / sum(times), "1/s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        walls = [job.seconds for job in jobs]
        ref_ms = 1000 * statistics.median(job.ref_s for job in jobs)
        lines = [head, f"window {window_s:.3f} s, one client, one thread; times at the "
                 f"yardstick's nominal speed (median yardstick time {ref_ms:.3f} ms, "
                 f"nominal {1000 * yardstick.NOMINAL_S:g} ms)"]
        lines += [f"{name:<14} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"failed_ratio   {(len(jobs) - ok) / len(jobs):.6g} ratio ({len(jobs) - ok} of {len(jobs)} jobs)")
        lines.append(f"job_tail_s is p{tail_pct:.1f} of {len(jobs)} jobs")
        lines.append(f"wall time: jobs_per_s {ok / window_s:.6g} 1/s, job_p50_s "
                     f"{statistics.median(walls):.6g} s, job_tail_s {tail(walls)[0]:.6g} s, "
                     f"setup_s {setup_wall_s:.6g} s")
        return report(lines, metrics, jobs)

    spans_path = os.path.join(ROOT, ".perfbench-run", f"spans-{args.workload}.jsonl")
    tracer.dump(spans_path)
    plain_p50 = statistics.median(job.nominal_s for job in plain)
    traced_p50 = statistics.median(job.nominal_s for job in traced)
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    metrics["trace.overhead_ratio"] = (traced_p50 / plain_p50 - 1, "ratio")
    lines = [head, f"untraced {len(plain)} jobs in {plain_s:.3f} s, traced {len(traced)} jobs "
             f"in {traced_s:.3f} s, {len(tracer.spans)} spans written to {spans_path}"]
    if tracer.missing:
        lines.append("entry points not found, so not traced: " + ", ".join(tracer.missing))
    lines.append("self-time share by layer: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in tracing.layer_shares(tracer.spans).items()))
    lines += [f"{name:<36} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return report(lines, metrics, jobs)


if __name__ == "__main__":
    sys.exit(main())
