"""Seeded job generation and output checks for the four workloads.

A job is one `vclab` CLI invocation, or a fixed bundle of them, run
in-process through `vclab.cli.main(argv)` with `--out` pointing into a
scratch directory.  Every job is identified by an integer key; the key alone
fixes the job's argv, so the same key always produces the same artifacts and
the digest recorded for it at the seed commit stays comparable.

Within a run, job j of seed s uses key perm_s[j] from a seeded permutation of
a pool of POOL keys, so no input repeats within a run.  A run longer than the
pool continues with keys >= POOL, which are still distinct but have no
recorded digest.

Job shapes are chosen so that job cost is unimodal: with a bimodal cost the
job median jumps between the two modes from run to run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from fractions import Fraction

POOL = 512

# Removal scales p/q in (1/2, 1) with q < 40, in lowest terms.
SCALES = sorted(
    {Fraction(p, q) for q in range(3, 40) for p in range(q // 2 + 1, q)}
)


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def _scale(rng: random.Random) -> str:
    return _rat(rng.choice(SCALES))


def _certify(key, rng, out):
    return [[
        "witness", "--depth", "6", "--seed", str(key),
        "--removed-scale", _scale(rng), "--out", out("witness.json"),
    ]]


def _counterexample(key, rng, out):
    return [[
        "counterexample", "--matched", "4", "--triples", "100", "--seed", str(key),
        "--removed-scale", _scale(rng), "--out", out("counterexample.json"),
    ]]


def _set_algebra(key, rng, out):
    # One stage-8 and one stage-9 table per job, each with its own scale and
    # two nonzero shifts in [-1/10, 1/10].  The value after --shifts= may
    # start with "-", so it is passed in the same token.
    argvs = []
    for stage in (8, 9):
        shifts = []
        while len(shifts) < 2:
            u = Fraction(rng.randint(1, 100), 1000) * rng.choice((1, -1))
            if u not in shifts:
                shifts.append(u)
        argvs.append([
            "steinhaus", "--stage", str(stage), "--shifts=" + ",".join(_rat(u) for u in shifts),
            "--removed-scale", _scale(rng), "--out", out(f"steinhaus{stage}.csv"),
        ])
    return argvs


def _families(key, rng, out):
    # translate-vcdim: one closed interval.  An added isolated point makes
    # the call about eight times slower (a bimodal job cost), and a second
    # interval about fifty times, so both are left out; theorem5-report
    # covers sets with isolated points.
    a = Fraction(rng.randint(0, 30), 100)
    b = a + Fraction(rng.randint(15, 45), 100)
    tv_set = f"[{_rat(a)},{_rat(b)}]"
    # theorem5-report: two intervals with seeded open/closed ends and an
    # isolated point, all on a 1/48 grid.
    ends = sorted(rng.sample(range(1, 48), 5))
    e = [_rat(Fraction(v, 48)) for v in ends]
    br = [rng.choice("[(") for _ in range(2)] + [rng.choice("])") for _ in range(2)]
    t5_set = f"{br[0]}{e[0]},{e[1]}{br[2]} u {br[1]}{e[2]},{e[3]}{br[3]} u {{{e[4]}}}"
    n_vc = rng.randint(16, 28)
    vc_set = ",".join(str(v) for v in sorted(rng.sample(range(n_vc), rng.randint(3, 4))))
    n_eps = rng.randint(200, 400)
    return [
        ["translate-vcdim", "--set", tv_set, "--window", "0,1", "--out", out("translate_vcdim.json")],
        ["border-sweep", "--sets", "4", "--seed", str(key), "--out", out("border_sweep.csv")],
        ["theorem5-report", "--set", t5_set, "--out", out("theorem5_report.json")],
        ["vcdim", "--group", f"cyclic:{n_vc}", "--set", f"list:{vc_set}", "--out", out("vcdim.json")],
        ["eps-approx", "--group", f"cyclic:{n_eps}", "--arc", str(n_eps * 3 // 10),
         "--epsilon", "1/8", "--trials", "10", "--schedule", "50,100,200,400",
         "--seed", str(key), "--out", out("eps_approx.csv")],
    ]


BUILDERS = {
    "certify": _certify,
    "counterexample": _counterexample,
    "set-algebra": _set_algebra,
    "families": _families,
}


def job_keys(workload: str, seed: int) -> list[int]:
    """The keys of jobs 0..POOL-1 in a run with the given seed; job j >= POOL
    uses key j."""
    return random.Random(f"perfbench/{workload}/{seed}").sample(range(POOL), POOL)


def job_argvs(workload: str, key: int, out_dir: str) -> list[list[str]]:
    """The CLI invocations of one job, writing their artifacts into out_dir."""
    rng = random.Random(f"perfbench/{workload}/key/{key}")
    return BUILDERS[workload](key, rng, lambda name: os.path.join(out_dir, name))


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def artifact_digest(argvs) -> str:
    """sha256 over the artifacts of a job, each prefixed by its file name."""
    h = hashlib.sha256()
    for path in (_opt(argv, "--out") for argv in argvs):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.basename(path).encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def execute(cli_main, argvs) -> str | None:
    """Run a job's invocations in order; returns a reason on failure.

    The CLI's own stdout and stderr lines are discarded, since the benchmark
    prints its result on stdout."""
    sink = io.StringIO()
    for argv in argvs:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_main(argv)
        except SystemExit as exc:
            return f"{argv[0]} exited with {exc.code}"
        except Exception as exc:  # any crash of the program counts as a failed job
            return f"{argv[0]} raised {type(exc).__name__}: {exc}"
        if code != 0:
            return f"{argv[0]} exited with {code}"
        sink.seek(0)
        sink.truncate()
    return None


def check_outputs(workload: str, argvs) -> str | None:
    """Re-check a finished job's artifacts; returns a reason on failure."""
    if workload == "certify":
        from vclab.cantor import FatCantorSet
        from vclab.witness import ShatterWitness, verify_witness

        argv = argvs[0]
        with open(_opt(argv, "--out"), encoding="utf-8") as fh:
            witness = ShatterWitness.loads(fh.read())
        depth = int(_opt(argv, "--depth"))
        if witness.depth != depth or len(witness.conditions) != depth * 2**depth:
            return "witness has the wrong shape"
        pair = FatCantorSet(Fraction(_opt(argv, "--removed-scale"))).boundary_pair()
        if not verify_witness(witness, pair).ok:
            return "witness does not re-verify"
    elif workload == "counterexample":
        with open(_opt(argvs[0], "--out"), encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("pair_uniqueness_ok") is not True:
            return "pair uniqueness not shown"
        if report.get("full_shatter_found") is not False:
            return "a fully shattered triple was reported"
    elif workload == "set-algebra":
        for argv in argvs:
            with open(_opt(argv, "--out"), encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            shifts = next(a for a in argv if a.startswith("--shifts="))
            if len(rows) != len(shifts.split(",")):
                return "steinhaus table has the wrong row count"
            for row in rows:
                if Fraction(row["overlap_measure"]) < Fraction(row["certified_floor"]):
                    return f"shift {row['shift']} is below its floor"
                if row["meets_floor"] != "True":
                    return f"shift {row['shift']} is not marked as meeting its floor"
    return None
