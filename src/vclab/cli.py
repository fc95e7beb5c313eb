"""Reproducible experiment runner.

Every subcommand derives all randomness from the global --seed through
string-labelled child generators, so identical invocations produce
byte-identical artifacts, all written by `_write`.  The engines hand over
plain values, and the key names and columns of each artifact are set here.
Rationals are "p/q" strings in lowest terms ("p" when q = 1, the text
`str(Fraction)` gives) in JSON and CSV; CSV adds a float column for plotting.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error,
3 budget exhaustion.  A command whose budget runs out writes its partial
artifact and raises BudgetExceededError; `main` alone prints the one
"budget exhausted: ..." line and returns 3.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import re
import sys
from fractions import Fraction

from .approx import FiniteTranslateFamily, sample_complexity_sweep
from .border import border_decay_experiment, density_report, random_closed_union
from .cantor import FatCantorSet
from .constructible import parse_set
from .counterexample import counterexample_points, matched_budget_points, no_shatter3_check
from .errors import BudgetExceededError
from .groups import parse_model_spec
from .rational import parse_rational
from .vc import SetSystem, translate_vc_dimension, vc_and_dual_dimension
from .witness import construct_witness, core_overlap, steinhaus_neighborhood, verify_witness

# One bound on the run time of steinhaus, eps-approx, border-sweep and
# counterexample: each counts its work units from its flags before it builds or
# loops over anything they size, and `_price` refuses the run when the units
# times the command's rate pass the bound.  Each rate, in ns per unit, was
# measured on the costliest shape found (CPython 3.11, one Xeon core, +-50%).
MAX_WORK_US = 120 * 10**6
# An artifact is built in memory at about 1 KB a row (a steinhaus shift, an
# eps-approx schedule entry, a border-sweep cell), so about 200 MB at most.
MAX_ROWS = 200_000

# One shift's residual dict: about 60 MB at u = 1/3 near scale 0 here, growing
# phi-fold a stage, where the time bound alone would allow about stage 37.
MAX_STEINHAUS_STAGE = 26
# A cell's cost grows with |j| for the radius 2^-j; the rate covers |j| <= 64.
MAX_R_EXPONENT = 64
# vcdim holds N translates as N-bit rows and N column masks, so N^2 bits.
MAX_VCDIM_ORDER = 8192
# One eps-approx trial holds about 3N list slots and all its sample points,
# about 54 MB and 48 MB at these sizes.
MAX_EPS_ORDER = 10**6
MAX_EPS_SAMPLES = 10**6


def _fraction_text(x) -> str:
    """A Fraction's JSON value, its `str`; no other type has one."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} {x!r} has no JSON form")


def _write(args, name: str, artifact) -> None:
    """Write an artifact to --out, else to $VCLAB_OUT_DIR/name, else to
    stdout.  A str is written as it is; a .csv name takes a nonempty list of
    row dicts, headed by the first row's keys, each value written as its
    `str`; anything else is written as sorted, indented JSON, a Fraction as
    its `str`."""
    if isinstance(artifact, str):
        text = artifact
    elif name.endswith(".csv"):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(artifact[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(artifact)
        text = buf.getvalue()
    else:
        text = json.dumps(artifact, sort_keys=True, indent=2, default=_fraction_text) + "\n"
    out_dir = os.environ.get("VCLAB_OUT_DIR")
    path = args.out or (out_dir and os.path.join(out_dir, name))
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_base_set(spec: str, n: int) -> list[int]:
    """The residues mod n of arc:K, {0, ..., K-1}, or of list:a,b,c, each
    once and in order.  An arc of K >= n is the whole group, so at most n
    values are ever built."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "arc":
            base = range(min(int(rest), n))
        elif kind == "list":
            base = {int(v) % n for v in rest.split(",") if v != ""}
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"set spec {spec!r} must be arc:K or list:a,b,c with integers") from None
    if not base:
        raise ValueError(f"set spec {spec!r} is empty, and so is every translate of it")
    return sorted(base)


def _flag_value(name: str, spec: str, parse):
    """parse(spec), whose ValueError becomes one naming the flag and its value."""
    try:
        return parse(spec)
    except ValueError as exc:
        raise ValueError(f"{name} {spec!r}: {exc}") from None


def _rationals(spec: str) -> list[Fraction]:
    return [parse_rational(v) for v in spec.split(",")]


def _parse_window(spec: str) -> tuple[Fraction, Fraction]:
    bounds = _flag_value("window", spec, _rationals)
    if len(bounds) != 2:
        raise ValueError(f"window {spec!r} must be two rationals lo,hi")
    lo, hi = bounds
    if lo >= hi:
        raise ValueError(f"window {spec!r} needs lo < hi")
    return lo, hi


def _parse_set_flag(spec: str):
    x = _flag_value("--set", spec, parse_set)
    if x.is_empty:
        raise ValueError(f"--set {spec!r} is empty, so the run would check nothing")
    return x


def _require_range(name: str, value: int, least: int, cap: int | None = None):
    """Range check of an integer flag; a count below 1 would check nothing."""
    if value < least:
        raise ValueError(f"--{name} must be >= {least}, got {value}")
    if cap is not None and value > cap:
        raise ValueError(f"--{name} {value} is above the cap of {cap}")


def _price(flags: str, units: int, ns_per_unit: int, rows: int = 1) -> None:
    """Refuse a run priced above MAX_WORK_US, or writing more than MAX_ROWS rows."""
    if units * ns_per_unit > MAX_WORK_US * 1000:
        raise ValueError(f"{flags} would take about {units * ns_per_unit // 10**9} s, "
                         f"above the bound of {MAX_WORK_US // 10**6} s on one run")
    if rows > MAX_ROWS:
        raise ValueError(f"{flags} would write {rows} rows, above the cap of {MAX_ROWS}")


def _fat_cantor(spec: str) -> FatCantorSet:
    scale = _flag_value("--removed-scale", spec, parse_rational)
    if not 0 < scale < 1:
        raise ValueError(f"--removed-scale {spec!r} must lie strictly between 0 and 1")
    return FatCantorSet(scale)


def _parse_schedule(spec: str) -> list[int]:
    try:
        sizes = [int(v) for v in spec.split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--schedule {spec!r} must be comma-separated integers >= 1")
    if max(sizes) > MAX_EPS_SAMPLES:
        raise ValueError(f"--schedule {spec!r} has a sample size above the cap of {MAX_EPS_SAMPLES}")
    return sizes


def _parse_exponents(spec: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"r-exponents {spec!r} must be two integers LO:HI") from None
    if lo > hi:
        raise ValueError(f"r-exponents {spec!r} needs LO <= HI")
    if max(-lo, hi) > MAX_R_EXPONENT:
        raise ValueError(f"r-exponents {spec!r} has an exponent above {MAX_R_EXPONENT} in magnitude")
    return lo, hi


# ----------------------------------------------------------------- commands


def _shatter_json(system, report) -> dict:
    """The report, each pattern as a bit string over its points, with the
    translator behind each witnessing row."""
    width = max(1, len(report.points))
    witnesses = {format(pattern, f"0{width}b"): row for pattern, row in report.witnesses.items()}
    translators = {pat: None if row is None else system.row_labels[row] for pat, row in witnesses.items()}
    return {"points": report.points, "shattered": report.shattered, "witnesses": witnesses,
            "witness_translators": translators}


def cmd_vcdim(args) -> int:
    model = parse_model_spec(args.group)
    if model.n > MAX_VCDIM_ORDER:
        raise ValueError(f"--group {args.group} is above the cap of cyclic:{MAX_VCDIM_ORDER}")
    base = _parse_base_set(args.set, model.n)
    system = SetSystem.from_translates(model, base)
    payload = {"group": {"kind": "cyclic", "n": model.n}, "base_set": base}

    try:
        # One search: a translate family's dual VC dimension is its VC
        # dimension d, and the dual witness rows are read off the search's
        # last level (proof in `vc_and_dual_dimension`).
        d, report, dual_rows = vc_and_dual_dimension(system)
    except BudgetExceededError as exc:
        # The spent search still proved a lower bound; write it with its
        # witness.  A shattered n-set needs 2^n distinct rows, so the row
        # count bounds d above.
        payload.update(vc_dimension_lower_bound=exc.lower_bound,
                       vc_dimension_upper_bound=len(system).bit_length() - 1,
                       shatter_report=_shatter_json(system, exc.partial))
        _write(args, "vcdim.json", payload)
        raise BudgetExceededError(
            f"{exc}; wrote the partial report (VC dimension >= {exc.lower_bound})") from None
    print(d)
    payload.update(vc_dimension=d, shatter_report=_shatter_json(system, report), dual_vc_dimension=d,
                   dual_witness_translators=[system.row_labels[i] for i in dual_rows])
    _write(args, "vcdim.json", payload)
    return 0


def cmd_eps_approx(args) -> int:
    _require_range("trials", args.trials, 1)
    _require_range("arc", args.arc, 1)
    schedule = _parse_schedule(args.schedule)
    model = parse_model_spec(args.group)
    if model.n > MAX_EPS_ORDER:
        raise ValueError(f"--group {args.group} is above the cap of cyclic:{MAX_EPS_ORDER}")
    # Units: N + size + 50 per trial of an entry, the 50 for a trial's fixed cost; 0.5 us each.
    _price(f"--trials {args.trials} over {len(schedule)} --schedule entries on --group {args.group}",
           args.trials * (len(schedule) * (model.n + 50) + sum(schedule)), 500, len(schedule))
    # An arc of K >= N is the whole group, taken without building K residues.
    family = FiniteTranslateFamily(model, range(min(args.arc, model.n)))
    if len(family.base) == family.member_count():
        raise ValueError(f"--arc {args.arc} covers all of {args.group}, and so does every translate of it")
    epsilon = _flag_value("--epsilon", args.epsilon, parse_rational)
    if epsilon <= 0:
        raise ValueError(f"--epsilon {args.epsilon!r} must be positive")
    if epsilon >= 1:
        # No sample deviates from a proper arc's measure by 1 or more.
        raise ValueError(f"--epsilon {args.epsilon!r} must be below 1, or every sample passes")
    sweep = sample_complexity_sweep(model, family, epsilon, schedule, args.trials, args.seed)
    _write(args, "eps_approx.csv", [{"N": r.n_samples, "trials": r.trials, "successes": r.successes,
                                     "min_sup_deviation": r.min_deviation, "max_sup_deviation": r.max_deviation}
                                    for r in sweep.rows])
    if sweep.smallest_passing is None:
        raise BudgetExceededError("no N in the schedule reached a 95% success rate; wrote the table")
    print(f"smallest passing N: {sweep.smallest_passing}")
    return 0


def cmd_steinhaus(args) -> int:
    _require_range("stage", args.stage, 0, MAX_STEINHAUS_STAGE)
    count = args.shifts.count(",") + 1
    # Units: F(stage + 2) residuals per shift, core_overlap's worst (u = 1/3
    # near scale 0), plus 10 for its row; 1.4 us each.
    fib, after = 1, 2
    for _ in range(args.stage):
        fib, after = after, fib + after
    _price(f"--stage {args.stage} with {count} --shifts", count * (fib + 10), 1400, count)
    shifts = _flag_value("--shifts", args.shifts, _rationals)
    fc = _fat_cantor(args.removed_scale)
    radius, density = steinhaus_neighborhood(fc)
    rows = [{"shift": u, "overlap_measure": exact, "overlap_measure_float": float(exact),
             "certified_floor": floor, "meets_floor": exact >= floor}
            for u, (exact, floor) in zip(shifts, core_overlap(fc, args.stage, shifts))]
    _write(args, "steinhaus.csv", rows)
    print(f"neighborhood radius {radius}, density bound {density}")
    return 0 if all(r["meets_floor"] for r in rows) else 1


def cmd_witness(args) -> int:
    _require_range("depth", args.depth, 1)
    _require_range("stage-budget", args.stage_budget, 0)
    fc = _fat_cantor(args.removed_scale)
    # Level k needs a stage m_k >= 2 m_(k-1) + 3: a slack is at most half a stage-(m+1) middle,
    # below 2^-(2m+3), and a stage-m' component is wider than 2^-(m'+1).  So a budget B completes
    # at most d levels, 3 (2^(d-1) - 1) <= B, at a stage m <= B; and m <= 5/4 2^d (bits of q + 1),
    # of which 1/3, the costliest scale found, needs 1.16.  A condition takes 3m bytes of text and
    # m (m + 2000) units, as checking and writing are quadratic in m; 0.02 ns a unit.
    d = min(args.depth, (args.stage_budget // 3 + 1).bit_length())
    m = min(args.stage_budget, 5 * (fc.removed_scale.denominator.bit_length() + 1) << d >> 2)
    flags, size = f"--depth {args.depth} with --stage-budget {args.stage_budget}", 3 * d * m << d
    _price(flags, (d * m * (m + 2000) << d) // 50, 1)
    if size > MAX_ROWS * 1000:
        raise ValueError(f"{flags} would write about {size // 10**6} MB, above the cap of {MAX_ROWS // 1000} MB")
    spent = None
    try:
        witness = construct_witness(fc, args.depth, seed=args.seed, stage_budget=args.stage_budget)
    except BudgetExceededError as exc:
        # The deepest completed level is still a certificate; keep it.
        witness, spent = exc.partial, exc
    result = verify_witness(witness, fc)
    _write(args, "witness.json", witness.dumps())
    print(
        f"depth {witness.depth}: {len(witness.conditions)} conditions, "
        f"stage bound {witness.stage_bound}, verified: {result.ok}"
    )
    if not result.ok:
        for failure in result.failures[:5]:
            print(f"  failed: {failure}", file=sys.stderr)
        return 1
    if spent is not None:
        raise BudgetExceededError(f"{spent}; wrote the partial certificate of depth "
                                  f"{witness.depth} (asked for {args.depth})")
    return 0


def cmd_border_sweep(args) -> int:
    _require_range("sets", args.sets, 1)
    window = _parse_window(args.window)
    lo_exp, hi_exp = _parse_exponents(args.r_exponents)
    # Units: one (set, radius) cell, about 20 us in a sweep of many radii at |j| <= 64 and up to
    # 180 us at one radius 2^-64, where a set's draw and lattice fall on one cell; priced at 0.4 ms.
    cells = args.sets * (hi_exp - lo_exp + 1)
    _price(f"--sets {args.sets} over {hi_exp - lo_exp + 1} radii", cells, 400_000, cells)
    rng = random.Random(f"{args.seed}/border-sweep")
    sets = [random_closed_union(rng, window) for _ in range(args.sets)]
    radii = [Fraction(1, 2) ** j for j in range(lo_exp, hi_exp + 1)]
    pad = window[1] - window[0]
    outer = (window[0] - pad, window[1] + pad)
    rows = border_decay_experiment(sets, radii, outer)
    _write(args, "border_sweep.csv", [{"set_id": r.set_id, "r": r.r, "r_border_measure": r.value,
                                       "r_border_measure_float": float(r.value), "bound_4r_boundary": r.bound,
                                       "within_bound": r.within_bound} for r in rows])
    ok = all(r.within_bound for r in rows)
    print(f"{len(rows)} cells, all within the 4r bound: {ok}")
    return 0 if ok else 1


def cmd_counterexample(args) -> int:
    _require_range("triples", args.triples, 1)
    fc = _fat_cantor(args.removed_scale)
    if args.matched is not None:
        if args.intervals is not None or args.points_per is not None:
            raise ValueError(f"--matched {args.matched} sets its own budgets, so --intervals "
                             "and --points-per must not be given with it")
        _require_range("matched", args.matched, 1)
        cx = matched_budget_points(fc, args.matched)
    else:
        intervals = 3 if args.intervals is None else args.intervals
        points_per = 5 if args.points_per is None else args.points_per
        _require_range("intervals", intervals, 1)
        _require_range("points-per", points_per, 1)
        cx = counterexample_points(fc, intervals, points_per)
    # Units: 50 per triple, whose patterns are read off the difference table;
    # 400 ns each, measured on --matched 8.  The placement and the table,
    # both built above, are at most about 2 s (counterexample.MAX_POINTS).
    _price(f"--triples {args.triples} on {len(cx.points)} points", 50 * args.triples, 400)
    report = no_shatter3_check(cx, args.triples, seed=args.seed)
    payload = {
        "points": cx.points,
        "point_count": len(cx.points),
        "difference_injective": True,  # construction verifies before returning
        "pair_uniqueness_ok": report.pair_uniqueness_ok,
        "triples_checked": report.triples_checked,
        "max_patterns_realized": report.max_patterns,
        "full_shatter_found": report.full_shatter_found,
    }
    _write(args, "counterexample.json", payload)
    ok = report.pair_uniqueness_ok and not report.full_shatter_found
    print(
        f"{len(cx.points)} points, max patterns {report.max_patterns}/8 over "
        f"{report.triples_checked} triples, pair uniqueness: {report.pair_uniqueness_ok}"
    )
    return 0 if ok else 1


def cmd_theorem5_report(args) -> int:
    x = _parse_set_flag(args.set)
    window = _parse_window(args.window) if args.window else None
    report = density_report(x, window)
    _write(args, "theorem5_report.json", vars(report))
    print(
        f"hypotheses (set, complement): ({report.hypothesis_set}, {report.hypothesis_complement}); "
        f"border measure {report.border_measure}; consistent: {report.consistent}"
    )
    return 0 if report.consistent else 1


def cmd_translate_vcdim(args) -> int:
    x = _parse_set_flag(args.set)
    try:
        report = translate_vc_dimension(x, _parse_window(args.window))
    except BudgetExceededError as exc:
        # The spent search still certified its last complete size; write it.
        _write(args, "translate_vcdim.json", vars(exc.partial))
        raise BudgetExceededError(
            f"{exc}; wrote the partial report (certified lower bound {exc.lower_bound})") from None
    _write(args, "translate_vcdim.json", vars(report))
    print(f"certified lower bound {report.lower_bound}; {report.upper_bound_status}")
    return 0


# --------------------------------------------------------------------- main


def _error_line(message) -> str:
    """The message as one "error: ..." line; a newline inside a flag value
    shows as \\n, so a usage error is always one line of stderr."""
    return "error: " + str(message).replace("\n", "\\n") + "\n"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, its subcommands' included, are
    one error line on stderr and exit 2."""

    def error(self, message):
        self.exit(2, _error_line(message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged."""
    parser = _Parser(
        prog="vclab",
        description="exact-arithmetic experiments on translate families, "
        "shattering certificates and border measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="global seed; all randomness derives from it")
        p.add_argument("--out", help="output artifact path (default: stdout, or $VCLAB_OUT_DIR)")
        p.add_argument("--config", help="JSON file whose keys mirror the flags")

    p = sub.add_parser("vcdim", help="VC dimension of a translate family in a cyclic group")
    common(p)
    p.add_argument("--group", default="cyclic:12", help="cyclic:N, the integers mod N")
    p.add_argument("--set", default="arc:3")
    p.set_defaults(fn=cmd_vcdim)

    p = sub.add_parser("eps-approx", help="sample-complexity sweep for epsilon-approximations")
    common(p)
    p.add_argument("--group", default="cyclic:1000", help="cyclic:N, the integers mod N")
    p.add_argument("--arc", type=int, default=300)
    p.add_argument("--epsilon", default="1/20")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--schedule", default="125,250,500,1000,2000")
    p.set_defaults(fn=cmd_eps_approx)

    p = sub.add_parser("steinhaus", help="quantitative difference-set overlap at a stage")
    common(p)
    p.add_argument("--stage", type=int, default=6,
                   help=f"0..{MAX_STEINHAUS_STAGE}; the stage set has 2^stage intervals")
    p.add_argument("--shifts", default="1/100,-1/100,1/20,-1/20,1/10,-1/10")
    p.add_argument("--removed-scale", default="4/5")
    p.set_defaults(fn=cmd_steinhaus)

    p = sub.add_parser("witness", help="construct and verify a shattering certificate")
    common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--stage-budget", type=int, default=2000,
                   help="the highest stage m a level may separate at; its conditions reach stage m + 2")
    p.add_argument("--removed-scale", default="4/5")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("border-sweep", help="r-border decay table for random closed sets")
    common(p)
    p.add_argument("--sets", type=int, default=20)
    p.add_argument("--r-exponents", default="4:12")
    p.add_argument("--window", default="0,1")
    p.set_defaults(fn=cmd_border_sweep)

    p = sub.add_parser("counterexample", help="difference-injective truncation and its pattern counts")
    common(p)
    p.add_argument("--intervals", type=int, default=None, help="default 3; not with --matched")
    p.add_argument("--points-per", type=int, default=None, help="default 5; not with --matched")
    p.add_argument("--matched", type=int, default=None, help="use stage-matched budgets for this m")
    p.add_argument("--triples", type=int, default=1000)
    p.add_argument("--removed-scale", default="4/5")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("theorem5-report", help="density hypotheses, border measure and identity")
    common(p)
    p.add_argument("--set", required=True, help='e.g. "[0,1/2) u (3/4,1] u {2}"')
    p.add_argument("--window", default=None)
    p.set_defaults(fn=cmd_theorem5_report)

    p = sub.add_parser("translate-vcdim", help="certified shattering bounds for line translates")
    common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--window", default="0,1")
    p.set_defaults(fn=cmd_translate_vcdim)

    return parser


def _config_tokens(path: str, args) -> list[str]:
    """Flags for the values of a JSON config file, so that they pass through
    the parser's own types and checks."""
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    tokens = []
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr in ("command", "fn", "config") or not hasattr(args, attr):
            raise ValueError(f"config {path}: {args.command} has no option {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config {path}: {key!r} must be a string or a number")
        tokens.append(f"--{attr.replace('_', '-')}={value}")
    return tokens


# A flag value that starts with a minus sign and a number, such as the shift
# list "-1/100,1/20" or the window "-1,1".
_DASH_VALUE = re.compile(r"-[\d.]")


def _attach_dash_values(tokens: list[str]) -> list[str]:
    """Rewrite `--flag -1,1` as `--flag=-1,1`.  argparse takes a token that
    starts with "-" and is not a plain negative number for a flag, so such
    values would otherwise parse only in the `=` form."""
    out = []
    for token in tokens:
        prev = out[-1] if out else ""
        if _DASH_VALUE.match(token) and prev.startswith("--") and "=" not in prev and prev != "--":
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    tokens = _attach_dash_values(list(sys.argv[1:] if argv is None else argv))
    args = parser.parse_args(tokens)
    try:
        if args.config:
            # Config values go right after the subcommand, so flags given on
            # the command line come later and win.
            at = tokens.index(args.command) + 1
            args = parser.parse_args(tokens[:at] + _config_tokens(args.config, args) + tokens[at:])
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(_error_line(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
