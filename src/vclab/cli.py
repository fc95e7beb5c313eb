"""Reproducible experiment runner.

Every subcommand derives all randomness from the global --seed through
string-labelled child generators, so identical invocations produce
byte-identical artifacts.  Rationals are serialized as "p/q" strings in JSON
and CSV; CSV adds a float column for plotting.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error,
3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import re
import sys
from fractions import Fraction

from .approx import FiniteTranslateFamily, sample_complexity_sweep
from .border import (
    border_decay_experiment,
    density_report,
    random_closed_union,
)
from .cantor import FatCantorSet
from .constructible import parse_set
from .counterexample import counterexample_points, matched_budget_points, no_shatter3_check
from .errors import BudgetExceededError
from .groups import parse_model_spec
from .rational import format_rational, parse_rational
from .vc import SetSystem, dual_vc_dimension, translate_vc_dimension, vc_dimension
from .witness import construct_witness, core_overlap, steinhaus_neighborhood, verify_witness

# The stage set of `steinhaus --stage m` has 2^m intervals.
MAX_STEINHAUS_STAGE = 16

# The report needs the N translates as N-bit rows, and the search N column
# masks, so memory grows as N^2.  At this order a base holding 45% of the
# group spends the search budget in about 0.5 s at a peak RSS of about 60 MB,
# and arc:3 needs about 12 MB over the interpreter's; a base of period p has
# the same VC dimension in cyclic:p.
MAX_VCDIM_ORDER = 8192

# sup_deviation reads all N translates off prefix sums over two periods, so
# one trial takes O(N) time and about 3N list slots.  At this order one trial
# takes about 0.8 s at a peak RSS of about 40 MB (CPython 3.11, one Xeon
# core), so the default 100 trials per schedule entry already take minutes.
MAX_EPS_ORDER = 10**6


def _out_path(args, default_name):
    if args.out:
        return args.out
    out_dir = os.environ.get("VCLAB_OUT_DIR")
    if out_dir:
        return os.path.join(out_dir, default_name)
    return None


def _emit(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(fieldnames, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _parse_base_set(spec: str):
    """arc:K is {0, ..., K-1} and list:a,b,c the listed integers."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "arc":
            base = range(int(rest))
        elif kind == "list":
            base = [int(v) for v in rest.split(",") if v != ""]
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"set spec {spec!r} must be arc:K or list:a,b,c with integers") from None
    if not base:
        raise ValueError(f"set spec {spec!r} is empty, and so is every translate of it")
    return base


def _parse_rational_flag(flag: str, spec: str) -> Fraction:
    try:
        return parse_rational(spec)
    except ValueError as exc:
        raise ValueError(f"--{flag} {spec!r}: {exc}") from None


def _parse_rationals(name: str, spec: str) -> list[Fraction]:
    """The comma-separated rationals of a flag's value."""
    try:
        return [parse_rational(v) for v in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"{name} {spec!r}: {exc}") from None


def _parse_window(spec: str) -> tuple[Fraction, Fraction]:
    bounds = _parse_rationals("window", spec)
    if len(bounds) != 2:
        raise ValueError(f"window {spec!r} must be two rationals lo,hi")
    lo, hi = bounds
    if lo >= hi:
        raise ValueError(f"window {spec!r} needs lo < hi")
    return lo, hi


def _parse_set_flag(spec: str):
    try:
        x = parse_set(spec)
    except ValueError as exc:
        raise ValueError(f"--set {spec!r}: {exc}") from None
    if x.is_empty:
        raise ValueError(f"--set {spec!r} is empty, so the run would check nothing")
    return x


def _require_at_least(name: str, value: int, least: int):
    """Range check of an integer flag; a count below 1 would check nothing."""
    if value < least:
        raise ValueError(f"--{name} must be >= {least}, got {value}")


def _fat_cantor(spec: str) -> FatCantorSet:
    scale = _parse_rational_flag("removed-scale", spec)
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
    return sizes


def _parse_exponents(spec: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"r-exponents {spec!r} must be two integers LO:HI") from None
    if lo > hi:
        raise ValueError(f"r-exponents {spec!r} needs LO <= HI")
    return lo, hi


# ----------------------------------------------------------------- commands


def _shatter_json(system, report) -> dict:
    """The report with the translator behind each witnessing row."""
    out = report.to_json()
    out["witness_translators"] = {
        pattern: (None if row is None else system.row_labels[row])
        for pattern, row in out["witnesses"].items()
    }
    return out


def cmd_vcdim(args) -> int:
    model = parse_model_spec(args.group)
    if model.n > MAX_VCDIM_ORDER:
        raise ValueError(f"--group {args.group} is above the cap of cyclic:{MAX_VCDIM_ORDER}")
    base = _parse_base_set(args.set)
    system = SetSystem.from_translates(model, base)
    payload = {"group": model.describe(), "base_set": sorted(model.normalize(v) for v in base)}

    def translators(rows):
        return [system.row_labels[i] for i in rows]

    try:
        d, report = vc_dimension(system)
        payload.update(vc_dimension=d, shatter_report=_shatter_json(system, report))
        print(d)
        # A translate family's dual is the family of translates of the
        # reflected base set, so this search takes about as long as the one above.
        dual, dual_rows = dual_vc_dimension(system)
    except BudgetExceededError as exc:
        # The spent search still proved a lower bound; write it with its witness.
        if "vc_dimension" in payload:
            bound = "dual VC dimension"
            payload.update(dual_vc_dimension_lower_bound=exc.lower_bound,
                           dual_witness_translators=translators(exc.partial))
        else:
            bound = "VC dimension"
            payload.update(vc_dimension_lower_bound=exc.lower_bound,
                           shatter_report=_shatter_json(system, exc.partial))
        _emit(_json_text(payload), _out_path(args, "vcdim.json"))
        print(f"budget exhausted: {exc}; wrote the partial report ({bound} >= {exc.lower_bound})",
              file=sys.stderr)
        return 3
    payload.update(dual_vc_dimension=dual, dual_witness_translators=translators(dual_rows))
    _emit(_json_text(payload), _out_path(args, "vcdim.json"))
    return 0


def cmd_eps_approx(args) -> int:
    _require_at_least("trials", args.trials, 1)
    _require_at_least("arc", args.arc, 1)
    schedule = _parse_schedule(args.schedule)
    model = parse_model_spec(args.group)
    if model.n > MAX_EPS_ORDER:
        raise ValueError(f"--group {args.group} is above the cap of cyclic:{MAX_EPS_ORDER}")
    family = FiniteTranslateFamily(model, range(args.arc))
    if len(family.base) == family.member_count():
        raise ValueError(f"--arc {args.arc} covers all of {args.group}, and so does every translate of it")
    epsilon = _parse_rational_flag("epsilon", args.epsilon)
    if epsilon <= 0:
        raise ValueError(f"--epsilon {args.epsilon!r} must be positive")
    if epsilon >= 1:
        # No sample deviates from a proper arc's measure by 1 or more.
        raise ValueError(f"--epsilon {args.epsilon!r} must be below 1, or every sample passes")
    sweep = sample_complexity_sweep(model, family, epsilon, schedule, args.trials, args.seed)
    rows = [r.to_csv() for r in sweep.rows]
    fieldnames = ["N", "trials", "successes", "min_sup_deviation", "max_sup_deviation"]
    _emit(_csv_text(fieldnames, rows), _out_path(args, "eps_approx.csv"))
    if sweep.smallest_passing is None:
        print("no N in the schedule reached a 95% success rate")
        return 3
    print(f"smallest passing N: {sweep.smallest_passing}")
    return 0


def cmd_steinhaus(args) -> int:
    _require_at_least("stage", args.stage, 0)
    if args.stage > MAX_STEINHAUS_STAGE:
        raise ValueError(f"--stage {args.stage} is above the cap of {MAX_STEINHAUS_STAGE}")
    shifts = _parse_rationals("--shifts", args.shifts)
    fc = _fat_cantor(args.removed_scale)
    radius, density = steinhaus_neighborhood(fc)
    rows = []
    for u, (exact, floor) in zip(shifts, core_overlap(fc, args.stage, shifts)):
        rows.append(
            {
                "shift": format_rational(u),
                "overlap_measure": format_rational(exact),
                "overlap_measure_float": float(exact),
                "certified_floor": format_rational(floor),
                "meets_floor": exact >= floor,
            }
        )
    fieldnames = ["shift", "overlap_measure", "overlap_measure_float", "certified_floor", "meets_floor"]
    _emit(_csv_text(fieldnames, rows), _out_path(args, "steinhaus.csv"))
    print(f"neighborhood radius {format_rational(radius)}, density bound {format_rational(density)}")
    return 0 if all(r["meets_floor"] for r in rows) else 1


def cmd_witness(args) -> int:
    _require_at_least("depth", args.depth, 1)
    _require_at_least("stage-budget", args.stage_budget, 0)
    fc = _fat_cantor(args.removed_scale)
    spent = None
    try:
        witness = construct_witness(fc, args.depth, seed=args.seed, stage_budget=args.stage_budget)
    except BudgetExceededError as exc:
        # The deepest completed level is still a certificate; keep it.
        witness, spent = exc.partial, exc
    result = verify_witness(witness, fc)
    _emit(witness.dumps(), _out_path(args, "witness.json"))
    print(
        f"depth {witness.depth}: {len(witness.conditions)} conditions, "
        f"stage bound {witness.stage_bound}, verified: {result.ok}"
    )
    if not result.ok:
        for failure in result.failures[:5]:
            print(f"  failed: {failure}", file=sys.stderr)
        return 1
    if spent is not None:
        print(
            f"budget exhausted: {spent}; wrote the partial certificate of depth "
            f"{witness.depth} (asked for {args.depth})",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_border_sweep(args) -> int:
    _require_at_least("sets", args.sets, 1)
    rng = random.Random(f"{args.seed}/border-sweep")
    window = _parse_window(args.window)
    sets = [random_closed_union(rng, window) for _ in range(args.sets)]
    lo_exp, hi_exp = _parse_exponents(args.r_exponents)
    radii = [Fraction(1, 2) ** j for j in range(lo_exp, hi_exp + 1)]
    pad = window[1] - window[0]
    outer = (window[0] - pad, window[1] + pad)
    rows = border_decay_experiment(sets, radii, outer)
    csv_rows = [r.to_csv() for r in rows]
    fieldnames = ["set_id", "r", "r_border_measure", "r_border_measure_float",
                  "bound_4r_boundary", "within_bound"]
    _emit(_csv_text(fieldnames, csv_rows), _out_path(args, "border_sweep.csv"))
    ok = all(r.within_bound for r in rows)
    print(f"{len(rows)} cells, all within the 4r bound: {ok}")
    return 0 if ok else 1


def cmd_counterexample(args) -> int:
    _require_at_least("triples", args.triples, 1)
    fc = _fat_cantor(args.removed_scale)
    if args.matched is not None:
        _require_at_least("matched", args.matched, 1)
        cx = matched_budget_points(fc, args.matched)
    else:
        _require_at_least("intervals", args.intervals, 1)
        _require_at_least("points-per", args.points_per, 1)
        cx = counterexample_points(fc, args.intervals, args.points_per)
    report = no_shatter3_check(cx, args.triples, seed=args.seed)
    payload = {
        "points": [format_rational(p) for p in cx.points],
        "point_count": len(cx.points),
        "difference_injective": True,  # construction verifies before returning
        "pair_uniqueness_ok": report.pair_uniqueness_ok,
        "triples_checked": report.triples_checked,
        "max_patterns_realized": report.max_patterns,
        "full_shatter_found": report.full_shatter_found,
    }
    _emit(_json_text(payload), _out_path(args, "counterexample.json"))
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
    _emit(_json_text(report.to_json()), _out_path(args, "theorem5_report.json"))
    print(
        f"hypotheses (set, complement): ({report.hypothesis_set}, {report.hypothesis_complement}); "
        f"border measure {format_rational(report.border_measure)}; consistent: {report.consistent}"
    )
    return 0 if report.consistent else 1


def cmd_translate_vcdim(args) -> int:
    x = _parse_set_flag(args.set)
    try:
        report = translate_vc_dimension(x, _parse_window(args.window))
    except BudgetExceededError as exc:
        # The spent search still certified its last complete size; write it.
        _emit(_json_text(exc.partial.to_json()), _out_path(args, "translate_vcdim.json"))
        print(
            f"budget exhausted: {exc}; wrote the partial report "
            f"(certified lower bound {exc.lower_bound})",
            file=sys.stderr,
        )
        return 3
    _emit(_json_text(report.to_json()), _out_path(args, "translate_vcdim.json"))
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--stage-budget", type=int, default=2000)
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
    p.add_argument("--intervals", type=int, default=3)
    p.add_argument("--points-per", type=int, default=5)
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
