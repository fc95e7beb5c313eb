"""Reference certificate checker in plain `Fraction` arithmetic.

`verify_witness` checks the same recorded fields, in the same order and with
the same failure messages, as `vclab.witness.verify_witness`, but reads each
integer field n as Fraction(n, den) and compares Fractions field by field
instead of integers on the certificate's lattice.  `middle_defect` likewise
tests a removed middle's width and address on Fractions.  The tests require
both checkers to return identical failure lists on honest certificates and
on every mutant.  `rationals` and `from_rationals` carry a certificate to
Fractions and back, so that tests can build certificates with rational
fields off its lattice.
"""

import json
from fractions import Fraction

from vclab.cantor import branch_of_stage
from vclab.witness import ShatterWitness, VerificationResult


def rationals(witness):
    """(translators, points, conditions) of a certificate as Fractions, each
    condition a (level, pattern, value, lo, hi, stage, slack) tuple."""
    den = witness.den
    return ([Fraction(g, den) for g in witness.translators],
            {p: Fraction(x, den) for p, x in witness.points.items()},
            [(c.level, c.pattern, Fraction(c.value, den), Fraction(c.lo, den), Fraction(c.hi, den),
              c.stage, Fraction(c.slack, den)) for c in witness.conditions])


def from_rationals(depth, translators, points, stage_bound, conditions=()):
    """The certificate with these rational fields, read from its JSON text,
    so on the lcm of their denominators; conditions as in `rationals`."""
    keys = ("level", "pattern", "value", "lo", "hi", "stage", "slack")
    return ShatterWitness.loads(json.dumps({
        "depth": depth, "stage_bound": stage_bound, "translators": [str(g) for g in translators],
        "points": {p: str(x) for p, x in points.items()},
        "conditions": [{k: v if k in ("level", "pattern", "stage") else str(v) for k, v in zip(keys, c)}
                       for c in conditions],
    }))


def bitstrings(k):
    return [format(i, f"0{k}b") for i in range(2**k)]


def middle_defect(fc, stage, lo, hi):
    """Why (lo, hi) is not a removed middle of the stage, or None.  The
    stage-s middles are (4L + 2W_(s-1) - p, 4L + 2W_(s-1) + p) on u_s with
    L = L_(s-1)(b) for an address b < 2^(s-1).  Bit i of b adds
    c_i = 3p 4^i + (2q - p) 2^(s-1+i), more than all lower c_j together,
    so b decodes top bit first."""
    p, q = fc.removed_scale.numerator, fc.removed_scale.denominator
    if stage < 1:
        return f"stage {stage} removes no middle"
    # The width p/(q 4^s) fixes the stage: test it before building the
    # stage's lattice, so that a bogus stage allocates nothing.
    num, den = (Fraction(hi - lo) * q / p).as_integer_ratio()
    if num != 1 or den.bit_length() != 2 * stage + 1 or den & (den - 1):
        return f"({lo}, {hi}) is not as wide as a stage-{stage} middle"
    left = Fraction(lo) * (q << (2 * stage + 1))
    rest, off = divmod(left.numerator - 2 * fc.width(stage - 1) + p, 4)
    spread, step = 3 * p << 2 * (stage - 1), (2 * q - p) << (2 * stage - 2)
    for _ in range(stage - 1):
        spread >>= 2
        step >>= 1
        if rest >= spread + step:
            rest -= spread + step
    bad = left.denominator != 1 or off or rest
    return f"({lo}, {hi}) is not a removed middle of stage {stage}" if bad else None


def verify_witness(witness, fc):
    """Every recorded field of a certificate, checked on Fractions."""
    failures = []
    depth = witness.depth
    translators, points, conditions = rationals(witness)
    if set(points) != (set(bitstrings(depth)) if depth else set()):
        failures.append(("structure", "", "point patterns do not match the depth"))
    if len(set(points.values())) != len(points):
        failures.append(("structure", "", "points are not pairwise distinct"))
    if len(translators) != depth:
        failures.append(("structure", "", "translator count does not match the depth"))
    if sorted((c[0], c[1]) for c in conditions) != [
            (k, pattern) for k in range(depth) for pattern in sorted(points)]:
        failures.append(("structure", "", "not exactly one condition per level and pattern"))
    top = max((c[5] for c in conditions), default=0)
    if witness.stage_bound != top:
        failures.append(("structure", "", f"stage bound {witness.stage_bound} is not the top stage {top}"))
    if failures:
        return VerificationResult(False, failures)
    middles = {}
    for k, pattern, value, lo, hi, stage, slack in conditions:
        if value != translators[k] + points[pattern]:
            failures.append((k, pattern, f"value {value} is not g_{k} + x_{pattern}"))
        below, above = value - lo, hi - value
        if below <= 0 or above <= 0:
            failures.append((k, pattern, f"{value} is not strictly inside ({lo}, {hi})"))
        elif slack != min(below, above):
            failures.append((k, pattern, f"slack {slack} is not {min(below, above)}"))
        if branch_of_stage(stage) != int(pattern[k]):
            failures.append((k, pattern, f"stage {stage} feeds the other branch"))
        key = (stage, lo, hi)
        if key not in middles:
            middles[key] = middle_defect(fc, stage, lo, hi)
        if middles[key]:
            failures.append((k, pattern, middles[key]))
    return VerificationResult(not failures, failures)
