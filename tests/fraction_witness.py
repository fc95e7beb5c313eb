"""Reference certificate checker in plain `Fraction` arithmetic.

`verify_witness` checks the same recorded fields, in the same order and with
the same failure messages, as `vclab.witness.verify_witness`, but compares
Fractions field by field instead of reading the certificate onto one integer
lattice.  `middle_defect` likewise tests a removed middle's width and address
on Fractions.  The tests require both checkers to return identical failure
lists on honest certificates and on every mutant.
"""

from fractions import Fraction

from vclab.cantor import branch_of_stage
from vclab.witness import VerificationResult


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
    depth, points, translators = witness.depth, witness.points, witness.translators
    if set(points) != (set(bitstrings(depth)) if depth else set()):
        failures.append(("structure", "", "point patterns do not match the depth"))
    if len(set(points.values())) != len(points):
        failures.append(("structure", "", "points are not pairwise distinct"))
    if len(translators) != depth:
        failures.append(("structure", "", "translator count does not match the depth"))
    if sorted((c.level, c.pattern) for c in witness.conditions) != [
            (k, pattern) for k in range(depth) for pattern in sorted(points)]:
        failures.append(("structure", "", "not exactly one condition per level and pattern"))
    top = max((c.stage for c in witness.conditions), default=0)
    if witness.stage_bound != top:
        failures.append(("structure", "", f"stage bound {witness.stage_bound} is not the top stage {top}"))
    if failures:
        return VerificationResult(False, failures)
    middles = {}
    for c in witness.conditions:
        k, pattern = c.level, c.pattern
        if c.value != translators[k] + points[pattern]:
            failures.append((k, pattern, f"value {c.value} is not g_{k} + x_{pattern}"))
        below, above = c.value - c.lo, c.hi - c.value
        if below <= 0 or above <= 0:
            failures.append((k, pattern, f"{c.value} is not strictly inside ({c.lo}, {c.hi})"))
        elif c.slack != min(below, above):
            failures.append((k, pattern, f"slack {c.slack} is not {min(below, above)}"))
        if branch_of_stage(c.stage) != int(pattern[k]):
            failures.append((k, pattern, f"stage {c.stage} feeds the other branch"))
        key = (c.stage, c.lo, c.hi)
        if key not in middles:
            middles[key] = middle_defect(fc, c.stage, c.lo, c.hi)
        if middles[key]:
            failures.append((k, pattern, middles[key]))
    return VerificationResult(not failures, failures)
