"""Replay check of a shattering certificate: every membership g_k + x_p in
branch p[k] is re-derived by walking the fat Cantor set's removal schedule
in plain Fractions (`fraction_cantor.descend`), down to the recorded stage
bound.

It reads each translator and point n as Fraction(n, den), never reads the
recorded conditions and shares no lattice arithmetic with `vclab`, so it is
independent of `vclab.witness.verify_witness`, which checks those conditions
in closed form; the tests run both on the same certificates.
"""

from fractions import Fraction

import fraction_cantor
from vclab.cantor import branch_of_stage
from vclab.constructible import ConstructibleSet, Interval
from vclab.witness import VerificationResult


def branch_stage_set(fc, branch, m):
    """The union of the open removed middles of one branch among stages <= m."""
    return ConstructibleSet.from_pieces(
        (a, b, False, False) for s, a, b in fc.removed_intervals(m) if branch_of_stage(s) == branch
    )


def branch_gap_containing(fc, x, branch, budget):
    """The removed middle of the given branch containing x, searched down to
    the stage budget; None if x is not inside one."""
    res = fraction_cantor.descend(fc.removed_scale, x, budget)
    if res[0] == "gap" and branch_of_stage(res[1]) == branch:
        _, _, a, b = res
        return Interval(a, b, False, False)
    return None


def replay_witness(witness, fc):
    """Re-derive every membership by descent, down to the stage bound."""
    failures = []
    depth = witness.depth
    expected = {format(i, f"0{depth}b") for i in range(2**depth)} if depth else set()
    if set(witness.points) != expected:
        failures.append(("structure", "", "point patterns do not match the depth"))
    if len(set(witness.points.values())) != len(witness.points):
        failures.append(("structure", "", "points are not pairwise distinct"))
    if len(witness.translators) != witness.depth:
        failures.append(("structure", "", "translator count does not match the depth"))
    if failures:
        return VerificationResult(False, failures)
    for pattern in sorted(witness.points):
        x = Fraction(witness.points[pattern], witness.den)
        for k in range(witness.depth):
            bit = int(pattern[k])
            y = Fraction(witness.translators[k], witness.den) + x
            iv = branch_gap_containing(fc, y, bit, witness.stage_bound)
            if iv is None:
                failures.append((k, pattern, f"{y} is not in branch {bit}"))
                continue
            if not (iv.lo < y < iv.hi):
                failures.append((k, pattern, f"{y} touches the boundary of {iv}"))
    return VerificationResult(not failures, failures)
