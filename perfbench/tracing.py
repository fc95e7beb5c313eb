"""Spans around the public entry points of each `vclab` module, installed
from outside the program for the traced run only.

Each wrapped call records [name, start, end, parent span, job id, work],
where `work` is a count read at the boundary (the stage a descent reached,
the pieces fed to a boolean op, ...).  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.

Per-step helpers such as `FatCantorSet.middle_gap` or
`ConstructibleSet.contains` are deliberately not wrapped: they run tens of
thousands of times per job and the wrapper would distort their layer.  Their
time lands in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from math import comb

BOOLEAN_OPS = ("union", "intersection", "difference", "symmetric_difference")
GENERATORS = ("cantor.stage_set", "cantor.branch_stage_set")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pieces(args, kwargs, result):
    a, b = args[0], _arg(args, kwargs, 1, "other")
    return len(a.intervals) + len(a.points) + len(b.intervals) + len(b.points)


def _pairs(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "points"))
    sample = kwargs.get("sample_pairs", args[1] if len(args) > 1 else None)
    return comb(n, 2) if sample is None else min(sample, comb(n, 2))


# (module, class or None, attribute, span name, work extractor)
TARGETS = [
    ("vclab.cli", None, "main", "cli.main", None),
    ("vclab.cantor", "FatCantorSet", "descend", "cantor.descend",
     lambda a, k, r: r[1] if len(r) > 1 else 0),
    ("vclab.cantor", "FatCantorSet", "component_of", "cantor.component_of",
     lambda a, k, r: _arg(a, k, 2, "m")),
    ("vclab.cantor", "FatCantorSet", "child_gaps", "cantor.child_gaps", None),
    ("vclab.cantor", "FatCantorSet", "stage_set", "cantor.stage_set", None),
    ("vclab.cantor", "FatCantorSet", "branch_stage_set", "cantor.branch_stage_set", None),
    ("vclab.staged", "StagedSet", "stage", "staged.stage", None),
    ("vclab.staged", "StagedSet", "component_containing", "staged.component_containing", None),
    ("vclab.staged", "StagedSet", "membership", "staged.membership", None),
    ("vclab.staged", "StagedSet", "stage_measure", "staged.stage_measure", None),
    ("vclab.witness", None, "construct_witness", "witness.construct_witness",
     lambda a, k, r: (len(r.conditions), r.stage_bound)),
    ("vclab.witness", None, "verify_witness", "witness.verify_witness", None),
    ("vclab.witness", None, "core_overlap", "witness.core_overlap", None),
    ("vclab.witness", None, "steinhaus_neighborhood", "witness.steinhaus_neighborhood", None),
    *[("vclab.constructible", "ConstructibleSet", op, f"constructible.{op}", _pieces)
      for op in BOOLEAN_OPS],
    *[("vclab.constructible", "ConstructibleSet", op, f"constructible.{op}", None)
      for op in ("translate", "r_neighborhood", "closure", "interior", "border",
                 "closure_of_interior", "minkowski_diff", "measure")],
    ("vclab.constructible", None, "parse_set", "constructible.parse_set", None),
    ("vclab.constructible", None, "locally_positive_measure",
     "constructible.locally_positive_measure", None),
    ("vclab.counterexample", None, "matched_budget_points", "counterexample.matched_budget_points", None),
    ("vclab.counterexample", None, "counterexample_points", "counterexample.counterexample_points", None),
    ("vclab.counterexample", None, "no_shatter3_check", "counterexample.no_shatter3_check",
     lambda a, k, r: len(_arg(a, k, 0, "cx").points)),
    ("vclab.counterexample", None, "pair_uniqueness_holds", "counterexample.pair_uniqueness_holds",
     _pairs),
    ("vclab.counterexample", None, "realized_patterns", "counterexample.realized_patterns",
     lambda a, k, r: 3 * len(_arg(a, k, 0, "points_set"))),
    ("vclab.border", None, "r_border_measure", "border.r_border_measure", None),
    ("vclab.border", None, "density_report", "border.density_report", None),
    ("vclab.border", None, "border_decay_experiment", "border.border_decay_experiment", None),
    ("vclab.border", None, "random_closed_union", "border.random_closed_union", None),
    ("vclab.vc", None, "translate_vc_dimension", "vc.translate_vc_dimension", None),
    ("vclab.vc", None, "vc_dimension", "vc.vc_dimension", None),
    ("vclab.vc", None, "dual_vc_dimension", "vc.dual_vc_dimension", None),
    ("vclab.vc", "SetSystem", "from_translates", "vc.from_translates", None),
    ("vclab.approx", None, "sample_complexity_sweep", "approx.sample_complexity_sweep", None),
    ("vclab.approx", "FiniteTranslateFamily", "sup_deviation", "approx.sup_deviation",
     lambda a, k, r: a[0].member_count()),
    ("vclab.groups", None, "parse_model_spec", "groups.parse_model_spec", None),
    *[("vclab.groups", cls, "sample_uniform", "groups.sample_uniform", None)
      for cls in ("CyclicGroup", "ProductGroup", "RealLine")],
]


class Tracer:
    """Installs span wrappers on the targets and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target.  A module-level function is replaced in every
        loaded vclab module that binds it, since callers look it up there
        (vclab.cli imports most entry points by name).  A method is replaced
        on the class that defines it, under every alias in the class dict.
        Targets that no longer exist are listed in `missing`."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "vclab"]
        for modname, clsname, attr, name, work in TARGETS:
            owner = sys.modules.get(modname)
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if clsname is None:
                wrapped = self._wrap(name, raw, work)
                homes = loaded
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, work))
                homes = [owner]
            else:
                wrapped = self._wrap(name, raw, work)
                homes = [owner]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is raw:
                        setattr(home, key, wrapped)
                        self._restore.append((home, key, raw))

    def restore(self) -> None:
        for home, key, raw in reversed(self._restore):
            setattr(home, key, raw)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_shares(spans) -> dict[str, float]:
    """Each layer's self time as a share of all traced time, largest first."""
    by_layer = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_layer[span[0].split(".")[0]] += own
    whole = sum(by_layer.values()) or 1.0
    return {k: v / whole for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def layer_metrics(spans, n_jobs: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run as (value, unit); counts and
    self times are per traced job."""
    n = max(n_jobs, 1)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    work = defaultdict(list)
    stage_misses = 0
    for (name, _, _, parent, _, w), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        if w is not None:
            work[name].append(w)
        if name in GENERATORS and parent >= 0 and spans[parent][0] == "staged.stage":
            stage_misses += 1

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    def self_of(names):
        return sum(self_s[k] for k in names)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    bool_names = [f"constructible.{op}" for op in BOOLEAN_OPS]
    pieces = [p for k in bool_names for p in work[k]]
    stages = sum(work["cantor.descend"]) + sum(work["cantor.component_of"])
    built = work["witness.construct_witness"]
    translates = sum(work["approx.sup_deviation"])
    translators = sum(work["counterexample.realized_patterns"])
    place = ["counterexample.matched_budget_points", "counterexample.counterexample_points"]
    finite = ["vc.from_translates", "vc.vc_dimension", "vc.dual_vc_dimension"]
    walk = ["cantor.descend", "cantor.component_of"]

    stage_calls = calls["staged.stage"]
    hit_ratio = 1 - stage_misses / stage_calls if stage_calls else 0.0
    return {
        "cantor.descend.calls": (calls["cantor.descend"] / n, "calls/job"),
        "cantor.component_of.calls": (calls["cantor.component_of"] / n, "calls/job"),
        "cantor.child_gaps.calls": (calls["cantor.child_gaps"] / n, "calls/job"),
        "cantor.stages_walked": (stages / n, "stages/job"),
        "cantor.self_s": (layer_self("cantor") / n, "s/job"),
        "cantor.us_per_stage": (ratio(self_of(walk), stages, 1e6), "us"),
        "cantor.stage_set.calls": (calls["cantor.stage_set"] / n, "calls/job"),
        "cantor.stage_set.self_s": (self_s["cantor.stage_set"] / n, "s/job"),
        "witness.construct_witness.self_s": (self_s["witness.construct_witness"] / n, "s/job"),
        "witness.verify_witness.self_s": (self_s["witness.verify_witness"] / n, "s/job"),
        "witness.core_overlap.self_s": (self_s["witness.core_overlap"] / n, "s/job"),
        "witness.conditions": (sum(c for c, _ in built) / n, "conditions/job"),
        "witness.stage_bound.mean": (ratio(sum(b for _, b in built), len(built)), "stage"),
        "staged.component_containing.calls": (calls["staged.component_containing"] / n, "calls/job"),
        "staged.self_s": (layer_self("staged") / n, "s/job"),
        "staged.stage.calls": (calls["staged.stage"] / n, "calls/job"),
        "staged.stage.hit_ratio": (hit_ratio, "ratio"),
        "constructible.boolean.calls": (len(pieces) / n, "calls/job"),
        "constructible.boolean.pieces_in": (sum(pieces) / n, "pieces/job"),
        "constructible.boolean.max_pieces": (float(max(pieces, default=0)), "pieces"),
        "constructible.self_s": (layer_self("constructible") / n, "s/job"),
        "constructible.us_per_piece": (ratio(self_of(bool_names), sum(pieces), 1e6), "us"),
        "counterexample.place.self_s": (self_of(place) / n, "s/job"),
        "counterexample.points": (sum(work["counterexample.no_shatter3_check"]) / n, "points/job"),
        "counterexample.pair_check.self_s": (self_s["counterexample.pair_uniqueness_holds"] / n, "s/job"),
        "counterexample.pairs": (sum(work["counterexample.pair_uniqueness_holds"]) / n, "pairs/job"),
        "counterexample.triple_check.self_s": (self_s["counterexample.realized_patterns"] / n, "s/job"),
        "counterexample.triples": (calls["counterexample.realized_patterns"] / n, "triples/job"),
        "counterexample.translators": (translators / n, "computed/job"),
        "counterexample.us_per_translator": (ratio(self_s["counterexample.realized_patterns"], translators, 1e6), "us"),
        "border.r_border_measure.calls": (calls["border.r_border_measure"] / n, "calls/job"),
        "border.density_report.calls": (calls["border.density_report"] / n, "calls/job"),
        "border.self_s": (layer_self("border") / n, "s/job"),
        "vc.translate_vc_dimension.self_s": (self_s["vc.translate_vc_dimension"] / n, "s/job"),
        "vc.finite.self_s": (self_of(finite) / n, "s/job"),
        "vc.calls": (sum(v for k, v in calls.items() if k.startswith("vc.")) / n, "calls/job"),
        "approx.sup_deviation.calls": (calls["approx.sup_deviation"] / n, "calls/job"),
        "approx.sup_deviation.self_s": (self_s["approx.sup_deviation"] / n, "s/job"),
        "approx.ns_per_translate": (ratio(self_s["approx.sup_deviation"], translates, 1e9), "ns"),
        "approx.sweep.self_s": (self_s["approx.sample_complexity_sweep"] / n, "s/job"),
        "groups.sample_uniform.calls": (calls["groups.sample_uniform"] / n, "calls/job"),
        "groups.self_s": (layer_self("groups") / n, "s/job"),
        "cli.main.calls": (calls["cli.main"] / n, "calls/job"),
        "cli.self_s": (layer_self("cli") / n, "s/job"),
    }
