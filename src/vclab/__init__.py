"""vclab: an exact-arithmetic laboratory for VC dimensions of translate
families, epsilon-approximations, shattering certificates on fat Cantor
pairs, and border-measure experiments."""

from .approx import (
    ApproxResult,
    FiniteTranslateFamily,
    covering_check,
    epsilon_approximation,
    hitting_set_for_translates,
    sample_complexity_sweep,
)
from .border import (
    DensityReport,
    border_decay_experiment,
    boundary_point_count,
    density_report,
    r_border_measure,
    random_closed_union,
    random_constructible,
)
from .cantor import FatCantorSet, branch_of_stage
from .constructible import ConstructibleSet, Interval, locally_positive_measure, parse_set
from .counterexample import (
    CounterexamplePoints,
    counterexample_points,
    matched_budget_points,
    no_shatter3_check,
    pair_uniqueness_holds,
    verify_difference_injective,
)
from .errors import (
    BudgetExceededError,
    HittingSetError,
    UnsampleableError,
    VCLabError,
)
from .groups import CyclicGroup, parse_model_spec
from .rational import format_rational, parse_rational
from .vc import (
    SetSystem,
    ShatterReport,
    TranslateVCReport,
    dual_vc_dimension,
    interesting_grid,
    sauer_shelah_table,
    translate_vc_dimension,
    vc_dimension,
    vc_dimension_naive,
)
from .witness import (
    ShatterWitness,
    VerificationResult,
    WitnessCondition,
    construct_witness,
    core_overlap,
    steinhaus_neighborhood,
    verify_witness,
)

__version__ = "0.1.0"
