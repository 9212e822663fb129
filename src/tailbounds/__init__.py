"""Sharpened Markov/Chebyshev tail bounds for shape-constrained pmfs.

Exact rational arithmetic for the discrete theory, the continuous
half-bounds computed exactly and rounded once to a float, and two exact
LP oracles that share no code with the formulas: the closed-form edge of
an upper concave envelope over decreasing pmfs, which checks the
sharpened Markov bound and its tightness, and a certified three-row
simplex over unimodal pmfs, which probes the sharpened Chebyshev bound.  Both emit a
(solution, dual, det) certificate for their integer-column LP, and one
checker verifies it before either returns.
"""

__version__ = "0.1.0"

from .errors import (
    InfeasibleError,
    ShapeViolationError,
    SoundnessViolationError,
    TailBoundsError,
    ValidationError,
)
from .dist_core import (
    Pmf,
    ShapeReport,
    as_rational,
    make_pmf,
    mean,
    point_pmf,
    shape,
    tail,
    two_sided_tail,
    uniform_pmf,
    variance,
)
from .decompose import (
    IntervalMixture,
    UniformMixture,
    flatten_head,
    from_interval_mixture,
    from_uniform_mixture,
    merge_tail_atoms,
    mixture_mean,
    mixture_tail,
    reduce_three_atoms,
    to_uniform_mixture,
    unimodal_to_interval_mixture,
)
from .bounds import (
    BoundResult,
    Formula,
    TailMode,
    best_bound,
    chebyshev_classical,
    chebyshev_continuous_unimodal,
    chebyshev_unimodal,
    markov_classical,
    markov_continuous_decreasing,
    markov_decreasing,
)
from .extremal import (
    ExtremalKind,
    ExtremalSpec,
    OracleResult,
    TightnessRow,
    extremal_markov_continuous,
    extremal_markov_discrete,
    lp_max_tail_decreasing,
    lp_max_two_sided_unimodal,
    tightness_rows_to_csv,
    tightness_rows_to_json,
    verify_tightness_theorem2,
)

__all__ = [
    "BoundResult",
    "ExtremalKind",
    "ExtremalSpec",
    "Formula",
    "InfeasibleError",
    "IntervalMixture",
    "OracleResult",
    "Pmf",
    "ShapeReport",
    "ShapeViolationError",
    "SoundnessViolationError",
    "TailBoundsError",
    "TailMode",
    "TightnessRow",
    "UniformMixture",
    "ValidationError",
    "as_rational",
    "best_bound",
    "chebyshev_classical",
    "chebyshev_continuous_unimodal",
    "chebyshev_unimodal",
    "extremal_markov_continuous",
    "extremal_markov_discrete",
    "flatten_head",
    "from_interval_mixture",
    "from_uniform_mixture",
    "lp_max_tail_decreasing",
    "lp_max_two_sided_unimodal",
    "make_pmf",
    "markov_classical",
    "markov_continuous_decreasing",
    "markov_decreasing",
    "mean",
    "merge_tail_atoms",
    "mixture_mean",
    "mixture_tail",
    "point_pmf",
    "reduce_three_atoms",
    "shape",
    "tail",
    "tightness_rows_to_csv",
    "tightness_rows_to_json",
    "to_uniform_mixture",
    "two_sided_tail",
    "uniform_pmf",
    "unimodal_to_interval_mixture",
    "variance",
    "verify_tightness_theorem2",
]
