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

# Each submodule and the public names it defines.  Reading a name from
# the package imports its submodule then (PEP 562), so that
# ``import tailbounds`` and the CLI's ``--version`` load no submodule.
_EXPORTS = {
    "errors": (
        "InfeasibleError",
        "ShapeViolationError",
        "SoundnessViolationError",
        "TailBoundsError",
        "ValidationError",
    ),
    "dist_core": (
        "Pmf",
        "ShapeReport",
        "as_rational",
        "make_pmf",
        "mean",
        "point_pmf",
        "shape",
        "tail",
        "two_sided_tail",
        "uniform_pmf",
        "variance",
    ),
    "decompose": (
        "IntervalMixture",
        "UniformMixture",
        "flatten_head",
        "from_interval_mixture",
        "from_uniform_mixture",
        "merge_tail_atoms",
        "mixture_mean",
        "mixture_tail",
        "reduce_three_atoms",
        "to_uniform_mixture",
        "unimodal_to_interval_mixture",
    ),
    "_modes": ("TailMode",),
    "bounds": (
        "BoundResult",
        "Formula",
        "best_bound",
        "chebyshev_classical",
        "chebyshev_continuous_unimodal",
        "chebyshev_unimodal",
        "markov_classical",
        "markov_continuous_decreasing",
        "markov_decreasing",
    ),
    "extremal": (
        "ExtremalKind",
        "ExtremalSpec",
        "OracleResult",
        "TightnessRow",
        "extremal_markov_continuous",
        "extremal_markov_discrete",
        "lp_max_tail_decreasing",
        "lp_max_two_sided_unimodal",
        "tightness_rows_to_csv",
        "tightness_rows_to_json",
        "verify_tightness_theorem2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
