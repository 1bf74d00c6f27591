"""Investment-fragility analysis for big capital projects.

Appraisal math (NPV, BCR, IRR, payoff curves, break-even thresholds),
reference-class overrun statistics, fat-tailed quantile-anchored
distributions with Monte Carlo stress testing, and fragility classification
for composed systems. The `fragilis` CLI fronts the same operations.

The package is lazy (PEP 562): each public name imports its module on first
use, so a process loads numpy only if it calls a function that computes with
it. Names are looked up on every access, never cached here, so fragilis.irr
is always whatever fragilis.cashflow.irr is.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module: the public names it gives the package
    "cashflow": "AppraisalModel AppraisalResult CashFlowStream PayoffCurve apply_stress appraise"
                " bcr break_even_delay break_even_overrun discount_factor irr load_model"
                " net_stream npv payoff_curve",
    "dists": "GeneralizedParetoTail QuantileDistribution build_quantile_dist load_dist",
    "errors": "CalibrationError ComputeError DegenerateSampleError FragilisError InputError",
    "refclass": "ProjectRecord ReferenceClass Region SummaryStats cost_overrun_ratio"
                " debt_burden_share deflate group_stats read_records_csv schedule_slippage"
                " summarize write_records_csv",
    "stats": "DensityTrace TestResult TrendResult kde mann_whitney_u one_way_f trend_f",
    "stress": "ContingencyResult SensitivityGrid StressConfig StressResult p_break_analytic"
              " run_stress sensitivity_grid size_contingency",
    "systems": "CompositionNode Cutoffs FragilityProfile SystemGraph classify_quadrant"
               " system_threshold",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
