"""Investment-fragility analysis for big capital projects.

Appraisal math (NPV, BCR, IRR, payoff curves, break-even thresholds),
reference-class overrun statistics, fat-tailed quantile-anchored
distributions with Monte Carlo stress testing, and fragility classification
for composed systems. The `fragilis` CLI fronts the same operations.
"""

from .cashflow import (
    AppraisalModel,
    AppraisalResult,
    CashFlowStream,
    PayoffCurve,
    apply_stress,
    appraise,
    bcr,
    break_even_delay,
    break_even_overrun,
    discount_factor,
    irr,
    load_model,
    net_stream,
    npv,
    payoff_curve,
)
from .dists import GeneralizedParetoTail, QuantileDistribution, build_quantile_dist, load_dist
from .errors import (
    CalibrationError,
    ComputeError,
    DegenerateSampleError,
    FragilisError,
    InputError,
)
from .refclass import (
    ProjectRecord,
    ReferenceClass,
    Region,
    SummaryStats,
    cost_overrun_ratio,
    debt_burden_share,
    deflate,
    group_stats,
    read_records_csv,
    schedule_slippage,
    summarize,
    write_records_csv,
)
from .stats import DensityTrace, TestResult, TrendResult, kde, mann_whitney_u, one_way_f, trend_f
from .stress import (
    ContingencyResult,
    SensitivityGrid,
    StressConfig,
    StressResult,
    p_break_analytic,
    run_stress,
    sensitivity_grid,
    size_contingency,
)
from .systems import (
    CompositionNode,
    Cutoffs,
    DegradationPath,
    FragilityProfile,
    SystemGraph,
    classify_quadrant,
    degrade_threshold,
    system_threshold,
)

__version__ = "0.1.0"
