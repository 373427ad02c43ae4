"""Simulated ensemble free-energy campaigns.

Building blocks for thermodynamic-integration campaigns: protocol
definitions compiled to task graphs, a discrete-event pilot execution
engine with overhead accounting, adaptive lambda-window placement and
adaptive termination, and synthetic dU/dlambda data with known ground
truth for end-to-end experiments.
"""

from .errors import CampaignError, ContractError, PlanRejectedError, ValidationError
from .quadrature import (
    FreeEnergyEstimate,
    IntervalError,
    WindowPoint,
    canonical_lambda,
    integrate_with_error,
    interval_error,
    propagate_statistical_error,
    propose_refinements,
    trapezoid_integrate,
)
from .stats import DuDlSeries
from .synth import (
    CurvePreset,
    GroundTruthCurve,
    NoiseModel,
    SyntheticSystem,
    analytic_integral,
    named_system,
    named_systems,
)
from .protocols import (
    AdaptiveConfig,
    LambdaSchedule,
    ProtocolKind,
    ScheduleMode,
    StageKind,
    WorkflowGraph,
    compile_protocol,
    merge_graphs,
)
from .engine import (
    CampaignOutcome,
    CampaignTimeline,
    DurationModel,
    OverheadBreakdown,
    OverheadModel,
    PilotConfig,
    StagePlan,
    TaskRecord,
    generation_count,
    measure_overheads,
    run_campaign,
    slots,
    write_overhead_csv,
    write_timeline_csv,
)
from .adaptive import (
    AdaptiveQuadratureEvaluator,
    AdaptiveTerminationEvaluator,
    SyntheticSampler,
    samples_per_substage,
)
from .campaign import (
    CampaignMode,
    RunOptions,
    SweepRung,
    SystemComparison,
    SystemRunResult,
    TerminationRunResult,
    compare_system,
    data_seed,
    run_sweep,
    run_system,
    run_termination,
)
from .config import (
    CampaignConfig,
    SweepPlan,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from .reports import (
    ComparisonRow,
    TerminationRow,
    ValidationRow,
    VALIDATION_ROWS,
    comparison_csv,
    comparison_row,
    render_comparison_table,
    render_termination_table,
    render_validation_table,
    termination_csv,
    termination_row,
    validation_csv,
)

__version__ = "0.1.0"
