"""Equilibrium solver and verification suite for time-inconsistent,
distribution-dependent control of finite-state Markov chains."""

from .chain import (
    FlowCurve,
    GeneratorModel,
    GeneratorReport,
    ProbabilityVector,
    StrategyTable,
    TimeGrid,
    propagate_flow,
    transition_stack,
    tv_distance,
    validate_generator,
)
from .errors import (
    AdmissibilityError,
    DimensionMismatch,
    MfeqError,
    ModelDefect,
    ModelFileError,
    NumericalError,
)
from .hj import (
    BackwardSweep,
    CostModel,
    backward_columns,
    evaluate_cost,
    solve_hj,
    validate_cost,
)
from .models import (
    AffineQuadraticModel,
    SeparableCost,
    TabulatedGenerator,
    admissible_interval,
    mean_variance_terminal,
)
from .solver import (
    ContractionReport,
    Equilibrium,
    SolverOptions,
    estimate_constants,
    picard_solve,
)
from .simulate import (
    PathBundle,
    SimConfig,
    deviation_test,
    empirical_flow_error,
    simulate,
)
from .verify import (
    SpikeReport,
    dp_oracle,
    spike_gap,
    verify_local_optimality,
)

__version__ = "0.1.0"
