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
    solve_hj,
    validate_cost,
)
from .models import (
    AffineQuadraticModel,
    SeparableCost,
    TabulatedGenerator,
    admissible_interval,
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
    simulate,
)
from .verify import (
    SpikeReport,
    verify_local_optimality,
)

__version__ = "0.1.0"
