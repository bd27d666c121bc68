"""Population balance equation solver.

The transport along the internal coordinate is discretized with backward
characteristic tracing, physical space with P1/P2 triangular finite elements,
and the resulting per-slice systems are advanced either sequentially or by a
deterministic pipeline of workers partitioned over the internal grid.
"""

from .characteristics import (
    CflCheck,
    CflViolationError,
    LGrid,
    TimeGrid,
    check_cfl,
    combine_backtraced,
    foot_weights,
)
from .fem import (
    BoundaryTraceError,
    ErrorEvaluator,
    FieldSlice,
    SolveFailure,
    SolverConfig,
    apply_dirichlet,
    assemble_convection,
    assemble_mass,
    assemble_stiffness,
)
from .harness import (
    ConvergenceRow,
    MMSProblem,
    characteristics_study,
    convergence_study,
    mms_problem,
    run_single,
    strong_scaling_study,
    weak_scaling_study,
)
from .mesh import (
    BasisSet,
    QuadRule,
    Rectangle,
    SpatialMesh,
    UNIT_SQUARE,
    build_structured_mesh,
    quadrature_rule,
    reference_basis,
)
from .pipeline import (
    PipelineError,
    PipelinePlan,
    PipelineRun,
    ScalingRow,
    partition,
    run_pipeline,
    timing_report,
)
from .stepper import (
    Operators,
    ProblemSpec,
    SeparableSource,
    SolutionSurface,
    boundary_slice,
    initialize,
    precompute_operators,
    run_sequential,
    step_slice,
)

__version__ = "0.1.0"
