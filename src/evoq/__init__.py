"""Spectral solvers and null-controllability tools for evolution systems
posed in exponentially weighted L2 spaces."""

from .errors import (
    ConsistencyError,
    DefinitenessError,
    EvoqError,
    GridError,
    NonCoerciveError,
    NonFiniteSignalError,
    NotInvertibleError,
    NotSkewError,
    OracleError,
    PairingError,
    PoleError,
    PreconditionError,
    SchemaError,
    SizeGuardError,
    SolverError,
    SymbolError,
    UnsupportedLawError,
    WindowError,
)
from .signals import (
    SupportWindow,
    TimeGrid,
    WeightedSignal,
    load_signal,
    nu_product,
    restrict,
    save_signal,
    signal_from_function,
    signal_from_values,
    support_leakage,
    time_reverse,
    weight_flip,
    zero_signal,
)
from .transform import (
    Spectrum,
    antiderivative,
    fourier_laplace,
    grid_frequencies,
    inverse_fourier_laplace,
    spectral_multiplier,
    time_derivative,
)
from .material import (
    CoercivityCertificate,
    MaterialLaw,
    adjoint_law,
    apply_material_op,
    coercivity,
    eval_law,
    finite_sum_law,
    sampled_law,
)
from .spatial import (
    SpatialOperator,
    build_heat_block,
    build_maxwell_block,
    build_wave_block,
    check_skew,
)
from .solver import (
    EvoProblem,
    SolveReport,
    apply_operator,
    nu_independence_check,
    solve_adjoint,
    solve_forward,
    time_reversal_conjugation_check,
    timestep_oracle,
)
from .control import (
    ControlProblem,
    ControlResult,
    DouglasReport,
    EndMaps,
    ObservabilityEstimate,
    PointwiseSolution,
    RegularizationReport,
    assemble_endmaps,
    douglas_check,
    null_control,
    observability_constant,
    pointwise_duality_check,
    pointwise_null_control,
    pointwise_solve,
)
from .instances import (
    Instance,
    bundled_instances,
    make_heat_instance,
    make_maxwell_instance,
    make_wave_instance,
)

__version__ = "0.1.0"
