"""Simulation and information-rate estimation for channels whose memory
is a finite-dimensional quantum state, alongside the classical
finite-state baseline and mismatched-decoding lower bounds."""

from .bounds import (
    AuxiliaryModel,
    GridSweepResult,
    LowerBoundEstimate,
    grid_sweep,
    lower_bound,
    make_auxiliary,
    smooth_classical_fsmc,
)
from .channels import (
    ClassicalFsmc,
    Dmc,
    InputLaw,
    QuantumMemoryChannel,
    TransferOperatorSet,
    ValidationReport,
    build_bsc,
    build_gilbert_elliott,
    build_quantum_gilbert_elliott,
    compile_transfer_operators,
    embed_classical_as_quantum,
    fsmc_from_dmc,
    random_classical_fsmc,
    random_quantum_memory_channel,
    uniform_input,
    validate,
)
from .config import ExperimentConfig, load_config
from .errors import (
    AuxiliaryLikelihoodError,
    ConfigError,
    ImpossibleObservationError,
    ModelValidationError,
    NumericalCorruptionError,
    OperatorError,
    OracleBudgetError,
    QchanrateError,
    SequenceError,
    TrajectoryFormatError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    expm_skew_hermitian,
    hermitian_eigenvalues,
    is_psd,
    kron,
    partial_trace,
)
from .oracle import OracleTables, brute_force_oracle, oracle_joint_prob, oracle_output_prob
from .rates import (
    RateEstimate,
    StateMetric,
    StateOperator,
    dmc_information_rate,
    entropy_rate_estimates,
    forward_step_classical,
    forward_step_quantum,
    initial_state_metric,
    initial_state_operator,
    scaled_forward_classical,
    scaled_forward_quantum,
)
from .runner import run_experiment
from .sampling import (
    GENERATOR_ID,
    Trajectory,
    conditional_output_distribution,
    load_trajectory,
    make_rng,
    posterior_update,
    sample_input,
    sample_trajectory,
    save_trajectory,
)

__version__ = "0.1.0"
