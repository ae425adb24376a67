"""Simulation and information-rate estimation for channels whose memory
is a finite-dimensional quantum state, alongside the classical
finite-state baseline and mismatched-decoding lower bounds."""

from .bounds import (
    AuxiliaryModel,
    LowerBoundEstimate,
    lower_bound,
    make_auxiliary,
    smooth_classical_fsmc,
)
from .channels import (
    ClassicalFsmc,
    InputLaw,
    QuantumMemoryChannel,
    TransferOperatorSet,
    ValidationReport,
    build_bsc,
    build_gilbert_elliott,
    build_quantum_gilbert_elliott,
    compile_transfer_operators,
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
from .linalg import expm_skew_hermitian, is_psd
from .oracle import OracleTables, brute_force_oracle
from .rates import RateEstimate, entropy_rate_estimates
from .runner import run_experiment
from .sampling import (
    GENERATOR_ID,
    Trajectory,
    load_trajectory,
    make_rng,
    sample_input,
    sample_trajectory,
    save_trajectory,
)

__version__ = "0.1.0"
