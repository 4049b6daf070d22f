"""Compressed-sensing analysis and recovery for frequency-agile radar."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DomainError,
    FarcsError,
    ResourceError,
    ShapeError,
    SolverError,
    UnsupportedModeError,
)
from .signal_model import (
    BandwidthMode,
    FrequencyCodes,
    RadarParams,
    Scatterer,
    Scene,
    add_noise,
    flat_grid_index,
    from_physical,
    sample_codes,
    scene_to_vector,
    synthesize_echoes,
    to_physical,
    zeta,
)
from .sensing import (
    SensingMatrix,
    build_D,
    build_R,
    build_iwr_psi,
    build_phi,
    phi_row_sampling_check,
)
from .analysis import (
    ChiStatistics,
    CoherenceSample,
    SparkReport,
    TailBound,
    chi,
    chi_statistics,
    coherence,
    l0_limit,
    max_recoverable_K,
    min_singular_normalized,
    rayleigh_tail_bound,
    spark_enumeration,
    union_bound,
)
from .solvers import (
    RecoveryResult,
    SolverConfig,
    basis_pursuit,
    extract_support,
    l0_oracle,
    lasso,
    lasso_block,
    matched_filter,
    omp,
    subspace_pursuit,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    SolverSettings,
    TrialRecord,
    default_config,
    load_config,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
