"""Baseband OFDM simulation with SLM/PTS PAPR reduction and CCDF experiments."""

from .frame import PaprSample, TimeFrame, papr, papr_linear, synthesize, time_samples
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    Method,
    default_threshold_grid,
    run_experiment,
    run_experiments,
    threshold_grid,
    trial_stream,
    write_result,
)
from .modulation import FrequencyFrame, ModulationScheme, map_bits, random_frame
from .pts import (
    PartitionScheme,
    PhaseVector,
    PtsResult,
    SubBlockPartition,
    enumerate_phase_vectors,
    make_partition,
    pts_reduce,
)
from .slm import PhaseSequence, SlmResult, generate_phase_sequences, slm_reduce
from .stats import (
    CcdfCurve,
    SignalStats,
    empirical_ccdf,
    gaussianity_stats,
    theoretical_ccdf_original,
    theoretical_ccdf_slm,
    theoretical_curve,
)

__all__ = [
    "CcdfCurve",
    "ExperimentConfig",
    "ExperimentResult",
    "FrequencyFrame",
    "Method",
    "ModulationScheme",
    "PaprSample",
    "PartitionScheme",
    "PhaseSequence",
    "PhaseVector",
    "PtsResult",
    "SignalStats",
    "SlmResult",
    "SubBlockPartition",
    "TimeFrame",
    "default_threshold_grid",
    "empirical_ccdf",
    "enumerate_phase_vectors",
    "gaussianity_stats",
    "generate_phase_sequences",
    "make_partition",
    "map_bits",
    "papr",
    "papr_linear",
    "pts_reduce",
    "random_frame",
    "run_experiment",
    "run_experiments",
    "slm_reduce",
    "synthesize",
    "theoretical_ccdf_original",
    "theoretical_ccdf_slm",
    "theoretical_curve",
    "threshold_grid",
    "time_samples",
    "trial_stream",
    "write_result",
]

__version__ = "0.1.0"
