"""Noise-aware mitigation of quantum measurement distributions.

Clusters noisy measurement bit-strings by Hamming distance around
majority-vote centroids, reassigns the probability mass that i.i.d.
bit-flip noise smeared off those centroids, and iterates the cluster
count until the reshaped distribution stabilizes. Includes the bit-flip
simulator used for sensitivity studies and an extremely-randomized-trees
estimator of the effective error rate from circuit features.
"""

from .clustering import (
    ClusterConfig,
    ClusterModel,
    EmptyClusterError,
    cluster,
    outlier_threshold,
    qubitwise_majority_vote,
    select_initial_centroids,
)
from .distributions import (
    BitString,
    OutcomeDistribution,
    hamming_distance,
    hellinger_fidelity,
    improvement_ratio,
    normalized_entropy,
)
from .engine import (
    ExperimentRecord,
    IterationRecord,
    MitigationConfig,
    MitigationReport,
    SweepCell,
    cell_means,
    mitigate,
    run_trial,
    sweep,
)
from .estimator import (
    FEATURE_NAMES,
    CalibrationSnapshot,
    CircuitFeatures,
    CrossValidationResult,
    TreeEnsemble,
    compute_esp,
    cross_validate,
    effective_error_rate,
    fit_tree_ensemble,
    make_synthetic_corpus,
)
from .noise import (
    NoiseSpec,
    SyntheticSpec,
    apply_bitflip,
    generate_ideal,
    sample_shots,
)
from .redistribution import (
    DegenerateMitigationError,
    RedistributionResult,
    joint_probability,
    redistribute,
)

__version__ = "0.1.0"
