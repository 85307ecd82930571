"""Bayesian disease mapping with CAR spatial smoothing.

Fits the internally standardized (IS) and coherent generative (CG) Poisson
models, static or with AR(1) temporal effects, via Metropolis-within-Gibbs;
extracts relative-risk estimators with credible intervals; and runs
replicate simulation studies comparing them.
"""

from .graph import (
    AdjacencyGraph,
    GraphStructureError,
    car_pairwise_sum,
    load_adjacency,
)
from .model import (
    Dataset,
    ModelSpec,
    apply_link,
    internal_standardization,
    load_dataset,
    log_likelihood_cg,
    log_likelihood_is,
)
from .sampler import PosteriorSamples, SamplerConfig, run_chain
from .estimators import (
    RiskSummary,
    risk_cg_tilde,
    risk_cg_true,
    risk_is,
    summarize,
)
from .simstudy import (
    ReplicationBatch,
    StudyResult,
    TruthMap,
    TruthRecipe,
    build_truth,
    interval_comparisons,
    loss_bias,
    loss_ratio,
    run_study,
    simulate_counts,
)
from .metrics import (
    ForecastEvaluation,
    crps_empirical,
    evaluate_holdout,
    forecast_risks,
)
from .seeding import derive_rng, derive_seed

__version__ = "0.1.0"
