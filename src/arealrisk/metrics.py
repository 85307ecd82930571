"""Forecast evaluation for dynamic fits: PMSE, CRPS, and hold-out coverage.

One-step-ahead predictive risk draws extend each retained posterior draw by
one AR(1) innovation. CRPS is the exact empirical estimator over every
draw, computed from the sorted draws; PMSE compares posterior-predictive
means to the observed raw risks of the held-out slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import MIN_DRAWS, _cg_risk
from .model import Dataset, _eta, _write_json, apply_link, internal_standardization
from .sampler import PosteriorSamples

__all__ = [
    "ForecastEvaluation",
    "forecast_risks",
    "crps_empirical",
    "evaluate_holdout",
    "observed_raw_risks",
    "write_forecast_report",
]


@dataclass(frozen=True)
class ForecastEvaluation:
    """Aggregate and per-region scores of a one-step-ahead forecast."""

    region_ids: tuple
    predictive_mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    observed: np.ndarray
    crps_per_region: np.ndarray
    pmse: float
    crps: float
    coverage: float
    level: float


def forecast_risks(samples: PosteriorSamples, dataset: Dataset,
                   horizon: int = 1, estimator: str | None = None,
                   seed: int = 0) -> np.ndarray:
    """One-step-ahead relative-risk draws for the held-out slice.

    ``dataset`` is the full panel; the fit must cover all but the final
    ``horizon`` slices. Each retained draw advances the temporal effect by
    alpha_{T+1} = rho * alpha_T + N(0, omega) and maps through the fitted
    family using the held-out slice's populations (and, for r_cg_tilde, its
    internally standardized expected counts).
    """
    if samples.alpha is None:
        raise TypeError("forecasting requires a dynamic fit")
    if horizon != 1:
        raise ValueError("only one-step-ahead forecasting is supported")
    if not dataset.is_dynamic:
        raise ValueError("forecasting requires a panel dataset")
    T_fit = len(samples.times)
    t_new = T_fit + horizon - 1
    if dataset.n_times <= t_new:
        raise ValueError(
            f"panel has {dataset.n_times} slices; cannot hold out slice {t_new}"
        )
    if estimator is None:
        estimator = "r_is" if samples.spec.family == "is" else "r_cg"

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(samples.n_draws)
    alpha_new = samples.rho * samples.alpha[:, -1] + np.sqrt(samples.omega) * noise

    x_new = dataset.x[:, t_new, :]
    n_new = dataset.n[:, t_new]
    eta = _eta(samples.beta @ x_new.T, samples.phi, alpha_new[:, None])

    if samples.spec.family == "is":
        if estimator != "r_is":
            raise TypeError(f"estimator {estimator!r} needs a CG fit")
        return np.exp(eta)
    if estimator not in ("r_cg", "r_cg_tilde"):
        raise TypeError(f"estimator {estimator!r} needs an IS fit")
    p = apply_link(samples.spec.link, eta, samples.spec.c0)
    E_new = (internal_standardization(dataset.time_slice(t_new))
             if estimator == "r_cg_tilde" else None)
    return _cg_risk(estimator, p, n_new, E_new)


def observed_raw_risks(dataset: Dataset, t: int) -> np.ndarray:
    """Raw risks Y/E of slice ``t``, standardized within that slice."""
    holdout = dataset.time_slice(t)
    return holdout.y / internal_standardization(holdout)


def crps_empirical(draws, observed: float) -> float:
    """Empirical CRPS: mean|x - y| - pairwise mean|x - x'| / 2.

    Exact over all D draws in O(D log D): with the draws sorted, the
    pairwise half-mean is sum_i (2i - D - 1) x_(i) / D^2. The draws are
    centred on the smallest first, so a degenerate forecast scores exactly
    zero. Nonnegative, and zero exactly when every draw equals the
    observation.
    """
    draws = np.asarray(draws, dtype=float).ravel()
    if draws.size == 0:
        raise ValueError("CRPS needs at least one draw")
    x = np.sort(draws)
    D = x.size
    term1 = float(np.mean(np.abs(draws - observed)))
    weights = 2.0 * np.arange(1, D + 1) - D - 1
    return term1 - float(weights @ (x - x[0])) / D**2


def evaluate_holdout(predicted, observed, level: float = 0.90,
                     region_ids=None) -> ForecastEvaluation:
    """Score predictive draws against observed raw risks.

    PMSE averages squared errors of predictive means over regions; CRPS is
    averaged over regions; coverage is the fraction of regions whose
    equal-tailed predictive interval contains the observation.
    """
    predicted = np.asarray(predicted, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if predicted.ndim != 2 or predicted.shape[1] != observed.size:
        raise ValueError("predicted draws not conformable with observations")
    if predicted.shape[0] < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} predictive draws")
    if region_ids is None:
        region_ids = tuple(str(i) for i in range(observed.size))
    tail = (1.0 - level) / 2.0
    lower, upper = np.quantile(predicted, [tail, 1.0 - tail], axis=0)
    mean = predicted.mean(axis=0)
    crps = np.array([
        crps_empirical(predicted[:, i], observed[i]) for i in range(observed.size)
    ])
    covered = (lower <= observed) & (observed <= upper)
    return ForecastEvaluation(
        region_ids=tuple(region_ids),
        predictive_mean=mean,
        lower=lower,
        upper=upper,
        observed=observed,
        crps_per_region=crps,
        pmse=float(np.mean((mean - observed) ** 2)),
        crps=float(crps.mean()),
        coverage=float(covered.mean()),
        level=level,
    )


def write_forecast_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        _write_json(report, fh)
