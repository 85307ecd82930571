"""Forecast evaluation for dynamic fits: PMSE, CRPS, and hold-out coverage.

One-step-ahead predictive risk draws extend each retained posterior draw by
one AR(1) innovation. CRPS is the exact empirical estimator over every
draw, computed from the sorted draws; PMSE compares posterior-predictive
means to the observed raw risks of the held-out slice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimators import _risk_draws, summarize
from .model import Dataset, _write_json, internal_standardization
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
    pmse: float
    crps: float
    coverage: float
    level: float


def forecast_risks(samples: PosteriorSamples, dataset: Dataset,
                   seed: int = 0) -> dict:
    """One-step-ahead draws of every estimator the fit provides, by tag.

    ``dataset`` is the full panel; the fit covers the slices before the
    held-out one. Each retained draw advances the temporal effect by
    alpha_{T+1} = rho * alpha_T + N(0, omega), and the advanced draws give
    the held-out slice's ``{tag: draws}`` as a fit's draws give a fitted one.
    """
    if samples.alpha is None:
        raise TypeError("forecasting requires a dynamic fit")
    if not dataset.is_dynamic:
        raise ValueError("forecasting requires a panel dataset")
    t_new = len(samples.times)
    if dataset.n_times <= t_new:
        raise ValueError(
            f"panel has {dataset.n_times} slices; cannot hold out slice {t_new}"
        )
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(samples.n_draws)
    alpha_new = samples.rho * samples.alpha[:, -1] + np.sqrt(samples.omega) * noise
    ahead = replace(samples, times=dataset.times[: t_new + 1],
                    alpha=np.column_stack([samples.alpha, alpha_new]))
    return _risk_draws(ahead, dataset, t_new)


def observed_raw_risks(dataset: Dataset, t: int | None = None) -> np.ndarray:
    """Raw risks Y/E, E = internal_standardization(dataset); ``t`` picks a slice."""
    raw = dataset.y / internal_standardization(dataset)
    return raw if t is None else raw[:, t]


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
    # einsum, not BLAS ddot, whose rounding depends on the number of BLAS threads
    return term1 - float(np.einsum("i,i->", weights, x - x[0])) / D**2


def evaluate_holdout(predicted, observed, level: float = 0.90,
                     region_ids=None) -> ForecastEvaluation:
    """Score predictive draws against observed raw risks.

    PMSE averages squared errors of predictive means over regions; CRPS is
    averaged over regions; coverage is the fraction of regions whose
    equal-tailed predictive interval, from ``summarize``, contains the
    observation.
    """
    predicted = np.asarray(predicted, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if predicted.ndim != 2 or predicted.shape[1] != observed.size:
        raise ValueError("predicted draws not conformable with observations")
    if region_ids is None:
        region_ids = tuple(str(i) for i in range(observed.size))
    s = summarize(predicted, region_ids, "predictive", level)
    crps = np.array([
        crps_empirical(predicted[:, i], observed[i]) for i in range(observed.size)
    ])
    covered = (s.lower <= observed) & (observed <= s.upper)
    return ForecastEvaluation(
        region_ids=s.region_ids,
        predictive_mean=s.mean,
        lower=s.lower,
        upper=s.upper,
        observed=observed,
        pmse=float(np.mean((s.mean - observed) ** 2)),
        crps=float(crps.mean()),
        coverage=float(covered.mean()),
        level=level,
    )


def write_forecast_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        _write_json(report, fh)
