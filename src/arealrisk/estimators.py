"""Relative-risk estimators extracted from posterior draws.

Three estimators are supported. ``r_is`` comes straight from an IS fit as
exp(x'beta + phi). From a CG fit, ``r_cg_tilde`` rescales the incidence
draws by the fixed internally standardized denominator (n_i p_i / E_i), and
``r_cg`` divides each draw's incidences by that draw's own population-
weighted mean, so the population-weighted mean of r_cg is exactly 1 within
every draw.

Summaries are equal-tailed quantile intervals on the natural scale, with
linear interpolation between order statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Dataset, _eta, _json_rows, _write_csv, _write_json, apply_link,
                    internal_standardization)
from .sampler import PosteriorSamples

__all__ = [
    "RiskSummary",
    "risk_is",
    "risk_cg_tilde",
    "risk_cg_true",
    "summarize",
    "write_summary_csv",
    "write_geojson_properties",
]

MIN_DRAWS = 100


@dataclass(frozen=True)
class RiskSummary:
    """Per-region posterior summaries of one relative-risk estimator."""

    estimator: str
    region_ids: tuple
    mean: np.ndarray
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    exceedance: np.ndarray  # P(r > 1 | data)
    time: object = None

    @property
    def length(self) -> np.ndarray:
        return self.upper - self.lower


def _at_slice(samples: PosteriorSamples, dataset: Dataset, t: int | None):
    """Linear-predictor draws (D, I) at slice ``t``, with that slice's n and E.

    E is ``internal_standardization(dataset)``; static data is one slice.
    """
    x, n, E, alpha = dataset.x, dataset.n, internal_standardization(dataset), None
    if dataset.is_dynamic:
        if t is None:
            raise ValueError("panel dataset requires a time index")
        x, n, E, alpha = x[:, t, :], n[:, t], E[:, t], samples.alpha[:, t, None]
    return _eta(samples.beta @ x.T, samples.phi, alpha), n, E


def risk_is(samples: PosteriorSamples, dataset: Dataset,
            t: int | None = None) -> np.ndarray:
    """Relative-risk draws exp(x'beta + phi (+ alpha_t)) from an IS fit."""
    if samples.spec.family != "is":
        raise TypeError("risk_is requires an IS-family fit")
    return np.exp(_at_slice(samples, dataset, t)[0])


def risk_cg_tilde(samples: PosteriorSamples, dataset: Dataset,
                  t: int | None = None) -> np.ndarray:
    """Risk draws n_i p_i / E_i: a fixed positive rescaling of the p draws.

    E is ``internal_standardization(dataset)``, at slice ``t`` for a panel.
    """
    if samples.spec.family != "cg":
        raise TypeError("risk_cg_tilde requires a CG-family fit")
    return _risk_draws(samples, dataset, t)["r_cg_tilde"]


def risk_cg_true(samples: PosteriorSamples, dataset: Dataset,
                 t: int | None = None) -> np.ndarray:
    """Risk draws p_i / pbar with pbar recomputed within each draw.

    pbar = sum_i n_i p_i / sum_i n_i, so every draw satisfies
    sum_i n_i r_i = sum_i n_i exactly.
    """
    if samples.spec.family != "cg":
        raise TypeError("risk_cg_true requires a CG-family fit")
    return _risk_draws(samples, dataset, t)["r_cg"]


def _risk_draws(samples: PosteriorSamples, dataset: Dataset,
                t: int | None = None) -> dict:
    """Draws of every estimator a fit provides at slice ``t``, by tag.

    An IS fit gives ``r_is``; a CG fit gives ``r_cg_tilde`` (against the
    internally standardized expected counts) and ``r_cg``, both from one
    matrix of incidence draws p.
    """
    if samples.spec.family == "is":
        return {"r_is": risk_is(samples, dataset, t)}
    eta, n, E = _at_slice(samples, dataset, t)
    p = apply_link(samples.spec.link, eta, samples.spec.c0)
    # einsum, not BLAS gemv, whose rounding depends on the number of BLAS threads
    pbar = np.einsum("di,i->d", p, n) / n.sum()
    return {"r_cg_tilde": p * (n / E)[None, :], "r_cg": p / pbar[:, None]}


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")


def summarize(risk: np.ndarray, region_ids, estimator: str,
              level: float = 0.90, time=None) -> RiskSummary:
    """Equal-tailed posterior summaries of a (draws, regions) risk matrix."""
    risk = np.asarray(risk, dtype=float)
    if risk.ndim != 2:
        raise ValueError("risk matrix must be (draws, regions)")
    if risk.shape[0] < MIN_DRAWS:
        raise ValueError(
            f"need at least {MIN_DRAWS} draws to summarize, got {risk.shape[0]}"
        )
    _check_level(level)
    tail = (1.0 - level) / 2.0
    lower, med, upper = np.quantile(risk, [tail, 0.5, 1.0 - tail], axis=0)
    return RiskSummary(
        estimator=estimator,
        region_ids=tuple(region_ids),
        mean=risk.mean(axis=0),
        median=med,
        lower=lower,
        upper=upper,
        level=level,
        exceedance=(risk > 1.0).mean(axis=0),
        time=time,
    )


# ---------------------------------------------------------------------------
# artifact writers


# the summary attributes every summary artifact writes per region
_FIELDS = ("mean", "median", "lower", "upper", "length", "exceedance")


def _field_names(level: float) -> list:
    """Names of ``_FIELDS``; the interval bounds carry the level (lo90, hi90 at 0.9)."""
    pct = f"{100 * level:g}"
    return ["mean", "median", f"lo{pct}", f"hi{pct}", "length", "exceedance"]


def write_summary_csv(summaries, path) -> None:
    """Write risk summaries as CSV.

    Header is ``region,time,estimator,mean,median,lo90,hi90,length,exceedance``
    at level 0.9 (the time column is omitted when all summaries are static).
    The interval columns are named by 100 times the summaries' shared level:
    ``lo80``/``hi80`` at 0.8, ``lo97.5``/``hi97.5`` at 0.975.
    """
    summaries = list(summaries)
    levels = {s.level for s in summaries}
    if len(levels) != 1:
        raise ValueError(f"summaries must share one level, got {sorted(levels)}")
    with_time = any(s.time is not None for s in summaries)
    header = (["region"] + (["time"] if with_time else [])
              + ["estimator", *_field_names(levels.pop())])
    _write_csv(path, header, (
        [s.region_ids, *(["" if s.time is None else str(s.time)] if with_time else []),
         s.estimator, *(getattr(s, attr) for attr in _FIELDS)] for s in summaries))


def write_geojson_properties(summaries, path) -> None:
    """Write a per-region properties map for joining onto region geometries.

    The file maps region id -> estimator (-> time, for panel fits) -> the
    same fields as the summary CSV; render with any external choropleth
    tool by joining on the region id. Each summary's fields are formatted a
    column at a time by ``_json_rows``.
    """
    out: dict = {}
    for s in summaries:
        rows = _json_rows({name: getattr(s, attr)
                           for name, attr in zip(_field_names(s.level), _FIELDS)})
        for region, row in zip(s.region_ids, rows):
            slot = out.setdefault(region, {})
            if s.time is None:
                slot[s.estimator] = row
                continue
            times = slot.setdefault(s.estimator, {})
            if isinstance(times, str):
                raise ValueError(f"region {region!r}: estimator {s.estimator!r} "
                                 "has both a static and a panel summary")
            times[str(s.time)] = row
    with open(path, "w") as fh:
        _write_json(out, fh)
