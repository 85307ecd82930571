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
from json.encoder import encode_basestring_ascii

import numpy as np

from .model import Dataset, _eta, apply_link, internal_standardization
from .sampler import PosteriorSamples

__all__ = [
    "RiskSummary",
    "risk_is",
    "risk_cg_tilde",
    "risk_cg_true",
    "incidence_draws",
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


def _slice_eta(samples: PosteriorSamples, dataset: Dataset, t: int | None):
    """Linear-predictor draws (D, I) at slice ``t``; static data is one slice."""
    if not dataset.is_dynamic:
        return _eta(samples.beta @ dataset.x.T, samples.phi)
    if t is None:
        raise ValueError("panel dataset requires a time index")
    return _eta(samples.beta @ dataset.x[:, t, :].T, samples.phi,
                samples.alpha[:, t, None])


def incidence_draws(samples: PosteriorSamples, dataset: Dataset,
                    t: int | None = None) -> np.ndarray:
    """Per-draw incidence probabilities p from a CG fit, (draws, regions)."""
    if samples.spec.family != "cg":
        raise TypeError("incidence draws require a CG-family fit")
    return apply_link(samples.spec.link, _slice_eta(samples, dataset, t),
                      samples.spec.c0)


def risk_is(samples: PosteriorSamples, dataset: Dataset,
            t: int | None = None) -> np.ndarray:
    """Relative-risk draws exp(x'beta + phi (+ alpha_t)) from an IS fit."""
    if samples.spec.family != "is":
        raise TypeError("risk_is requires an IS-family fit")
    return np.exp(_slice_eta(samples, dataset, t))


def risk_cg_tilde(samples: PosteriorSamples, dataset: Dataset,
                  t: int | None = None) -> np.ndarray:
    """Risk draws n_i p_i / E_i: a fixed positive rescaling of the p draws.

    E is ``internal_standardization(dataset)``, at slice ``t`` for a panel.
    """
    return _cg_tilde(incidence_draws(samples, dataset, t), dataset, t)


def risk_cg_true(samples: PosteriorSamples, dataset: Dataset,
                 t: int | None = None) -> np.ndarray:
    """Risk draws p_i / pbar with pbar recomputed within each draw.

    pbar = sum_i n_i p_i / sum_i n_i, so every draw satisfies
    sum_i n_i r_i = sum_i n_i exactly.
    """
    return _cg_true(incidence_draws(samples, dataset, t), dataset, t)


def _cg_tilde(p, dataset: Dataset, t):
    n, E = dataset.n, internal_standardization(dataset)
    if dataset.is_dynamic:
        n, E = n[:, t], E[:, t]
    return p * (n / E)[None, :]


def _cg_true(p, dataset: Dataset, t):
    n_t = dataset.n[:, t] if dataset.is_dynamic else dataset.n
    pbar = (p @ n_t) / n_t.sum()
    return p / pbar[:, None]


def _risk_draws(samples: PosteriorSamples, dataset: Dataset,
                t: int | None = None) -> dict:
    """Draws of every estimator a fit provides at slice ``t``, by tag.

    An IS fit gives ``r_is``; a CG fit gives ``r_cg_tilde`` (against the
    internally standardized expected counts) and ``r_cg``, both from one
    matrix of incidence draws.
    """
    if samples.spec.family == "is":
        return {"r_is": risk_is(samples, dataset, t)}
    p = incidence_draws(samples, dataset, t)
    return {"r_cg_tilde": _cg_tilde(p, dataset, t), "r_cg": _cg_true(p, dataset, t)}


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
    cols = (["region"] + (["time"] if with_time else [])
            + ["estimator", *_field_names(levels.pop())])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for s in summaries:
            lead = [s.estimator]
            if with_time:
                lead.insert(0, "" if s.time is None else str(s.time))
            # one template per summary; %r of a float is _fmt
            row = ("%s," + ",".join(lead).replace("%", "%%")
                   + ",%r" * len(_FIELDS) + "\n")
            columns = [getattr(s, attr).tolist() for attr in _FIELDS]
            fh.writelines([row % values for values in zip(s.region_ids, *columns)])


# the texts json gives the floats that repr writes otherwise
_JSON_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values: np.ndarray) -> list:
    """Each value as ``json.dump`` writes it, from one ``repr`` of the list."""
    text = repr(values.tolist())[1:-1].split(", ")
    if np.isfinite(values).all():
        return text
    return [_JSON_SPECIALS.get(v, v) for v in text]


def _json_object(node: dict, pad: str) -> str:
    """``node`` as ``json.dump(indent=2, sort_keys=True)`` writes it at ``pad``.

    A str value is JSON text already; a dict value is written the same way.
    """
    if not node:
        return "{}"
    inner = pad + "  "
    return ("{\n" + inner + (",\n" + inner).join(
        [encode_basestring_ascii(key) + ": "
         + (value if isinstance(value, str) else _json_object(value, inner))
         for key, value in sorted(node.items())]) + "\n" + pad + "}")


def write_geojson_properties(summaries, path) -> None:
    """Write a per-region properties map for joining onto region geometries.

    The file maps region id -> estimator (-> time, for panel fits) -> the
    same fields as the summary CSV; render with any external choropleth
    tool by joining on the region id. The text is what ``json.dump`` writes
    with indent 2 and sorted keys, but each summary's columns are formatted
    once and each region's fields through one template.
    """
    out: dict = {}
    for s in summaries:
        names = _field_names(s.level)
        order = sorted(range(len(names)), key=names.__getitem__)
        pad = "      " if s.time is None else "        "
        fields = ("{\n" + ",\n".join(pad + encode_basestring_ascii(names[i]) + ": %s"
                                      for i in order) + "\n" + pad[:-2] + "}")
        columns = [_json_numbers(getattr(s, _FIELDS[i])) for i in order]
        for region, *values in zip(s.region_ids, *columns):
            slot = out.setdefault(region, {})
            if s.time is None:
                slot[s.estimator] = fields % tuple(values)
                continue
            times = slot.setdefault(s.estimator, {})
            if isinstance(times, str):
                raise ValueError(f"region {region!r}: estimator {s.estimator!r} "
                                 "has both a static and a panel summary")
            times[str(s.time)] = fields % tuple(values)
    with open(path, "w") as fh:
        fh.write(_json_object(out, "") + "\n")
