"""Data containers, standardization, link functions, and Poisson log-likelihoods.

Two model families share the machinery here. The internally standardized
(IS) family models relative risk on the log scale against expected counts
computed from the pooled observed rate; the coherent generative (CG) family
models incidence directly through a choice of logit, complementary log-log,
or skewed-logit link. Both are one Poisson likelihood with log mean
offset + g(eta): log E + eta for IS, log n + log p for CG. Its terms keep
their normalizing constants, so values are comparable across families. The
linear predictor, g and the Poisson kernel are defined here once, for the
sampler, the estimators and forecasting alike, as is the way every artifact
writes floats and JSON.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "ModelSpec",
    "load_dataset",
    "internal_standardization",
    "apply_link",
    "log_likelihood_cg",
    "log_likelihood_is",
]

LINKS = ("logit", "cloglog", "skewed_logit")
FAMILIES = ("is", "cg")
TEMPORAL_MODES = ("static", "dynamic_ar1")

# exp() overflows above ~709.8 and underflows below ~-745: the log means
# that the Poisson kernel exponentiates are capped here, and the links
# bound the arguments of their own exp() calls at plus or minus this
_ETA_MAX = 700.0


@dataclass(frozen=True)
class Dataset:
    """Counts, populations, and covariates over regions (optionally x time).

    Static data carries 1-d ``y``/``n`` of length I and covariates ``x`` of
    shape (I, k). Panel data carries (I, T) counts/populations, covariates
    (I, T, k), and ordered time labels. Covariates always include an
    explicit intercept column: the loader prepends one, and fits reject
    covariates without one.
    """

    region_ids: tuple
    y: np.ndarray
    n: np.ndarray
    x: np.ndarray
    times: tuple | None = None

    def __post_init__(self):
        ids = tuple(str(r) for r in self.region_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("region ids must be unique")
        object.__setattr__(self, "region_ids", ids)
        y = np.asarray(self.y, dtype=np.int64)
        n = np.asarray(self.n, dtype=float)
        x = np.asarray(self.x, dtype=float)
        I = len(ids)
        if self.times is not None:
            T = len(self.times)
            object.__setattr__(self, "times", tuple(self.times))
            if y.shape != (I, T) or n.shape != (I, T):
                raise ValueError(
                    f"panel y/n must have shape ({I},{T}); got {y.shape}, {n.shape}"
                )
            if x.shape[:2] != (I, T) or x.ndim != 3:
                raise ValueError(f"panel covariates must be (I,T,k); got {x.shape}")
        else:
            if y.shape != (I,) or n.shape != (I,):
                raise ValueError(
                    f"y/n must have shape ({I},); got {y.shape}, {n.shape}"
                )
            if x.ndim != 2 or x.shape[0] != I:
                raise ValueError(f"covariates must be (I,k); got {x.shape}")
        if np.any(y < 0):
            raise ValueError("counts must be nonnegative")
        if np.any(n <= 0) or not np.all(np.isfinite(n)):
            raise ValueError("populations must be strictly positive and finite")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        for arr in (y, n, x):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    @property
    def n_times(self) -> int | None:
        return None if self.times is None else len(self.times)

    @property
    def is_dynamic(self) -> bool:
        return self.times is not None

    @property
    def n_covariates(self) -> int:
        return self.x.shape[-1]

    @property
    def intercept_column(self) -> int | None:
        """Index of the first all-ones covariate column, if any."""
        flat = self.x.reshape(-1, self.n_covariates)
        for j in range(self.n_covariates):
            if np.all(flat[:, j] == 1.0):
                return j
        return None

    def covariate_rank(self) -> int:
        return int(np.linalg.matrix_rank(self.x.reshape(-1, self.n_covariates)))

    def reindex(self, region_ids) -> "Dataset":
        """Reorder rows to match ``region_ids`` (must be the same set)."""
        ids = tuple(str(r) for r in region_ids)
        if set(ids) != set(self.region_ids):
            raise ValueError("region id sets differ; cannot reindex")
        if ids == self.region_ids:
            return self
        pos = {r: i for i, r in enumerate(self.region_ids)}
        order = [pos[r] for r in ids]
        return Dataset(ids, self.y[order], self.n[order], self.x[order], self.times)

    def time_slice(self, t: int) -> "Dataset":
        """Static dataset for panel slice ``t``."""
        if not self.is_dynamic:
            raise ValueError("time_slice requires a panel dataset")
        return Dataset(self.region_ids, self.y[:, t], self.n[:, t], self.x[:, t, :])

    def time_prefix(self, k: int) -> "Dataset":
        """Panel restricted to the first ``k`` time slices."""
        if not self.is_dynamic:
            raise ValueError("time_prefix requires a panel dataset")
        if not 2 <= k <= self.n_times:
            raise ValueError(f"prefix length must be in [2, {self.n_times}], got {k}")
        return Dataset(self.region_ids, self.y[:, :k], self.n[:, :k],
                       self.x[:, :k, :], self.times[:k])


@dataclass(frozen=True)
class ModelSpec:
    """Model family, link, temporal mode, and prior hyperparameters.

    The link applies only to the CG family; the IS family models log
    relative risk directly. ``tau_prior`` is the (shape, rate) of the Gamma
    prior on the CAR precision.
    """

    family: str
    link: str | None = None
    c0: float | None = None
    temporal: str = "static"
    tau_prior: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.temporal not in TEMPORAL_MODES:
            raise ValueError(
                f"temporal must be one of {TEMPORAL_MODES}, got {self.temporal!r}"
            )
        if self.family == "cg":
            link = self.link if self.link is not None else "logit"
            if link not in LINKS:
                raise ValueError(f"link must be one of {LINKS}, got {link!r}")
            object.__setattr__(self, "link", link)
            if link == "skewed_logit":
                if self.c0 is None or not self.c0 > 0:
                    raise ValueError("skewed_logit requires c0 > 0")
        else:
            if self.link is not None:
                raise ValueError("the IS family uses the log link; leave link unset")
        a, b = self.tau_prior
        if not (a > 0 and b > 0):
            raise ValueError(f"tau_prior must be positive, got {self.tau_prior}")
        object.__setattr__(self, "tau_prior", (float(a), float(b)))

    @property
    def is_dynamic(self) -> bool:
        return self.temporal == "dynamic_ar1"


def internal_standardization(dataset: Dataset) -> np.ndarray:
    """Expected counts from the pooled observed rate, per time slice.

    E_i = n_i * (sum_i Y_i / sum_i n_i); for panel data each time slice is
    standardized on its own. Within every slice sum(E) equals sum(Y) up to
    rounding: exactly for whole-number populations, to a few ulps otherwise.
    """
    totals = dataset.y.sum(axis=0).astype(float)  # one total per slice
    if np.any(totals <= 0):
        where = (f" at time {dataset.times[int(np.argmin(totals))]!r}"
                 if dataset.is_dynamic else "")
        raise ValueError(f"all counts are zero{where}; the pooled rate degenerates")
    return dataset.n * (totals / dataset.n.sum(axis=0))


def _log_link(link: str | None, eta, c0: float | None = None):
    """g(eta), the log of the inverse link: a CG cell's log incidence.

    logit: log(1/(1+e^-eta)) = min(eta, 0) - log1p(e^-|eta|); skewed_logit:
    the logit's g at eta + log(c0); cloglog: log(1-exp(-e^eta)), with eta
    bounded at +-``_ETA_MAX``. ``link`` None is the IS family's log link,
    where g is the identity. For finite eta each g is finite and
    nondecreasing, and raises no floating-point warning.
    """
    if link is None:
        return eta
    if link == "skewed_logit":
        if c0 is None or not c0 > 0:
            raise ValueError("skewed_logit requires c0 > 0")
        link, eta = "logit", eta + np.log(c0)
    if link == "logit":
        return np.minimum(eta, 0.0) - np.log1p(np.exp(-np.minimum(np.abs(eta), _ETA_MAX)))
    if link == "cloglog":
        return np.log(-np.expm1(-np.exp(np.minimum(np.maximum(eta, -_ETA_MAX), _ETA_MAX))))
    raise ValueError(f"unknown link {link!r}")


def apply_link(link: str, eta, c0: float | None = None) -> np.ndarray:
    """Incidence probabilities exp(g(eta)), unclamped; g is ``_log_link``."""
    return np.exp(_log_link(link, np.asarray(eta, dtype=float), c0))


def _eta(xb, phi, alpha=None):
    """The linear predictor ((x'beta) + phi) + alpha, for one state or a batch.

    One state: ``xb`` = x @ beta is (I,) or, for a panel, (I, T); ``phi`` is
    (I,) and ``alpha`` is (T,), one slice's scalar, or None. A batch of D
    draws at one slice: ``xb`` = beta @ x_t.T is (D, I), ``phi`` (D, I) and
    ``alpha`` (D, 1) or None.
    """
    eta = xb + (phi[:, None] if xb.ndim > phi.ndim else phi)
    return eta if alpha is None else eta + alpha


def _poisson_terms(y, offset, eta, spec: ModelSpec):
    """Per-cell Poisson log-likelihood terms without the log(Y!) constant.

    The one kernel of both families: y*l - exp(l) at l = offset + g(eta),
    where exp() sees l capped at ``_ETA_MAX`` so a huge IS eta stays finite.
    """
    log_mu = offset + _log_link(spec.link, eta, spec.c0)
    return y * log_mu - np.exp(np.minimum(log_mu, _ETA_MAX))


def _log_factorial_sum(y) -> float:
    """The Poisson constant sum(log(Y!)), from ``math.lgamma`` cell by cell."""
    return math.fsum(map(math.lgamma, (np.asarray(y, dtype=float) + 1.0).flat))


def _log_likelihood(dataset: Dataset, spec: ModelSpec, offset, beta, phi,
                    alpha=None) -> float:
    """Summed Poisson terms at log-mean ``offset`` plus the log(Y!) constants."""
    beta = np.asarray(beta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if alpha is not None:
        if not dataset.is_dynamic:
            raise ValueError("alpha supplied for a static dataset")
        alpha = np.asarray(alpha, dtype=float)
    eta = _eta(dataset.x @ beta, phi, alpha)
    terms = _poisson_terms(dataset.y, offset, eta, spec)
    return float(np.sum(terms)) - _log_factorial_sum(dataset.y)


def log_likelihood_cg(
    dataset: Dataset, beta, phi, link: str, c0: float | None = None, alpha=None
) -> float:
    """Poisson log-likelihood of the generative incidence model.

    Y ~ Poisson(n * p) with link(p) = x'beta + phi (+ alpha_t in panels).
    Constants (log Y!) are retained.
    """
    return _log_likelihood(dataset, ModelSpec("cg", link=link, c0=c0),
                           np.log(dataset.n), beta, phi, alpha)


def log_likelihood_is(dataset: Dataset, E, beta, phi, alpha=None) -> float:
    """Poisson log-likelihood of the internally standardized model.

    Y ~ Poisson(E * r) with log(r) = x'beta + phi (+ alpha_t in panels);
    E is treated as fixed. Constants are retained.
    """
    E = np.asarray(E, dtype=float)
    if E.shape != dataset.y.shape:
        raise ValueError(f"E has shape {E.shape}, expected {dataset.y.shape}")
    if np.any(E <= 0):
        raise ValueError("expected counts must be strictly positive")
    return _log_likelihood(dataset, ModelSpec("is"), np.log(E), beta, phi, alpha)


def _fmt(v) -> str:
    """A float as written in every artifact: its shortest round-trip repr."""
    return repr(float(v))


def _write_json(obj, fh) -> None:
    """Write ``obj`` to an open text stream the way every JSON artifact holds it.

    Indent 2, sorted keys, trailing newline. ``json.dump`` streams its chunks,
    so a report over 10^4 regions never sits whole in memory as one string.
    """
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _read_csv(path):
    """A CSV input's header and an iterator over its ``(line, cells)`` rows.

    Cells are stripped and a row whose cells are all blank is skipped. The
    file is closed on return; an empty file has no header.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh.readlines())
    header = [c.strip() for c in next(reader, [])]
    stripped = ([c.strip() for c in row] for row in reader)
    return header, ((reader.line_num, cells) for cells in stripped if any(cells))


def _coerce_time(value: str):
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def load_dataset(path) -> Dataset:
    """Load a dataset CSV with header ``region,year(optional),y,n,x1,...``.

    A missing ``year`` column gives a static dataset. Panel files must be
    complete (every region at every time, each pair exactly once). An
    intercept column is prepended to any covariates found.
    """
    header, rows = _read_csv(path)
    header = [c.lower() for c in header]
    has_year = "year" in header
    expected = ["region"] + (["year"] if has_year else []) + ["y", "n"]
    if header[: len(expected)] != expected:
        raise ValueError(
            f"{path}: header must start with {','.join(expected)}; got {header}"
        )
    off = len(expected) - 2  # the column of y
    k = len(header) - len(expected)

    cells = {}  # (region, year) -> its row in ys, ns and covs; year None if static
    ys, ns, covs = [], [], []
    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}, line {line}: row has {len(row)} fields, "
                f"expected {len(header)}"
            )
        try:
            y = int(row[off])
            n = float(row[off + 1])
            xs = [float(v) for v in row[off + 2 :]]
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
        if y < 0:
            raise ValueError(f"{path}, line {line}: count must be nonnegative, "
                             f"got {y}")
        if y >= 2**63:
            raise ValueError(f"{path}, line {line}: count must be below 2**63 "
                             f"(the int64 range), got {y}")
        if not 0.0 < n < np.inf:
            raise ValueError(f"{path}, line {line}: population must be positive "
                             f"and finite, got {n}")
        if not all(map(math.isfinite, xs)):
            raise ValueError(f"{path}, line {line}: covariates must be finite, "
                             f"got {xs}")
        key = (row[0], _coerce_time(row[1]) if has_year else None)
        if key in cells:
            at = f", year {key[1]!r}" if has_year else ""
            raise ValueError(f"{path}, line {line}: duplicate row for region "
                             f"{key[0]!r}{at}")
        cells[key] = len(ys)
        ys.append(y)
        ns.append(n)
        covs += xs

    # a static file is a panel of one slice, squeezed at the end
    regions = list(dict.fromkeys(region for region, _ in cells))
    # numeric years sort before text ones, so mixed labels still have an order
    times = (sorted({t for _, t in cells}, key=lambda t: (isinstance(t, str), t))
             if has_year else [None])
    try:
        order = [cells[region, t] for region in regions for t in times]
    except KeyError as exc:
        region, t = exc.args[0]
        raise ValueError(f"{path}: incomplete panel; missing region {region!r} "
                         f"at year {t!r}") from None
    I, T = len(regions), len(times)
    y = np.array(ys, dtype=np.int64)[order].reshape(I, T)
    n = np.array(ns, dtype=float)[order].reshape(I, T)
    xs = np.array(covs, dtype=float).reshape(len(ys), k)[order]
    x = np.hstack([np.ones((I * T, 1)), xs]).reshape(I, T, 1 + k)
    if not has_year:
        return Dataset(regions, y[:, 0], n[:, 0], x[:, 0])
    return Dataset(regions, y, n, x, times)
