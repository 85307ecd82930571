"""Metropolis-within-Gibbs sampling for the IS and CG families.

One sweep updates, in order: every spatial effect (univariate random-walk
Metropolis, grouped by graph coloring so non-adjacent regions move
together), the regression coefficients (componentwise random walk with a
flat prior), the CAR precision (exact conjugate Gamma draw), and, for
dynamic fits, the temporal effects (coloured as the regions: even years,
then odd), the AR(1) coefficient, and the innovation variance (exact
inverse-gamma draw). The chain carries the per-cell likelihood terms of its
current state, each block overwriting the terms it accepts, so a Metropolis
block evaluates the likelihood only at its proposals: the spatial and
temporal blocks in one kernel call each. No block sees the level of the
spatial effects, which the CAR prior leaves free; each recorded draw is
centered to sum to zero, its mean moved into the intercept: eta is unchanged.

Proposal scales adapt during burn-in toward a target acceptance band and
freeze afterwards, preserving detailed balance for the retained draws.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import AdjacencyGraph, car_pairwise_sum
from .model import (
    Dataset,
    ModelSpec,
    _csv_field,
    _eta,
    _poisson_terms,
    _write_json,
    internal_standardization,
)

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "run_chain",
    "tau_posterior_params",
    "write_draws_csv",
    "write_metadata_json",
]

logger = logging.getLogger(__name__)

# out-of-band windowed acceptance multiplies the proposal scale by these
SHRINK_FACTOR = 0.8
GROW_FACTOR = 1.25


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, seeding, and adaptation settings.

    Defaults give 5,000 burn-in sweeps and 10,000 retained draws (20,000
    post-burn-in sweeps thinned by 2).
    """

    n_iterations: int = 25_000
    burn_in: int = 5_000
    thin: int = 2
    seed: int = 0
    adapt_window: int = 250
    target_acceptance: tuple = (0.15, 0.40)

    def __post_init__(self):
        if self.n_iterations <= 0 or self.burn_in < 0 or self.thin < 1:
            raise ValueError("chain lengths must be positive (thin >= 1)")
        if self.burn_in >= self.n_iterations:
            raise ValueError("burn_in must be smaller than n_iterations")
        if self.adapt_window < 1:
            raise ValueError("adapt_window must be positive")
        lo, hi = self.target_acceptance
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError("target_acceptance must satisfy 0 <= lo < hi <= 1")

    @property
    def n_draws(self) -> int:
        return (self.n_iterations - self.burn_in) // self.thin


# the drawn parameters, in the order of the draws CSV; the last three are
# dynamic only
_PARAMS = ("beta", "phi", "tau", "alpha", "rho", "omega")


@dataclass
class ChainState:
    """Mutable MCMC state: the parameters of ``_PARAMS``."""

    beta: np.ndarray
    phi: np.ndarray
    tau: float
    alpha: np.ndarray | None = None
    rho: float | None = None
    omega: float | None = None


@dataclass(frozen=True)
class PosteriorSamples:
    """Thinned post-burn-in draws with fit metadata.

    Arrays are indexed (draw, parameter). ``acceptance`` holds the
    acceptance rates of the post-burn-in sweeps per Metropolis block;
    ``proposal_scales`` the frozen scales.
    """

    spec: ModelSpec
    config: SamplerConfig
    region_ids: tuple
    times: tuple | None
    beta: np.ndarray
    phi: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray | None
    rho: np.ndarray | None
    omega: np.ndarray | None
    acceptance: dict
    proposal_scales: dict
    n_nonfinite_events: int

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]


# ---------------------------------------------------------------------------
# full-conditional pieces: each Metropolis block's log acceptance ratio is one
# function, which the sweep calls and criterion 2 checks against a joint density


class _FitContext:
    """Precomputed arrays for one (dataset, graph, spec) fit."""

    def __init__(self, dataset: Dataset, graph: AdjacencyGraph, spec: ModelSpec):
        if dataset.region_ids != graph.region_ids:
            if set(dataset.region_ids) != set(graph.region_ids):
                raise ValueError("dataset regions do not match the adjacency graph")
            dataset = dataset.reindex(graph.region_ids)
        if spec.is_dynamic != dataset.is_dynamic:
            raise ValueError(
                "temporal mode mismatch: spec is "
                f"{spec.temporal!r} but dataset is "
                f"{'panel' if dataset.is_dynamic else 'static'}"
            )
        if spec.is_dynamic and dataset.n_times < 2:
            raise ValueError("dynamic fits need at least two time points")
        # each phi draw is centered into the intercept; without one it biases the chain
        self.intercept = dataset.intercept_column
        if self.intercept is None:
            raise ValueError("the covariates need an intercept: add an all-ones column")
        self.dataset = dataset
        self.graph = graph
        self.spec = spec
        self.y = dataset.y
        self.x = dataset.x
        # the Poisson kernel's log-mean offset: log E (IS) or log n (CG)
        self.offset = np.log(internal_standardization(dataset)
                             if spec.family == "is" else dataset.n)
        self.colors = graph.coloring()
        # per class: each CSR entry's row within the class, and its neighbour,
        # gathered from the class's CSR row segments in class order
        self.color_nbrs = []
        for idx in self.colors:
            deg = graph.degrees[idx]
            rows = np.repeat(np.arange(idx.size), deg)
            # entry e of the class sits (e - its row's first entry) into that row
            shift = graph._indptr[idx] - (np.cumsum(deg) - deg)
            pos = np.arange(rows.size) + shift[rows]
            self.color_nbrs.append((rows, graph._indices[pos]))
        self.color_deg = [graph.degrees[idx].astype(float) for idx in self.colors]
        if spec.is_dynamic:  # AR(1) links each year to the next: years even, then odd
            path = np.eye(dataset.n_times, k=1) + np.eye(dataset.n_times, k=-1)
            self.year_colors = [np.arange(t, dataset.n_times, 2) for t in (0, 1)]
            self.year_nbrs = [path[idx] for idx in self.year_colors]  # rows of the path
            self.year_inner = [w.sum(axis=1) - 1.0 for w in self.year_nbrs]  # 1 inside

    def neighbor_sums(self, k, phi):
        """Sum of ``phi`` over each neighbour of colour class ``k``'s regions.

        Each row is summed from 0.0 in CSR order, as a CSR mat-vec sums it.
        """
        rows, cols = self.color_nbrs[k]
        return np.bincount(rows, weights=phi.take(cols), minlength=self.colors[k].size)

    def xb(self, beta):
        return self.x @ beta  # (I,) static, (I, T) dynamic

    def terms(self, xb, phi, alpha=None):
        """Per-cell likelihood terms of the whole state, shaped like ``y``."""
        return _poisson_terms(self.y, self.offset, _eta(xb, phi, alpha), self.spec)


def _ar1_sums(alpha, rho):
    """(1 - rho^2) alpha_0^2 and the sum over t >= 1 of (alpha_t - rho alpha_{t-1})^2."""
    alpha = np.asarray(alpha, dtype=float)
    resid = alpha[1:] - rho * alpha[:-1]
    return (1.0 - rho**2) * alpha[0] ** 2, float(resid @ resid)


def _ar1_log_prior(alpha, rho, omega) -> float:
    """Log density of the AR(1) temporal effects given (rho, omega).

    The first effect gets the stationary N(0, omega/(1-rho^2)) distribution;
    later effects follow alpha_t = rho * alpha_{t-1} + N(0, omega).
    """
    if not -1.0 < rho < 1.0 or omega <= 0:
        return -np.inf
    start, resid = _ar1_sums(alpha, rho)
    out = -0.5 * np.log(2.0 * np.pi * omega / (1.0 - rho**2))
    out -= start / (2.0 * omega)
    out += -0.5 * (len(alpha) - 1) * np.log(2.0 * np.pi * omega)
    out -= resid / (2.0 * omega)
    return float(out)


def _phi_loglik_diffs(ctx, st, prop, xb, terms):
    """Per-region likelihood differences of phi moving to ``prop``, and its terms.

    One kernel call for the whole block: a region's terms depend only on its
    own phi. The current side is the carried per-cell ``terms`` of ``st``,
    whose x @ beta is ``xb``; a panel's terms are summed per region.
    """
    prop_terms = ctx.terms(xb, prop, st.alpha)
    if ctx.dataset.is_dynamic:
        return prop_terms.sum(axis=1) - terms.sum(axis=1), prop_terms
    return prop_terms - terms, prop_terms


def _gauss_markov_log_ratio(scale, weight, mean, cur, prop):
    """Log ratio of ``cur`` moving to ``prop`` under N(mean, 1/(scale * weight))."""
    return -0.5 * scale * weight * ((prop - mean) ** 2 - (cur - mean) ** 2)


def _phi_log_ratio(ctx, st, k, prop, d_lik):
    """Log ratios of colour class ``k`` moving to ``prop``: CAR terms plus ``d_lik``."""
    idx, deg = ctx.colors[k], ctx.color_deg[k]
    nbr_mean = ctx.neighbor_sums(k, st.phi) / deg
    return _gauss_markov_log_ratio(st.tau, deg, nbr_mean, st.phi[idx], prop) + d_lik


def _beta_log_ratio(ctx, st, prop, cur_ll):
    """Log acceptance ratio of the coefficients moving to ``prop`` (flat prior).

    ``cur_ll`` is the state's summed likelihood terms. Also returns the
    proposal's (x @ beta, per-cell terms, summed terms), carried on acceptance.
    """
    prop_xb = ctx.xb(prop)
    prop_terms = ctx.terms(prop_xb, st.phi, st.alpha)
    prop_ll = float(prop_terms.sum())
    return prop_ll - cur_ll, (prop_xb, prop_terms, prop_ll)


def _alpha_loglik_diffs(ctx, st, prop, xb, terms):
    """Each year's likelihood difference, alpha moving from ``st`` to ``prop``.

    One kernel call for the whole block: a year's terms depend only on its
    own alpha. Also returns the proposal's per-cell terms.
    """
    prop_terms = ctx.terms(xb, st.phi, prop)
    # each year summed as a contiguous row, as a one-year slice is summed
    return (prop_terms.T.copy().sum(axis=1) - terms.T.copy().sum(axis=1),
            prop_terms)


def _alpha_log_ratio(ctx, st, k, prop, d_lik):
    """Log ratios of year class ``k`` moving to ``prop``: AR(1) terms plus ``d_lik``.

    Given its neighbours, alpha_t has precision q_t/omega and mean
    rho (alpha_{t-1} + alpha_{t+1}) / q_t, where q_t = 1 + rho^2 inside the
    panel and 1 at either end, whose missing neighbour counts 0.
    """
    idx = ctx.year_colors[k]
    q = 1.0 + st.rho**2 * ctx.year_inner[k]
    mean = st.rho * (ctx.year_nbrs[k] @ st.alpha) / q
    return _gauss_markov_log_ratio(1.0 / st.omega, q, mean, st.alpha[idx], prop) + d_lik


def _rho_log_ratio(st, prop):
    """Log acceptance ratio of rho moving to ``prop`` (flat prior on (-1, 1))."""
    return _ar1_log_prior(st.alpha, prop, st.omega) - _ar1_log_prior(
        st.alpha, st.rho, st.omega
    )


def tau_posterior_params(graph: AdjacencyGraph, phi, a: float, b: float):
    """(shape, rate) of the exact Gamma full conditional of the CAR precision."""
    shape = a + 0.5 * graph.n_regions
    rate = b + 0.5 * car_pairwise_sum(graph, phi)
    return shape, rate


def _omega_posterior_params(alpha, rho: float):
    """(shape, scale) of the inverse-gamma full conditional of omega.

    Derived from the stationary-start AR(1) density and the omega^{-1}
    prior: shape T/2 and scale half the stationary-weighted residual sum.
    """
    start, resid = _ar1_sums(alpha, rho)
    return 0.5 * len(alpha), 0.5 * (start + resid)


def _adapt_scales(scales, accepted, proposed, target):
    """Rescale proposal standard deviations from windowed acceptance rates.

    Below the band multiplies by 0.8; above it by 1.25; inside leaves the
    scale alone. Returns the updated array (in place).
    """
    lo, hi = target
    with np.errstate(invalid="ignore"):
        rate = np.where(proposed > 0, accepted / np.maximum(proposed, 1), np.nan)
    scales[rate < lo] *= SHRINK_FACTOR
    scales[rate > hi] *= GROW_FACTOR
    return scales


# ---------------------------------------------------------------------------
# the chain runner


class _Block:
    """One Metropolis block's proposal scales and counters, entry by entry.

    ``nonfinite`` counts the proposals whose log ratio was NaN or +inf.
    """

    def __init__(self, size):
        self.scales = np.full(size, 0.1)
        self.accepted = np.zeros(size)
        self.proposed = np.zeros(size)
        self.nonfinite = 0


class _ChainRunner:
    def __init__(self, dataset, graph, spec, config):
        self.ctx = _FitContext(dataset, graph, spec)
        data = self.ctx.dataset
        k = data.n_covariates
        if data.covariate_rank() < k:
            raise ValueError(
                "covariate matrix is rank deficient; drop redundant columns"
            )
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        st = ChainState(beta=np.zeros(k), phi=np.zeros(data.n_regions), tau=1.0)
        self.blocks = {"phi": _Block(data.n_regions), "beta": _Block(k)}
        if spec.is_dynamic:
            st.alpha, st.rho, st.omega = np.zeros(data.n_times), 0.5, 0.1
            self.blocks.update(alpha=_Block(data.n_times), rho=_Block(1))
        self.state = st
        # the current state's x @ beta and per-cell likelihood terms, carried
        # through the sweep so each Metropolis block evaluates only its proposals
        self.xb = self.ctx.xb(st.beta)
        self.terms = self.ctx.terms(self.xb, st.phi, st.alpha)

    # -- individual updates -------------------------------------------------

    def _accept(self, block, i, delta, log_u) -> bool:
        """Metropolis test of entry ``i`` of ``block`` at log ratio ``delta``.

        A NaN or +inf ratio is a rejection, counted as non-finite. ``log_u``
        is the log of the test's uniform. Proposals and acceptances are counted.
        """
        if not delta < np.inf:
            block.nonfinite += 1
            delta = -np.inf
        accept = log_u < delta
        block.proposed[i] += 1
        block.accepted[i] += accept
        return accept

    def _update_field(self, name, classes, loglik_diffs, log_ratio):
        """One coloured Gauss-Markov update of the field ``name`` (phi or alpha).

        An entry's terms depend only on its own value, so one ``loglik_diffs``
        call serves every class. Returns the accepted mask and the proposal's terms.
        """
        st, block = self.state, self.blocks[name]
        cur = getattr(st, name)
        # class by class, its normals then its uniforms: this order fixes the draws
        z, log_u = np.empty(cur.size), []
        for idx in classes:
            z[idx] = self.rng.standard_normal(idx.size)
            log_u.append(np.log(self.rng.random(idx.size)))
        prop = cur + block.scales * z
        d_lik, prop_terms = loglik_diffs(self.ctx, st, prop, self.xb, self.terms)
        moved = np.zeros(cur.size, dtype=bool)
        for k, idx in enumerate(classes):
            cur_k, prop_k = cur[idx], prop[idx]
            delta = log_ratio(self.ctx, st, k, prop_k, d_lik[idx])
            # as in _accept: NaN and +inf reject and are counted, one uniform each
            finite = np.less(delta, np.inf)
            block.nonfinite += finite.size - int(np.count_nonzero(finite))
            accept = (log_u[k] < delta) & finite
            cur[idx] = np.where(accept, prop_k, cur_k)
            moved[idx] = accept
        block.accepted += moved
        block.proposed += 1  # the colour classes partition the entries
        return moved, prop_terms

    def update_phi_block(self):
        moved, prop_terms = self._update_field("phi", self.ctx.colors,
                                               _phi_loglik_diffs, _phi_log_ratio)
        # the accepted regions' terms, whole rows of a panel
        keep = moved if self.terms.ndim == 1 else moved[:, None]
        self.terms = np.where(keep, prop_terms, self.terms)

    def update_beta(self):
        st, ctx, block = self.state, self.ctx, self.blocks["beta"]
        cur_ll = float(self.terms.sum())
        for j in range(st.beta.size):
            prop = st.beta.copy()
            prop[j] += block.scales[j] * self.rng.standard_normal()
            delta, carry = _beta_log_ratio(ctx, st, prop, cur_ll)
            if self._accept(block, j, delta, np.log(self.rng.random())):
                st.beta, (self.xb, self.terms, cur_ll) = prop, carry

    def update_tau(self):
        st = self.state
        a, b = self.ctx.spec.tau_prior
        shape, rate = tau_posterior_params(self.ctx.graph, st.phi, a, b)
        st.tau = float(self.rng.gamma(shape, 1.0 / rate))

    def update_alpha(self):
        moved, prop_terms = self._update_field("alpha", self.ctx.year_colors,
                                               _alpha_loglik_diffs, _alpha_log_ratio)
        self.terms = np.where(moved, prop_terms, self.terms)  # whole columns

    def update_rho(self):
        st = self.state
        block = self.blocks["rho"]
        prop = st.rho + block.scales[0] * self.rng.standard_normal()
        if not -1.0 < prop < 1.0:
            block.proposed[0] += 1
            return  # proposals outside the stationarity region draw no uniform
        if self._accept(block, 0, _rho_log_ratio(st, prop), np.log(self.rng.random())):
            st.rho = float(prop)

    def update_omega(self):
        st = self.state
        shape, scale = _omega_posterior_params(st.alpha, st.rho)
        if scale <= 0.0:
            return  # all temporal effects still exactly zero; keep omega
        g = self.rng.gamma(shape, 1.0 / scale)
        if g > 0:
            st.omega = float(1.0 / g)

    def sweep(self):
        self.update_phi_block()
        self.update_beta()
        self.update_tau()
        if self.ctx.spec.is_dynamic:
            self.update_alpha()
            self.update_rho()
            self.update_omega()

    def run(self) -> PosteriorSamples:
        cfg = self.config
        st = self.state
        blocks = self.blocks

        # burn-in: rescale the proposals after every window, then count afresh
        for it in range(1, cfg.burn_in + 1):
            self.sweep()
            if it % cfg.adapt_window == 0:
                for b in blocks.values():
                    _adapt_scales(b.scales, b.accepted, b.proposed,
                                  cfg.target_acceptance)
                    b.accepted[:] = b.proposed[:] = 0
        # the kernel is frozen from here on; the reported rates count these
        # sweeps only, not the tail of a partial last window
        for b in blocks.values():
            b.accepted[:] = b.proposed[:] = 0

        # one (draw, ...) array per parameter the state holds
        out = {name: None if getattr(st, name) is None
               else np.empty((cfg.n_draws, *np.shape(getattr(st, name))))
               for name in _PARAMS}
        kept = [name for name in _PARAMS if out[name] is not None]
        for it in range(1, cfg.n_iterations - cfg.burn_in + 1):
            self.sweep()
            if it % cfg.thin:
                continue
            if not (
                np.isfinite(st.phi).all()
                and np.isfinite(st.beta).all()
                and np.isfinite(st.tau)
            ):
                raise RuntimeError(
                    f"non-finite chain state at iteration {cfg.burn_in + it}; "
                    f"beta={st.beta!r} tau={st.tau!r}"
                )
            d = it // cfg.thin - 1
            for name in kept:
                out[name][d] = getattr(st, name)
            # center the draw's phi, folding its mean into the intercept
            shift = np.add.reduce(st.phi) / st.phi.size
            out["phi"][d] -= shift
            out["beta"][d, self.ctx.intercept] += shift

        for name, b in blocks.items():
            if b.nonfinite:
                logger.warning(
                    "%d non-finite Metropolis target(s) in block %r; "
                    "those proposals were rejected", b.nonfinite, name,
                )
        return PosteriorSamples(
            spec=self.ctx.spec,
            config=cfg,
            region_ids=self.ctx.dataset.region_ids,
            times=self.ctx.dataset.times,
            acceptance={name: b.accepted / np.where(b.proposed > 0, b.proposed, np.nan)
                        for name, b in blocks.items()},
            proposal_scales={name: b.scales.copy() for name, b in blocks.items()},
            n_nonfinite_events=sum(b.nonfinite for b in blocks.values()),
            **out,
        )


def run_chain(dataset: Dataset, graph: AdjacencyGraph, spec: ModelSpec,
              config: SamplerConfig) -> PosteriorSamples:
    """Fit one model by MCMC and return thinned post-burn-in draws.

    Deterministic given (dataset, graph, spec, config): identical inputs
    and seed produce identical draws. For the IS family the expected counts
    are the internal standardization of ``dataset``, per slice for a panel.
    """
    return _ChainRunner(dataset, graph, spec, config).run()


# ---------------------------------------------------------------------------
# worker processes


_forked = None  # in a worker: the (fn, items) of the _fork_map call that forked it


def _fork_map(fn, items, workers=None) -> list:
    """``[fn(item) for item in items]`` over a sequence, in forked worker processes.

    ``workers`` (default: the usable CPUs) is capped at one per item; with fewer
    than two the items run here. Workers are always forked, so ``fn`` and ``items``
    reach them unpickled and see every module as the caller left it. A worker's
    exception, or ``BrokenProcessPool`` if one died, is raised once all are reaped.
    """
    n = min(_usable_cpus() if workers is None else workers, len(items))
    if n < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(n, mp_context=get_context("fork"),
                             initializer=_set_forked, initargs=(fn, items)) as pool:
        return list(pool.map(_call_forked, range(len(items))))


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _set_forked(fn, items) -> None:
    global _forked
    _forked = fn, items


def _call_forked(i):
    fn, items = _forked
    return fn(items[i])


# ---------------------------------------------------------------------------
# artifact writers


def write_draws_csv(samples: PosteriorSamples, path) -> None:
    """Dump all retained draws as ``draw,parameter,value`` rows.

    With more than one usable CPU, ``_fork_map`` formats one contiguous range of
    draws per CPU into an unnamed temporary file in the same directory, and the
    caller appends the files in order: the bytes do not depend on the CPU count.
    Rows are written one ``%`` template per draw, not through ``_write_csv``,
    whose one template per row would slow the writer on a 10^4-region fit.
    """
    labels = {"beta": range(samples.beta.shape[1]), "phi": samples.region_ids,
              "alpha": samples.times}
    cols, heads = [], []
    for name in _PARAMS:
        draws = getattr(samples, name)
        if draws is not None:
            cols.append(draws if draws.ndim == 2 else draws[:, None])
            heads += ([f"{name}[{i}]" for i in labels[name]] if name in labels
                      else [name])
    # a draw's rows are str(draw).join(lead) % values; %r of a float is its
    # shortest round-trip repr
    lead = ["", *("," + _csv_field(h).replace("%", "%%") + ",%r\n" for h in heads)]
    n_draws = samples.n_draws
    n_parts = max(1, min(_usable_cpus(), n_draws))
    parts = []

    def write_part(k):
        with open(parts[k].fileno(), "w", newline="", encoding="utf-8",
                  closefd=False) as fh:
            _write_draw_rows(fh, cols, lead, n_draws * k // n_parts,
                             n_draws * (k + 1) // n_parts)

    try:
        if n_parts > 1:
            for _ in range(n_parts):
                parts.append(tempfile.TemporaryFile(dir=Path(path).parent))
            _fork_map(write_part, range(n_parts))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("draw,parameter,value\n")
            if not parts:
                _write_draw_rows(fh, cols, lead, 0, n_draws)
            fh.flush()
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
    finally:
        for part in parts:
            part.close()


def _write_draw_rows(fh, cols, lead, lo, hi) -> None:
    """Write the rows of draws ``lo`` to ``hi - 1``, one write per draw."""
    for d in range(lo, hi):
        row = np.concatenate([c[d] for c in cols]).tolist()
        fh.write(str(d).join(lead) % tuple(row))


def write_metadata_json(samples: PosteriorSamples, path) -> None:
    """Write acceptance rates, final proposal scales, and config as JSON."""
    meta = {
        "family": samples.spec.family,
        "link": samples.spec.link,
        "temporal": samples.spec.temporal,
        "tau_prior": list(samples.spec.tau_prior),
        "n_draws": samples.n_draws,
        "n_iterations": samples.config.n_iterations,
        "burn_in": samples.config.burn_in,
        "thin": samples.config.thin,
        "seed": samples.config.seed,
        "acceptance_rates": {
            k: [float(v) for v in arr] for k, arr in samples.acceptance.items()
        },
        "proposal_scales": {
            k: [float(v) for v in arr] for k, arr in samples.proposal_scales.items()
        },
        "n_nonfinite_events": samples.n_nonfinite_events,
    }
    with open(path, "w") as fh:
        _write_json(meta, fh)
