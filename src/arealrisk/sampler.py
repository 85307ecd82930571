"""Metropolis-within-Gibbs sampling for the IS and CG families.

One sweep updates, in order: every spatial effect (univariate random-walk
Metropolis, grouped by graph coloring so non-adjacent regions move
together), the regression coefficients (componentwise random walk with a
flat prior), the CAR precision (exact conjugate Gamma draw), and, for
dynamic fits, each temporal effect, the AR(1) coefficient, and the
innovation variance (exact inverse-gamma draw). Spatial effects are
recentered to sum to zero after each sweep, with the mean folded into the
intercept so the likelihood is untouched. The chain carries the per-cell
likelihood terms of its current state, so each Metropolis step evaluates
the likelihood only at its proposal.

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
    _eta,
    _poisson_terms,
    _write_json,
    internal_standardization,
)

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "run_chain",
    "ar1_log_prior",
    "tau_posterior_params",
    "omega_posterior_params",
    "adapt_scales",
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
        self.dataset = dataset
        self.graph = graph
        self.spec = spec
        self.y = dataset.y
        self.x = dataset.x
        # the Poisson kernel's log-mean offset: log E (IS) or log n (CG)
        self.offset = np.log(internal_standardization(dataset)
                             if spec.family == "is" else dataset.n)
        self.colors = graph.coloring()
        # per class: its regions' counts and offsets, gathered once
        self.color_data = [(self.y.take(idx, axis=0), self.offset.take(idx, axis=0))
                           for idx in self.colors]
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
        self.intercept = dataset.intercept_column

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

    def region_loglik(self, k, phi_vals, xb, alpha=None):
        """Likelihood terms of colour class ``k``'s regions at effects ``phi_vals``.

        Rows of ``xb`` are gathered with ``take``, which on panel arrays costs
        about a third of the equivalent fancy index.
        """
        y, offset = self.color_data[k]
        eta = _eta(xb.take(self.colors[k], axis=0), phi_vals, alpha)
        terms = _poisson_terms(y, offset, eta, self.spec)
        return terms.sum(axis=1) if self.dataset.is_dynamic else terms

    def slice_terms(self, t, beta_xb, phi, alpha_t):
        """Per-region likelihood terms of time slice ``t`` (dynamic only)."""
        eta = _eta(beta_xb[:, t], phi, alpha_t)
        return _poisson_terms(self.y[:, t], self.offset[:, t], eta, self.spec)


def ar1_log_prior(alpha, rho, omega) -> float:
    """Log density of the AR(1) temporal effects given (rho, omega).

    The first effect gets the stationary N(0, omega/(1-rho^2)) distribution;
    later effects follow alpha_t = rho * alpha_{t-1} + N(0, omega).
    """
    alpha = np.asarray(alpha, dtype=float)
    if not -1.0 < rho < 1.0:
        return -np.inf
    if omega <= 0:
        return -np.inf
    T = alpha.size
    resid = alpha[1:] - rho * alpha[:-1]
    out = -0.5 * np.log(2.0 * np.pi * omega / (1.0 - rho**2))
    out -= (1.0 - rho**2) * alpha[0] ** 2 / (2.0 * omega)
    out += -0.5 * (T - 1) * np.log(2.0 * np.pi * omega)
    out -= float(resid @ resid) / (2.0 * omega)
    return float(out)


def _ar1_conditional(alpha, t, value, rho, omega) -> float:
    """The AR(1) prior terms of alpha_t's full conditional at alpha_t = ``value``.

    The terms of the stationary-start AR(1) density that involve alpha_t:
    its own transition (or stationary start, at t = 0) and the next one.
    """
    out = 0.0
    if t == 0:
        out -= (1.0 - rho**2) * value**2 / (2.0 * omega)
    else:
        out -= (value - rho * alpha[t - 1]) ** 2 / (2.0 * omega)
    if t + 1 < alpha.size:
        out -= (alpha[t + 1] - rho * value) ** 2 / (2.0 * omega)
    return out


def _phi_log_ratio(ctx, st, k, prop, xb, terms):
    """Log acceptance ratios of colour class ``k``'s phi moving to ``prop``.

    One entry per region of the class: its CAR conditional difference plus
    its likelihood difference, the current side read from the carried
    per-cell ``terms`` of the state ``st`` (whose x @ beta is ``xb``).
    """
    idx, deg = ctx.colors[k], ctx.color_deg[k]
    cur = st.phi[idx]
    nbr_mean = ctx.neighbor_sums(k, st.phi) / deg
    d_prior = -0.5 * st.tau * deg * ((prop - nbr_mean) ** 2 - (cur - nbr_mean) ** 2)
    cur_lik = terms.take(idx, axis=0)
    if ctx.dataset.is_dynamic:
        cur_lik = cur_lik.sum(axis=1)
    d_lik = ctx.region_loglik(k, prop, xb, st.alpha) - cur_lik
    return d_prior + d_lik


def _beta_log_ratio(ctx, st, prop, cur_ll):
    """Log acceptance ratio of the coefficients moving to ``prop`` (flat prior).

    ``cur_ll`` is the state's summed likelihood terms. Also returns the
    proposal's (x @ beta, per-cell terms, summed terms), carried on acceptance.
    """
    prop_xb = ctx.xb(prop)
    prop_terms = ctx.terms(prop_xb, st.phi, st.alpha)
    prop_ll = float(prop_terms.sum())
    return prop_ll - cur_ll, (prop_xb, prop_terms, prop_ll)


def _alpha_log_ratio(ctx, st, t, prop, xb, terms):
    """Log acceptance ratio of alpha_t moving to ``prop``, and slice t's new terms.

    AR(1) terms involving alpha_t plus the likelihood of slice t, the
    current side read from the carried per-cell ``terms``.
    """
    d_prior = (_ar1_conditional(st.alpha, t, prop, st.rho, st.omega)
               - _ar1_conditional(st.alpha, t, st.alpha[t], st.rho, st.omega))
    prop_terms = ctx.slice_terms(t, xb, st.phi, prop)
    d_lik = float(prop_terms.sum()) - float(terms[:, t].sum())
    return d_prior + d_lik, prop_terms


def _rho_log_ratio(st, prop):
    """Log acceptance ratio of rho moving to ``prop`` (flat prior on (-1, 1))."""
    return ar1_log_prior(st.alpha, prop, st.omega) - ar1_log_prior(
        st.alpha, st.rho, st.omega
    )


def tau_posterior_params(graph: AdjacencyGraph, phi, a: float, b: float):
    """(shape, rate) of the exact Gamma full conditional of the CAR precision."""
    shape = a + 0.5 * graph.n_regions
    rate = b + 0.5 * car_pairwise_sum(graph, phi)
    return shape, rate


def omega_posterior_params(alpha, rho: float):
    """(shape, scale) of the inverse-gamma full conditional of omega.

    Derived from the stationary-start AR(1) density and the omega^{-1}
    prior: shape T/2 and scale half the stationary-weighted residual sum.
    """
    alpha = np.asarray(alpha, dtype=float)
    T = alpha.size
    resid = alpha[1:] - rho * alpha[:-1]
    q = (1.0 - rho**2) * alpha[0] ** 2 + float(resid @ resid)
    return 0.5 * T, 0.5 * q


def adapt_scales(scales, accepted, proposed, target):
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
        # through the sweep so each Metropolis step evaluates only its proposal
        self.xb = self.ctx.xb(st.beta)
        self.terms = self.ctx.terms(self.xb, st.phi, st.alpha)

    # -- individual updates -------------------------------------------------

    def _accept(self, block, i, delta) -> bool:
        """Metropolis test of entry ``i`` of ``block`` at log ratio ``delta``.

        A NaN or +inf ratio is a rejection, counted as non-finite. Every test
        draws one uniform; the proposal, and any acceptance, are counted.
        """
        if not delta < np.inf:
            block.nonfinite += 1
            delta = -np.inf
        accept = np.log(self.rng.random()) < delta
        block.proposed[i] += 1
        block.accepted[i] += accept
        return accept

    def update_phi_block(self):
        st = self.state
        ctx = self.ctx
        block = self.blocks["phi"]
        # The cache is read, never written, here. A region's terms depend only
        # on its own phi and each region is in one class, so the reads stay
        # valid through the block; the recentering below leaves the cache
        # stale until update_beta rebuilds it.
        for k, idx in enumerate(ctx.colors):
            cur = st.phi[idx]
            prop = cur + block.scales[idx] * self.rng.standard_normal(idx.size)
            delta = _phi_log_ratio(ctx, st, k, prop, self.xb, self.terms)
            # as in _accept: NaN and +inf reject and are counted, one uniform each
            finite = delta < np.inf
            block.nonfinite += finite.size - int(np.count_nonzero(finite))
            accept = (np.log(self.rng.random(idx.size)) < delta) & finite
            st.phi[idx] = np.where(accept, prop, cur)
            block.accepted[idx] += accept
        block.proposed += 1  # the colour classes partition the regions
        # recenter: fold the mean into the intercept (likelihood invariant)
        shift = st.phi.mean()
        st.phi -= shift
        if ctx.intercept is not None:
            st.beta[ctx.intercept] += shift

    def update_beta(self):
        st = self.state
        ctx = self.ctx
        block = self.blocks["beta"]
        xb = ctx.xb(st.beta)
        terms = ctx.terms(xb, st.phi, st.alpha)
        cur_ll = float(terms.sum())
        for j in range(st.beta.size):
            prop = st.beta.copy()
            prop[j] += block.scales[j] * self.rng.standard_normal()
            delta, carry = _beta_log_ratio(ctx, st, prop, cur_ll)
            if self._accept(block, j, delta):
                st.beta, (xb, terms, cur_ll) = prop, carry
        self.xb = xb
        self.terms = terms

    def update_tau(self):
        st = self.state
        a, b = self.ctx.spec.tau_prior
        shape, rate = tau_posterior_params(self.ctx.graph, st.phi, a, b)
        st.tau = float(self.rng.gamma(shape, 1.0 / rate))

    def update_alpha(self):
        st = self.state
        terms = self.terms
        block = self.blocks["alpha"]
        for t in range(st.alpha.size):
            prop = st.alpha[t] + block.scales[t] * self.rng.standard_normal()
            delta, prop_terms = _alpha_log_ratio(self.ctx, st, t, prop, self.xb, terms)
            if self._accept(block, t, delta):
                st.alpha[t] = prop
                terms[:, t] = prop_terms

    def update_rho(self):
        st = self.state
        block = self.blocks["rho"]
        prop = st.rho + block.scales[0] * self.rng.standard_normal()
        if not -1.0 < prop < 1.0:
            block.proposed[0] += 1
            return  # proposals outside the stationarity region draw no uniform
        if self._accept(block, 0, _rho_log_ratio(st, prop)):
            st.rho = float(prop)

    def update_omega(self):
        st = self.state
        shape, scale = omega_posterior_params(st.alpha, st.rho)
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
                    adapt_scales(b.scales, b.accepted, b.proposed, cfg.target_acceptance)
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
# artifact writers


def write_draws_csv(samples: PosteriorSamples, path) -> None:
    """Dump all retained draws as ``draw,parameter,value`` rows.

    The draws are split into contiguous ranges, one per usable CPU. The
    caller formats the first range straight into ``path``; a forked child
    formats each other range into an unnamed temporary file in the same
    directory, and the caller appends those files in order. The bytes are
    the same whatever the number of CPUs. A failed child raises
    ``RuntimeError`` once every child has been joined.
    """
    labels = {"beta": range(samples.beta.shape[1]), "phi": samples.region_ids,
              "alpha": samples.times}
    cols, heads = [], []
    for name in _PARAMS:
        draws = getattr(samples, name)
        if draws is not None:
            cols.append(draws if draws.ndim == 2 else draws[:, None])
            heads += ([f",{name}[{i}]," for i in labels[name]] if name in labels
                      else [f",{name},"])
    # a draw's rows are str(draw).join(lead) % values; %r of a float is _fmt
    lead = ["", *(h.replace("%", "%%") + "%r\n" for h in heads)]
    n_draws = samples.n_draws
    n_parts = max(1, min(len(os.sched_getaffinity(0)), n_draws))
    ranges = [(n_draws * k // n_parts, n_draws * (k + 1) // n_parts)
              for k in range(n_parts)]
    parts, pids = [], []
    try:
        for lo, hi in ranges[1:]:
            parts.append(tempfile.TemporaryFile(dir=Path(path).parent))
            pids.append(_fork_draw_rows(parts[-1], cols, lead, lo, hi))
        with open(path, "w", newline="") as fh:
            fh.write("draw,parameter,value\n")
            _write_draw_rows(fh, cols, lead, *ranges[0])
            for (lo, hi), code in zip(ranges[1:], _join(pids)):
                if code:
                    raise RuntimeError(f"formatting draws {lo}..{hi - 1} failed: "
                                       f"child exited with status {code}")
            fh.flush()
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
    finally:
        _join(pids)
        for part in parts:
            part.close()


def _write_draw_rows(fh, cols, lead, lo, hi) -> None:
    """Write the rows of draws ``lo`` to ``hi - 1``, one write per draw."""
    for d in range(lo, hi):
        row = np.concatenate([c[d] for c in cols]).tolist()
        fh.write(str(d).join(lead) % tuple(row))


def _fork_draw_rows(part, cols, lead, lo, hi) -> int:
    """Fork a child that writes draws ``lo`` to ``hi - 1`` into ``part``.

    The child sees the draws through fork, not pickling, and leaves by
    ``os._exit``, so none of the caller's cleanup or exit handlers run there.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with open(part.fileno(), "w", newline="", closefd=False) as fh:
            _write_draw_rows(fh, cols, lead, lo, hi)
        status = 0
    finally:
        os._exit(status)


def _join(pids) -> list:
    """Wait for every child in ``pids``, emptying it; their exit codes in order."""
    codes = []
    while pids:
        codes.append(os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1]))
        pids.pop(0)
    return codes


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
