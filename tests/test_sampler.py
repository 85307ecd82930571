import ast
import dataclasses
import logging
import os
import pickle
import re
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy.stats import gamma, invgamma, norm

from arealrisk import sampler
from arealrisk.graph import AdjacencyGraph, car_pairwise_sum
from arealrisk.model import (
    Dataset,
    ModelSpec,
    _eta,
    _poisson_terms,
    internal_standardization,
    log_likelihood_cg,
    log_likelihood_is,
)
from arealrisk.sampler import (
    ChainState,
    SamplerConfig,
    _adapt_scales,
    _alpha_log_ratio,
    _alpha_loglik_diffs,
    _ar1_log_prior,
    _beta_log_ratio,
    _ChainRunner,
    _FitContext,
    _omega_posterior_params,
    _phi_log_ratio,
    _phi_loglik_diffs,
    _rho_log_ratio,
    run_chain,
    tau_posterior_params,
)
from arealrisk.simstudy import lattice_graph
from tests.test_estimators import csv_field


def small_graph():
    # 4-cycle with a chord
    return AdjacencyGraph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def random_static_problem(rng, I=4):
    edges = [(i, i + 1) for i in range(I - 1)]
    graph = AdjacencyGraph([f"g{i}" for i in range(I)], edges)
    y = rng.integers(0, 21, size=I)
    n = rng.uniform(20.0, 300.0, size=I)
    x = np.column_stack([np.ones(I), rng.normal(size=I)])
    data = Dataset(graph.region_ids, y, n, x)
    return graph, data


def random_panel_problem(rng, I=4, T=4):
    edges = [(i, i + 1) for i in range(I - 1)]
    graph = AdjacencyGraph([f"g{i}" for i in range(I)], edges)
    y = rng.integers(0, 21, size=(I, T))
    n = rng.uniform(20.0, 300.0, size=(I, T))
    x = np.ones((I, T, 1))
    data = Dataset(graph.region_ids, y, n, x, times=tuple(range(T)))
    return graph, data


def random_state(rng, I, k, T=None):
    state = {
        "beta": rng.normal(scale=0.7, size=k),
        "phi": rng.normal(scale=0.7, size=I),
        "tau": float(rng.uniform(0.2, 3.0)),
    }
    if T is not None:
        state["alpha"] = rng.normal(scale=0.5, size=T)
        state["rho"] = float(rng.uniform(-0.9, 0.9))
        state["omega"] = float(rng.uniform(0.05, 1.0))
    return ChainState(**state)


SPECS_STATIC = [
    ModelSpec("cg", link="logit"),
    ModelSpec("cg", link="cloglog"),
    ModelSpec("cg", link="skewed_logit", c0=0.004),
    ModelSpec("is"),
]


def car_log_kernel(graph: AdjacencyGraph, phi: np.ndarray, tau: float) -> float:
    """Log of the unnormalized CAR density: (I/2) log(tau) - (tau/2) S(phi)."""
    tau = float(tau)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return 0.5 * graph.n_regions * np.log(tau) - 0.5 * tau * car_pairwise_sum(
        graph, phi
    )


def joint_log_posterior(dataset, graph, spec, beta, phi, tau,
                        alpha=None, rho=None, omega=None) -> float:
    """Log joint posterior up to a constant: the reference for every block's ratio.

    Built apart from the sweep: the criterion-1-checked likelihood, the CAR
    kernel, a Gamma(a, b) prior on tau and a flat prior on beta; dynamic fits
    add the stationary-start AR(1) density of alpha from ``scipy.stats.norm``,
    a flat prior on rho over (-1, 1) and the omega^{-1} prior.
    """
    if spec.family == "cg":
        out = log_likelihood_cg(dataset, beta, phi, spec.link, spec.c0, alpha)
    else:
        E = internal_standardization(dataset)
        out = log_likelihood_is(dataset, E, beta, phi, alpha)
    a, b = spec.tau_prior
    out += car_log_kernel(graph, phi, tau) + gamma.logpdf(tau, a, scale=1.0 / b)
    if spec.is_dynamic:
        if not -1.0 < rho < 1.0:
            return -np.inf
        sd = np.sqrt(omega)
        out += norm.logpdf(alpha[0], scale=sd / np.sqrt(1.0 - rho**2))
        out += norm.logpdf(alpha[1:], loc=rho * alpha[:-1], scale=sd).sum()
        out -= np.log(omega)
    return float(out)


def carried(ctx, st):
    """The x @ beta and per-cell likelihood terms a chain at ``st`` carries."""
    xb = ctx.xb(st.beta)
    return xb, ctx.terms(xb, st.phi, st.alpha)


def joint_at(ctx, st, **moved):
    """The reference joint at ``st`` with the fields in ``moved`` replaced."""
    s = dataclasses.replace(st, **moved)
    return joint_log_posterior(ctx.dataset, ctx.graph, ctx.spec, s.beta, s.phi,
                               s.tau, s.alpha, s.rho, s.omega)


def phi_ratio(ctx, st, k, prop):
    """The sweep's log ratios of colour class ``k`` moving to ``prop``.

    The block's one kernel call sees every region: class ``k``'s at ``prop``,
    the others at their current values.
    """
    idx = ctx.colors[k]
    every = st.phi.copy()
    every[idx] = prop
    d_lik, _ = _phi_loglik_diffs(ctx, st, every, *carried(ctx, st))
    return _phi_log_ratio(ctx, st, k, prop, d_lik[idx])


def alpha_ratio(ctx, st, t, value):
    """The sweep's log ratio of alpha_t moving to ``value``, from the block's one
    kernel call with every other year at its current value, as one entry of
    its year class's ratios."""
    k = next(k for k, idx in enumerate(ctx.year_colors) if t in idx)
    idx = ctx.year_colors[k]
    prop = st.alpha.copy()
    prop[t] = value
    d_lik, _ = _alpha_loglik_diffs(ctx, st, prop, *carried(ctx, st))
    return _alpha_log_ratio(ctx, st, k, prop[idx], d_lik[idx])[idx == t][0]


# Each check returns (the sweep's log ratio, the joint's difference) for one
# block moving from the state ``st`` to a proposal.


def phi_check(ctx, st, k, prop):
    """Colour class ``k`` moving to ``prop``, the joint moved one region at a time."""
    ratio = phi_ratio(ctx, st, k, prop)
    base = joint_at(ctx, st)
    diffs = []
    for i, value in zip(ctx.colors[k], prop):
        phi = st.phi.copy()
        phi[i] = value
        diffs.append(joint_at(ctx, st, phi=phi) - base)
    return ratio, np.array(diffs)


def beta_check(ctx, st, prop):
    cur_ll = float(carried(ctx, st)[1].sum())
    ratio, _ = _beta_log_ratio(ctx, st, prop, cur_ll)
    return ratio, joint_at(ctx, st, beta=prop) - joint_at(ctx, st)


def alpha_check(ctx, st, t, value):
    ratio = alpha_ratio(ctx, st, t, value)
    alpha = st.alpha.copy()
    alpha[t] = value
    return ratio, joint_at(ctx, st, alpha=alpha) - joint_at(ctx, st)


def rho_check(ctx, st, value):
    return _rho_log_ratio(st, value), joint_at(ctx, st, rho=value) - joint_at(ctx, st)


class TestFullConditionalConsistency:
    """The log ratio the sweep computes for each Metropolis block must equal
    the reference joint's difference with everything else held fixed."""

    @pytest.mark.parametrize("spec", SPECS_STATIC, ids=lambda s: f"{s.family}-{s.link}")
    def test_phi_static(self, spec):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            graph, data = random_static_problem(rng)
            ctx = _FitContext(data, graph, spec)
            st = random_state(rng, 4, 2)
            for k, idx in enumerate(ctx.colors):
                prop = rng.normal(scale=0.8, size=idx.size)
                ratio, diff = phi_check(ctx, st, k, prop)
                assert ratio == pytest.approx(diff, abs=1e-9)

    @pytest.mark.parametrize("spec", SPECS_STATIC, ids=lambda s: f"{s.family}-{s.link}")
    def test_beta_static(self, spec):
        rng = np.random.default_rng(4048)
        for _ in range(25):
            graph, data = random_static_problem(rng)
            ctx = _FitContext(data, graph, spec)
            st = random_state(rng, 4, 2)
            prop = st.beta.copy()
            prop[int(rng.integers(0, 2))] += rng.normal()
            ratio, diff = beta_check(ctx, st, prop)
            assert ratio == pytest.approx(diff, abs=1e-9)

    @pytest.mark.parametrize("family", ["cg", "is"])
    def test_alpha_dynamic(self, family):
        rng = np.random.default_rng(808)
        spec = ModelSpec(family, link="logit" if family == "cg" else None,
                         temporal="dynamic_ar1")
        for _ in range(25):
            graph, data = random_panel_problem(rng)
            ctx = _FitContext(data, graph, spec)
            st = random_state(rng, 4, 1, T=4)
            t = int(rng.integers(0, 4))
            ratio, diff = alpha_check(ctx, st, t, rng.normal(scale=0.6))
            assert ratio == pytest.approx(diff, abs=1e-9)

    def test_phi_dynamic(self):
        rng = np.random.default_rng(99)
        spec = ModelSpec("cg", link="logit", temporal="dynamic_ar1")
        for _ in range(15):
            graph, data = random_panel_problem(rng)
            ctx = _FitContext(data, graph, spec)
            st = random_state(rng, 4, 1, T=4)
            for k, idx in enumerate(ctx.colors):
                prop = rng.normal(scale=0.8, size=idx.size)
                ratio, diff = phi_check(ctx, st, k, prop)
                assert ratio == pytest.approx(diff, abs=1e-9)

    def test_rho_dynamic(self):
        rng = np.random.default_rng(1212)
        spec = ModelSpec("cg", link="logit", temporal="dynamic_ar1")
        for _ in range(25):
            graph, data = random_panel_problem(rng)
            ctx = _FitContext(data, graph, spec)
            st = random_state(rng, 4, 1, T=4)
            ratio, diff = rho_check(ctx, st, rng.uniform(-0.95, 0.95))
            assert ratio == pytest.approx(diff, abs=1e-9)

    def test_rho_outside_unit_interval_rejected(self):
        graph, data = covariate_problem(np.random.default_rng(13), k=1, T=4)
        spec = ModelSpec("cg", temporal="dynamic_ar1")
        runner = _ChainRunner(data, graph, spec, quick_config())
        st = runner.state
        for prop in (1.0, -1.3):
            assert _rho_log_ratio(st, prop) == -np.inf

        class OutOfRange:  # proposes rho = 0.5 + 0.1 * 6 = 1.1
            def standard_normal(self):
                return 6.0

            def random(self):
                raise AssertionError("a proposal outside (-1, 1) drew a uniform")

        runner.rng = OutOfRange()
        runner.update_rho()
        assert st.rho == 0.5
        assert runner.blocks["rho"].accepted[0] == 0
        assert runner.blocks["rho"].proposed[0] == 1

    def test_huge_tau_pins_phi_to_neighbor_mean(self):
        rng = np.random.default_rng(5)
        graph, data = random_static_problem(rng)
        ctx = _FitContext(data, graph, ModelSpec("cg"))
        st = random_state(rng, 4, 2)
        st.tau = 1e9
        st.phi[1] = float(np.mean(st.phi[graph.neighbors(1)]))
        k = next(k for k, idx in enumerate(ctx.colors) if 1 in idx)
        prop = st.phi[ctx.colors[k]]
        at_one = ctx.colors[k] == 1
        prop[at_one] += 0.1
        away = phi_ratio(ctx, st, k, prop)[at_one][0]
        assert away < -1e5


class TestLevelInvariance:
    """Moving the state to (beta0 - c, phi + c) leaves x'beta + phi and every
    difference of phi as they were, so the CAR kernel and every block's log
    ratio are unchanged to rounding: no block depends on phi's level."""

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), spec=hst.sampled_from(SPECS_STATIC),
           T=hst.sampled_from([None, 3]), I=hst.integers(2, 12),
           c=hst.floats(-20.0, 20.0))
    def test_shifting_phi_into_the_intercept_moves_no_ratio(self, seed, spec, T,
                                                            I, c):
        rng = np.random.default_rng(seed)
        # a random spanning tree plus random chords, so no region is isolated
        edges = [(i, int(rng.integers(0, i))) for i in range(1, I)]
        edges += [(i, j) for i, j in rng.integers(0, I, size=(I, 2)) if i != j]
        graph = AdjacencyGraph([f"g{i}" for i in range(I)], edges)
        shape = (I,) if T is None else (I, T)
        x = np.ones(shape + (2,))
        x[..., 1] = rng.normal(size=shape)
        y = rng.integers(0, 21, size=shape)
        y[0] += 1  # no slice is all zero, which an IS fit rejects
        data = Dataset(graph.region_ids, y, rng.uniform(20.0, 300.0, size=shape), x,
                       None if T is None else tuple(range(T)))
        if T is not None:
            spec = dataclasses.replace(spec, temporal="dynamic_ar1")
        ctx = _FitContext(data, graph, spec)
        st = random_state(rng, I, 2, T=T)
        level = np.zeros(2)
        level[ctx.intercept] = c
        shifted = dataclasses.replace(st, beta=st.beta - level, phi=st.phi + c)
        close = dict(rel=1e-9, abs=1e-9)

        assert car_pairwise_sum(graph, shifted.phi) == pytest.approx(
            car_pairwise_sum(graph, st.phi), **close)
        for k, idx in enumerate(ctx.colors):
            prop = st.phi[idx] + rng.normal(scale=0.8, size=idx.size)
            assert phi_ratio(ctx, shifted, k, prop + c) == pytest.approx(
                phi_ratio(ctx, st, k, prop), **close)
        prop = st.beta.copy()
        prop[int(rng.integers(0, 2))] += rng.normal()
        assert beta_check(ctx, shifted, prop - level)[0] == pytest.approx(
            beta_check(ctx, st, prop)[0], **close)

    def test_is_context_rejects_an_all_zero_slice(self):
        # why the generator above adds a count to every slice
        graph = AdjacencyGraph(["a", "b"], [(0, 1)])
        data = Dataset(graph.region_ids, [[0, 20, 9], [0, 15, 12]],
                       np.full((2, 3), 100.0), np.ones((2, 3, 1)), (0, 1, 2))
        message = "all counts are zero at time 0; the pooled rate degenerates"
        with pytest.raises(ValueError, match=re.escape(message)):
            _FitContext(data, graph, ModelSpec("is", temporal="dynamic_ar1"))


class TestTauConjugacy:
    def test_constant_phi(self):
        g = lattice_graph(2)
        shape, rate = tau_posterior_params(g, np.full(4, 2.5), 1.0, 1.0)
        assert shape == 3.0  # 1 + 4/2
        assert rate == 1.0

    def test_two_node_edge(self):
        g = AdjacencyGraph(["a", "b"], [(0, 1)])
        shape, rate = tau_posterior_params(g, np.array([1.0, -1.0]), 1.0, 1.0)
        assert shape == 2.0
        assert rate == 3.0

    def test_symbolic_formula(self):
        rng = np.random.default_rng(10)
        g = small_graph()
        phi = rng.normal(size=4)
        a, b = 1.7, 0.4
        S = sum((phi[i] - phi[j]) ** 2 for i, j in g.edges)
        shape, rate = tau_posterior_params(g, phi, a, b)
        assert shape == pytest.approx(a + 2.0, rel=1e-12)
        assert rate == pytest.approx(b + S / 2.0, rel=1e-12)

    def test_empirical_moments(self):
        g = small_graph()
        phi = np.array([0.5, -0.2, 0.1, -0.4])
        shape, rate = tau_posterior_params(g, phi, 1.0, 1.0)
        rng = np.random.default_rng(123)
        draws = rng.gamma(shape, 1.0 / rate, size=100_000)
        mean, var = shape / rate, shape / rate**2
        se_mean = np.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) < 3 * se_mean
        # variance of the sample variance for a Gamma, via fourth central moment
        mu4 = 3 * var**2 + 6 * var**2 / shape
        se_var = np.sqrt((mu4 - var**2) / draws.size)
        assert abs(draws.var() - var) < 3 * se_var


def _integrate_to_inf(f):
    # the conditional has an inverse-gamma tail; split so quad handles it
    a, _ = integrate.quad(f, 0.0, 2.0, limit=500)
    b, _ = integrate.quad(f, 2.0, np.inf, limit=500)
    return a + b


class TestOmegaConditional:
    def test_matches_grid_integration(self):
        # T=4: normalize the unnormalized conditional numerically and compare
        # with the analytic inverse-gamma density on a grid
        alpha = np.array([0.3, -0.1, 0.25, 0.4])
        rho = 0.6
        shape, scale = _omega_posterior_params(alpha, rho)
        assert shape == 2.0  # T/2

        def unnorm(w):
            return np.exp(_ar1_log_prior(alpha, rho, w) - np.log(w))

        norm = _integrate_to_inf(unnorm)
        grid = np.linspace(0.01, 1.5, 40)
        num = np.array([unnorm(w) for w in grid]) / norm
        ana = invgamma.pdf(grid, shape, scale=scale)
        assert np.allclose(num, ana, rtol=1e-6, atol=1e-9)

    def test_mean_against_quadrature(self):
        alpha = np.array([0.5, 0.2, -0.3, 0.6])
        rho = -0.4
        shape, scale = _omega_posterior_params(alpha, rho)

        def unnorm(w):
            return np.exp(_ar1_log_prior(alpha, rho, w) - np.log(w))

        norm = _integrate_to_inf(unnorm)
        mean_num = _integrate_to_inf(lambda w: w * unnorm(w))
        assert mean_num / norm == pytest.approx(scale / (shape - 1.0), rel=1e-6)


class TestMetropolisRule:
    def test_identity_proposal_always_accepted(self):
        # a proposal equal to the current value has log ratio 0; the accept
        # rule log(u) < delta must fire for every u in [0, 1)
        rng = np.random.default_rng(0)
        delta = np.zeros(10_000)
        accept = np.log(rng.random(10_000)) < delta
        assert accept.all()

    def test_alpha_target_decouples_at_rho_zero(self):
        # with rho = 0 and all other alpha at 0, the ratio is the slice
        # likelihood's difference plus a N(0, omega) kernel's
        rng = np.random.default_rng(44)
        spec = ModelSpec("cg", temporal="dynamic_ar1")
        graph, data = random_panel_problem(rng, I=4, T=4)
        ctx = _FitContext(data, graph, spec)
        st = ChainState(beta=np.array([-1.0]), phi=rng.normal(scale=0.3, size=4),
                        tau=1.0, alpha=np.zeros(4), rho=0.0, omega=0.2)
        from arealrisk.model import apply_link

        def slice_lik(t, v):
            sl = data.time_slice(t)
            p = apply_link("logit", sl.x @ st.beta + st.phi + v)
            return float(np.sum(sl.y * np.log(sl.n * p) - sl.n * p))

        for t in range(4):
            for v in (-0.4, 0.3):
                got = alpha_ratio(ctx, st, t, v)
                expected = slice_lik(t, v) - slice_lik(t, 0.0) - v**2 / (2.0 * st.omega)
                assert got == pytest.approx(expected, abs=1e-9)


class TestAdaptation:
    def test_low_acceptance_shrinks(self):
        scales = np.array([1.0])
        _adapt_scales(scales, np.array([5.0]), np.array([100.0]), (0.15, 0.40))
        assert scales[0] == pytest.approx(0.8)

    def test_in_band_unchanged(self):
        scales = np.array([1.0])
        _adapt_scales(scales, np.array([25.0]), np.array([100.0]), (0.15, 0.40))
        assert scales[0] == 1.0

    def test_high_acceptance_grows(self):
        scales = np.array([1.0])
        _adapt_scales(scales, np.array([50.0]), np.array([100.0]), (0.15, 0.40))
        assert scales[0] == pytest.approx(1.25)


def quick_config(**kw):
    defaults = dict(n_iterations=900, burn_in=300, thin=2, seed=7, adapt_window=100)
    defaults.update(kw)
    return SamplerConfig(**defaults)


class TestRunChain:
    def test_seeded_determinism(self):
        rng = np.random.default_rng(31)
        graph, data = random_static_problem(rng, I=6)
        spec = ModelSpec("cg")
        cfg = quick_config()
        s1 = run_chain(data, graph, spec, cfg)
        s2 = run_chain(data, graph, spec, cfg)
        assert np.array_equal(s1.beta, s2.beta)
        assert np.array_equal(s1.phi, s2.phi)
        assert np.array_equal(s1.tau, s2.tau)
        for k in s1.acceptance:
            assert np.array_equal(s1.acceptance[k], s2.acceptance[k])

    def test_draw_count_and_centering(self):
        rng = np.random.default_rng(32)
        graph, data = random_static_problem(rng, I=5)
        cfg = quick_config(n_iterations=1003, burn_in=301, thin=3)
        s = run_chain(data, graph, ModelSpec("cg"), cfg)
        assert s.n_draws == (1003 - 301) // 3
        assert np.max(np.abs(s.phi.sum(axis=1))) < 1e-10

    def test_rank_deficiency_rejected_before_sampling(self):
        graph = lattice_graph(2)
        x = np.column_stack([np.ones(4), np.ones(4)])
        data = Dataset(graph.region_ids, [1, 2, 1, 0], [50.0] * 4, x)
        with pytest.raises(ValueError, match="rank"):
            run_chain(data, graph, ModelSpec("cg"), quick_config())

    def test_fit_without_intercept_rejected(self):
        # each phi draw's mean is folded into the intercept; without one the
        # chain would target the wrong posterior
        graph = AdjacencyGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        data = Dataset(graph.region_ids, [3, 9, 15], [500.0, 1000.0, 2000.0],
                       np.array([[1.0], [1.2], [1.5]]))
        with pytest.raises(ValueError, match="intercept: add an all-ones column"):
            run_chain(data, graph, ModelSpec("cg"), quick_config())

    def test_temporal_mode_mismatch_rejected(self):
        rng = np.random.default_rng(33)
        graph, data = random_static_problem(rng)
        with pytest.raises(ValueError, match="temporal"):
            run_chain(data, graph, ModelSpec("cg", temporal="dynamic_ar1"),
                      quick_config())

    def test_zero_counts_drift_beta_negative(self):
        # intercept-only CG fit on all-zero counts: the target is monotone
        # decreasing in beta, so the chain drifts below its initialization
        graph = AdjacencyGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        data = Dataset(graph.region_ids, [0, 0, 0], [50.0, 50.0, 50.0],
                       np.ones((3, 1)))
        cfg = SamplerConfig(n_iterations=10_000, burn_in=2_000, thin=2, seed=3,
                            adapt_window=200)
        s = run_chain(data, graph, ModelSpec("cg"), cfg)
        assert s.beta[:, 0].mean() < -1.0

    def test_dynamic_chain_keeps_rho_in_bounds(self):
        rng = np.random.default_rng(34)
        graph, data = random_panel_problem(rng, I=4, T=5)
        spec = ModelSpec("cg", temporal="dynamic_ar1")
        s = run_chain(data, graph, spec, quick_config(seed=11))
        assert np.all(np.abs(s.rho) < 1.0)
        assert np.all(s.omega > 0.0)
        assert s.alpha.shape == (s.n_draws, 5)

    def test_cg_recovery_pooled_incidence(self):
        # constant-truth data: the pooled incidence interval should cover it
        truth_p = 0.01
        # 5x6 = 30-region grid
        side_graph = AdjacencyGraph(
            [f"r{i}" for i in range(30)],
            [(i, i + 1) for i in range(29) if (i + 1) % 6 != 0]
            + [(i, i + 6) for i in range(24)],
        )
        rng = np.random.default_rng(777)
        n = np.full(30, 10_000.0)
        y = rng.poisson(n * truth_p)
        data = Dataset(side_graph.region_ids, y, n, np.ones((30, 1)))
        cfg = SamplerConfig(n_iterations=6_000, burn_in=2_000, thin=2, seed=5,
                            adapt_window=200)
        s = run_chain(data, side_graph, ModelSpec("cg"), cfg)
        from arealrisk.model import apply_link

        p = apply_link("logit", s.beta @ data.x.T + s.phi)
        pooled = p @ n / n.sum()
        lo, hi = np.quantile(pooled, [0.05, 0.95])
        assert lo <= truth_p <= hi

        s_is = run_chain(data, side_graph, ModelSpec("is"), cfg)
        from arealrisk.estimators import risk_is

        r = risk_is(s_is, data).mean(axis=0)
        assert np.max(np.abs(r - 1.0)) < 0.2

    def test_acceptance_rates_in_band_after_burn_in(self):
        rng = np.random.default_rng(35)
        graph, data = random_static_problem(rng, I=8)
        cfg = SamplerConfig(n_iterations=8_000, burn_in=3_000, thin=2, seed=21,
                            adapt_window=200)
        s = run_chain(data, graph, ModelSpec("cg"), cfg)
        for name, rates in s.acceptance.items():
            rates = rates[np.isfinite(rates)]
            assert np.all(rates >= 0.15 - 1e-12), (name, rates)
            assert np.all(rates <= 0.40 + 1e-12), (name, rates)

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("burn_in, window", [(150, 250), (250, 100)])
    def test_rates_count_post_burn_in_sweeps_only(self, burn_in, window, dynamic):
        # a burn-in that is not a whole number of adaptation windows must not
        # leak its last, partial window into the reported rates
        rng = np.random.default_rng(36)
        graph, data = covariate_problem(rng, 2, T=4 if dynamic else None)
        spec = ModelSpec("cg", temporal="dynamic_ar1" if dynamic else "static")
        cfg = SamplerConfig(n_iterations=burn_in + 121, burn_in=burn_in, thin=2,
                            seed=37, adapt_window=window)
        reported = run_chain(data, graph, spec, cfg).acceptance

        runner = _ChainRunner(data, graph, spec, cfg)
        blocks, sweep, per_sweep = runner.blocks, runner.sweep, []

        def counted_sweep():
            before = {b: (blocks[b].accepted.copy(), blocks[b].proposed.copy())
                      for b in blocks}
            sweep()
            per_sweep.append({b: (blocks[b].accepted - acc,
                                  blocks[b].proposed - tries)
                              for b, (acc, tries) in before.items()})

        runner.sweep = counted_sweep
        runner.run()
        assert len(per_sweep) == cfg.n_iterations
        post = per_sweep[burn_in:]
        assert set(reported) == set(blocks)
        for block, rate in reported.items():
            accepted = sum(counts[block][0] for counts in post)
            proposed = sum(counts[block][1] for counts in post)
            assert np.array_equal(rate, accepted / proposed), block


class TestScalesFreeze:
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_scales_adapt_in_burn_in_windows_only(self, monkeypatch, dynamic):
        # every adaptation call falls on a window boundary inside burn-in, and
        # the reported scales are those at the end of burn-in
        rng = np.random.default_rng(39)
        graph, data = covariate_problem(rng, 2, T=4 if dynamic else None)
        spec = ModelSpec("cg", temporal="dynamic_ar1" if dynamic else "static")
        cfg = SamplerConfig(n_iterations=430, burn_in=230, thin=2, seed=41,
                            adapt_window=50)
        runner = _ChainRunner(data, graph, spec, cfg)
        sweep, adapt = runner.sweep, sampler._adapt_scales
        swept, calls, frozen = [], [], {}

        def counted_sweep():
            if len(swept) == cfg.burn_in:
                frozen.update({b: block.scales.copy()
                               for b, block in runner.blocks.items()})
            swept.append(None)
            sweep()

        def recorded_adapt(*a):
            calls.append(len(swept))
            return adapt(*a)

        runner.sweep = counted_sweep
        monkeypatch.setattr(sampler, "_adapt_scales", recorded_adapt)
        samples = runner.run()
        assert len(swept) == cfg.n_iterations
        assert calls == [w for w in (50, 100, 150, 200) for _ in runner.blocks]
        assert set(samples.proposal_scales) == set(frozen)
        for block, scales in frozen.items():
            assert np.array_equal(samples.proposal_scales[block], scales), block


def covariate_problem(rng, k, T=None, I=6):
    """A path graph with one chord (three colour classes) and k covariates."""
    graph = AdjacencyGraph([f"g{i}" for i in range(I)],
                           [(i, i + 1) for i in range(I - 1)] + [(0, 2)])
    shape = (I,) if T is None else (I, T)
    y = rng.integers(0, 21, size=shape)
    n = rng.uniform(20.0, 300.0, size=shape)
    x = np.ones(shape + (k,))
    x[..., 1:] = rng.normal(size=shape + (k - 1,))
    times = None if T is None else tuple(range(T))
    return graph, Dataset(graph.region_ids, y, n, x, times)


UPDATES = ("update_phi_block", "update_beta", "update_tau", "update_alpha",
           "update_rho", "update_omega")


class TestLikelihoodCache:
    """Every block writes into the carried x @ beta and per-cell terms exactly
    what it accepts, so they equal a fresh evaluation after every block."""

    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), spec=hst.sampled_from(SPECS_STATIC),
           dynamic=hst.booleans(), k=hst.integers(1, 2))
    def test_cache_matches_fresh_terms_after_every_block(self, seed, spec,
                                                         dynamic, k):
        rng = np.random.default_rng(seed)
        graph, data = covariate_problem(rng, k, T=4 if dynamic else None)
        if dynamic:
            spec = dataclasses.replace(spec, temporal="dynamic_ar1")
        runner = _ChainRunner(data, graph, spec, quick_config(seed=seed % 997))
        ctx, st = runner.ctx, runner.state
        offset = np.log(internal_standardization(data) if spec.family == "is"
                        else data.n)
        checked = []

        def checking(name, update):
            def run():
                update()
                checked.append(name)
                xb = ctx.x @ st.beta
                fresh = _poisson_terms(data.y, offset, _eta(xb, st.phi, st.alpha),
                                       spec)
                assert np.array_equal(runner.xb, xb), name
                assert np.array_equal(runner.terms, fresh), name
            return run

        for name in UPDATES:  # the sweep finds these on the instance
            setattr(runner, name, checking(name, getattr(runner, name)))
        for _ in range(6):
            runner.sweep()
        assert checked == list(UPDATES if dynamic else UPDATES[:3]) * 6

    @pytest.mark.parametrize("k, T", [(1, None), (3, None), (2, 4)])
    def test_one_kernel_call_per_block_and_per_coefficient(self, k, T):
        # phi's block and alpha's each evaluate all their proposals in one call;
        # beta evaluates one proposal per coefficient and never the current state
        graph, data = covariate_problem(np.random.default_rng(41), k, T=T)
        spec = ModelSpec("cg", temporal="static" if T is None else "dynamic_ar1")
        runner = _ChainRunner(data, graph, spec, quick_config())
        real, calls = runner.ctx.terms, []
        runner.ctx.terms = lambda *a: calls.append(a) or real(*a)
        for _ in range(3):
            runner.sweep()
        assert len(calls) == 3 * (1 + k + (T is not None))


class _RecenteringRunner(_ChainRunner):
    """The sweep that pinned phi's level in every sweep: phi recentered to sum
    zero after its block, the mean folded into the intercept, and the
    coefficient block rebuilding the likelihood cache the fold left stale."""

    def update_phi_block(self):
        st = self.state
        super().update_phi_block()
        shift = np.add.reduce(st.phi) / st.phi.size
        st.phi -= shift
        st.beta[self.ctx.intercept] += shift

    def update_beta(self):
        st = self.state
        self.xb = self.ctx.xb(st.beta)
        self.terms = self.ctx.terms(self.xb, st.phi, st.alpha)
        super().update_beta()


class TestRecordTimeCentering:
    """The chain leaves phi's level free and centers each recorded draw. In
    exact arithmetic that is the recentering chain, shifted by (beta0 - c,
    phi + c): every ratio, random draw and adaptation step is the same, so
    the draws differ by rounding only."""

    @pytest.mark.parametrize("spec, T", [
        (ModelSpec("cg", link="logit"), None),
        (ModelSpec("is"), None),
        (ModelSpec("cg", link="cloglog", temporal="dynamic_ar1"), 4),
    ], ids=["cg-logit", "is", "cg-cloglog-dynamic"])
    def test_draws_match_the_recentering_chain(self, spec, T):
        graph, data = covariate_problem(np.random.default_rng(42), 2, T=T, I=12)
        cfg = SamplerConfig(n_iterations=2_500, burn_in=500, thin=1, seed=43,
                            adapt_window=100)
        runner = _ChainRunner(data, graph, spec, cfg)
        new, ref = runner.run(), _RecenteringRunner(data, graph, spec, cfg).run()
        assert abs(np.add.reduce(runner.state.phi)) > 1e-6  # the level did move
        for name in ("beta", "phi", "alpha", "rho"):
            if getattr(ref, name) is not None:
                assert np.allclose(getattr(new, name), getattr(ref, name),
                                   rtol=0.0, atol=1e-9), name
        for name in ("tau", "omega"):
            if getattr(ref, name) is not None:
                assert np.allclose(getattr(new, name), getattr(ref, name),
                                   rtol=1e-9, atol=0.0), name
        for name, rates in ref.acceptance.items():
            assert np.array_equal(new.acceptance[name], rates), name
            assert np.array_equal(new.proposal_scales[name],
                                  ref.proposal_scales[name]), name
        assert np.max(np.abs(new.phi.sum(axis=1))) < 1e-10


class TestBatchedKernel:
    """The phi and alpha blocks each make one kernel call over all their
    proposals. Bit for bit, it gives what one call per colour class (per year)
    gives on the same rows, so the batching moves no draw."""

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), spec=hst.sampled_from(SPECS_STATIC),
           T=hst.sampled_from([None, 2, 9, 12]), k=hst.integers(1, 3),
           I=hst.integers(6, 40))
    def test_phi_differences_match_per_class_evaluation(self, seed, spec, T, k, I):
        rng = np.random.default_rng(seed)
        graph, data = covariate_problem(rng, k, T=T, I=I)
        if T is not None:
            spec = dataclasses.replace(spec, temporal="dynamic_ar1")
        ctx = _FitContext(data, graph, spec)
        st = random_state(rng, I, k, T=T)
        xb, terms = carried(ctx, st)
        prop = st.phi + rng.normal(scale=0.8, size=I)
        d_lik, prop_terms = _phi_loglik_diffs(ctx, st, prop, xb, terms)
        for idx in ctx.colors:
            eta = _eta(xb[idx], prop[idx], st.alpha)
            prop_k = _poisson_terms(ctx.y[idx], ctx.offset[idx], eta, spec)
            assert np.array_equal(prop_terms[idx], prop_k)
            cur_k = terms[idx]
            if T is not None:
                prop_k, cur_k = prop_k.sum(axis=1), cur_k.sum(axis=1)
            assert np.array_equal(d_lik[idx], prop_k - cur_k)

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), spec=hst.sampled_from(SPECS_STATIC),
           T=hst.integers(2, 10), k=hst.integers(1, 3), I=hst.integers(6, 40))
    def test_alpha_sums_match_per_year_evaluation(self, seed, spec, T, k, I):
        rng = np.random.default_rng(seed)
        graph, data = covariate_problem(rng, k, T=T, I=I)
        spec = dataclasses.replace(spec, temporal="dynamic_ar1")
        ctx = _FitContext(data, graph, spec)
        st = random_state(rng, I, k, T=T)
        xb, terms = carried(ctx, st)
        prop = st.alpha + rng.normal(scale=0.6, size=T)
        d_lik, prop_terms = _alpha_loglik_diffs(ctx, st, prop, xb, terms)
        for t in range(T):
            eta = _eta(xb[:, t], st.phi, prop[t])
            year = _poisson_terms(ctx.y[:, t], ctx.offset[:, t], eta, spec)
            assert np.array_equal(prop_terms[:, t], year)
            assert d_lik[t] == float(year.sum()) - float(terms[:, t].sum())


class TestYearClasses:
    """The alpha block tests its even years, then its odd years, each class
    with ratios from the block's one kernel call. No year in a class is
    another's neighbour, so each ratio is the one-year-at-a-time ratio, and
    its prior part is a difference of the AR(1) density."""

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), spec=hst.sampled_from(SPECS_STATIC),
           T=hst.integers(2, 11),
           rho=hst.floats(-0.95, 0.99, exclude_min=True, exclude_max=True))
    def test_class_ratios_match_one_year_at_a_time(self, seed, spec, T, rho):
        rng = np.random.default_rng(seed)
        graph, data = covariate_problem(rng, 1, T=T)
        spec = dataclasses.replace(spec, temporal="dynamic_ar1")
        ctx = _FitContext(data, graph, spec)
        st = dataclasses.replace(random_state(rng, data.n_regions, 1, T=T), rho=rho)
        assert [t for idx in ctx.year_colors for t in idx] == [*range(0, T, 2),
                                                             *range(1, T, 2)]
        prior = _ar1_log_prior(st.alpha, rho, st.omega)
        for k, idx in enumerate(ctx.year_colors):
            prop = st.alpha.copy()
            prop[idx] += rng.normal(scale=0.6, size=idx.size)
            d_lik, _ = _alpha_loglik_diffs(ctx, st, prop, *carried(ctx, st))
            ratios = _alpha_log_ratio(ctx, st, k, prop[idx], d_lik[idx])
            assert ratios.shape == idx.shape
            for t, ratio in zip(idx, ratios):
                alpha = st.alpha.copy()
                alpha[t] = prop[t]
                d_prior = _ar1_log_prior(alpha, rho, st.omega) - prior
                assert ratio == pytest.approx(alpha_ratio(ctx, st, t, prop[t]),
                                              abs=1e-9)
                assert ratio - d_lik[t] == pytest.approx(d_prior, abs=1e-9)


class RecordingRng:
    """A generator that records each draw's method and size, in order."""

    def __init__(self, seed):
        self.real, self.calls = np.random.default_rng(seed), []

    def standard_normal(self, size=None):
        self.calls.append(("standard_normal", size))
        return self.real.standard_normal(size)

    def random(self, size=None):
        self.calls.append(("random", size))
        return self.real.random(size)


class TestDrawOrder:
    """The batched blocks draw in the order of a loop that evaluates one colour
    class at a time: a class's normals, then its uniforms."""

    @staticmethod
    def recorded(update):
        graph, data = covariate_problem(np.random.default_rng(40), k=2, T=4, I=12)
        runner = _ChainRunner(data, graph, ModelSpec("cg", temporal="dynamic_ar1"),
                              quick_config())
        runner.rng = RecordingRng(5)
        getattr(runner, update)()
        return runner

    def test_phi_block_draws_normals_then_uniforms_class_by_class(self):
        runner = self.recorded("update_phi_block")
        sizes = [idx.size for idx in runner.ctx.colors]
        assert len(sizes) == 3
        assert runner.rng.calls == [(draw, n) for n in sizes
                                    for draw in ("standard_normal", "random")]

    def test_alpha_block_draws_normals_then_uniforms_class_by_class(self):
        # the T = 4 years are coloured (0, 2), then (1, 3)
        runner = self.recorded("update_alpha")
        assert runner.rng.calls == [("standard_normal", 2), ("random", 2)] * 2


class TestNonFinite:
    def dynamic_runner(self):
        graph, data = covariate_problem(np.random.default_rng(36), k=2, T=4)
        spec = ModelSpec("cg", temporal="dynamic_ar1")
        return _ChainRunner(data, graph, spec, quick_config(n_iterations=40,
                                                            burn_in=20))

    def poison(self, monkeypatch, runner, block, bad):
        """Make every proposal of ``block`` evaluate to a ``bad`` likelihood."""
        ctx = runner.ctx
        if block in ("phi", "alpha"):
            name = f"_{block}_loglik_diffs"

            def poisoned(*a, real=getattr(sampler, name)):
                d_lik, prop_terms = real(*a)
                return d_lik + bad, prop_terms
            monkeypatch.setattr(sampler, name, poisoned)
        else:  # update_beta evaluates its proposals only
            real = ctx.terms
            ctx.terms = lambda *a: real(*a) + bad

    @staticmethod
    def nonfinite(runner):
        return {name: block.nonfinite for name, block in runner.blocks.items()}

    def test_phi_class_rejects_every_nonfinite_kind(self, monkeypatch):
        # one colour class sees finite, NaN, +inf and -inf ratios; the others
        # see -inf. Only the finite ratio (0.0, always accepted) moves phi, and
        # only NaN and +inf count as non-finite events
        graph, data = covariate_problem(np.random.default_rng(36), k=2, T=4, I=12)
        runner = _ChainRunner(data, graph, ModelSpec("cg", temporal="dynamic_ar1"),
                              quick_config())
        k = int(np.argmax([idx.size for idx in runner.ctx.colors]))
        idx = runner.ctx.colors[k]
        mixed = np.resize([0.0, np.nan, np.inf, -np.inf], idx.size)
        assert idx.size >= 4
        monkeypatch.setattr(sampler, "_phi_log_ratio",
                            lambda ctx, st, c, prop, d_lik:
                            mixed.copy() if c == k else np.full(prop.size, -np.inf))

        class CountedUniforms:  # every proposal, rejected or not, draws one
            sizes = []
            standard_normal = runner.rng.standard_normal

            def random(self, size):
                self.sizes.append(size)
                return rng.random(size)

        rng, runner.rng = runner.rng, CountedUniforms()
        runner.update_phi_block()
        block = runner.blocks["phi"]
        expected = np.zeros(block.accepted.size)
        expected[idx] = mixed == 0.0
        assert np.array_equal(block.accepted, expected)
        assert np.all(block.proposed == 1)
        assert CountedUniforms.sizes == [c.size for c in runner.ctx.colors]
        n_bad = int(np.sum(np.isnan(mixed) | (mixed == np.inf)))
        assert self.nonfinite(runner) == {"phi": n_bad, "beta": 0, "alpha": 0,
                                          "rho": 0}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block, update", [("phi", "update_phi_block"),
                                               ("beta", "update_beta"),
                                               ("alpha", "update_alpha")])
    def test_proposals_rejected_and_counted(self, monkeypatch, block, update, bad):
        runner = self.dynamic_runner()
        st = runner.state
        before = getattr(st, block).copy()
        self.poison(monkeypatch, runner, block, bad)
        getattr(runner, update)()
        assert np.array_equal(getattr(st, block), before)
        assert runner.blocks[block].accepted.sum() == 0
        n_proposals = runner.blocks[block].proposed.sum()
        assert n_proposals == before.size
        assert self.nonfinite(runner) == {name: n_proposals if name == block else 0
                                          for name in ("phi", "beta", "alpha", "rho")}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rho_ratio_rejected_and_counted(self, monkeypatch, bad):
        runner = self.dynamic_runner()
        st, block = runner.state, runner.blocks["rho"]
        st.rho = 0.0  # at scale 0.1 every proposal lies inside (-1, 1)
        monkeypatch.setattr(sampler, "_rho_log_ratio", lambda st, prop: bad)
        for _ in range(5):
            runner.update_rho()
        assert st.rho == 0.0
        assert block.accepted[0] == 0 and block.proposed[0] == 5
        assert self.nonfinite(runner) == {"phi": 0, "beta": 0, "alpha": 0, "rho": 5}

    def test_one_warning_per_block_at_end_of_chain(self, monkeypatch, caplog):
        runner = self.dynamic_runner()
        self.poison(monkeypatch, runner, "phi", np.nan)
        self.poison(monkeypatch, runner, "alpha", np.inf)
        with caplog.at_level(logging.WARNING, logger="arealrisk.sampler"):
            samples = runner.run()
        data, sweeps = runner.ctx.dataset, runner.config.n_iterations
        I, T = data.n_regions, data.n_times
        assert samples.n_nonfinite_events == (I + T) * sweeps
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            f"{I * sweeps} non-finite Metropolis target(s) in block 'phi'; "
            "those proposals were rejected",
            f"{T * sweeps} non-finite Metropolis target(s) in block 'alpha'; "
            "those proposals were rejected",
        ]


class TestSweepCallsTheCheckedRatios:
    def test_rejecting_ratios_freeze_their_blocks(self, monkeypatch):
        # the ratio functions criterion 2 checks are the ones the sweep runs:
        # when they reject everything, phi, beta and alpha never move
        graph, data = covariate_problem(np.random.default_rng(38), k=2, T=4)
        runner = _ChainRunner(data, graph, ModelSpec("cg", temporal="dynamic_ar1"),
                              quick_config())
        st = runner.state
        # a state away from the start: with every ratio rejecting, nothing moves it
        st.phi = np.array([0.5, -0.25, 0.75, -1.0, 0.25, -0.25])
        st.beta = np.array([-2.0, 0.3])
        st.alpha = np.array([0.1, -0.2, 0.05, 0.3])
        runner.xb, runner.terms = carried(runner.ctx, st)
        before = {block: getattr(st, block).copy() for block in ("phi", "beta", "alpha")}
        monkeypatch.setattr(sampler, "_phi_log_ratio",
                            lambda ctx, st, k, prop, d_lik: np.full(prop.size, -np.inf))
        monkeypatch.setattr(sampler, "_beta_log_ratio", lambda *a: (-np.inf, None))
        monkeypatch.setattr(sampler, "_alpha_log_ratio", lambda *a: -np.inf)
        for _ in range(5):
            runner.sweep()
        for block, value in before.items():
            assert np.array_equal(getattr(st, block), value), block
            assert runner.blocks[block].accepted.sum() == 0, block
            assert np.all(runner.blocks[block].proposed == 5), block


def batch_means_mcse(draws, batches=50):
    """Monte Carlo standard error of each column's mean, from batch means."""
    n = draws.shape[0] // batches * batches
    means = draws[:n].reshape(batches, -1, draws.shape[1]).mean(axis=1)
    return means.std(axis=0, ddof=1) / np.sqrt(batches)


class TestPosteriorOracle:
    """The assembled chain against the exact posterior of a 3-region path map.

    Criterion 2 checks each block's ratio on its own; this checks what only
    the whole chain does: the draw order, the adaptation freeze, the carried
    likelihood terms and the centering of each recorded draw. With tau
    integrated out under the code's tau^(I/2) normalizer, the posterior of
    (beta0, phi) lives on phi = U z, for an orthonormal basis U of the sum-zero
    plane: pi(z, beta0) is proportional to
    L(beta0 + U z) (b + S(U z)/2)^-(a + I/2), and E[tau | z] is
    (a + I/2) / (b + S/2). A grid gives the exact posterior means, to about
    1e-6; each chain mean must lie within 4 Monte Carlo standard errors."""

    Y, N = np.array([3, 9, 15]), np.array([500.0, 1000.0, 2000.0])

    def exact_means(self, spec, beta0):
        """Posterior means of (beta0, phi_1, phi_2, phi_3, tau) on a grid."""
        a, b = spec.tau_prior
        half_i = 1.5  # I/2
        z = np.linspace(-6.0, 6.0, 81)
        u = np.column_stack([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.sqrt([2.0, 6.0])
        phi = np.stack(np.meshgrid(z, z, indexing="ij"), -1).reshape(-1, 2) @ u.T
        S = (phi[:, 0] - phi[:, 1]) ** 2 + (phi[:, 1] - phi[:, 2]) ** 2
        eta = beta0[:, None, None] + phi  # (beta0, z, region)
        if spec.family == "is":
            log_mu = np.log(self.N * self.Y.sum() / self.N.sum()) + eta
        elif spec.link == "logit":
            log_mu = np.log(self.N) - np.logaddexp(0.0, -eta)
        else:
            log_mu = np.log(self.N) + np.log(-np.expm1(-np.exp(eta)))
        log_post = ((self.Y * log_mu - np.exp(log_mu)).sum(axis=-1)
                    - (a + half_i) * np.log(b + S / 2.0))
        w = np.exp(log_post - log_post.max())
        w /= w.sum()
        # the grid holds the posterior: its border carries no mass
        cube = w.reshape(beta0.size, z.size, z.size)
        assert max(cube[[0, -1]].sum(), cube[:, [0, -1]].sum(),
                   cube[:, :, [0, -1]].sum()) < 1e-9
        w_z = w.sum(axis=0)
        return np.concatenate([[w.sum(axis=1) @ beta0], w_z @ phi,
                               [w_z @ ((a + half_i) / (b + S / 2.0))]])

    @pytest.mark.parametrize("spec, beta0", [
        (ModelSpec("cg", link="logit"), -5.0),
        (ModelSpec("cg", link="cloglog"), -5.0),
        (ModelSpec("is"), 0.0),
    ], ids=["cg-logit", "cg-cloglog", "is"])
    def test_chain_means_match_the_exact_posterior(self, spec, beta0):
        graph = AdjacencyGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        data = Dataset(graph.region_ids, self.Y, self.N, np.ones((3, 1)))
        exact = self.exact_means(spec, np.linspace(beta0 - 2.5, beta0 + 2.5, 161))
        s = run_chain(data, graph, spec, SamplerConfig(
            n_iterations=60_000, burn_in=5_000, thin=1, seed=1))
        draws = np.column_stack([s.beta[:, 0], s.phi, s.tau])
        z = (draws.mean(axis=0) - exact) / batch_means_mcse(draws)
        assert np.all(np.abs(z) < 4.0), z


class TestCalibration:
    def test_beta_interval_covers_truth(self):
        # 50 independent replicates from the CG model with known beta; the
        # equal-tailed 90% interval should cover in at least 80% of them
        graph = lattice_graph(3)
        beta_true = -5.5
        n = np.full(9, 20_000.0)
        covered = 0
        reps = 50
        for r in range(reps):
            rng = np.random.default_rng(9_000 + r)
            tau_true = 4.0
            # draw a smooth phi field: scaled normal increments, centered
            phi = rng.normal(scale=1.0 / np.sqrt(tau_true), size=9)
            phi -= phi.mean()
            p = 1.0 / (1.0 + np.exp(-(beta_true + phi)))
            y = rng.poisson(n * p)
            data = Dataset(graph.region_ids, y, n, np.ones((9, 1)))
            cfg = SamplerConfig(n_iterations=2_600, burn_in=600, thin=2,
                                seed=100 + r, adapt_window=150)
            s = run_chain(data, graph, ModelSpec("cg"), cfg)
            lo, hi = np.quantile(s.beta[:, 0], [0.05, 0.95])
            covered += int(lo <= beta_true <= hi)
        assert covered >= 0.8 * reps


# ---------------------------------------------------------------------------
# draws.csv: one range of draws per usable CPU, the same bytes for any count


def hand_samples(n_draws, region_ids, times=None, seed=0):
    rng = np.random.default_rng(seed)
    D, dynamic = n_draws, times is not None
    phi = rng.normal(size=(D, len(region_ids)))
    if D:
        phi[0, 0], phi[-1, -1] = -0.0, 1e16
    return sampler.PosteriorSamples(
        spec=ModelSpec("is", temporal="dynamic_ar1" if dynamic else "static"),
        config=SamplerConfig(n_iterations=D + 2, burn_in=1, thin=1),
        region_ids=tuple(region_ids), times=times,
        beta=rng.normal(size=(D, 2)), phi=phi, tau=rng.gamma(2.0, size=D),
        alpha=rng.normal(size=(D, len(times))) if dynamic else None,
        rho=rng.uniform(-1, 1, size=D) if dynamic else None,
        omega=rng.gamma(2.0, size=D) if dynamic else None,
        acceptance={}, proposal_scales={}, n_nonfinite_events=0)


def reference_draws_csv(samples) -> str:
    """The serial loop: every draw's parameters stacked, one repr per value."""
    labels = {"beta": range(samples.beta.shape[1]), "phi": samples.region_ids,
              "alpha": samples.times}
    cols, heads = [], []
    for name in sampler._PARAMS:
        if getattr(samples, name) is not None:
            cols.append(getattr(samples, name))
            heads += ([f"{name}[{i}]" for i in labels[name]] if name in labels
                      else [name])
    rows = ["draw,parameter,value"]
    for d, row in enumerate(np.column_stack(cols)):
        rows += [f"{d},{csv_field(head)},{float(v)!r}" for head, v in zip(heads, row)]
    return "\n".join(rows) + "\n"


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of usable CPUs the draws writer sees."""
    def use(n):
        monkeypatch.setattr(sampler.os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return use


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers the draws writer forks."""
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    real_fork = sampler.os.fork
    monkeypatch.setattr(sampler.os, "fork", fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            sampler.os.waitpid(pid, sampler.os.WNOHANG)


class TestWriteDrawsCsv:
    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_draws, times", [(7, None), (3, None), (0, None),
                                                (5, (1990, 1991))],
                             ids=["static", "fewer-draws-than-cpus", "no-draws",
                                  "dynamic"])
    def test_same_bytes_as_the_serial_loop(self, tmp_path, cpus, forks,
                                           n_cpus, n_draws, times):
        samples = hand_samples(n_draws, ["r0", "r%1", 'r"2'], times)
        cpus(n_cpus)
        sampler.write_draws_csv(samples, tmp_path / "draws.csv")
        assert ((tmp_path / "draws.csv").read_bytes()
                == reference_draws_csv(samples).encode())
        workers = min(n_cpus, n_draws)  # with fewer than two, the caller formats
        assert len(forks) == (workers if workers > 1 else 0)
        assert_reaped(forks)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["draws.csv"]

    def test_dynamic_rows_name_alpha_by_time(self, tmp_path, cpus):
        cpus(2)
        sampler.write_draws_csv(hand_samples(4, ["a", "b"], (2001, 2002)),
                                tmp_path / "draws.csv")
        params = [line.split(",")[1] for line in
                  (tmp_path / "draws.csv").read_text().splitlines()[1:10]]
        assert params == ["beta[0]", "beta[1]", "phi[a]", "phi[b]", "tau",
                          "alpha[2001]", "alpha[2002]", "rho", "omega"]

    def test_failed_child_raises_and_leaves_no_temporary_file(
            self, tmp_path, cpus, forks, monkeypatch):
        write_rows = sampler._write_draw_rows

        def failing_in_children(fh, cols, lead, lo, hi):
            if lo > 0:
                raise OSError("disk full")
            write_rows(fh, cols, lead, lo, hi)

        monkeypatch.setattr(sampler, "_write_draw_rows", failing_in_children)
        cpus(3)
        with pytest.raises(OSError, match="disk full"):
            sampler.write_draws_csv(hand_samples(6, ["a", "b"]), tmp_path / "draws.csv")
        assert len(forks) == 3
        assert_reaped(forks)
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_failing_caller_still_joins_its_children(self, tmp_path, cpus, forks,
                                                     monkeypatch):
        write_rows = sampler._write_draw_rows

        def unreadable_then_slow(fh, cols, lead, lo, hi):
            if lo == 0:  # the caller fails to read this back while the other runs
                raise Unreadable()
            time.sleep(1.0)
            write_rows(fh, cols, lead, lo, hi)

        monkeypatch.setattr(sampler, "_write_draw_rows", unreadable_then_slow)
        cpus(2)
        with pytest.raises(BrokenProcessPool):
            sampler.write_draws_csv(hand_samples(6, ["a", "b"]), tmp_path / "draws.csv")
        assert len(forks) == 2
        assert_reaped(forks)
        assert sorted(p.name for p in tmp_path.iterdir()) == []


def _refuse_unpickling():
    raise pickle.UnpicklingError("refused")


class Unreadable(Exception):
    """Pickles in a worker; unpickling it in the caller fails."""

    def __reduce__(self):
        return _refuse_unpickling, ()


SRC = Path(__file__).resolve().parents[1] / "src"


class TestForkMap:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_fewer_than_two_workers_run_in_the_caller(self, workers):
        assert sampler._fork_map(lambda i: (i, os.getpid()), range(3), workers) == [
            (i, os.getpid()) for i in range(3)]

    def test_dead_worker_raises_and_the_other_is_reaped(self):
        # run in a subprocess, so that a hang fails the test at the timeout
        script = """\
import os, time
from concurrent.futures.process import BrokenProcessPool
from arealrisk.sampler import _fork_map

pids, real_fork = [], os.fork
def fork():
    pid = real_fork()
    if pid:
        pids.append(pid)
    return pid
os.fork = fork

def work(i):
    if i == 0:
        os._exit(3)
    time.sleep(0.2)
    return i

try:
    _fork_map(work, range(2), 2)
except BrokenProcessPool:
    pass
else:
    raise SystemExit("no error")
os.fork = real_fork
for pid in pids:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        continue
    raise SystemExit(f"worker {pid} not reaped")
print(len(pids))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"

    def test_only_fork_map_starts_processes(self):
        # one owner for worker processes and the CPU count that sizes them: no
        # other mechanism may come back
        pattern = re.compile(r"os\.fork|ProcessPoolExecutor|multiprocessing"
                             r"|get_context|sched_getaffinity")
        tree = ast.parse((SRC / "arealrisk" / "sampler.py").read_text())
        allowed = {n for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name in ("_fork_map", "_usable_cpus")
                   for n in range(node.lineno, node.end_lineno + 1)}
        stray = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted((SRC / "arealrisk").glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)
                 and not (path.name == "sampler.py" and n in allowed)]
        assert stray == []
