import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealrisk.estimators import _risk_draws, summarize
from arealrisk.metrics import (
    crps_empirical,
    evaluate_holdout,
    forecast_risks,
    observed_raw_risks,
)
from arealrisk.model import Dataset, ModelSpec
from tests.test_estimators import make_samples


def crps_integral_oracle(draws, y):
    """Exact integral of (F(z) - 1{z >= y})^2 for the empirical step CDF.

    The integrand is piecewise constant with breakpoints at the draws and
    the observation, so the integral is an exact finite sum.
    """
    draws = np.sort(np.asarray(draws, dtype=float))
    pts = np.unique(np.concatenate([draws, [y]]))
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        z = 0.5 * (a + b)
        F = np.mean(draws <= z)
        H = 1.0 if z >= y else 0.0
        total += (F - H) ** 2 * (b - a)
    return total


def panel_dataset(I=3, T=4):
    rng = np.random.default_rng(5)
    y = rng.integers(1, 30, size=(I, T))
    n = rng.uniform(50, 150, size=(I, T))
    return Dataset([f"g{i}" for i in range(I)],
                   y, n, np.ones((I, T, 1)), times=tuple(range(T)))


def dynamic_samples(family, D, I=3, T_fit=3, rho=0.5, omega=0.04,
                    alpha_last=0.2, beta=-2.0, phi=None):
    spec = ModelSpec(family, link="logit" if family == "cg" else None,
                     temporal="dynamic_ar1")
    if phi is None:
        phi = np.zeros(I)
    alpha = np.zeros((D, T_fit))
    alpha[:, -1] = alpha_last
    return make_samples(
        spec,
        np.full((D, 1), beta),
        np.tile(phi, (D, 1)),
        [f"g{i}" for i in range(I)],
        alpha=alpha,
        rho=np.full(D, rho),
        omega=np.full(D, omega),
        times=tuple(range(T_fit)),
    )


class TestCrps:
    def test_degenerate_forecast_at_truth(self):
        assert crps_empirical(np.full(10, 1.3), 1.3) == 0.0

    def test_two_draw_case(self):
        assert crps_empirical([0.0, 2.0], 1.0) == pytest.approx(0.5)

    def test_matches_integral_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            draws = rng.normal(size=5)
            y = float(rng.normal())
            assert crps_empirical(draws, y) == pytest.approx(
                crps_integral_oracle(draws, y), abs=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        draws = rng.normal(size=40)
        y = 0.3
        assert crps_empirical(draws, y) == pytest.approx(
            crps_empirical(draws[::-1], y), rel=1e-12
        )

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(13)
        draws = rng.normal(size=30)
        y = -0.4
        for c in (0.5, 2.0, 7.0):
            assert crps_empirical(c * draws, c * y) == pytest.approx(
                c * crps_empirical(draws, y), rel=1e-10
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crps_empirical([], 0.0)

    def test_long_inputs_match_pairwise_reference(self):
        # every one of 10,000 draws is scored: the O(D^2) definition agrees
        rng = np.random.default_rng(14)
        draws = rng.normal(size=10_000)
        pairwise = sum(np.abs(draws - x).sum() for x in draws) / draws.size**2
        reference = np.mean(np.abs(draws)) - 0.5 * pairwise
        assert crps_empirical(draws, 0.0) == pytest.approx(reference, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            assert crps_empirical(rng.normal(size=12), rng.normal()) >= 0.0


class TestForecastRisks:
    def test_random_walk_degenerate_case(self):
        # rho = 1 limit with omega -> 0: alpha_{T+1} = alpha_T
        d = panel_dataset()
        s = dynamic_samples("is", D=200, rho=1.0 - 1e-12, omega=1e-24,
                            alpha_last=0.3)
        r = forecast_risks(s, d, seed=0)["r_is"]
        expected = np.exp(-2.0 + 0.3)
        assert r == pytest.approx(np.full((200, 3), expected), rel=1e-5)

    def test_rho_zero_predictive_is_pure_noise(self):
        d = panel_dataset()
        omega = 0.09
        s = dynamic_samples("is", D=50_000, rho=0.0, omega=omega, alpha_last=5.0)
        r = forecast_risks(s, d, seed=1)["r_is"]
        alpha_next = np.log(r[:, 0]) + 2.0  # invert exp(beta + phi + alpha)
        assert abs(alpha_next.mean()) < 3.0 * np.sqrt(omega / alpha_next.size)
        assert alpha_next.var() == pytest.approx(omega, rel=0.05)

    def test_predictive_mean_matches_ar1(self):
        d = panel_dataset()
        rho, omega, alpha_T = 0.7, 0.04, 0.4
        s = dynamic_samples("is", D=100_000, rho=rho, omega=omega,
                            alpha_last=alpha_T)
        r = forecast_risks(s, d, seed=2)["r_is"]
        alpha_next = np.log(r[:, 0]) + 2.0
        se = np.sqrt(omega / alpha_next.size)
        assert abs(alpha_next.mean() - rho * alpha_T) < 3.0 * se

    def test_static_samples_rejected(self):
        d = panel_dataset()
        s = make_samples(ModelSpec("is"), np.zeros((150, 1)), np.zeros((150, 3)),
                         ["g0", "g1", "g2"])
        with pytest.raises(TypeError):
            forecast_risks(s, d)

    def test_cg_weighted_mean_identity(self):
        d = panel_dataset()
        s = dynamic_samples("cg", D=300)
        r = forecast_risks(s, d, seed=3)["r_cg"]
        n_new = d.n[:, -1]
        assert r @ n_new / n_new.sum() == pytest.approx(np.ones(300), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(link=st.sampled_from(["logit", "cloglog", "skewed_logit"]),
           seed=st.integers(0, 2**32 - 1))
    def test_cg_weighted_mean_identity_property(self, link, seed):
        # sum_i n_i r_cg,i = sum_i n_i within every draw, fitted or forecast
        rng = np.random.default_rng(seed)
        I, T, D = 5, 4, 20
        ids = [f"g{i}" for i in range(I)]
        x = np.concatenate([np.ones((I, T, 1)), rng.normal(size=(I, T, 1))], axis=-1)
        d = Dataset(ids, rng.integers(1, 30, size=(I, T)),
                    rng.uniform(0.5, 1e5, size=(I, T)), x, times=tuple(range(T)))
        c0 = 0.004 if link == "skewed_logit" else None
        beta = rng.normal(scale=2.0, size=(D, 2))
        phi = rng.normal(size=(D, I))
        dyn = make_samples(ModelSpec("cg", link=link, c0=c0, temporal="dynamic_ar1"),
                           beta, phi, ids, alpha=rng.normal(size=(D, T - 1)),
                           rho=rng.uniform(-1.0, 1.0, size=D),
                           omega=rng.uniform(0.01, 1.0, size=D),
                           times=tuple(range(T - 1)))
        sta = make_samples(ModelSpec("cg", link=link, c0=c0), beta, phi, ids)
        checks = [(_risk_draws(dyn, d.time_prefix(T - 1), t)["r_cg"], d.n[:, t])
                  for t in range(T - 1)]
        checks.append((_risk_draws(sta, d.time_slice(0))["r_cg"], d.n[:, 0]))
        checks.append((forecast_risks(dyn, d, seed=seed)["r_cg"], d.n[:, -1]))
        for r, n in checks:
            np.testing.assert_allclose(r @ n, np.full(D, n.sum()), rtol=1e-12)

    def test_estimator_family_mismatch(self):
        # a forecast gives exactly the estimators its family's fit gives
        d = panel_dataset()
        for family, tags in (("is", {"r_is"}), ("cg", {"r_cg_tilde", "r_cg"})):
            s = dynamic_samples(family, D=200)
            assert set(forecast_risks(s, d, seed=0)) == tags


class TestEvaluateHoldout:
    def test_perfect_point_forecast(self):
        obs = np.array([0.8, 1.0, 1.2])
        pred = np.tile(obs, (200, 1))
        ev = evaluate_holdout(pred, obs)
        assert ev.pmse == pytest.approx(0.0, abs=1e-24)
        assert ev.crps == 0.0
        assert ev.coverage == 1.0

    def test_vacuous_intervals_cover_everything(self):
        rng = np.random.default_rng(21)
        obs = np.array([0.5, 1.5])
        pred = rng.normal(scale=1e6, size=(500, 2))
        ev = evaluate_holdout(pred, obs)
        assert ev.coverage == 1.0

    def test_pmse_at_least_squared_bias(self):
        rng = np.random.default_rng(22)
        obs = rng.uniform(0.5, 1.5, size=4)
        pred = obs[None, :] + rng.normal(scale=0.2, size=(400, 4)) + 0.1
        ev = evaluate_holdout(pred, obs)
        bias2 = np.mean((pred.mean(axis=0) - obs) ** 2)
        assert ev.pmse >= bias2 - 1e-12

    def test_intervals_are_the_summary_intervals(self):
        rng = np.random.default_rng(23)
        obs = rng.uniform(0.5, 1.5, size=5)
        pred = rng.gamma(4.0, 0.25, size=(300, 5))
        for level in (0.5, 0.9, 0.975):
            ev = evaluate_holdout(pred, obs, level=level)
            s = summarize(pred, ev.region_ids, "r", level)
            assert np.array_equal(ev.lower, s.lower)
            assert np.array_equal(ev.upper, s.upper)
            assert np.array_equal(ev.predictive_mean, s.mean)

    @pytest.mark.parametrize("level", [1.5, 0.0])
    def test_level_checked(self, level):
        pred = np.tile([1.0, 2.0], (200, 1))
        with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
            evaluate_holdout(pred, np.array([1.0, 2.0]), level=level)

    def test_observed_raw_risks_standardize_within_slice(self):
        d = panel_dataset()
        raw = observed_raw_risks(d, 3)
        E = d.n[:, 3] * d.y[:, 3].sum() / d.n[:, 3].sum()
        assert raw == pytest.approx(d.y[:, 3] / E)
