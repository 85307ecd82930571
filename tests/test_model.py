import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, log_expit
from scipy.stats import poisson

from arealrisk.estimators import _slice_eta
from arealrisk.model import (
    _ETA_MAX,
    Dataset,
    ModelSpec,
    _eta,
    _log_factorial_sum,
    _log_link,
    _poisson_terms,
    apply_link,
    internal_standardization,
    load_dataset,
    log_likelihood_cg,
    log_likelihood_is,
)
from tests.test_estimators import make_samples


def static_dataset(y, n, x=None):
    y = np.asarray(y)
    ids = [f"r{i}" for i in range(len(y))]
    if x is None:
        x = np.ones((len(y), 1))
    return Dataset(ids, y, n, x)


def random_static(rng, I):
    y = rng.integers(0, 21, size=I)
    n = rng.uniform(5.0, 200.0, size=I)
    return static_dataset(y, n)


class TestDataset:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            static_dataset([-1, 2], [10.0, 10.0])

    def test_rejects_nonpositive_population(self):
        with pytest.raises(ValueError):
            static_dataset([1, 2], [10.0, 0.0])

    def test_panel_shape_checks(self):
        with pytest.raises(ValueError):
            Dataset(["a", "b"], np.zeros((2, 3)), np.ones((2, 2)),
                    np.ones((2, 3, 1)), times=(1, 2, 3))

    def test_intercept_column_detected(self):
        d = static_dataset([1, 2], [5.0, 5.0], x=np.array([[1.0, 0.3], [1.0, -0.2]]))
        assert d.intercept_column == 0

    def test_reindex_roundtrip(self):
        d = static_dataset([1, 2, 3], [5.0, 6.0, 7.0])
        r = d.reindex(["r2", "r0", "r1"])
        assert r.region_ids == ("r2", "r0", "r1")
        assert list(r.y) == [3, 1, 2]
        assert r.reindex(d.region_ids).y.tolist() == d.y.tolist()


class TestInternalStandardization:
    def test_direct_arithmetic(self):
        d = static_dataset([1, 2, 3], [10.0, 20.0, 30.0])
        E = internal_standardization(d)
        assert E == pytest.approx([1.0, 2.0, 3.0])

    def test_equal_populations_give_mean_count(self):
        d = static_dataset([4, 0, 8], [7.0, 7.0, 7.0])
        E = internal_standardization(d)
        assert E == pytest.approx([4.0, 4.0, 4.0])

    def test_per_slice_identity(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 30, size=(4, 2)) + 1
        n = rng.uniform(10, 100, size=(4, 2))
        d = Dataset(["a", "b", "c", "d"], y, n, np.ones((4, 2, 1)), times=(1990, 1991))
        E = internal_standardization(d)
        for t in range(2):
            assert E[:, t].sum() == pytest.approx(y[:, t].sum(), rel=1e-12)

    def test_all_zero_slice_rejected(self):
        d = static_dataset([0, 0], [10.0, 20.0])
        with pytest.raises(ValueError, match="zero"):
            internal_standardization(d)

    def test_sum_identity_large(self):
        rng = np.random.default_rng(1)
        for I in (500, 10_000):
            d = random_static(rng, I)
            E = internal_standardization(d)
            assert E.sum() == pytest.approx(d.y.sum(), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(I=st.integers(1, 60), panel=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_sum_identity_fractional_populations(self, I, panel, seed):
        # sum(E) = sum(Y) within every slice, up to rounding
        rng = np.random.default_rng(seed)
        shape = (I, 3) if panel else (I,)
        y = rng.integers(0, 50, size=shape)
        y[0] += 1  # every slice has a positive total
        n = rng.uniform(0.5, 1e6, size=shape)
        d = Dataset([f"r{i}" for i in range(I)], y, n, np.ones(shape + (1,)),
                    times=(1990, 1991, 1992) if panel else None)
        E = internal_standardization(d)
        np.testing.assert_allclose(E.sum(axis=0), y.sum(axis=0), rtol=1e-12)

    def test_all_zero_panel_slice_rejected(self):
        y = np.array([[3, 0], [1, 0]])
        n = np.full((2, 2), 10.0)
        d = Dataset(["a", "b"], y, n, np.ones((2, 2, 1)), times=(1990, 1991))
        with pytest.raises(ValueError, match="1991"):
            internal_standardization(d)


class TestLinks:
    def test_logit_at_zero(self):
        assert apply_link("logit", 0.0) == pytest.approx(0.5)

    def test_cloglog_at_zero(self):
        assert apply_link("cloglog", 0.0) == pytest.approx(1.0 - np.exp(-1.0))

    def test_skewed_logit_at_zero(self):
        assert apply_link("skewed_logit", 0.0, c0=0.004) == pytest.approx(0.004 / 1.004)

    @pytest.mark.parametrize("link,c0", [("logit", None), ("cloglog", None),
                                         ("skewed_logit", 0.004)])
    def test_monotone_on_grid(self, link, c0):
        grid = np.linspace(-20, 20, 401)
        p = apply_link(link, grid, c0)
        assert np.all(np.diff(p) >= 0)
        interior = (p > 1e-9) & (p < 1.0 - 1e-9)
        assert np.all(np.diff(p[interior]) > 0)

    def test_skewed_requires_c0(self):
        with pytest.raises(ValueError):
            apply_link("skewed_logit", 0.0)


CG_LINKS = [("logit", None), ("cloglog", None), ("skewed_logit", 0.004)]


def reference_g(link, eta, c0):
    """log p from SciPy's log_expit, or the plain cloglog form (|eta| <= 700)."""
    if link == "cloglog":
        return np.log(-np.expm1(-np.exp(eta)))
    return log_expit(eta + (0.0 if c0 is None else np.log(c0)))


class TestLogSpaceKernel:
    """One Poisson kernel, y*l - exp(l) at l = offset + g(eta), with no clamp."""

    grid = np.linspace(-800.0, 800.0, 16001)

    @pytest.mark.parametrize("link,c0", CG_LINKS)
    def test_g_matches_reference(self, link, c0):
        eta = self.grid
        if link == "cloglog":  # where e^eta is a normal float and the bound is off
            eta = eta[np.abs(eta) <= _ETA_MAX]
        g, ref = _log_link(link, eta, c0), reference_g(link, eta, c0)
        assert np.abs(g - ref).max() <= 2.0**-52
        inside = np.abs(eta) <= _ETA_MAX  # past it the logit's e^-|eta| is bounded
        ulps = np.abs(g.view(np.int64) - ref.view(np.int64))
        assert ulps[inside].max() <= 4
        if link == "cloglog":  # past the bound, at +-inf and at NaN: the clipped bits
            far = np.array([800.0, -800.0, np.inf, -np.inf, np.nan])
            clipped = np.log(-np.expm1(-np.exp(np.clip(far, -_ETA_MAX, _ETA_MAX))))
            assert np.array_equal(_log_link(link, far), clipped, equal_nan=True)

    @pytest.mark.parametrize("link,c0", CG_LINKS + [(None, None)])
    def test_g_finite_and_nondecreasing(self, link, c0):
        with np.errstate(all="raise"):
            g = _log_link(link, self.grid, c0)
        assert np.isfinite(g).all()
        assert (np.diff(g) >= 0).all()
        assert (g <= 0).all() or link is None

    @pytest.mark.parametrize("link,c0", CG_LINKS + [(None, None)])
    def test_terms_match_poisson_pmf(self, link, c0):
        # with no clamp the terms follow the data where p < 1e-12 and, for
        # cloglog, where 1 - p < 1e-12 (eta > 3.3)
        rng = np.random.default_rng(11)
        eta = np.linspace(-700.0, 700.0, 14001)
        y = rng.integers(0, 30, size=eta.size)
        if link is None:
            offset = np.log(rng.uniform(0.5, 30.0, size=eta.size))  # log E
        else:
            offset = np.log(rng.uniform(20.0, 2e5, size=eta.size))  # log n
        spec = ModelSpec("is") if link is None else ModelSpec("cg", link=link, c0=c0)
        log_mu = offset + (eta if link is None else reference_g(link, eta, c0))
        keep = log_mu <= _ETA_MAX
        terms = _poisson_terms(y, offset, eta, spec)[keep]
        oracle = poisson.logpmf(y, np.exp(log_mu))[keep] + gammaln(y[keep] + 1.0)
        assert terms == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_exp_sees_log_mean_capped(self):
        # past exp()'s overflow near 709.8 an IS term stays finite
        y, eta = np.array([3, 0, 5]), np.array([650.0, 750.0, 1e4])
        with np.errstate(over="raise"):
            terms = _poisson_terms(y, np.zeros(3), eta, ModelSpec("is"))
        assert np.array_equal(terms, y * eta - np.exp(np.minimum(eta, _ETA_MAX)))


class TestModelSpec:
    def test_cg_defaults_to_logit(self):
        assert ModelSpec("cg").link == "logit"

    def test_is_rejects_link(self):
        with pytest.raises(ValueError):
            ModelSpec("is", link="logit")

    def test_skewed_requires_c0(self):
        with pytest.raises(ValueError):
            ModelSpec("cg", link="skewed_logit")

    def test_bad_tau_prior(self):
        with pytest.raises(ValueError):
            ModelSpec("cg", tau_prior=(0.0, 1.0))


class TestLikelihoods:
    def test_cg_zero_count(self):
        d = static_dataset([0], [10.0])
        # eta = 0 -> p = 0.5 -> Poisson mean 5, count 0
        assert log_likelihood_cg(d, [0.0], [0.0], "logit") == pytest.approx(-5.0)

    def test_cg_two_counts(self):
        d = static_dataset([2], [10.0])
        expected = -5.0 + 2.0 * np.log(5.0) - np.log(2.0)
        assert log_likelihood_cg(d, [0.0], [0.0], "logit") == pytest.approx(expected)

    def test_is_zero_count(self):
        d = static_dataset([0], [10.0])
        assert log_likelihood_is(d, np.array([2.0]), [0.0], [0.0]) == pytest.approx(-2.0)

    def test_is_two_counts(self):
        d = static_dataset([2], [10.0])
        expected = -2.0 + 2.0 * np.log(2.0) - np.log(2.0)
        assert log_likelihood_is(d, np.array([2.0]), [0.0], [0.0]) == pytest.approx(expected)

    def test_cg_matches_poisson_pmf_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            I = int(rng.integers(1, 11))
            d = random_static(rng, I)
            beta = rng.normal(scale=0.5, size=1)
            phi = rng.normal(scale=0.5, size=I)
            for link, c0 in (("logit", None), ("cloglog", None), ("skewed_logit", 0.3)):
                p = apply_link(link, d.x @ beta + phi, c0)
                oracle = poisson.logpmf(d.y, d.n * p).sum()
                got = log_likelihood_cg(d, beta, phi, link, c0)
                assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_is_matches_poisson_pmf_oracle(self):
        rng = np.random.default_rng(321)
        for _ in range(40):
            I = int(rng.integers(1, 11))
            d = random_static(rng, I)
            E = rng.uniform(0.5, 30.0, size=I)
            beta = rng.normal(scale=0.5, size=1)
            phi = rng.normal(scale=0.5, size=I)
            oracle = poisson.logpmf(d.y, E * np.exp(d.x @ beta + phi)).sum()
            got = log_likelihood_is(d, E, beta, phi)
            assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_panel_likelihood_matches_oracle(self):
        rng = np.random.default_rng(77)
        I, T = 4, 3
        y = rng.integers(0, 15, size=(I, T))
        n = rng.uniform(20, 80, size=(I, T))
        d = Dataset([f"r{i}" for i in range(I)], y, n, np.ones((I, T, 1)),
                    times=(1, 2, 3))
        beta = np.array([-2.0])
        phi = rng.normal(scale=0.3, size=I)
        alpha = rng.normal(scale=0.2, size=T)
        eta = np.ones((I, T)) * beta[0] + phi[:, None] + alpha[None, :]
        p = apply_link("logit", eta)
        oracle = poisson.logpmf(y, n * p).sum()
        got = log_likelihood_cg(d, beta, phi, "logit", alpha=alpha)
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_is_guard_keeps_huge_eta_finite(self):
        # exp(eta) overflows above ~709; the likelihood uses the sampler's
        # capped terms, so it stays finite and equals their sum
        d = static_dataset([3, 0, 5], [10.0, 20.0, 30.0])
        E = internal_standardization(d)
        beta, phi = np.array([705.0]), np.array([2.0, 0.0, -1.0])
        got = log_likelihood_is(d, E, beta, phi)
        terms = _poisson_terms(d.y, np.log(E), _eta(d.x @ beta, phi), ModelSpec("is"))
        assert np.isfinite(got)
        assert got == np.sum(terms - gammaln(d.y + 1.0))


# computes both likelihoods, then prints every scipy module the process loaded
_SCIPY_GUARD = """
import json, sys
import numpy as np
from arealrisk import Dataset, log_likelihood_cg, log_likelihood_is
d = Dataset(["a", "b"], [3, 0], [10.0, 20.0], np.ones((2, 1)))
log_likelihood_cg(d, [0.0], [0.0, 0.0], "logit")
log_likelihood_is(d, [1.0, 2.0], [0.0], [0.0, 0.0])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


class TestLogFactorialConstant:
    """The log(Y!) constants come from math.lgamma, without SciPy."""

    def test_matches_scipy_gammaln(self):
        y = np.unique(np.concatenate([np.arange(2000),
                                      np.geomspace(1, 1e6, 3000).astype(np.int64)]))
        assert y.max() == 10**6
        oracle = gammaln(y + 1.0)
        for v, want in zip(y, oracle):
            assert _log_factorial_sum([v]) == pytest.approx(want, rel=1e-12, abs=0)
        assert _log_factorial_sum(y) == pytest.approx(oracle.sum(), rel=1e-12, abs=0)
        panel = y[:3000].reshape(1000, 3)
        assert _log_factorial_sum(panel) == pytest.approx(gammaln(panel + 1.0).sum(),
                                                          rel=1e-12, abs=0)

    def test_likelihoods_load_no_scipy(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


class TestLinearPredictor:
    def test_static(self):
        d = static_dataset([1, 1], [5.0, 5.0])
        eta = _eta(d.x @ np.array([0.3]), np.array([-0.1, 0.0]))
        assert eta[0] == pytest.approx(0.2)

    def test_dynamic_adds_alpha(self):
        d = Dataset(["a"], [[1, 1]], [[5.0, 5.0]], np.ones((1, 2, 1)), times=(1, 2))
        eta = _eta(d.x @ np.array([0.3]), np.array([-0.1]), np.array([0.0, 0.05]))
        assert eta[0, 1] == pytest.approx(0.25)

    def test_all_zero(self):
        d = static_dataset([1], [5.0])
        assert _eta(d.x @ np.zeros(1), np.zeros(1))[0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), panel=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_match_single_state(self, k, panel, seed):
        # row d of the draws' eta is the one-state eta of (beta_d, phi_d, alpha_d)
        rng = np.random.default_rng(seed)
        I, T, D = 4, 3, 5
        ids = [f"r{i}" for i in range(I)]
        shape = (I, T) if panel else (I,)
        x = np.concatenate([np.ones(shape + (1,)),
                            rng.normal(size=shape + (k - 1,))], axis=-1)
        d = Dataset(ids, np.ones(shape, dtype=int), np.ones(shape), x,
                    times=tuple(range(T)) if panel else None)
        beta = rng.normal(size=(D, k))
        phi = rng.normal(size=(D, I))
        alpha = rng.normal(size=(D, T)) if panel else None
        temporal = "dynamic_ar1" if panel else "static"
        s = make_samples(ModelSpec("is", temporal=temporal), beta, phi, ids,
                         alpha=alpha, times=d.times)
        for t in range(T) if panel else [None]:
            batch = _slice_eta(s, d, t)
            for row in range(D):
                one = _eta(d.x @ beta[row], phi[row],
                           None if alpha is None else alpha[row])
                np.testing.assert_allclose(batch[row], one if t is None else one[:, t],
                                           rtol=1e-14, atol=1e-14)


class TestLoader:
    def test_static_roundtrip(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("region,y,n,x1\nA,3,100,0.5\nB,1,50,-0.2\n")
        d = load_dataset(f)
        assert d.region_ids == ("A", "B")
        assert not d.is_dynamic
        assert d.y.tolist() == [3, 1]
        assert d.x.shape == (2, 2)  # intercept prepended
        assert d.x[:, 0].tolist() == [1.0, 1.0]
        assert d.x[:, 1].tolist() == [0.5, -0.2]

    def test_panel_roundtrip(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text(
            "region,year,y,n\nA,1990,3,100\nA,1991,4,110\nB,1990,1,50\nB,1991,2,55\n"
        )
        d = load_dataset(f)
        assert d.is_dynamic
        assert d.times == (1990, 1991)
        assert d.y[0].tolist() == [3, 4]
        assert d.n[1].tolist() == [50.0, 55.0]

    def test_incomplete_panel_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("region,year,y,n\nA,1990,3,100\nA,1991,4,110\nB,1990,1,50\n")
        with pytest.raises(ValueError, match="incomplete"):
            load_dataset(f)

    def test_duplicate_panel_row_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("region,year,y,n\nA,1990,3,100\nA,1990,4,110\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("id,y,n\nA,3,100\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(f)

    def test_duplicate_static_row_named(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("region,y,n\nA,3,100\nB,1,50\nA,4,110\n")
        with pytest.raises(ValueError) as exc:
            load_dataset(f)
        assert str(exc.value) == f"{f}, line 4: duplicate row for region 'A'"

    def test_duplicate_panel_row_named(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("region,year,y,n\nA,1990,3,100\nA,1991,4,110\n"
                     "A,1990,4,110\n")
        with pytest.raises(ValueError) as exc:
            load_dataset(f)
        assert str(exc.value) == (f"{f}, line 4: duplicate row for region 'A', "
                                  "year 1990")

    @pytest.mark.parametrize("text", [
        "region,y,n,x1\nA,3,100,0.5\nB,1,50,-0.2\n",
        "region,year,y,n,x1\nA,1990,3,100,0.5\nA,1991,4,110,0.1\n"
        "B,1990,1,50,-0.2\nB,1991,2,55,0.0\n",
    ])
    def test_whitespace_rows_skipped(self, tmp_path, text):
        clean = tmp_path / "clean.csv"
        clean.write_text(text)
        lines = text.splitlines()
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join(lines[:2] + ["   ", " , ,  ,", "\t"] + lines[2:]
                                    + ["  "]) + "\n")
        a, b = load_dataset(clean), load_dataset(padded)
        assert a.region_ids == b.region_ids and a.times == b.times
        for name in ("y", "n", "x"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_static_and_panel_arrays(self, tmp_path):
        # regions keep their order of first appearance; times are sorted
        f = tmp_path / "data.csv"
        f.write_text("region,year,y,n,x1\nB,1991,4,110,0.1\nA,1990,3,100,0.5\n"
                     "B,1990,1,50,-0.2\nA,1991,2,55,0.0\n")
        d = load_dataset(f)
        assert d.region_ids == ("B", "A") and d.times == (1990, 1991)
        assert d.y.tolist() == [[1, 4], [3, 2]]
        assert d.x[..., 1].tolist() == [[-0.2, 0.1], [0.5, 0.0]]
        s = tmp_path / "static.csv"
        s.write_text("region,y,n\nB,4,110\nA,3,100\n")
        d = load_dataset(s)
        assert d.y.shape == (2,) and d.x.shape == (2, 1)
        assert d.n.tolist() == [110.0, 100.0]

    def test_nonfinite_covariate_named(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("region,y,n,x1,x2\nA,3,100,0.5,1\nB,1,50,inf,2\n")
        with pytest.raises(ValueError) as exc:
            load_dataset(f)
        assert str(exc.value) == (f"{f}, line 3: covariates must be finite, "
                                  "got [inf, 2.0]")
