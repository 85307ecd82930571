"""Reference-series tests of the bulk ESS routine.

Run with ``python3 -m pytest benchmarks/test_ess.py``.
"""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

from ess import bulk_ess


def ar1(rho, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    return x


def loop_bulk_ess(x):
    """Scalar reference: Geyer's loop written out as in the paper's appendix."""
    half = len(x) // 2
    chains = np.stack([x[:half], x[-half:]])
    total = 2 * half
    z = ndtri((rankdata(chains.ravel()) - 0.375) / (total + 0.25)).reshape(2, half)
    acov = np.array([
        [np.dot(c[: half - k] - c.mean(), c[k:] - c.mean()) / half for k in range(half)]
        for c in z
    ])
    mean_var = acov[:, 0].mean() * half / (half - 1)
    var_plus = mean_var * (half - 1) / half + z.mean(axis=1).var(ddof=1)
    rho_t = np.zeros(half)
    rho_t[0] = even = 1.0
    rho_t[1] = odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    t = 1
    while t < half - 3 and even + odd > 0:
        even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if even + odd >= 0:
            rho_t[t + 1], rho_t[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0:
        rho_t[max_t + 1] = even
    t = 1
    while t <= max_t - 2:
        if rho_t[t + 1] + rho_t[t + 2] > rho_t[t - 1] + rho_t[t]:
            rho_t[t + 1] = rho_t[t + 2] = (rho_t[t - 1] + rho_t[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho_t[: max_t + 1].sum() + rho_t[max_t + 1 : max_t + 2].sum()
    return total / max(tau, 1.0 / np.log10(total))


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ar1_matches_analytic_ess(rho):
    n = 20_000
    estimates = [bulk_ess(ar1(rho, n, seed)) for seed in range(5)]
    analytic = n * (1.0 - rho) / (1.0 + rho)
    assert np.mean(estimates) == pytest.approx(analytic, rel=0.10)


def test_iid_gives_about_n():
    n = 20_000
    x = np.random.default_rng(3).standard_normal(n)
    assert bulk_ess(x) == pytest.approx(n, rel=0.05)


def test_vectorized_matches_scalar_loop():
    cols = [ar1(rho, 301, seed) for seed, rho in enumerate([0.0, 0.3, 0.8, 0.97])]
    got = bulk_ess(np.column_stack(cols))
    want = [loop_bulk_ess(c) for c in cols]
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_constant_column_is_nan():
    out = bulk_ess(np.column_stack([np.ones(50), np.arange(50.0) % 7]))
    assert np.isnan(out[0]) and np.isfinite(out[1])
