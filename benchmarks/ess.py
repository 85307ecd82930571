"""Rank-normalized split-chain bulk effective sample size.

Implements the bulk ESS of Vehtari, Gelman, Simpson, Carpenter & Buerkner
(2021), "Rank-normalization, folding, and localization: an improved R-hat
for assessing convergence of MCMC", Bayesian Analysis 16(2): each chain is
split in half, the pooled draws are replaced by normal scores of their
ranks, and the autocorrelation sum is truncated by Geyer's initial
monotone sequence. Vectorized over parameters so the 10^4 spatial effects
of a large map cost one FFT.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def bulk_ess(draws) -> np.ndarray:
    """Bulk ESS of each column of a single chain's ``(draws, parameters)`` array.

    A 1-d input is one parameter and gives a 0-d result. Constant columns
    give NaN.
    """
    x = np.asarray(draws, dtype=float)
    scalar = x.ndim == 1
    x = x.reshape(x.shape[0], -1).T  # (P, n)
    half = x.shape[1] // 2
    if half < 4:
        raise ValueError("bulk ESS needs at least 8 draws")
    # split into two chains; an odd middle draw is dropped
    chains = np.stack([x[:, :half], x[:, -half:]], axis=1)  # (P, 2, half)
    total = 2 * half
    ranks = rankdata(chains.reshape(len(x), total), axis=1, method="average")
    z = ndtri((ranks - 0.375) / (total + 0.25)).reshape(chains.shape)

    centered = z - z.mean(axis=2, keepdims=True)
    size = 1 << (2 * half - 1).bit_length()
    f = np.fft.rfft(centered, n=size, axis=2)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=2)[..., :half] / half

    with np.errstate(invalid="ignore", divide="ignore"):
        mean_var = acov[..., 0].mean(axis=1) * half / (half - 1)
        var_plus = mean_var * (half - 1) / half + z.mean(axis=2).var(axis=1, ddof=1)
        rho = 1.0 - (mean_var[:, None] - acov.mean(axis=1)) / var_plus[:, None]
    rho[:, 0] = 1.0

    # Geyer: sums of adjacent pairs, truncated at the first non-positive one
    # and made monotone; the truncating pair's even term counts once if > 0
    n_pairs = (half - 3) // 2 + 1
    pairs = rho[:, 0:2 * n_pairs:2] + rho[:, 1:2 * n_pairs:2]
    stop = pairs[:, 1:] <= 0
    cut = np.where(stop.any(axis=1), stop.argmax(axis=1) + 1, n_pairs - 1)
    kept = np.arange(n_pairs)[None, :] < cut[:, None]
    monotone = np.minimum.accumulate(pairs, axis=1)
    extra = np.maximum(rho[np.arange(len(x)), 2 * cut], 0.0)
    tau = -1.0 + 2.0 * np.where(kept, monotone, 0.0).sum(axis=1) + extra
    tau = np.maximum(tau, 1.0 / np.log10(total))
    ess = np.where(np.isfinite(var_plus) & (var_plus > 0), total / tau, np.nan)
    return ess[0] if scalar else ess
