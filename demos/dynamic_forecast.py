"""Dynamic fitting and one-step-ahead forecasting on a synthetic panel.

Builds a 9-year panel from a dynamic truth (spatial hubs plus an AR(1)
temporal drift), holds out the final year, fits the dynamic CG model on the
rest, and scores the forecasts with PMSE, CRPS, and interval coverage
against the held-out raw risks. Also shows the uncertainty gain of pooling
years: dynamic intervals for the last fitted year against a static
single-year fit.
"""

import numpy as np

from arealrisk import (
    Dataset,
    ModelSpec,
    SamplerConfig,
    build_truth,
    evaluate_holdout,
    forecast_risks,
    risk_cg_true,
    run_chain,
)
from arealrisk.metrics import observed_raw_risks
from arealrisk.simstudy import lattice_graph, synthetic_populations

SEED = 23
T = 9

# ----------------------------------------------------------------------
# 1. Simulate the panel: logit(p_it) = beta0 + phi_i + alpha_t

graph = lattice_graph(6)
I = graph.n_regions
pops = synthetic_populations(I, SEED, low=5e4, high=3e5)
truth = build_truth(graph, pops)

rng = np.random.default_rng(SEED)
beta0 = np.log(0.001 / 0.999)
phi_true = np.log(truth.p_true / (1 - truth.p_true)) - beta0
rho_true, omega_true = 0.85, 0.01
alpha_true = np.empty(T)
alpha_true[0] = rng.normal(scale=np.sqrt(omega_true / (1 - rho_true**2)))
for t in range(1, T):
    alpha_true[t] = rho_true * alpha_true[t - 1] + rng.normal(scale=np.sqrt(omega_true))

p = 1 / (1 + np.exp(-(beta0 + phi_true[:, None] + alpha_true[None, :])))
n = np.tile(pops[:, None], (1, T))
panel = Dataset(graph.region_ids, rng.poisson(n * p), n,
                np.ones((I, T, 1)), times=tuple(range(1980, 1980 + T)))

# ----------------------------------------------------------------------
# 2. Hold out the last year; fit dynamic CG on the rest

fit_panel = panel.time_prefix(T - 1)
config = SamplerConfig(n_iterations=8_000, burn_in=3_000, thin=2, seed=SEED)
spec = ModelSpec("cg", link="logit", temporal="dynamic_ar1")
dyn = run_chain(fit_panel, graph, spec, config)
print(f"posterior mean rho = {dyn.rho.mean():.3f} (truth {rho_true})")
print(f"posterior mean omega = {dyn.omega.mean():.4f} (truth {omega_true})")

# ----------------------------------------------------------------------
# 3. Forecast the held-out year and score against observed raw risks

pred = forecast_risks(dyn, panel, seed=SEED)["r_cg"]
observed = observed_raw_risks(panel, T - 1)
ev = evaluate_holdout(pred, observed, region_ids=panel.region_ids)
print(f"\nheld-out year {panel.times[-1]}: "
      f"PMSE={ev.pmse:.4f}  CRPS={ev.crps:.4f}  "
      f"90% interval coverage={ev.coverage * 100:.0f}%")

worst = np.argsort(np.abs(ev.predictive_mean - observed))[::-1][:5]
print("\nregion      predicted  interval          observed")
for i in worst:
    print(f"{panel.region_ids[i]:<10s} {ev.predictive_mean[i]:9.3f}  "
          f"[{ev.lower[i]:.3f}, {ev.upper[i]:.3f}]   {observed[i]:8.3f}")

# ----------------------------------------------------------------------
# 4. Pooling years tightens the last fitted year's intervals vs a
#    single-year static fit

last = fit_panel.time_slice(T - 2)
static = run_chain(last, graph, ModelSpec("cg", link="logit"),
                   SamplerConfig(n_iterations=8_000, burn_in=3_000, thin=2,
                                 seed=SEED + 1))
lo_d, hi_d = np.quantile(risk_cg_true(dyn, fit_panel, T - 2), [0.05, 0.95], axis=0)
lo_s, hi_s = np.quantile(risk_cg_true(static, last), [0.05, 0.95], axis=0)
d_len, s_len = hi_d - lo_d, hi_s - lo_s
print(f"\nlast fitted year: dynamic avg interval {d_len.mean():.3f} vs "
      f"static {s_len.mean():.3f}; dynamic shorter in "
      f"{np.mean(d_len < s_len) * 100:.0f}% of regions")
