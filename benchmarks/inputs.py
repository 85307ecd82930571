"""Seeded input generators for the benchmark workloads.

Everything here is plain NumPy, independent of the ``arealrisk`` package,
so a change to the program cannot change the inputs a workload feeds it.
The same (seed, shape) always writes the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BASELINE = 0.001
HUB_BUMPS = (0.0015, 0.001, 0.001)
NEIGHBOR_BUMP = 0.0005
POP_LOW, POP_HIGH = 2e4, 2e5
AR1_RHO, AR1_OMEGA = 0.8, 0.01


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode()])


def lattice_edges(side: int) -> list[tuple[int, int]]:
    """Rook adjacency of a side x side lattice, regions numbered row-major."""
    edges = []
    for r in range(side):
        for c in range(side):
            i = side * r + c
            if c + 1 < side:
                edges.append((i, i + 1))
            if r + 1 < side:
                edges.append((i, i + side))
    return edges


def populations(seed: int, n_regions: int) -> np.ndarray:
    """Log-uniform populations in [2e4, 2e5], rounded to whole people."""
    u = _rng(seed, "populations").uniform(np.log(POP_LOW), np.log(POP_HIGH),
                                          n_regions)
    return np.round(np.exp(u))


def hub_truth(edges, pops) -> np.ndarray:
    """Hub incidences: the most populated regions get a bump, their neighbors less."""
    p = np.full(len(pops), BASELINE)
    hubs = np.argsort(-pops, kind="stable")[: len(HUB_BUMPS)]
    p[hubs] += HUB_BUMPS
    hub_set = set(hubs.tolist())
    ring = {j for i, j in edges if i in hub_set} | {i for i, j in edges if j in hub_set}
    ring -= hub_set
    p[sorted(ring)] += NEIGHBOR_BUMP
    return p


def _write_adjacency(path: Path, edges) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("from,to\n")
        fh.writelines(f"r{i},r{j}\n" for i, j in edges)


def write_static_map(out: Path, side: int, seed: int) -> dict:
    """Hub-truth counts on a lattice: dataset.csv, adjacency.csv, truth.npz."""
    edges = lattice_edges(side)
    pops = populations(seed, side * side)
    p = hub_truth(edges, pops)
    y = _rng(seed, "counts").poisson(pops * p)
    _write_adjacency(out / "adjacency.csv", edges)
    with open(out / "dataset.csv", "w", newline="") as fh:
        fh.write("region,y,n\n")
        fh.writelines(f"r{i},{int(y[i])},{float(pops[i])!r}\n" for i in range(len(y)))
    r_true = p / (p @ pops / pops.sum())
    np.savez(out / "truth.npz", n=pops, y=y, r_true=r_true)
    return {"regions": len(pops), "edges": len(edges)}


def write_study_config(out: Path, side: int, seed: int, replicates: int,
                       iterations: int, burn_in: int, thin: int,
                       adapt_window: int) -> dict:
    """Populations CSV and the study INI in the criterion-5 shape."""
    pops = populations(seed, side * side)
    with open(out / "populations.csv", "w", newline="") as fh:
        fh.write("region,n\n")
        fh.writelines(f"r{i},{float(v)!r}\n" for i, v in enumerate(pops))
    (out / "study.ini").write_text(
        "[graph]\n"
        f"lattice = {side}\n"
        "[populations]\n"
        f"path = {out / 'populations.csv'}\n"
        "scale = 1.0\n"
        "[study]\n"
        f"replicates = {replicates}\n"
        "links = logit\n"
        "level = 0.9\n"
        "[sampler]\n"
        f"iterations = {iterations}\n"
        f"burn_in = {burn_in}\n"
        f"thin = {thin}\n"
        f"adapt_window = {adapt_window}\n"
        "target_acceptance = 0.18,0.36\n"
        "[run]\n"
        f"seed = {seed}\n"
    )
    return {"regions": side * side, "replicates": replicates}


def write_panel(out: Path, side: int, years: int, seed: int) -> dict:
    """A hub-truth spatial field with AR(1) year effects on the cloglog scale."""
    edges = lattice_edges(side)
    pops = populations(seed, side * side)
    p0 = hub_truth(edges, pops)
    rng = _rng(seed, "panel")
    alpha = np.empty(years)
    alpha[0] = rng.normal(scale=np.sqrt(AR1_OMEGA / (1.0 - AR1_RHO**2)))
    for t in range(1, years):
        alpha[t] = AR1_RHO * alpha[t - 1] + rng.normal(scale=np.sqrt(AR1_OMEGA))
    eta = np.log(-np.log1p(-p0))[:, None] + alpha[None, :]
    p = -np.expm1(-np.exp(eta))
    n = np.tile(pops[:, None], (1, years))
    y = rng.poisson(n * p)
    _write_adjacency(out / "adjacency.csv", edges)
    with open(out / "panel.csv", "w", newline="") as fh:
        fh.write("region,year,y,n\n")
        for i in range(len(pops)):
            fh.writelines(f"r{i},{2000 + t},{int(y[i, t])},{float(pops[i])!r}\n"
                          for t in range(years))
    return {"regions": len(pops), "years": years}
