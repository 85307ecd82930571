"""Replicate simulation studies comparing the risk estimators.

The truth map places a baseline incidence everywhere, elevates a few hub
regions (by default the most populated ones), and gives every neighbor of a
hub a smaller bump. Each replicate draws Poisson counts from the truth,
fits the requested models, and records losses of the posterior-mean
estimates, interval coverage against the true risks, and interval lengths.
Replicates are embarrassingly parallel with per-replicate seeds derived
from the master seed, so results do not depend on scheduling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import _risk_draws, summarize
from .graph import AdjacencyGraph
from .metrics import observed_raw_risks
from .model import Dataset, _write_csv
from .sampler import SamplerConfig, _fork_map, run_chain
from .seeding import derive_rng, derive_seed

__all__ = [
    "TruthRecipe",
    "TruthMap",
    "ReplicationBatch",
    "StudyResult",
    "build_truth",
    "simulate_counts",
    "loss_ratio",
    "loss_bias",
    "run_study",
    "interval_comparisons",
    "lattice_graph",
    "synthetic_populations",
    "write_matrix_csv",
]

logger = logging.getLogger(__name__)

MLE_TAG = "mle"


@dataclass(frozen=True)
class TruthRecipe:
    """Construction recipe for the true incidence surface."""

    baseline: float = 0.001
    hub_bumps: tuple = (0.0015, 0.001, 0.001)
    neighbor_bump: float = 0.0005
    hubs: tuple | None = None  # explicit region ids; default: most populated

    def __post_init__(self):
        for name in ("baseline", "hub_bumps", "neighbor_bump"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"truth recipe {name} must be finite, got {value}")


@dataclass(frozen=True)
class TruthMap:
    """True incidences, implied relative risks, and how they were built."""

    region_ids: tuple
    populations: np.ndarray
    p_true: np.ndarray
    r_true: np.ndarray
    provenance: dict

    def __post_init__(self):
        if not np.all((self.p_true > 0) & (self.p_true < 1)):
            raise ValueError("true incidences must lie in (0, 1)")


def build_truth(graph: AdjacencyGraph, populations,
                recipe: TruthRecipe = TruthRecipe()) -> TruthMap:
    """Apply the hub recipe to a graph and population vector.

    Hubs get the baseline plus their own bump; regions adjacent to at least
    one hub (and not hubs themselves) get the neighbor bump once.
    """
    populations = np.asarray(populations, dtype=float)
    if populations.shape != (graph.n_regions,):
        raise ValueError("populations not conformable with the graph")
    if recipe.hubs is not None:
        try:
            hub_idx = [graph.index(h) for h in recipe.hubs]
        except KeyError as exc:
            raise ValueError(f"unknown hub region id: {exc.args[0]!r}") from None
        if len(hub_idx) != len(recipe.hub_bumps):
            raise ValueError(
                f"{len(recipe.hub_bumps)} hub bumps but {len(hub_idx)} hub ids"
            )
    else:
        hub_idx = list(np.argsort(-populations, kind="stable")[: len(recipe.hub_bumps)])

    p = np.full(graph.n_regions, recipe.baseline)
    for i, bump in zip(hub_idx, recipe.hub_bumps):
        p[i] += bump
    ring = set()
    for i in hub_idx:
        ring.update(graph.neighbors(i).tolist())
    ring -= set(int(i) for i in hub_idx)
    for i in ring:
        p[i] += recipe.neighbor_bump

    # einsum, not BLAS ddot, whose rounding depends on the number of BLAS threads
    pbar = float(np.einsum("i,i->", p, populations) / populations.sum())
    return TruthMap(
        region_ids=graph.region_ids,
        populations=populations,
        p_true=p,
        r_true=p / pbar,
        provenance={
            "baseline": recipe.baseline,
            "hub_bumps": list(recipe.hub_bumps),
            "neighbor_bump": recipe.neighbor_bump,
            "hubs": [graph.region_ids[i] for i in hub_idx],
        },
    )


def simulate_counts(truth: TruthMap, seed: int = 0) -> Dataset:
    """Draw one replicate dataset: Y_i ~ Poisson(n_i p_i), seeded."""
    n = truth.populations
    rng = np.random.default_rng(seed)
    y = rng.poisson(n * truth.p_true)
    return Dataset(truth.region_ids, y, n, np.ones((len(n), 1)))


def loss_ratio(r_hat, r_true) -> float:
    """Relative squared error: sum_i (r_hat_i - r_i)^2 / r_i."""
    r_hat = np.asarray(r_hat, dtype=float)
    r_true = np.asarray(r_true, dtype=float)
    if np.any(r_true <= 0):
        raise ValueError("true risks must be strictly positive")
    return float(np.sum((r_hat - r_true) ** 2 / r_true))


def loss_bias(r_hat, r_true) -> float:
    """Squared log bias: sum_i (log r_hat_i - log r_i)^2."""
    r_hat = np.asarray(r_hat, dtype=float)
    r_true = np.asarray(r_true, dtype=float)
    if np.any(r_hat <= 0) or np.any(r_true <= 0):
        raise ValueError("risks must be strictly positive on both sides")
    return float(np.sum((np.log(r_hat) - np.log(r_true)) ** 2))


@dataclass
class ReplicationBatch:
    """Per-replicate losses, coverage, and interval lengths of one estimator."""

    estimator: str
    replicate_seeds: np.ndarray
    loss_ratio: np.ndarray  # (B,)
    loss_bias: np.ndarray  # (B,)
    coverage: np.ndarray | None  # (B, I) binary; None for point-only estimators
    lengths: np.ndarray | None  # (B, I)

    def expected_losses(self) -> dict:
        return {
            "ratio": float(self.loss_ratio.mean()),
            "bias": float(self.loss_bias.mean()),
        }


@dataclass
class StudyResult:
    """Everything a replicate study produced, paired across estimators."""

    truth: TruthMap
    level: float
    batches: dict  # estimator tag -> ReplicationBatch
    failures: list = field(default_factory=list)
    acceptance_range: dict = field(default_factory=dict)
    design: dict = field(default_factory=dict)


def _fit_and_summarize(dataset, graph, spec, config, truth, level):
    """One model fit -> {tag: (point, lower, upper)} over its estimators."""
    samples = run_chain(dataset, graph, spec, config)
    out = {}
    for tag, mat in _risk_draws(samples, dataset).items():
        s = summarize(mat, dataset.region_ids, tag, level)
        out[tag] = (s.mean, s.lower, s.upper)
    acc = {name: arr[np.isfinite(arr)] for name, arr in samples.acceptance.items()}
    acc_range = {
        name: (float(arr.min()), float(arr.max()))
        for name, arr in acc.items()
        if arr.size
    }
    return out, acc_range


@dataclass(frozen=True)
class _Replicate:
    """One replicate as its worker leaves it: scored, or why it was excluded."""

    index: int
    failure: str | None = None
    rows: dict = field(default_factory=dict)  # tag -> its one-row ReplicationBatch
    acceptance: dict = field(default_factory=dict)  # "family:block" -> (min, max)


def _stack(rows) -> ReplicationBatch:
    """One estimator's rows, in replicate order, as one batch."""
    def column(name):
        parts = [getattr(row, name) for row in rows]
        return None if parts[0] is None else np.concatenate(parts)
    return ReplicationBatch(rows[0].estimator, *map(column, (
        "replicate_seeds", "loss_ratio", "loss_bias", "coverage", "lengths")))


def _replicate_task(b, master_seed, graph, truth, specs, config, level,
                    fit_fn) -> _Replicate:
    data_seed = derive_seed(master_seed, "replicate", b)
    dataset = simulate_counts(truth, seed=data_seed)
    if np.any(dataset.y == 0):
        return _Replicate(b, "zero count in some region; raw log-risk undefined")

    estimates = {}
    acceptance = {}
    for spec in specs:
        fit_seed = derive_seed(master_seed, "fit", b, spec.family, spec.link)
        cfg = replace(config, seed=fit_seed)
        try:
            fit_out, acc = fit_fn(dataset, graph, spec, cfg, truth, level)
        except Exception as exc:  # recorded, never silently dropped
            return _Replicate(b, f"{spec.family} fit failed: {exc}")
        estimates.update(fit_out)
        acceptance.update({f"{spec.family}:{name}": r for name, r in acc.items()})
    estimates[MLE_TAG] = (observed_raw_risks(dataset), None, None)
    r = truth.r_true
    rows = {tag: ReplicationBatch(  # this replicate's row of each batch
        tag, np.array([data_seed], dtype=np.uint64),
        np.array([loss_ratio(point, r)]), np.array([loss_bias(point, r)]),
        None if lo is None else np.array([(lo <= r) & (r <= hi)], np.int8),
        None if lo is None else np.array([hi - lo]))
        for tag, (point, lo, hi) in estimates.items()}
    return _Replicate(b, rows=rows, acceptance=acceptance)


def run_study(graph: AdjacencyGraph, truth: TruthMap, B: int, specs,
              config: SamplerConfig, master_seed: int, jobs: int = 1,
              level: float = 0.90, fit_fn=_fit_and_summarize) -> StudyResult:
    """Simulate B replicates, fit every spec on each, and aggregate.

    All estimators within the study see the same replicate datasets
    (identical seeds), so interval comparisons are paired. Failed
    replicates are recorded with their index and excluded from every
    estimator, keeping the matrices conformable.
    """
    if B < 2:
        raise ValueError("a study needs at least two replicates")
    specs = list(specs)
    replicates = _fork_map(lambda b: _replicate_task(
        b, master_seed, graph, truth, specs, config, level, fit_fn), range(B), jobs)

    failures = [(r.index, r.failure) for r in replicates if r.failure is not None]
    kept = [r for r in replicates if r.failure is None]
    if not kept:
        raise RuntimeError(f"every replicate failed; first: {failures[0]}")
    for b, msg in failures:
        logger.warning("replicate %d excluded: %s", b, msg)

    batches = {tag: _stack([r.rows[tag] for r in kept]) for tag in kept[0].rows}
    acc_range: dict = {}
    for r in kept:
        for key, (lo, hi) in r.acceptance.items():
            old_lo, old_hi = acc_range.get(key, (lo, hi))
            acc_range[key] = (min(old_lo, lo), max(old_hi, hi))

    return StudyResult(
        truth=truth,
        level=level,
        batches=batches,
        failures=failures,
        acceptance_range=acc_range,
        design={
            "B_requested": B,
            "B_effective": len(kept),
            "master_seed": master_seed,
            "specs": [
                {"family": s.family, "link": s.link, "temporal": s.temporal}
                for s in specs
            ],
        },
    )


def interval_comparisons(batch_a: ReplicationBatch,
                         batch_b: ReplicationBatch) -> dict:
    """Row- and column-wise fraction of strictly shorter intervals (a vs b).

    Row-wise: per replicate, compare replicate-average lengths. Column-wise:
    per region, compare region-average lengths across replicates. Ties count
    as not shorter. Batches must come from the same replicates.
    """
    if batch_a.coverage is None or batch_b.coverage is None:
        raise ValueError("both batches need interval matrices")
    if not np.array_equal(batch_a.replicate_seeds, batch_b.replicate_seeds):
        raise ValueError("batches are not paired: replicate seeds differ")
    row_a = batch_a.lengths.mean(axis=1)
    row_b = batch_b.lengths.mean(axis=1)
    col_a = batch_a.lengths.mean(axis=0)
    col_b = batch_b.lengths.mean(axis=0)
    return {
        "row_wise_shorter": float(np.mean(row_a < row_b)),
        "column_wise_shorter": float(np.mean(col_a < col_b)),
    }


# ---------------------------------------------------------------------------
# synthetic inputs for desk-scale studies


def lattice_graph(side: int) -> AdjacencyGraph:
    """Rook-adjacency side x side lattice with ids ``r0``..``r{n-1}``."""
    if side < 2:
        raise ValueError("lattice side must be at least 2")
    edges = []
    for r in range(side):
        for c in range(side):
            i = side * r + c
            if c + 1 < side:
                edges.append((i, i + 1))
            if r + 1 < side:
                edges.append((i, i + side))
    return AdjacencyGraph([f"r{i}" for i in range(side * side)], edges)


def synthetic_populations(n_regions: int, master_seed: int,
                          low: float = 2e4, high: float = 2e5,
                          scale: float = 1.0) -> np.ndarray:
    """Log-uniform populations in [low, high], deterministic per seed."""
    if not 0.0 < low <= high < np.inf:
        raise ValueError(f"populations need 0 < low <= high < inf, got low={low}, "
                         f"high={high}")
    rng = derive_rng(master_seed, "populations")
    pops = np.exp(rng.uniform(np.log(low), np.log(high), size=n_regions))
    return np.round(pops * scale)


# ---------------------------------------------------------------------------
# report writers


def study_report(result: StudyResult) -> dict:
    """Table-shaped aggregates: losses, coverage, lengths, CG-vs-IS ratios."""
    report: dict = {
        "design": result.design,
        "level": result.level,
        "truth": result.truth.provenance,
        "failures": [{"replicate": b, "reason": msg} for b, msg in result.failures],
        "estimators": {},
        "acceptance_range": {
            k: {"min": v[0], "max": v[1]} for k, v in result.acceptance_range.items()
        },
    }
    baseline = result.batches.get("r_is")
    for tag, batch in result.batches.items():
        entry: dict = {"expected_loss": batch.expected_losses()}
        if batch.coverage is not None:
            entry["avg_coverage"] = float(batch.coverage.mean())
            entry["avg_length"] = float(batch.lengths.mean())
        if (
            baseline is not None
            and tag not in ("r_is", MLE_TAG)
            and batch.coverage is not None
        ):
            entry["vs_r_is"] = interval_comparisons(batch, baseline)
        report["estimators"][tag] = entry
    return report


def write_matrix_csv(result: StudyResult, which: str, path) -> None:
    """Write coverage or length matrices in long form.

    Rows are ``replicate,region,estimator,value`` for every estimator that
    carries intervals; ``replicate`` is the index that ``failures`` uses.
    """
    if which not in ("coverage", "lengths"):
        raise ValueError("which must be 'coverage' or 'lengths'")
    ids = result.truth.region_ids
    failed = {b for b, _ in result.failures}
    kept = [b for b in range(result.design["B_requested"]) if b not in failed]
    replicates = [b for b in kept for _ in ids]
    mats = {tag: getattr(batch, which) for tag, batch in result.batches.items()}
    _write_csv(path, ["replicate", "region", "estimator", "value"],
               [[replicates, ids * len(kept), tag, mat.ravel()]
                for tag, mat in mats.items() if mat is not None])
