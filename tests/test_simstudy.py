import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arealrisk.model import ModelSpec
from arealrisk.sampler import SamplerConfig
from arealrisk.simstudy import (
    ReplicationBatch,
    TruthMap,
    TruthRecipe,
    build_truth,
    interval_comparisons,
    lattice_graph,
    loss_bias,
    loss_ratio,
    run_study,
    simulate_counts,
    study_report,
    synthetic_populations,
    write_matrix_csv,
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def grid():
    return lattice_graph(4)


@pytest.fixture(scope="module")
def pops(grid):
    # make regions 0, 5, 10 the three most populated, in that order
    p = np.full(grid.n_regions, 30_000.0)
    p[0], p[5], p[10] = 90_000.0, 80_000.0, 70_000.0
    return p


class TestBuildTruth:
    def test_hub_and_neighbor_bumps(self, grid, pops):
        t = build_truth(grid, pops)
        assert t.provenance["hubs"] == ["r0", "r5", "r10"]
        assert t.p_true[0] == pytest.approx(0.0025)  # largest hub
        assert t.p_true[5] == pytest.approx(0.002)
        assert t.p_true[10] == pytest.approx(0.002)
        # region 1 neighbors hub 0 and hub 5 but gets the bump once
        assert t.p_true[1] == pytest.approx(0.0015)
        # region 15 is far from every hub
        assert t.p_true[15] == pytest.approx(0.001)

    def test_explicit_hubs(self, grid, pops):
        t = build_truth(grid, pops, TruthRecipe(hubs=("r15", "r3", "r12")))
        assert t.p_true[15] == pytest.approx(0.0025)

    def test_unknown_hub_rejected(self, grid, pops):
        with pytest.raises(ValueError, match="unknown hub"):
            build_truth(grid, pops, TruthRecipe(hubs=("nope", "r3", "r12")))

    def test_weighted_mean_risk_is_one(self, grid, pops):
        t = build_truth(grid, pops)
        assert t.r_true @ pops / pops.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, 1.0])
    def test_incidence_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"true incidences must lie in \(0, 1\)"):
            TruthMap(("a", "b"), np.ones(2), np.array([0.1, bad]), np.ones(2), {})

    @pytest.mark.parametrize("field, value", [("baseline", np.inf),
                                              ("neighbor_bump", np.nan),
                                              ("hub_bumps", (0.001, -np.inf))])
    def test_non_finite_recipe_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"truth recipe {field} must be finite"):
            TruthRecipe(**{field: value})


class TestSimulateCounts:
    def test_deterministic_per_seed(self, grid, pops):
        t = build_truth(grid, pops)
        d1 = simulate_counts(t, seed=99)
        d2 = simulate_counts(t, seed=99)
        assert np.array_equal(d1.y, d2.y)
        d3 = simulate_counts(t, seed=100)
        assert not np.array_equal(d1.y, d3.y)

    def test_moment_check(self):
        # one region with n*p = 50, 1e5 replicate draws
        g = lattice_graph(2)
        pops_small = np.full(4, 50_000.0)
        t = build_truth(g, pops_small, TruthRecipe(hub_bumps=(), neighbor_bump=0.0))
        means = np.empty(4)
        draws = np.vstack([
            simulate_counts(t, seed=s).y for s in range(0, 200)
        ])
        # each column is Poisson(50); pool them for 800 draws then use a
        # dedicated big sample for the 1e5-draw check
        rng = np.random.default_rng(0)
        big = rng.poisson(50.0, size=100_000)
        assert abs(big.mean() - 50.0) < 3.0 * np.sqrt(50.0 / big.size)
        assert abs(draws.mean() - 50.0) < 3.0 * np.sqrt(50.0 / draws.size)


class TestLosses:
    def test_identity_is_zero(self):
        r = np.array([0.5, 1.0, 2.0])
        assert loss_ratio(r, r) == 0.0
        assert loss_bias(r, r) == 0.0

    def test_ratio_direct(self):
        assert loss_ratio([2.0, 0.5], [1.0, 1.0]) == pytest.approx(1.25)

    def test_ratio_quadratic_scaling(self):
        r_true = np.array([1.0, 2.0, 0.5])
        delta = np.array([0.1, -0.2, 0.05])
        l1 = loss_ratio(r_true + delta, r_true)
        l2 = loss_ratio(r_true + 2 * delta, r_true)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)

    def test_bias_e_fold(self):
        r_true = np.array([0.7, 1.3, 2.0, 0.4])
        assert loss_bias(np.e * r_true, r_true) == pytest.approx(4.0)

    def test_bias_swap_symmetry(self):
        a = np.array([0.5, 1.4])
        b = np.array([1.1, 0.9])
        assert loss_bias(a, b) == pytest.approx(loss_bias(b, a))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            loss_ratio([1.0], [0.0])
        with pytest.raises(ValueError):
            loss_bias([0.0], [1.0])
        with pytest.raises(ValueError):
            loss_bias([1.0], [-2.0])


def truth_stub_fit(dataset, graph, spec, config, truth, level):
    """Stand-in fit returning the truth with degenerate intervals."""
    r = truth.r_true.copy()
    if spec.family == "is":
        out = {"r_is": (r, r.copy(), r.copy())}
    else:
        out = {
            "r_cg_tilde": (r, r.copy(), r.copy()),
            "r_cg": (r, r.copy(), r.copy()),
        }
    return out, {}


def jittered_stub_fit(dataset, graph, spec, config, truth, level):
    """Stub with data-dependent jitter, for comparison plumbing tests."""
    rng = np.random.default_rng(config.seed)
    r = truth.r_true * np.exp(rng.normal(scale=0.05, size=truth.r_true.size))
    lo, hi = r * 0.8, r * 1.3
    if spec.family == "is":
        out = {"r_is": (r, lo, hi)}
    else:
        out = {"r_cg_tilde": (r, lo, hi), "r_cg": (r, lo * 0.9, hi * 0.9)}
    return out, {}


STUDY_SPECS = [ModelSpec("cg"), ModelSpec("is")]


def tiny_config(seed=0):
    return SamplerConfig(n_iterations=60, burn_in=20, thin=1, seed=seed,
                         adapt_window=10)


class TestRunStudy:
    def test_stub_truth_estimator_zero_loss_full_coverage(self, grid, pops):
        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=2, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=7, fit_fn=truth_stub_fit)
        for tag in ("r_is", "r_cg_tilde", "r_cg"):
            batch = res.batches[tag]
            assert batch.loss_ratio == pytest.approx([0.0, 0.0])
            assert batch.loss_bias == pytest.approx([0.0, 0.0])
            # degenerate [truth, truth] intervals count as covering
            assert np.all(batch.coverage == 1)
            assert np.all(batch.lengths == 0.0)
        assert res.batches["mle"].coverage is None
        assert res.batches["mle"].loss_ratio.shape == (2,)
        assert np.all(res.batches["mle"].loss_ratio > 0)

    def test_b_below_two_rejected(self, grid, pops):
        truth = build_truth(grid, pops)
        with pytest.raises(ValueError):
            run_study(grid, truth, B=1, specs=STUDY_SPECS, config=tiny_config(),
                      master_seed=7, fit_fn=truth_stub_fit)

    def test_replicates_paired_across_estimators(self, grid, pops):
        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=3, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=11, fit_fn=jittered_stub_fit)
        seeds = {tuple(b.replicate_seeds) for b in res.batches.values()}
        assert len(seeds) == 1

    def test_coverage_recomputable_from_matrices(self, grid, pops):
        # coverage entries must equal 1{lo <= r_true <= hi}, recomputed here
        # from the stub's known intervals and the stored truth
        from arealrisk.seeding import derive_seed

        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=3, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=13, fit_fn=jittered_stub_fit)
        batch = res.batches["r_cg"]
        assert set(np.unique(batch.coverage)) <= {0, 1}
        for b in range(3):
            seed = derive_seed(13, "fit", b, "cg", "logit")
            rng = np.random.default_rng(seed)
            r = truth.r_true * np.exp(rng.normal(scale=0.05,
                                                 size=truth.r_true.size))
            lo, hi = r * 0.8 * 0.9, r * 1.3 * 0.9
            expected = ((lo <= truth.r_true) & (truth.r_true <= hi)).astype(np.int8)
            assert np.array_equal(batch.coverage[b], expected)
            assert batch.lengths[b] == pytest.approx(hi - lo)

    def test_report_shape(self, grid, pops):
        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=2, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=17, fit_fn=jittered_stub_fit)
        rep = study_report(res)
        assert set(rep["estimators"]) == {"r_is", "r_cg_tilde", "r_cg", "mle"}
        assert "expected_loss" in rep["estimators"]["r_is"]
        assert "vs_r_is" in rep["estimators"]["r_cg"]
        assert "avg_coverage" in rep["estimators"]["r_cg_tilde"]
        assert rep["design"]["B_effective"] == 2

    def test_jobs_parallel_matches_serial(self, grid, pops):
        truth = build_truth(grid, pops)
        kw = dict(specs=STUDY_SPECS, config=tiny_config(), master_seed=23,
                  fit_fn=jittered_stub_fit)
        serial = run_study(grid, truth, B=4, jobs=1, **kw)
        parallel = run_study(grid, truth, B=4, jobs=2, **kw)
        for tag in serial.batches:
            assert np.array_equal(serial.batches[tag].loss_ratio,
                                  parallel.batches[tag].loss_ratio)
            if serial.batches[tag].lengths is not None:
                assert np.array_equal(serial.batches[tag].lengths,
                                      parallel.batches[tag].lengths)

    @pytest.mark.parametrize("jobs, B, workers", [(500, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_pool_has_at_most_one_worker_per_replicate(self, grid, pops, monkeypatch,
                                                       jobs, B, workers):
        # a fork pool starts all its workers at once: count the forks
        seen = []

        def fork():
            pid = real_fork()
            if pid:
                seen.append(pid)
            return pid

        real_fork = os.fork
        monkeypatch.setattr(os, "fork", fork)
        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=B, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=23, jobs=jobs, fit_fn=jittered_stub_fit)
        assert len(seen) == workers
        assert res.design["B_effective"] == B

    def test_jobs_parallel_matches_serial_whatever_the_default_start_method(self):
        # the workers are forked even where the default start method is not
        # fork, so a fit_fn that cannot be pickled still reaches them
        script = """\
import multiprocessing
multiprocessing.set_start_method("forkserver", force=True)
import numpy as np
from arealrisk.model import ModelSpec
from arealrisk.sampler import SamplerConfig
from arealrisk.simstudy import build_truth, lattice_graph, run_study

def main():
    def stub_fit(dataset, graph, spec, config, truth, level):
        rng = np.random.default_rng(config.seed)
        r = truth.r_true * np.exp(rng.normal(scale=0.05, size=truth.r_true.size))
        return {"r_" + spec.family: (r, r * 0.8, r * 1.3)}, {}

    grid = lattice_graph(3)
    truth = build_truth(grid, np.full(grid.n_regions, 50_000.0))
    config = SamplerConfig(n_iterations=60, burn_in=20, thin=1, adapt_window=10)
    runs = [run_study(grid, truth, 4, [ModelSpec("cg"), ModelSpec("is")], config,
                      master_seed=5, jobs=jobs, fit_fn=stub_fit) for jobs in (1, 2)]
    for tag, batch in runs[0].batches.items():
        other = runs[1].batches[tag]
        assert np.array_equal(batch.loss_ratio, other.loss_ratio), tag
        assert np.array_equal(batch.lengths, other.lengths), tag
    print(sorted(runs[0].batches))

main()
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['mle', 'r_cg', 'r_is']\n"

    def test_real_smoke_fit(self, grid, pops):
        # exercise the real fitting path at a tiny chain length
        truth = build_truth(grid, pops)
        cfg = SamplerConfig(n_iterations=300, burn_in=100, thin=2, seed=0,
                            adapt_window=50)
        res = run_study(grid, truth, B=2, specs=STUDY_SPECS, config=cfg,
                        master_seed=29)
        assert res.design["B_effective"] == 2
        for tag in ("r_is", "r_cg_tilde", "r_cg"):
            assert np.isfinite(res.batches[tag].loss_ratio).all()
            assert np.all(res.batches[tag].lengths > 0)


class TestIntervalComparisons:
    def _batch(self, tag, lengths, seeds=None):
        lengths = np.asarray(lengths, dtype=float)
        B, I = lengths.shape
        if seeds is None:
            seeds = np.arange(B, dtype=np.uint64)
        return ReplicationBatch(
            estimator=tag,
            replicate_seeds=np.asarray(seeds, dtype=np.uint64),
            loss_ratio=np.zeros(B),
            loss_bias=np.zeros(B),
            coverage=np.ones((B, I), dtype=np.int8),
            lengths=lengths,
        )

    def test_identical_batches_count_zero(self):
        lengths = np.random.default_rng(0).uniform(0.1, 1.0, size=(5, 4))
        a = self._batch("r_cg", lengths)
        b = self._batch("r_is", lengths.copy())
        out = interval_comparisons(a, b)
        assert out["row_wise_shorter"] == 0.0
        assert out["column_wise_shorter"] == 0.0

    def test_uniform_dominance(self):
        lengths = np.random.default_rng(1).uniform(0.1, 1.0, size=(6, 3))
        a = self._batch("r_cg", 0.9 * lengths)
        b = self._batch("r_is", lengths)
        out = interval_comparisons(a, b)
        assert out["row_wise_shorter"] == 1.0
        assert out["column_wise_shorter"] == 1.0

    def test_mismatched_seeds_rejected(self):
        lengths = np.ones((3, 2))
        a = self._batch("r_cg", lengths, seeds=[1, 2, 3])
        b = self._batch("r_is", lengths, seeds=[1, 2, 4])
        with pytest.raises(ValueError, match="paired"):
            interval_comparisons(a, b)


class TestSyntheticInputs:
    def test_populations_deterministic(self):
        p1 = synthetic_populations(50, 42)
        p2 = synthetic_populations(50, 42)
        assert np.array_equal(p1, p2)
        assert np.all(p1 >= 2e4 * 0.99) and np.all(p1 <= 2e5 * 1.01)

    def test_population_scale_arm(self):
        full = synthetic_populations(50, 42)
        tenth = synthetic_populations(50, 42, scale=0.1)
        assert tenth == pytest.approx(np.round(full * 0.1), abs=1.0)

    @pytest.mark.parametrize("low,high", [(0.0, 2e5), (-5.0, 2e5), (3e5, 2e5),
                                          (np.nan, 2e5), (2e4, np.inf)])
    def test_population_bounds_checked(self, low, high):
        with pytest.raises(ValueError, match="0 < low <= high < inf"):
            synthetic_populations(50, 42, low=low, high=high)

    def test_lattice_shape(self):
        g = lattice_graph(5)
        assert g.n_regions == 25
        assert g.n_edges == 2 * 5 * 4


# stubs for the failure path; they read the replicate only through the fit seed
FAIL_MASTER = 31


def _fit_seed(b, spec):
    from arealrisk.seeding import derive_seed

    return derive_seed(FAIL_MASTER, "fit", b, spec.family, spec.link)


def failing_on_one_stub_fit(dataset, graph, spec, config, truth, level):
    """Truth stub whose CG fit raises on replicate 1 of master seed FAIL_MASTER."""
    if spec.family == "cg" and config.seed == _fit_seed(1, spec):
        raise FloatingPointError("boom")
    out, _ = truth_stub_fit(dataset, graph, spec, config, truth, level)
    return out, acceptance_stub(config.seed)


def always_failing_stub_fit(dataset, graph, spec, config, truth, level):
    raise FloatingPointError("boom")


def acceptance_stub(seed):
    """Acceptance ranges that differ from fit seed to fit seed."""
    lo = np.random.default_rng(seed).uniform(0.1, 0.2, size=2)
    return {"phi": (float(lo[0]), float(lo[0] + 0.2)),
            "beta": (float(lo[1]), float(lo[1] + 0.1))}


class TestRunStudyFailures:
    """Failed replicates are recorded and dropped from every estimator."""

    def test_failed_fit_excluded_from_every_batch(self, grid, pops):
        from arealrisk.seeding import derive_seed

        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=3, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=FAIL_MASTER, fit_fn=failing_on_one_stub_fit)
        assert res.failures == [(1, "cg fit failed: boom")]
        assert res.design["B_effective"] == 2
        kept = [derive_seed(FAIL_MASTER, "replicate", b) for b in (0, 2)]
        assert set(res.batches) == {"r_is", "r_cg_tilde", "r_cg", "mle"}
        for batch in res.batches.values():
            assert batch.replicate_seeds.tolist() == kept
            assert batch.loss_ratio.shape == batch.loss_bias.shape == (2,)
            if batch.coverage is not None:
                assert batch.coverage.shape == batch.lengths.shape == (2, 16)

    @pytest.mark.parametrize("which", ["coverage", "lengths"])
    def test_matrix_rows_numbered_by_replicate_index(self, grid, pops, tmp_path,
                                                     which):
        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=3, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=FAIL_MASTER, fit_fn=failing_on_one_stub_fit)
        write_matrix_csv(res, which, tmp_path / "m.csv")
        rows = (tmp_path / "m.csv").read_text().splitlines()[1:]
        # replicate 1 failed: the rows keep the numbers 0 and 2 of the failures list
        assert sorted({int(row.split(",")[0]) for row in rows}) == [0, 2]
        assert len(rows) == 2 * grid.n_regions * 3  # r_is, r_cg_tilde, r_cg

    def test_zero_count_replicate_excluded(self, grid):
        from arealrisk.seeding import derive_seed

        truth = build_truth(grid, np.full(grid.n_regions, 3500.0))
        zero = [b for b in range(4) if np.any(simulate_counts(
            truth, seed=derive_seed(0, "replicate", b)).y == 0)]
        assert 0 < len(zero) < 4  # the populations give a mix at this seed
        res = run_study(grid, truth, B=4, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=0, fit_fn=truth_stub_fit)
        reason = "zero count in some region; raw log-risk undefined"
        assert res.failures == [(b, reason) for b in zero]
        assert res.design["B_effective"] == 4 - len(zero)
        assert res.batches["mle"].loss_ratio.shape == (4 - len(zero),)

    def test_every_replicate_failing_raises(self, grid, pops):
        truth = build_truth(grid, pops)
        with pytest.raises(RuntimeError, match="every replicate failed; first: "
                           r"\(0, 'cg fit failed: boom'\)"):
            run_study(grid, truth, B=2, specs=STUDY_SPECS, config=tiny_config(),
                      master_seed=FAIL_MASTER, fit_fn=always_failing_stub_fit)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_acceptance_range_over_kept_replicates(self, grid, pops, jobs):
        truth = build_truth(grid, pops)
        res = run_study(grid, truth, B=4, specs=STUDY_SPECS, config=tiny_config(),
                        master_seed=FAIL_MASTER, jobs=jobs,
                        fit_fn=failing_on_one_stub_fit)
        assert [b for b, _ in res.failures] == [1]
        expected = {}
        for spec in STUDY_SPECS:
            ranges = [acceptance_stub(_fit_seed(b, spec)) for b in (0, 2, 3)]
            for name in ("phi", "beta"):
                expected[f"{spec.family}:{name}"] = (
                    min(r[name][0] for r in ranges), max(r[name][1] for r in ranges))
        assert res.acceptance_range == expected
