"""Reductions over edges, regions or draws do not depend on the BLAS thread count.

OpenBLAS splits a long ``ddot`` or ``gemv`` across its threads, and the split
changes the rounding: before these sums went through ``einsum``, every fit on a
100x100 lattice, and the summaries, forecasts and study truths of large maps,
differed between a run pinned to one CPU and an unpinned one. Each case runs
in two subprocesses, at 1 and 2 BLAS threads, and compares the bits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

SETUP = """\
import numpy as np
from arealrisk.simstudy import lattice_graph
g = lattice_graph(110)  # 12,100 regions, 24,000 edges: above ddot's threading cut
rng = np.random.default_rng(0)
n = rng.uniform(1e4, 1e5, g.n_regions)
"""

CASES = {
    "car_pairwise_sum": """\
from arealrisk.graph import car_pairwise_sum
values = [car_pairwise_sum(g, rng.normal(size=g.n_regions)) for _ in range(8)]
""",
    "risk_cg_true": """\
from arealrisk.estimators import risk_cg_true
from arealrisk.model import Dataset, ModelSpec
from arealrisk.sampler import PosteriorSamples, SamplerConfig
data = Dataset(g.region_ids, np.ones(g.n_regions), n, np.ones((g.n_regions, 1)))
p = rng.uniform(1e-3, 2e-3, (100, g.n_regions))
samples = PosteriorSamples(
    ModelSpec("cg"), SamplerConfig(), g.region_ids, None, beta=np.zeros((100, 1)),
    phi=np.log(p / (1.0 - p)), tau=np.ones(100), alpha=None, rho=None, omega=None,
    acceptance={}, proposal_scales={}, n_nonfinite_events=0)
values = risk_cg_true(samples, data)[:, 0]
""",
    "crps_empirical": """\
from arealrisk.metrics import crps_empirical
values = [crps_empirical(rng.normal(size=20_001), 0.1) for _ in range(4)]
""",
    "build_truth": """\
from arealrisk.simstudy import build_truth
values = build_truth(g, n).r_true[:4]
""",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_bits_at_one_and_two_blas_threads(case):
    script = SETUP + CASES[case] + "print(*(float(v).hex() for v in values))\n"
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout.split())
    assert len(bits[0]) >= 4
    assert bits[0] == bits[1]
