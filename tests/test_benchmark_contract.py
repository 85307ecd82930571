"""The benchmark's traced run wraps program functions by name.

``benchmarks/launch.py`` lists them in ``TRACED`` and installs a wrapper on
each module attribute of that name; its per-layer metrics are keyed on
``<module>.<name>``. A rename or move in ``src/`` would crash the traced
run, so this test pins every listed name to a defining module.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "benchmarks" / "launch.py"
MODULES = ("cli", "simstudy", "sampler", "estimators", "metrics", "model", "graph")


def traced_names():
    tree = ast.parse(LAUNCH.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {LAUNCH}")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_defined_in_its_module(name):
    homes = []
    for short in MODULES:
        fn = getattr(importlib.import_module(f"arealrisk.{short}"), name, None)
        if fn is not None and fn.__module__ == f"arealrisk.{short}":
            homes.append(short)
    assert homes, f"{name} is not defined in any of {MODULES}"


# launch.py also patches module attributes by name, so the study must look them
# up through the module at call time, and cmd_study must call run_study in the
# shape its wrappers read (graph first, jobs by keyword).


def test_run_study_calls_run_chain_and_simulate_counts_through_the_module(
        monkeypatch):
    import numpy as np

    from arealrisk import simstudy
    from arealrisk.model import ModelSpec
    from arealrisk.sampler import SamplerConfig

    calls = {"run_chain": 0, "simulate_counts": 0}
    for name in calls:
        original = getattr(simstudy, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(simstudy, name, counting)
    graph = simstudy.lattice_graph(3)
    truth = simstudy.build_truth(graph, np.full(graph.n_regions, 1e5))
    config = SamplerConfig(n_iterations=150, burn_in=50, thin=1, seed=0,
                           adapt_window=25)
    res = simstudy.run_study(graph, truth, 2, [ModelSpec("cg"), ModelSpec("is")],
                             config, master_seed=1, jobs=1)
    assert res.design["B_effective"] == 2
    assert calls == {"run_chain": 4, "simulate_counts": 2}


def test_cmd_study_passes_graph_first_and_jobs_by_keyword(monkeypatch, tmp_path):
    from arealrisk import cli
    from arealrisk.graph import AdjacencyGraph

    seen = []

    def recording(*args, **kwargs):
        seen.append((args, kwargs))
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "run_study", recording)
    rc = cli.main(["study", "--replicates", "2", "--jobs", "2",
                   "--out", str(tmp_path)])
    assert rc == 1
    (args, kwargs), = seen
    assert isinstance(args[0], AdjacencyGraph)
    assert kwargs["jobs"] == 2


def test_cmd_fit_calls_its_writers_through_the_module_in_the_caller(
        monkeypatch, tmp_path):
    # the traced writer timings (sampler.write_draws_s, estimators.write_summary_s)
    # come from spans recorded in the launched process: a writer called in a
    # child process, or not through the name launch.py patches, goes unmeasured
    import os

    from arealrisk import cli, estimators, sampler

    calls = []
    for module, name in ((sampler, "write_draws_csv"),
                         (estimators, "write_summary_csv"),
                         (estimators, "write_geojson_properties")):
        original = getattr(module, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, os.getpid()))
            return _original(*args, **kwargs)

        # as launch.py's _install does: every module bound to the function
        for mod in (cli, sampler, estimators):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, recording)
    assert cli.main(["simulate", "--lattice", "3", "--out", str(tmp_path)]) == 0
    rc = cli.main(["fit", "--data", str(tmp_path / "dataset.csv"),
                   "--adjacency", str(tmp_path / "adjacency.csv"), "--family", "cg",
                   "--iterations", "300", "--burn-in", "100", "--thin", "2",
                   "--adapt-window", "50", "--dump-draws", "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(calls) == [("write_draws_csv", os.getpid()),
                             ("write_geojson_properties", os.getpid()),
                             ("write_summary_csv", os.getpid())]
