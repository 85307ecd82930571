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


def test_cmd_forecast_enters_run_chain_in_the_caller_before_any_worker(
        monkeypatch, tmp_path):
    # launch.py ends set-up at the first run_chain call of each process and,
    # under --setup-only, leaves there by os._exit; the traced run reads the
    # graph from the caller's run_chain spans. So the caller must enter
    # run_chain before it forks any worker that could enter it too.
    import multiprocessing
    import os

    import numpy as np

    from arealrisk import cli, sampler, simstudy

    calls = tmp_path / "calls"
    original = sampler.run_chain

    def recording(*args, **kwargs):
        # one line per call: the calling pid and how many children it has
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {len(multiprocessing.active_children())}\n")
        return original(*args, **kwargs)

    # as launch.py's _install does: every module bound to the function
    for mod in (cli, simstudy, sampler):
        if getattr(mod, "run_chain", None) is original:
            monkeypatch.setattr(mod, "run_chain", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    rows = ["region,year,y,n"]
    rng = np.random.default_rng(3)
    for year in range(2000, 2004):
        rows += [f"r{i},{year},{rng.poisson(40)},10000" for i in range(4)]
    (tmp_path / "panel.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "adjacency.csv").write_text("from,to\nr0,r1\nr1,r2\nr2,r3\nr3,r0\n")
    rc = cli.main(["forecast", "--data", str(tmp_path / "panel.csv"),
                   "--adjacency", str(tmp_path / "adjacency.csv"), "--family", "both",
                   "--iterations", "300", "--burn-in", "100", "--thin", "2",
                   "--adapt-window", "50", "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = [tuple(map(int, line.split())) for line in calls.read_text().splitlines()]
    assert len(lines) == 4
    assert lines[0] == (os.getpid(), 0)  # the caller's, before any worker exists
    assert {pid for pid, _ in lines[1:]} - {os.getpid()}  # the rest ran in workers
