"""One workload process: ``arealrisk.cli.main`` with benchmark hooks.

    python3 launch.py --src SRC --probe PROBE.json --capture DIR
                      [--trace SPANS.json] [--serial] [--setup-only]
                      -- <arealrisk args>

Hooks are pass-through wrappers installed from this file on the module
attributes that ``arealrisk.cli`` and ``arealrisk.simstudy`` call, so the
program under test is unchanged:

- probe: stamps the wall-clock time of the first call into ``run_chain``
  or ``run_study`` (the end of set-up) and times ``run_study``. With
  ``--setup-only`` the process exits at that first call.
- capture: saves the tau, beta0, phi and rho draws, acceptance rates and
  non-finite event count of every fit, for ESS and failure counting. Study
  worker processes are forked, so they inherit it.
- trace (optional): records a span per call of each public function the
  CLI and the study harness use, kept in memory and written at exit, with
  the time the tracing itself took.
- serial (optional): runs ``run_study`` with ``jobs=1`` whatever the
  command line asked, so the CLI arguments, and so the echoed config in
  the artifacts, stay the same as in the parallel run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

TRACED = [
    "load_dataset", "load_adjacency", "run_chain", "risk_is", "risk_cg_tilde",
    "risk_cg_true", "summarize", "write_summary_csv", "write_geojson_properties",
    "write_metadata_json", "write_draws_csv", "forecast_risks",
    "evaluate_holdout", "write_forecast_report", "run_study", "simulate_counts",
    "study_report", "write_matrix_csv",
]


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    A request is one fit, or one replicate inside a study. A span joins the
    request that produced its first argument, or else its parent's.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.owner = {}  # id(result) -> (result, request); holds a reference
        self.requests = 0
        self.replicate = None
        self.graphs = {}
        self.overhead = 0.0  # seconds spent in the wrappers outside the wrapped calls

    def _request(self, name, args, parent):
        if name == "simstudy.simulate_counts":
            self.requests += 1
            self.replicate = self.requests
            return self.replicate
        if name == "sampler.run_chain":
            if self.replicate is not None:
                return self.replicate
            self.requests += 1
            return self.requests
        if args and id(args[0]) in self.owner:
            return self.owner[id(args[0])][1]
        return 0 if parent is None else self.spans[parent]["request"]

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = self.stack[-1] if self.stack else None
            span = {"name": name, "parent": parent,
                    "request": self._request(name, args, parent)}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            self.owner[id(out)] = (out, span["request"])
            self._annotate(name, span, args, out)
            self.overhead += (span["start"] - entered
                              + time.perf_counter() - span["end"])
            return out
        return traced

    def _annotate(self, name, span, args, out):
        if name == "sampler.run_chain":
            self.graphs[id(args[1])] = args[1]
            s = out
            params = s.beta.shape[1] + s.phi.shape[1] + 1
            if s.alpha is not None:
                params += s.alpha.shape[1] + 2
            spec = s.spec.family + ("" if s.spec.family == "is" else f"-{s.spec.link}")
            span["attrs"] = {"spec": spec + ("-dyn" if s.alpha is not None else ""),
                             "family": s.spec.family,
                             "sweeps": s.config.n_iterations,
                             "draws": s.n_draws, "params": params}
        elif name == "simstudy.run_study":
            self.graphs[id(args[0])] = args[0]
        elif name == "metrics.evaluate_holdout":
            draws, regions = args[0].shape
            span["attrs"] = {"draws": draws, "regions": regions}

    def dump(self, path):
        t0 = time.perf_counter()
        graphs = [{"n_edges": g.n_edges, "n_colors": len(g.coloring())}
                  for g in self.graphs.values()]
        overhead = self.overhead + time.perf_counter() - t0
        Path(path).write_text(json.dumps({"spans": self.spans, "graphs": graphs,
                                          "overhead_s": overhead}))


def _install(modules, name, make):
    """Replace ``name`` in every module bound to the same function."""
    original = None
    for mod in modules:
        if hasattr(mod, name):
            original = original or getattr(mod, name)
    wrapped = make(original)
    for mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


def _layer(fn):
    return fn.__module__.rsplit(".", 1)[-1]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", required=True)
    parser.add_argument("--capture", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--serial", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    opts, cli_args = parser.parse_known_args(argv)
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    sys.path.insert(0, opts.src)
    import numpy as np
    from arealrisk import cli, estimators, graph, metrics, model, sampler, simstudy

    modules = [cli, simstudy, sampler, estimators, metrics, model, graph]
    probe = {"first_call": None, "run_study_s": None}
    capture_dir = Path(opts.capture)
    capture_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if opts.trace else None

    if tracer:
        for name in TRACED:
            _install(modules, name,
                     lambda fn: tracer.wrap(f"{_layer(fn)}.{fn.__name__}", fn))

    def mark_setup_done():
        if probe["first_call"] is None:
            probe["first_call"] = time.time()
            if opts.setup_only:
                Path(opts.probe).write_text(json.dumps(probe))
                os._exit(0)

    def capturing(fn):
        @functools.wraps(fn)
        def run_chain(*args, **kwargs):
            mark_setup_done()
            s = fn(*args, **kwargs)
            key = f"{s.spec.family}-{s.spec.link}-{s.spec.temporal}-{s.config.seed}"
            arrays = {f"acc_{k}": v for k, v in s.acceptance.items()}
            np.savez(capture_dir / f"{key}.npz", tau=s.tau, beta0=s.beta[:, 0],
                     phi=s.phi, rho=np.empty(0) if s.rho is None else s.rho,
                     nonfinite=s.n_nonfinite_events, **arrays)
            return s
        return run_chain

    def probing(fn):
        @functools.wraps(fn)
        def run_study(*args, **kwargs):
            mark_setup_done()
            if opts.serial:
                kwargs["jobs"] = 1
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            probe["run_study_s"] = time.perf_counter() - t0
            return out
        return run_study

    _install(modules, "run_chain", capturing)
    _install(modules, "run_study", probing)

    entry = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    try:
        return entry(cli_args)
    finally:
        Path(opts.probe).write_text(json.dumps(probe))
        if tracer:
            tracer.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main())
