"""Command-line entry point: fit, simulate, study, forecast, compare.

Every subcommand reads CSV inputs, writes deterministic artifacts into an
output directory, and exits 0 only when all requested artifacts were
written. Validation failures print a machine-readable JSON object to stderr
and exit nonzero. All randomness flows from a single seed (``--seed``, or
the ``AREALRISK_SEED`` environment variable as a fallback); sub-seeds are
derived by labeled hashing.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .estimators import (
    MIN_DRAWS,
    _check_level,
    _risk_draws,
    summarize,
    write_geojson_properties,
    write_summary_csv,
)
from .graph import load_adjacency
from .metrics import (
    evaluate_holdout,
    forecast_risks,
    observed_raw_risks,
    write_forecast_report,
)
from .model import (
    LINKS,
    ModelSpec,
    _check_fields,
    _check_population,
    _read_csv,
    _write_csv,
    _write_json,
    internal_standardization,
    load_dataset,
)
from .sampler import (
    SamplerConfig,
    _fork_map,
    run_chain,
    write_draws_csv,
    write_metadata_json,
)
from .seeding import derive_seed
from .simstudy import (
    TruthRecipe,
    build_truth,
    lattice_graph,
    run_study,
    simulate_counts,
    study_report,
    synthetic_populations,
    write_matrix_csv,
)

ENV_SEED = "AREALRISK_SEED"


class CommandError(ValueError):
    """User-facing validation failure."""


def _resolve_seed(args, default=0):
    """``--seed``, else the ``AREALRISK_SEED`` environment variable, else default."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise CommandError(f"{ENV_SEED} must be an integer, got {env!r}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_config(args) -> int:
    """Print the parsed flags and the resolved seed; study prints its merged INI."""
    if args.subcommand == "study":
        config = _study_settings(args)
    else:
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "print_config")}
        if "seed" in config:
            config["seed"] = _resolve_seed(args)
    _write_json(config, sys.stdout)
    return 0


def _sampler_config(args, seed: int) -> SamplerConfig:
    return SamplerConfig(
        n_iterations=args.iterations,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=seed,
        adapt_window=args.adapt_window,
    )


def _check_draws(config: SamplerConfig) -> None:
    """Reject, before any chain runs, a chain too short to summarize."""
    if config.n_draws < MIN_DRAWS:
        raise ValueError(f"(iterations - burn_in) // thin keeps {config.n_draws} "
                         f"draws; summaries need at least {MIN_DRAWS}")


def _add_sampler_flags(p):
    p.add_argument("--iterations", type=int, default=SamplerConfig.n_iterations,
                   help="total MCMC sweeps")
    p.add_argument("--burn-in", dest="burn_in", type=int,
                   default=SamplerConfig.burn_in)
    p.add_argument("--thin", type=int, default=SamplerConfig.thin)
    p.add_argument("--adapt-window", dest="adapt_window", type=int,
                   default=SamplerConfig.adapt_window)


def _add_common_flags(p):
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (fallback: ${ENV_SEED}, then 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved configuration and exit")


def _spec_from_args(args, family: str, temporal: str) -> ModelSpec:
    if family == "is":
        return ModelSpec("is", temporal=temporal)
    if args.link == "skewed_logit" and args.c0 is None:
        raise CommandError("skewed_logit requires --c0")
    return ModelSpec("cg", link=args.link, c0=args.c0, temporal=temporal)


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    seed = _resolve_seed(args)
    _check_level(args.level)
    _check_draws(_sampler_config(args, seed))
    dataset = load_dataset(args.data)
    internal_standardization(dataset)  # every family's summaries need E
    graph = load_adjacency(args.adjacency, region_ids=dataset.region_ids)
    temporal = "dynamic_ar1" if dataset.is_dynamic else "static"
    spec = _spec_from_args(args, args.family, temporal)
    config = _sampler_config(args, derive_seed(seed, "fit", spec.family, spec.link))

    samples = run_chain(dataset, graph, spec, config)
    dataset = dataset.reindex(samples.region_ids)
    slices = enumerate(dataset.times) if dataset.is_dynamic else [(None, None)]
    summaries = [summarize(draws, dataset.region_ids, tag, args.level, time=label)
                 for t, label in slices
                 for tag, draws in _risk_draws(samples, dataset, t).items()]

    out = _out_dir(args)
    write_summary_csv(summaries, out / "summary.csv")
    write_geojson_properties(summaries, out / "geojson_properties.json")
    write_metadata_json(samples, out / "metadata.json")
    if args.dump_draws:
        write_draws_csv(samples, out / "draws.csv")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _floats(text: str) -> tuple:
    """The floats of a comma-separated list."""
    return tuple(float(v) for v in text.split(","))


def _truth_recipe(baseline, hub_bumps, neighbor_bump, hubs) -> TruthRecipe:
    """The truth recipe, with hub ids from one CSV row: quote an id holding a comma."""
    cells = next(csv.reader([hubs or ""], skipinitialspace=True), [])
    hub_ids = tuple(h.strip() for h in cells if h.strip())
    return TruthRecipe(baseline=baseline, hub_bumps=hub_bumps,
                       neighbor_bump=neighbor_bump, hubs=hub_ids or None)


def _graph_and_populations(adjacency, lattice, path, scale, seed, bounds):
    """The graph (``adjacency``, else a ``lattice()``) and populations (``path``
    scaled and rounded, else synthetic in ``bounds()``) to simulate on."""
    if not 0.0 < scale < np.inf:
        raise CommandError("--population-scale (or [populations] scale) must be "
                           f"positive and finite, got {scale}")
    graph = load_adjacency(adjacency) if adjacency else lattice_graph(lattice())
    if path:
        return graph, np.round(_load_populations(path, graph) * scale)
    return graph, synthetic_populations(graph.n_regions, seed, scale=scale,
                                        **bounds())


def _load_populations(path, graph) -> np.ndarray:
    header, lines = _read_csv(path, CommandError)
    if [c.lower() for c in header[:2]] != ["region", "n"]:
        raise CommandError(f"{path}: populations header must be region,n")
    values = {}
    with lines as rows:
        for row in rows:
            if len(row) < 2:
                raise ValueError(f"expected region,n; got {row!r}")
            if row[0] in values:
                raise ValueError(f"repeated region {row[0]!r}")
            values[row[0]] = _check_population(float(row[1]))
    missing = [r for r in graph.region_ids if r not in values]
    if missing:
        raise CommandError(f"{path}: missing populations for {missing[:5]}")
    return np.array([values[r] for r in graph.region_ids])


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    if args.adjacency and not args.populations:
        raise CommandError("--populations is required with --adjacency")
    graph, pops = _graph_and_populations(args.adjacency, lambda: args.lattice,
                                         args.populations, args.population_scale,
                                         seed, lambda: {})
    recipe = _truth_recipe(args.baseline, _floats(args.hub_bumps),
                           args.neighbor_bump, args.hubs)
    truth = build_truth(graph, pops, recipe)
    dataset = simulate_counts(truth, seed=derive_seed(seed, "replicate", 0))

    out = _out_dir(args)
    _write_csv(out / "dataset.csv", ["region", "y", "n"],
               [[dataset.region_ids, dataset.y, dataset.n]])
    _write_csv(out / "truth.csv", ["region", "n", "p_true", "r_true"],
               [[truth.region_ids, truth.populations, truth.p_true, truth.r_true]])
    if not args.adjacency:
        ends = [[graph.region_ids[i] for i in end] for end in graph.edges.T.tolist()]
        _write_csv(out / "adjacency.csv", ["from", "to"], [ends])
    return 0


# ---------------------------------------------------------------------------
# study


STUDY_DEFAULTS = {
    "graph": {"lattice": "10", "adjacency": ""},
    "populations": {"path": "", "low": "2e4", "high": "2e5", "scale": "1.0"},
    "truth": {"baseline": "0.001", "hub_bumps": "0.0015,0.001,0.001",
              "neighbor_bump": "0.0005", "hubs": ""},
    "study": {"replicates": "100", "links": "logit", "c0": "0.004",
              "level": "0.9"},
    # studies tune toward an interior acceptance band so realized rates sit
    # inside the 15-40% requirement with margin after freezing
    "sampler": {"iterations": str(SamplerConfig.n_iterations),
                "burn_in": str(SamplerConfig.burn_in), "thin": str(SamplerConfig.thin),
                "adapt_window": str(SamplerConfig.adapt_window),
                "target_acceptance": "0.18,0.36"},
    "run": {"seed": "0", "jobs": "1"},
}

# the study flags that override an INI key: (flag, section, key)
_STUDY_FLAGS = [("replicates", "study", "replicates"), ("jobs", "run", "jobs"),
                ("link", "study", "links"), ("level", "study", "level"),
                ("population_scale", "populations", "scale"),
                ("iterations", "sampler", "iterations"),
                ("burn_in", "sampler", "burn_in")]


def _study_settings(args) -> dict:
    """The study INI over ``STUDY_DEFAULTS``, and the flags over both."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.read_dict(STUDY_DEFAULTS)
    if args.config:
        try:
            read = cp.read(args.config)
        except configparser.Error as exc:
            raise CommandError(f"{args.config}: {exc}") from None
        if not read:
            raise CommandError(f"study config not found: {args.config}")
    cfg = {s: dict(cp[s]) for s in cp.sections()}
    # flag overrides
    cfg["run"]["seed"] = str(_resolve_seed(args, default=cfg["run"]["seed"]))
    for flag, section, key in _STUDY_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            cfg[section][key] = str(value)
    return cfg


def _pair(text: str) -> tuple:
    """Two comma-separated floats."""
    pair = _floats(text)
    if len(pair) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return pair


def cmd_study(args) -> int:
    cfg = _study_settings(args)

    def setting(section, key, kind=float):
        """``[section] key`` converted by ``kind``; a bad value names the key."""
        try:
            return kind(cfg[section][key])
        except ValueError as exc:
            raise CommandError(f"{args.config}: [{section}] {key}: {exc}") from None

    seed = setting("run", "seed", int)
    # the report echoes cfg; jobs leaves it so that the report is the same
    # whatever the number of worker processes
    jobs = setting("run", "jobs", int)
    if jobs < 1:
        raise CommandError(f"[run] jobs (or --jobs) must be at least 1, got {jobs}")
    del cfg["run"]["jobs"]
    level = setting("study", "level")
    _check_level(level)
    sampler_config = SamplerConfig(
        n_iterations=setting("sampler", "iterations", int),
        burn_in=setting("sampler", "burn_in", int),
        thin=setting("sampler", "thin", int),
        seed=0,  # per-fit seeds are derived inside the study
        adapt_window=setting("sampler", "adapt_window", int),
        target_acceptance=setting("sampler", "target_acceptance", _pair),
    )
    _check_draws(sampler_config)
    B = setting("study", "replicates", int)
    if B < 2:
        raise CommandError("[study] replicates (or --replicates) must be at least "
                           f"2, got {B}")
    links = [s.strip() for s in cfg["study"]["links"].split(",") if s.strip()]
    if not links:
        raise CommandError("no link to fit: [study] links (or --link) is "
                           f"{cfg['study']['links']!r}")
    for link in links:
        if link not in LINKS:
            raise CommandError(f"unknown link {link!r}")
        if links.count(link) > 1:
            raise CommandError(f"link {link!r} is named more than once")
    c0 = None
    if "skewed_logit" in links:
        if not cfg["study"].get("c0", "").strip():
            raise CommandError("skewed_logit requested but config key "
                               "[study] c0 is missing")
        c0 = setting("study", "c0")

    scale = setting("populations", "scale")
    graph, pops = _graph_and_populations(
        cfg["graph"]["adjacency"], lambda: setting("graph", "lattice", int),
        cfg["populations"]["path"], scale, seed,
        lambda: {key: setting("populations", key) for key in ("low", "high")})

    recipe = _truth_recipe(setting("truth", "baseline"),
                           setting("truth", "hub_bumps", _floats),
                           setting("truth", "neighbor_bump"), cfg["truth"]["hubs"])
    truth = build_truth(graph, pops, recipe)
    cells = {link: run_study(graph, truth, B,
                             [ModelSpec("cg", link=link,
                                        c0=c0 if link == "skewed_logit" else None),
                              ModelSpec("is")],
                             sampler_config,
                             master_seed=derive_seed(seed, "study", link),
                             jobs=jobs, level=level)
             for link in links}

    out = _out_dir(args)
    report = {
        "config": cfg,
        "population_scale": scale,
        "cells": {link: study_report(res) for link, res in cells.items()},
    }
    with open(out / "study_report.json", "w") as fh:
        _write_json(report, fh)
    # long-format matrices for the first (or only) link cell
    first = cells[links[0]]
    write_matrix_csv(first, "coverage", out / "coverage.csv")
    write_matrix_csv(first, "lengths", out / "lengths.csv")
    return 0


# ---------------------------------------------------------------------------
# forecast


def _run_chains(tasks: dict) -> dict:
    """The samples of every chain in ``tasks`` (key -> ``run_chain`` arguments).

    The caller runs the first static chain itself, so that its first call into
    ``run_chain`` comes before any worker exists. The other chains, dynamic ones
    first, go through ``_fork_map``; ``run_chain`` is looked up here as each runs,
    so a wrapper installed on ``cli.run_chain`` reaches the workers. Each chain
    has its own seed, so the samples do not depend on the number of workers.
    """
    first = next(key for key in tasks if key[1] == "static")
    rest = sorted((key for key in tasks if key != first),
                  key=lambda key: key[1] == "static")
    samples = {first: run_chain(*tasks[first])}
    samples.update(zip(rest, _fork_map(lambda key: run_chain(*tasks[key]), rest)))
    return samples


def cmd_forecast(args) -> int:
    seed = _resolve_seed(args)
    _check_level(args.level)
    _check_draws(_sampler_config(args, seed))
    panel = load_dataset(args.data)
    if not panel.is_dynamic:
        raise CommandError("forecast requires a panel dataset with a year column")
    if panel.n_times < 3:
        raise CommandError("forecast needs at least 3 time points")
    graph = load_adjacency(args.adjacency, region_ids=panel.region_ids)
    panel = panel.reindex(graph.region_ids)

    labels = [str(t) for t in panel.times]
    t_hold = len(labels) - 1  # the last year is held out
    fit_panel = panel.time_prefix(t_hold)
    last_fitted = fit_panel.time_slice(t_hold - 1)
    observed = observed_raw_risks(panel, t_hold)

    families = ["cg", "is"] if args.family == "both" else [args.family]
    # every chain, keyed (family, temporal); each has its own derived seed
    tasks = {}
    for family in families:
        for temporal, data, label in (("dynamic_ar1", fit_panel, "dynamic"),
                                      ("static", last_fitted, "static")):
            config = _sampler_config(args, derive_seed(seed, "fit", label, family))
            tasks[family, temporal] = (data, graph,
                                       _spec_from_args(args, family, temporal), config)
    samples = _run_chains(tasks)
    report = {
        "holdout": labels[t_hold],
        "last_fitted_year": labels[t_hold - 1],
        "level": args.level,
        "estimators": {},
    }
    for family in families:
        dyn = samples[family, "dynamic_ar1"]
        sta = samples[family, "static"]

        # interval lengths in the last fitted year, dynamic against static
        d_lens = {tag: summarize(draws, panel.region_ids, tag, args.level).length
                  for tag, draws in _risk_draws(dyn, fit_panel, t_hold - 1).items()}
        s_lens = {tag: summarize(draws, panel.region_ids, tag, args.level).length
                  for tag, draws in _risk_draws(sta, last_fitted).items()}
        # one set of AR(1) innovations per family, shared by its tags
        preds = forecast_risks(dyn, panel, seed=derive_seed(seed, "forecast", family))
        for tag, d_len in d_lens.items():
            s_len = s_lens[tag]
            ev = evaluate_holdout(preds[tag], observed, level=args.level,
                                  region_ids=panel.region_ids)
            report["estimators"][tag] = {
                "rho_hat": float(dyn.rho.mean()),
                "intervals_last_fitted_year": {
                    "avg_dynamic": float(d_len.mean()),
                    "avg_static": float(s_len.mean()),
                    "pct_dynamic_shorter": float(np.mean(d_len < s_len)),
                },
                "prediction": {
                    "pmse": ev.pmse,
                    "crps": ev.crps,
                    "coverage": ev.coverage,
                },
                "regions": [
                    {
                        "region": region,
                        "predictive_mean": float(ev.predictive_mean[i]),
                        "lo": float(ev.lower[i]),
                        "hi": float(ev.upper[i]),
                        "observed": float(ev.observed[i]),
                    }
                    for i, region in enumerate(panel.region_ids)
                ],
            }

    out = _out_dir(args)
    write_forecast_report(report, out / "forecast_report.json")
    return 0


# ---------------------------------------------------------------------------
# compare


def _read_summary(path):
    header, lines = _read_csv(path, CommandError)
    missing = [c for c in ("region", "estimator", "length") if c not in header]
    if missing:
        raise CommandError(f"{path}: summary header lacks {', '.join(missing)}")
    rows = {}
    with lines as records:
        for cells in records:
            _check_fields(cells, header)
            row = dict(zip(header, cells))
            row["length"] = float(row["length"])
            if not np.isfinite(row["length"]):
                raise ValueError(f"length must be finite, got {row['length']}")
            key = (row["region"], row.get("time", ""), row["estimator"])
            if key in rows:
                at = f", time {key[1]!r}" if "time" in header else ""
                raise ValueError(f"repeated row for region {key[0]!r}{at}, "
                                 f"estimator {key[2]!r}")
            rows[key] = row
    if not rows:
        raise CommandError(f"{path}: empty summary file")
    return rows


def cmd_compare(args) -> int:
    left = _read_summary(args.left)
    right = _read_summary(args.right)
    lsel = {(r, t): row for (r, t, e), row in left.items()
            if e == args.left_estimator}
    rsel = {(r, t): row for (r, t, e), row in right.items()
            if e == args.right_estimator}
    if not lsel:
        raise CommandError(f"estimator {args.left_estimator!r} not in {args.left}")
    if not rsel:
        raise CommandError(f"estimator {args.right_estimator!r} not in {args.right}")
    common = sorted(set(lsel) & set(rsel))
    if not common:
        raise CommandError("no common (region, time) rows to compare")
    l_len = np.array([lsel[k]["length"] for k in common])
    r_len = np.array([rsel[k]["length"] for k in common])
    shorter = l_len < r_len
    report = {
        "left": {"path": args.left, "estimator": args.left_estimator,
                 "avg_length": float(l_len.mean())},
        "right": {"path": args.right, "estimator": args.right_estimator,
                  "avg_length": float(r_len.mean())},
        "n_compared": len(common),
        "n_left_shorter": int(shorter.sum()),
        "fraction_left_shorter": float(shorter.mean()),
    }
    with open(_out_dir(args) / "comparison.json", "w") as fh:
        _write_json(report, fh)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arealrisk",
        description="Disease mapping with IS/CG Poisson models and CAR smoothing",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="fit one model to one dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--adjacency", required=True)
    p_fit.add_argument("--family", choices=["is", "cg"], required=True)
    p_fit.add_argument("--link", choices=LINKS, default="logit")
    p_fit.add_argument("--c0", type=float, default=None)
    p_fit.add_argument("--dump-draws", dest="dump_draws", action="store_true")
    p_fit.add_argument("--level", type=float, default=0.90,
                       help="credible-interval level")
    _add_sampler_flags(p_fit)
    _add_common_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate one dataset from a truth map")
    p_sim.add_argument("--adjacency", default=None)
    p_sim.add_argument("--populations", default=None)
    p_sim.add_argument("--lattice", type=int, default=10)
    p_sim.add_argument("--baseline", type=float, default=0.001)
    p_sim.add_argument("--hub-bumps", dest="hub_bumps",
                       default="0.0015,0.001,0.001")
    p_sim.add_argument("--neighbor-bump", dest="neighbor_bump", type=float,
                       default=0.0005)
    p_sim.add_argument("--hubs", default=None,
                       help="comma-separated hub ids, quoted as in CSV "
                       "(default: most populated)")
    p_sim.add_argument("--population-scale", dest="population_scale", type=float,
                       default=1.0)
    _add_common_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_study = sub.add_parser("study", help="run a replicate simulation study")
    p_study.add_argument("--config", default=None, help="INI study config")
    p_study.add_argument("--replicates", "-B", type=int, default=None)
    p_study.add_argument("--jobs", type=int, default=None)
    p_study.add_argument("--link", default=None,
                         help="comma-separated links, overrides config")
    p_study.add_argument("--population-scale", dest="population_scale",
                         type=float, default=None)
    p_study.add_argument("--iterations", type=int, default=None)
    p_study.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p_study.add_argument("--level", type=float, default=None,
                         help="credible-interval level, overrides config")
    _add_common_flags(p_study)
    p_study.set_defaults(func=cmd_study)

    p_fc = sub.add_parser("forecast",
                          help="hold out the last year, fit, and score forecasts")
    p_fc.add_argument("--data", required=True)
    p_fc.add_argument("--adjacency", required=True)
    p_fc.add_argument("--family", choices=["is", "cg", "both"], default="both")
    p_fc.add_argument("--link", choices=LINKS, default="logit")
    p_fc.add_argument("--c0", type=float, default=None)
    p_fc.add_argument("--level", type=float, default=0.90,
                      help="credible-interval level")
    _add_sampler_flags(p_fc)
    _add_common_flags(p_fc)
    p_fc.set_defaults(func=cmd_forecast)

    p_cmp = sub.add_parser("compare",
                           help="compare interval lengths between two fits")
    p_cmp.add_argument("--left", required=True, help="summary.csv of one fit")
    p_cmp.add_argument("--right", required=True, help="summary.csv of another fit")
    p_cmp.add_argument("--left-estimator", dest="left_estimator", default="r_cg")
    p_cmp.add_argument("--right-estimator", dest="right_estimator",
                       default="r_is")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--print-config", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _print_config(args) if args.print_config else args.func(args)
    except (CommandError, ValueError, OSError, RuntimeError, KeyError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
