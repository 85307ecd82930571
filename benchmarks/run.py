"""Benchmark of the ``arealrisk`` CLI: wall time, ESS per second, memory, failures.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload drives the CLI as a separate
process (``launch.py``) on inputs generated from ``--seed`` by
``inputs.py``, checks every artifact, and prints human-readable lines
followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` times the set-up alone, then repeats the workload until
``--seconds``, counted from the start of the run, is used up (at least
twice), and reports the end-to-end metrics. ``--trace 1`` runs the
workload once untraced and once traced, checks that both wrote identical
artifacts, and reports the per-layer metrics from the spans. Everything a
run writes stays under ``.bench_work/`` in the repository root.

Workloads (why each exists is in ``BENCHMARK.json``):

- ``fit-100x100``: ``fit --dump-draws`` with CG/logit, then IS, on a
  100x100 rook lattice. Single chain, NumPy-bound sweeps, big writers.
- ``study-10x10``: ``study --jobs 2`` in the criterion-5 shape. Many short
  call-overhead-bound fits in a process pool.
- ``forecast-10x10-t10``: ``forecast --family both --link cloglog`` on a
  10-year AR(1) panel. The only workload with dynamic blocks and CRPS.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from ess import bulk_ess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INVOCATION_TIMEOUT_S = 150
SETUP_ONLY_LAUNCHES = 3
MIN_ITERATIONS = 2
# a repeat starts only if it fits even when it is this much slower than the
# slowest so far: the host's speed drifts by up to a quarter over a run
HEADROOM = 1.25
# outside the repeats: interpreter start, the draw checks and ESS, the write-out
EXIT_MARGIN_S = 2.0
CRPS_MAX_DRAWS = 2_000

# chains: (iterations, burn-in, thin, adapt window); each burn-in holds 8-10
# adaptation windows, so the proposal scales settle before the draws
FIT_CHAIN = (600, 400, 2, 50)  # 100 draws: the summaries' minimum, ~8 MB per fit
STUDY_CHAIN = (3_000, 2_000, 1, 250)
STUDY_REPLICATES = 8
STUDY_JOBS = 2
FORECAST_CHAIN = (3_000, 1_000, 1, 100)  # 2,000 draws: the CRPS draw cap binds


# ---------------------------------------------------------------------------
# running one workload process


@dataclass
class Invocation:
    label: str
    args: list
    artifacts: tuple
    ops: int  # fits or replicates this invocation performs


@dataclass
class Outcome:
    exit_code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    probe: dict
    out: Path
    capture: Path
    spans: Path | None
    stderr: str


def _environment() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(cli_args, probe: Path, capture: Path, spans: Path | None = None,
            serial=False, setup_only=False):
    """Run launch.py to completion; return (exit code, wall s, launch time, rss MB, stderr)."""
    cmd = [sys.executable, str(HERE / "launch.py"), "--src", str(SRC),
           "--probe", str(probe), "--capture", str(capture)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if serial:
        cmd.append("--serial")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *cli_args]
    err_path = probe.with_suffix(".stderr")
    with open(err_path, "w") as err:
        launched = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=_environment(), start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB: the largest process of the tree
    return proc.returncode, wall, launched, usage.ru_maxrss / 1024.0, err_path.read_text()


def run_invocation(inv: Invocation, where: Path, trace=False, serial=False) -> Outcome:
    out = where / inv.label
    capture = where / "capture" / inv.label
    probe = where / f"{inv.label}.probe.json"
    spans = where / f"{inv.label}.spans.json" if trace else None
    out.mkdir(parents=True)
    args = [a.replace("{out}", str(out)) for a in inv.args]
    code, wall, launched, rss, stderr = _launch(args, probe, capture, spans, serial)
    info = json.loads(probe.read_text()) if probe.exists() else {}
    first = info.get("first_call")
    return Outcome(code, wall, None if first is None else first - launched,
                   rss, info, out, capture, spans, stderr)


def setup_only_seconds(inv: Invocation, where: Path) -> float | None:
    """Launch to first run_chain/run_study call, exiting there."""
    where.mkdir(parents=True, exist_ok=True)
    probe = where / "setup.probe.json"
    out = where / "out"
    args = [a.replace("{out}", str(out)) for a in inv.args]
    code, _, launched, _, _ = _launch(args, probe, where / "capture", setup_only=True)
    if code != 0 or not probe.exists():
        return None
    return json.loads(probe.read_text())["first_call"] - launched


# ---------------------------------------------------------------------------
# output checks


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(o: Outcome, inv: Invocation) -> dict:
    return {name: _digest(o.out / name) for name in inv.artifacts
            if (o.out / name).exists()}


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _rel_sq_loss(r_hat, r_true) -> float:
    return float(np.sum((r_hat - r_true) ** 2 / r_true))


def check_fit(o: Outcome, inputs_dir: Path) -> tuple:
    """Problems found and operations failed, for one ``fit`` (one operation)."""
    problems = []
    truth = np.load(inputs_dir / "truth.npz")
    n, y, r_true = truth["n"], truth["y"], truth["r_true"]
    index = {f"r{i}": i for i in range(len(n))}
    rows = {}
    with open(o.out / "summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["estimator"], []).append(row)
    if not rows:
        return ["summary.csv has no rows"], 1
    for tag, tag_rows in rows.items():
        if sorted(index[r["region"]] for r in tag_rows) != list(range(len(n))):
            problems.append(f"{tag}: summary rows do not cover every region once")
            continue
        vals = np.array([[float(r[c]) for c in
                          ("mean", "median", "lo90", "hi90", "length", "exceedance")]
                         for r in tag_rows])
        mean, med, lo, hi, _, exc = vals.T
        order = np.argsort([index[r["region"]] for r in tag_rows])
        mean = mean[order]
        if not np.isfinite(vals).all():
            problems.append(f"{tag}: non-finite summary values")
        if not ((lo <= med) & (med <= hi)).all():
            problems.append(f"{tag}: lo <= median <= hi violated")
        if not ((0 <= exc) & (exc <= 1)).all():
            problems.append(f"{tag}: exceedance outside [0, 1]")
        if tag == "r_cg" and abs(n @ mean - n.sum()) > 1e-9 * n.sum():
            problems.append("r_cg: sum n_i mean(r_cg)_i != sum n_i")
        if tag in ("r_cg", "r_is"):
            raw = y / (n * y.sum() / n.sum())
            if not _rel_sq_loss(mean, r_true) < _rel_sq_loss(raw, r_true):
                problems.append(f"{tag}: posterior-mean loss not below raw Y/E loss")
    meta = json.loads((o.out / "metadata.json").read_text())
    expected_rows = meta["n_draws"] * (len(n) + 2) + 1  # beta0, phi, tau
    with open(o.out / "draws.csv", "rb") as fh:
        lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    if lines != expected_rows:
        problems.append(f"draws.csv has {lines} lines, expected {expected_rows}")
    return problems, int(bool(problems))


def check_study(o: Outcome, inputs_dir: Path) -> tuple:
    """Problems found and replicates failed: the excluded ones, or all on a bad report."""
    problems = []
    report = json.loads((o.out / "study_report.json").read_text())
    cell = report["cells"]["logit"]
    design = cell["design"]
    excluded = design["B_requested"] - design["B_effective"]
    est = cell["estimators"]
    for tag in ("r_is", "r_cg_tilde", "r_cg", "mle"):
        if tag not in est or not _finite(*est[tag]["expected_loss"].values()):
            problems.append(f"{tag}: missing or non-finite expected loss")
            continue
        if tag != "mle" and not 0 <= est[tag]["avg_coverage"] <= 1:
            problems.append(f"{tag}: coverage outside [0, 1]")
    if not problems and not (est["r_cg"]["expected_loss"]["ratio"]
                             < est["mle"]["expected_loss"]["ratio"]):
        problems.append("r_cg expected loss not below the raw Y/E loss")
    regions = len(np.loadtxt(inputs_dir / "populations.csv", delimiter=",",
                             skiprows=1, usecols=1))
    for name in ("coverage.csv", "lengths.csv"):
        with open(o.out / name) as fh:
            lines = sum(1 for _ in fh)
        if lines != 3 * design["B_effective"] * regions + 1:
            problems.append(f"{name} has {lines} lines")
    failed = design["B_requested"] if problems else excluded
    if excluded:
        problems.append(f"{excluded} of {design['B_requested']} replicates excluded")
    return problems, failed


def check_forecast(o: Outcome, inputs_dir: Path) -> tuple:
    """Problems found and fits failed: all four when the report is wrong."""
    problems = []
    report = json.loads((o.out / "forecast_report.json").read_text())
    for tag in ("r_cg_tilde", "r_cg", "r_is"):
        entry = report["estimators"].get(tag)
        if entry is None:
            problems.append(f"{tag}: missing from the report")
            continue
        pred = entry["prediction"]
        if not (_finite(pred["pmse"], pred["crps"]) and 0 <= pred["coverage"] <= 1):
            problems.append(f"{tag}: PMSE/CRPS not finite or coverage outside [0, 1]")
        if not -1 < entry["rho_hat"] < 1:
            problems.append(f"{tag}: rho_hat outside (-1, 1)")
        for r in entry["regions"]:
            if not (_finite(r["predictive_mean"], r["lo"], r["hi"], r["observed"])
                    and r["lo"] <= r["hi"]):
                problems.append(f"{tag}: bad forecast for region {r['region']}")
                break
    return problems, 4 if problems else 0


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    make_inputs: object  # (dir, seed) -> dict
    invocations: object  # (dir, seed) -> list[Invocation]
    check: object  # (Outcome, inputs dir) -> (problems, operations failed)
    jobs: int = 1


def _chain_flags(chain):
    it, burn, thin, window = chain
    return ["--iterations", str(it), "--burn-in", str(burn), "--thin", str(thin),
            "--adapt-window", str(window)]


def _fit_invocations(d: Path, seed: int):
    common = ["fit", "--data", str(d / "dataset.csv"), "--adjacency",
              str(d / "adjacency.csv"), "--dump-draws", "--seed", str(seed),
              "--out", "{out}", *_chain_flags(FIT_CHAIN)]
    artifacts = ("summary.csv", "geojson_properties.json", "metadata.json",
                 "draws.csv")
    return [Invocation("cg-logit", common + ["--family", "cg", "--link", "logit"],
                       artifacts, 1),
            Invocation("is", common + ["--family", "is"], artifacts, 1)]


def _study_invocations(d: Path, seed: int):
    return [Invocation("study", ["study", "--config", str(d / "study.ini"),
                                 "--jobs", str(STUDY_JOBS), "--out", "{out}"],
                       ("study_report.json", "coverage.csv", "lengths.csv"),
                       STUDY_REPLICATES)]


def _forecast_invocations(d: Path, seed: int):
    return [Invocation("forecast", ["forecast", "--data", str(d / "panel.csv"),
                                    "--adjacency", str(d / "adjacency.csv"),
                                    "--family", "both", "--link", "cloglog",
                                    "--seed", str(seed), "--out", "{out}",
                                    *_chain_flags(FORECAST_CHAIN)],
                       ("forecast_report.json",), 4)]


WORKLOADS = {
    w.name: w for w in [
        Workload("fit-100x100", lambda d, s: inputs.write_static_map(d, 100, s),
                 _fit_invocations, check_fit),
        Workload("study-10x10",
                 lambda d, s: inputs.write_study_config(
                     d, 10, s, STUDY_REPLICATES, *STUDY_CHAIN),
                 _study_invocations, check_study, jobs=STUDY_JOBS),
        Workload("forecast-10x10-t10", lambda d, s: inputs.write_panel(d, 10, 10, s),
                 _forecast_invocations, check_forecast),
    ]
}


# ---------------------------------------------------------------------------
# one iteration = every invocation of a workload, in order


@dataclass
class Iteration:
    outcomes: list
    digests: dict  # label -> {artifact: sha256}
    failed: int
    attempted: int
    problems: list

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


def _captures(o: Outcome) -> list:
    return sorted(o.capture.glob("*.npz")) if o.capture.exists() else []


def run_iteration(w: Workload, invs, inputs_dir: Path, where: Path,
                  trace=False, serial=False) -> Iteration:
    outcomes, digests, problems = [], {}, []
    failed = attempted = 0
    for inv in invs:
        o = run_invocation(inv, where, trace, serial)
        outcomes.append(o)
        attempted += inv.ops
        missing = [a for a in inv.artifacts if not (o.out / a).exists()]
        if o.exit_code != 0 or missing:
            tail = o.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"{inv.label}: exit {o.exit_code}, missing {missing}; "
                            f"{tail[0]}")
            failed += inv.ops
            continue
        digests[inv.label] = artifact_digests(o, inv)
        try:
            found, check_failed = w.check(o, inputs_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found, check_failed = [f"check raised {type(exc).__name__}: {exc}"], inv.ops
        problems += [f"{inv.label}: {p}" for p in found]
        bad_fits = sum(int(np.load(c)["nonfinite"]) > 0 for c in _captures(o))
        if bad_fits:
            problems.append(f"{inv.label}: {bad_fits} fit(s) with non-finite events")
        failed += min(inv.ops, check_failed + bad_fits)
    return Iteration(outcomes, digests, failed, attempted, problems)


def _compare_digests(first: Iteration, other: Iteration, what: str) -> list:
    return [f"{label}: artifacts differ from {what}"
            for label, d in other.digests.items()
            if first.digests.get(label) != d]


# ---------------------------------------------------------------------------
# ESS from captured draws


def ess_totals(outcomes) -> dict:
    """Sum over fits of bulk ESS: tau, beta0, median over regions of phi, rho."""
    tot = {"tau": 0.0, "beta0": 0.0, "phi_median": 0.0, "rho": 0.0, "fits": 0}
    for o in outcomes:
        for path in _captures(o):
            c = np.load(path)
            tot["tau"] += float(bulk_ess(c["tau"]))
            tot["beta0"] += float(bulk_ess(c["beta0"]))
            tot["phi_median"] += float(np.median(bulk_ess(c["phi"])))
            if c["rho"].size:
                tot["rho"] += float(bulk_ess(c["rho"]))
            tot["fits"] += 1
    return tot


def draws_fingerprint(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        for path in _captures(o):
            c = np.load(path)
            h.update(path.name.encode())
            for key in ("tau", "beta0", "phi", "rho"):
                h.update(np.ascontiguousarray(c[key]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _self_times(spans) -> list:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def load_spans(outcomes) -> tuple:
    """Spans of every traced process, concatenated; their graphs; tracing seconds."""
    spans, graphs, overhead = [], [], 0.0
    for o in outcomes:
        data = json.loads(o.spans.read_text())
        offset = len(spans)
        for s in data["spans"]:
            if s["parent"] is not None:
                s["parent"] += offset
            spans.append(s)
        graphs += data["graphs"]
        overhead += data["overhead_s"]
    return spans, graphs, overhead


def layer_metrics(spans, graphs, captures) -> dict:
    def total(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    chains = [s for s in spans if s["name"] == "sampler.run_chain"]
    m = {
        "graph.n_edges": max(g["n_edges"] for g in graphs),
        "graph.n_colors": max(g["n_colors"] for g in graphs),
        "sampler.run_chain_s": total("sampler.run_chain"),
        "sampler.sweeps": sum(s["attrs"]["sweeps"] for s in chains),
        "sampler.draw_bytes": sum(s["attrs"]["draws"] * s["attrs"]["params"] * 8
                                  for s in chains),
        "estimators.risk_s": total("estimators.risk_is", "estimators.risk_cg_tilde",
                                   "estimators.risk_cg_true"),
        "estimators.summarize_s": total("estimators.summarize"),
    }
    by_spec = {}
    for s in chains:
        by_spec.setdefault(s["attrs"]["spec"], []).append(
            1e6 * (s["end"] - s["start"]) / s["attrs"]["sweeps"])
    for spec, values in by_spec.items():
        m[f"sampler.us_per_sweep.{spec}"] = statistics.median(values)

    rates, nonfinite = {}, 0
    for path in captures:
        c = np.load(path)
        nonfinite += int(c["nonfinite"])
        for key in c.files:
            if key.startswith("acc_"):
                rates.setdefault(key[4:], []).append(c[key][np.isfinite(c[key])])
    rates = {k: np.concatenate(v) for k, v in rates.items()}
    m["sampler.accept_rate.phi.min"] = float(rates["phi"].min())
    m["sampler.accept_rate.phi.median"] = float(np.median(rates["phi"]))
    m["sampler.accept_rate.phi.max"] = float(rates["phi"].max())
    m["sampler.accept_rate.beta.min"] = float(rates["beta"].min())
    if "alpha" in rates:
        m["sampler.accept_rate.alpha.min"] = float(rates["alpha"].min())
        m["sampler.accept_rate.rho"] = float(np.mean(rates["rho"]))
    m["sampler.nonfinite_events"] = nonfinite

    own = _self_times(spans)
    m["cli.self_s"] = sum(t for s, t in zip(spans, own) if s["name"] == "cli.main")
    optional = {
        "graph.load_adjacency_s": ("graph.load_adjacency",),
        "model.load_dataset_s": ("model.load_dataset",),
        "sampler.write_draws_s": ("sampler.write_draws_csv",),
        "sampler.write_metadata_s": ("sampler.write_metadata_json",),
        "estimators.write_summary_s": ("estimators.write_summary_csv",
                                       "estimators.write_geojson_properties"),
        "metrics.forecast_risks_s": ("metrics.forecast_risks",),
        "metrics.evaluate_holdout_s": ("metrics.evaluate_holdout",),
        "simstudy.run_study_s": ("simstudy.run_study",),
        "simstudy.simulate_counts_s": ("simstudy.simulate_counts",),
        "simstudy.write_outputs_s": ("simstudy.study_report",
                                     "simstudy.write_matrix_csv"),
    }
    names = {s["name"] for s in spans}
    for metric, span_names in optional.items():
        if names.intersection(span_names):
            m[metric] = total(*span_names)
    holdouts = [s["attrs"] for s in spans if s["name"] == "metrics.evaluate_holdout"]
    if holdouts:  # computed: regions x (draws after thinning to the cap)^2
        m["metrics.crps_pairs"] = sum(
            a["regions"] * len(range(0, a["draws"],
                                     math.ceil(a["draws"] / CRPS_MAX_DRAWS))) ** 2
            for a in holdouts)
    if "simstudy.run_study" in names:
        fits = [s["end"] - s["start"] for s in chains]
        m["simstudy.fit_s.median"] = statistics.median(fits)
        m["simstudy.fit_s.max"] = max(fits)
    return m


def layer_table(spans) -> dict:
    """Self time per layer (module), summed over its spans."""
    table = {}
    for s, own in zip(spans, _self_times(spans)):
        layer = s["name"].split(".")[0]
        table[layer] = table.get(layer, 0.0) + own
    return table


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    import scipy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "git_sha": sha,
            "src_sha256": src.hexdigest(), "threads_pinned": list(PINNED_THREADS)}


# ---------------------------------------------------------------------------
# main


def _metric(value, unit):
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def run_timed(w: Workload, seed: int, seconds: float, started: float, base: Path,
              inputs_dir: Path):
    """End-to-end metrics; the budget counts from ``started``, set-up launches included."""
    invs = w.invocations(inputs_dir, seed)
    setups, problems = [], []
    for k in range(SETUP_ONLY_LAUNCHES):
        s = setup_only_seconds(invs[0], base / f"setup-{k}")
        if s is None:
            problems.append("setup-only launch failed")
        else:
            setups.append(s)
    iterations = []
    while True:
        it = run_iteration(w, invs, inputs_dir, base / f"iter-{len(iterations)}")
        iterations.append(it)
        problems += it.problems
        elapsed = time.perf_counter() - started
        walls = [i.wall_s for i in iterations]
        if it.failed == it.attempted or len(iterations) >= MIN_ITERATIONS and (
                elapsed + HEADROOM * max(walls) + EXIT_MARGIN_S > seconds):
            break
    setups += [o.setup_s for it in iterations for o in it.outcomes
               if o.setup_s is not None]

    # Parent-side post-processing comes after the last launch: a forked child
    # starts with this process's peak RSS, which would leak into its reading.
    first = iterations[0]
    fingerprint = draws_fingerprint(first.outcomes)
    failed = sum(it.failed for it in iterations)
    for it in iterations[1:]:
        diff = _compare_digests(first, it, "the first iteration")
        if draws_fingerprint(it.outcomes) != fingerprint:
            diff.append("captured draws differ from the first iteration")
        if diff:
            problems += diff
            failed = min(failed + it.attempted, sum(i.attempted for i in iterations))
    attempted = sum(it.attempted for it in iterations)
    wall = statistics.median(walls)
    rss = statistics.median(max(o.rss_mb for o in it.outcomes) for it in iterations)
    ess = ess_totals(first.outcomes)
    if ess["fits"] == 0:
        problems.append("no fits were captured")
        failed = attempted
    metrics = {
        "setup_s": _metric(statistics.median(setups) if setups else float("nan"), "s"),
        "wall_s": _metric(wall, "s"),
        "ess_per_s.phi_median": _metric(ess["phi_median"] / wall, "1/s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    extra = {
        "ess_per_s.tau": _metric(ess["tau"] / wall, "1/s"),
        "ess_per_s.beta0": _metric(ess["beta0"] / wall, "1/s"),
        "failed_frac": _metric(failed / attempted, f"ratio of {attempted} operations"),
        "wall_s.samples": _metric(len(walls), "count"),
        "setup_s.samples": _metric(len(setups), "count"),
    }
    if ess["rho"]:
        extra["ess_per_s.rho"] = _metric(ess["rho"] / wall, "1/s")
    detail = {"iterations": len(iterations), "walls_s": walls,
              "setups_s": setups, "ess": ess, "artifacts": first.digests,
              "draws_sha256": fingerprint}
    return metrics, extra, detail, failed, attempted, problems


def run_traced(w: Workload, seed: int, base: Path, inputs_dir: Path):
    """Per-layer metrics from one untraced and one traced pass: fixed work that
    takes less than ``run_seconds`` on every workload."""
    invs = w.invocations(inputs_dir, seed)
    untraced = run_iteration(w, invs, inputs_dir, base / "untraced")
    traced = run_iteration(w, invs, inputs_dir, base / "traced", trace=True,
                           serial=True)
    problems = untraced.problems + traced.problems
    problems += _compare_digests(untraced, traced, "the untraced run")
    if draws_fingerprint(traced.outcomes) != draws_fingerprint(untraced.outcomes):
        problems.append("traced draws differ from the untraced run's")
    failed = untraced.failed + traced.failed
    attempted = untraced.attempted + traced.attempted
    if problems:
        return {}, {}, failed or attempted, attempted, problems
    spans, graphs, overhead = load_spans(traced.outcomes)
    captures = [p for o in traced.outcomes for p in _captures(o)]
    metrics = layer_metrics(spans, graphs, captures)
    metrics["trace.overhead_s"] = overhead
    ess = ess_totals(traced.outcomes)
    for k in ("tau", "beta0", "phi_median", "rho"):
        if k != "rho" or ess[k]:
            metrics[f"sampler.ess.{k}"] = ess[k]
    if "simstudy.run_study_s" in metrics:
        design = json.loads((traced.outcomes[0].out / "study_report.json")
                            .read_text())["cells"]["logit"]["design"]
        metrics["simstudy.replicates_excluded"] = (design["B_requested"]
                                                   - design["B_effective"])
        metrics["simstudy.parallel_efficiency"] = (
            metrics["simstudy.run_study_s"]
            / (w.jobs * untraced.outcomes[0].probe["run_study_s"]))
    return metrics, layer_table(spans), failed, attempted, problems


def _prune(base: Path) -> None:
    """Keep the first iteration's outputs; drop repeats and the large draws.csv."""
    for extra in base.glob("iter-*"):
        if extra.name != "iter-0":
            shutil.rmtree(extra)
    for path in base.rglob("draws.csv"):
        path.unlink()


def _unit(name: str) -> str:
    declared = {d["name"]: d["unit"] for d in SPEC["per_layer"]}
    if name in declared:
        return declared[name]
    if name.startswith("sampler.us_per_sweep"):
        return "us"
    if name.startswith("sampler.accept_rate") or name.endswith("efficiency"):
        return "ratio"
    return "s" if name.endswith("_s") or ".fit_s." in name else "count"


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "arealrisk" / "cli.py").is_file():
        print(f"error: the arealrisk sources are not at {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[opts.workload]
    base = WORK / w.name / f"seed-{opts.seed}-trace-{opts.trace}"
    shutil.rmtree(base, ignore_errors=True)
    inputs_dir = base / "inputs"
    inputs_dir.mkdir(parents=True)
    shape = w.make_inputs(inputs_dir, opts.seed)
    # warm the bytecode and file caches once; users do not pay this per run
    subprocess.run([sys.executable, "-c", "import arealrisk.cli"],
                   env=_environment(), check=True)

    env = environment()
    print(f"# {w.name} seed={opts.seed} trace={opts.trace} inputs={shape}")
    print("# env " + json.dumps(env, sort_keys=True))
    if opts.trace:
        metrics, tables, failed, attempted, problems = run_traced(
            w, opts.seed, base, inputs_dir)
        shown = {k: _metric(v, _unit(k)) for k, v in sorted(metrics.items())}
        print("# self time by layer: "
              + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(tables.items())))
        detail = {"self_time_by_layer_s": tables,
                  "spans": sorted(str(p) for p in base.glob("traced/*.spans.json"))}
    else:
        metrics, extra, detail, failed, attempted, problems = run_timed(
            w, opts.seed, opts.seconds, started, base, inputs_dir)
        shown = {**metrics, **extra}
    for k, v in shown.items():
        print(f"{w.name}  {k:<36} {v['value'] if v['value'] is None else format(v['value'], '>16.6g')} {v['unit']}")
    declared = SPEC["per_layer" if opts.trace else "end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in shown]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    for p in problems:
        print(f"# problem: {p}")
    correct = not problems and failed == 0
    result_metrics = {d["name"]: shown[d["name"]] for d in declared
                      if d["name"] in shown}
    _prune(base)
    run_s = time.perf_counter() - started
    print(f"# run took {run_s:.2f} s")
    (base / "result.json").write_text(json.dumps(
        {"workload": w.name, "seed": opts.seed, "trace": opts.trace, "env": env,
         "inputs": shape, "metrics": shown, "detail": detail, "problems": problems,
         "attempted": attempted, "failed": failed, "run_s": run_s}, indent=1,
        default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
