"""Run the benchmark over several seeds and record medians and spreads.

    python3 benchmarks/baseline.py --out benchmarks/BENCH_0.json

Every workload of ``BENCHMARK.json`` runs on seeds 0-9. Each (workload,
seed) is one ``run.py`` process, run one at a time with the
``run_seconds`` of ``BENCHMARK.json``. For every metric the output holds
the per-seed values, the median, and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median. One traced run per workload, on seed 0, records the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    opts = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    record = {"command": " ".join(["python3", "benchmarks/baseline.py", *argv]),
              "run_seconds": seconds, "seeds": SEEDS, "env": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            r = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                         "reported": r["lines"]})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        names = runs[0]["metrics"]
        entry = {"runs": runs,
                 "all_correct": all(r["correct"] for r in runs),
                 "summary": {k: summarize([r["metrics"][k] for r in runs])
                             for k in names}}
        extra = {}
        for r in runs:  # the ungated metrics printed above the result line
            for line in r["reported"]:
                parts = line.split()
                if len(parts) >= 3 and parts[1].startswith("ess_per_s."):
                    extra.setdefault(parts[1], []).append(float(parts[2]))
        entry["ungated"] = {k: summarize(v) for k, v in extra.items()
                            if k not in names and len(v) == len(runs)}
        t = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced"] = {"seed": SEEDS[0], "correct": t["correct"],
                           "metrics": {k: v["value"] for k, v in t["metrics"].items()},
                           "reported": t["lines"]}
        record["workloads"][workload] = entry
        record["env"] = record["env"] or json.loads(next(
            ln[len("# env "):] for ln in runs[0]["reported"] if ln.startswith("# env ")))
    Path(opts.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["workloads"].items():
        for k, s in {**entry["summary"], **entry["ungated"]}.items():
            print(f"{workload:<20} {k:<24} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
