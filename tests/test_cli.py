import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arealrisk.cli import _load_populations, main
from arealrisk.graph import load_adjacency
from arealrisk.model import load_dataset

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def lattice_files(tmp_path_factory):
    """Small simulated dataset + adjacency, produced by the simulate command."""
    root = tmp_path_factory.mktemp("inputs")
    rc = run_cli("simulate", "--lattice", 4, "--seed", 5, "--out", root)
    assert rc == 0
    return root


FAST = ["--iterations", "700", "--burn-in", "300", "--thin", "2",
        "--adapt-window", "100"]


def rename_regions(src, dst, names):
    """Copy CSV ``src`` to ``dst`` with the cells in ``names`` renamed."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = [[names.get(cell, cell) for cell in row] for row in csv.reader(fh)]
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_artifacts_exist(self, lattice_files):
        assert (lattice_files / "dataset.csv").exists()
        assert (lattice_files / "truth.csv").exists()
        assert (lattice_files / "adjacency.csv").exists()

    def test_deterministic(self, lattice_files, tmp_path):
        rc = run_cli("simulate", "--lattice", 4, "--seed", 5, "--out", tmp_path)
        assert rc == 0
        assert (tmp_path / "dataset.csv").read_bytes() == \
            (lattice_files / "dataset.csv").read_bytes()

    def test_seed_changes_counts(self, lattice_files, tmp_path):
        rc = run_cli("simulate", "--lattice", 4, "--seed", 6, "--out", tmp_path)
        assert rc == 0
        assert (tmp_path / "dataset.csv").read_bytes() != \
            (lattice_files / "dataset.csv").read_bytes()


    def test_hub_ids_with_spaces(self, lattice_files, tmp_path):
        # simulate parses --hubs as the study parses its INI hubs key
        for name, hubs in (("plain", "r0,r5,r10"), ("spaced", "r0, r5 ,r10")):
            rc = run_cli("simulate", "--lattice", 4, "--seed", 5, "--hubs", hubs,
                         "--out", tmp_path / name)
            assert rc == 0
        truth = (tmp_path / "spaced" / "truth.csv").read_bytes()
        assert truth == (tmp_path / "plain" / "truth.csv").read_bytes()
        assert truth != (lattice_files / "truth.csv").read_bytes()


class TestFit:
    def test_cg_fit_artifacts(self, lattice_files, tmp_path):
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", "--link", "logit", *FAST,
                     "--seed", 1, "--out", tmp_path)
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        # 16 regions x 2 CG estimators + header
        assert len(lines) == 1 + 32
        tags = {line.split(",")[1] for line in lines[1:]}
        assert tags == {"r_cg_tilde", "r_cg"}
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["family"] == "cg"
        props = json.loads((tmp_path / "geojson_properties.json").read_text())
        assert len(props) == 16

    def test_is_fit_emits_only_r_is(self, lattice_files, tmp_path):
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "is", *FAST, "--seed", 1, "--out", tmp_path)
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        tags = {line.split(",")[1] for line in lines[1:]}
        assert tags == {"r_is"}
        assert len(lines) == 1 + 16

    def test_same_seed_byte_identical(self, lattice_files, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                         "--adjacency", lattice_files / "adjacency.csv",
                         "--family", "cg", *FAST, "--seed", 9,
                         "--dump-draws", "--out", out)
            assert rc == 0
        for name in ("summary.csv", "geojson_properties.json", "metadata.json",
                     "draws.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        lines = (out1 / "draws.csv").read_text().strip().split("\n")
        assert lines[0] == "draw,parameter,value"
        # 200 draws x (1 beta + 16 phi + tau) parameters
        assert len(lines) == 1 + 200 * 18
        assert lines[1].startswith("0,beta[0],")

    def test_interval_columns_named_by_level(self, lattice_files, tmp_path):
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", *FAST, "--level", "0.8", "--out", tmp_path)
        assert rc == 0
        fields = ["mean", "median", "lo80", "hi80", "length", "exceedance"]
        header = (tmp_path / "summary.csv").read_text().split("\n")[0]
        assert header == ",".join(["region", "estimator", *fields])
        props = json.loads((tmp_path / "geojson_properties.json").read_text())
        for region in props.values():
            for tag in ("r_cg_tilde", "r_cg"):
                assert list(region[tag]) == sorted(fields)

    def test_validation_failure_emits_error_json(self, lattice_files, tmp_path,
                                                 capsys):
        rc = run_cli("fit", "--data", lattice_files / "does_not_exist.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", "--out", tmp_path)
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_skewed_logit_requires_c0(self, lattice_files, tmp_path, capsys):
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", "--link", "skewed_logit", *FAST,
                     "--out", tmp_path)
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "c0" in err["message"]

    def test_print_config(self, lattice_files, tmp_path, capsys):
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", "--print-config", "--out", tmp_path)
        assert rc == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["subcommand"] == "fit"
        assert cfg["iterations"] == 25000
        assert cfg["link"] == "logit"
        assert cfg["seed"] == 0
        assert "func" not in cfg and "print_config" not in cfg


class TestStudy:
    def test_smoke_run_emits_report_keys(self, tmp_path):
        rc = run_cli("study", "--replicates", 2, "--iterations", 400,
                     "--burn-in", 150, "--seed", 3, "--out", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "study_report.json").read_text())
        assert "cells" in report
        cell = report["cells"]["logit"]
        assert set(cell["estimators"]) == {"r_is", "r_cg_tilde", "r_cg", "mle"}
        assert "expected_loss" in cell["estimators"]["mle"]
        assert "vs_r_is" in cell["estimators"]["r_cg"]
        assert (tmp_path / "coverage.csv").exists()
        assert (tmp_path / "lengths.csv").exists()

    def test_lattice_size_from_config(self, tmp_path):
        cfg = tmp_path / "study.ini"
        cfg.write_text(
            "[graph]\nlattice = 3\n"
            "[study]\nreplicates = 2\n"
            "[sampler]\niterations = 400\nburn_in = 150\n"
            "[run]\nseed = 4\n"
        )
        rc = run_cli("study", "--config", cfg, "--out", tmp_path / "out")
        assert rc == 0
        cov = (tmp_path / "out" / "coverage.csv").read_text().strip().split("\n")
        # header + 3 estimators x 2 replicates x 9 regions
        assert len(cov) == 1 + 3 * 2 * 9

    def test_skewed_logit_without_c0_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "study.ini"
        cfg.write_text(
            "[graph]\nlattice = 3\n"
            "[study]\nreplicates = 2\nlinks = skewed_logit\nc0 =\n"
            "[sampler]\niterations = 300\nburn_in = 100\n"
        )
        rc = run_cli("study", "--config", cfg, "--out", tmp_path / "out")
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "c0" in err["message"]

    def test_population_scale_flag(self, tmp_path):
        rc = run_cli("study", "--replicates", 2, "--iterations", 400,
                     "--burn-in", 150, "--seed", 3, "--population-scale", "0.1",
                     "--out", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "study_report.json").read_text())
        assert report["population_scale"] == 0.1

    def test_deterministic(self, tmp_path):
        # the artifacts do not depend on the number of worker processes
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            rc = run_cli("study", "--replicates", 2, "--iterations", 300,
                         "--burn-in", 100, "--seed", 8, "--jobs", jobs,
                         "--out", out)
            assert rc == 0
            outs.append(out)
        for name in ("study_report.json", "coverage.csv", "lengths.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_print_config_keeps_jobs(self, tmp_path, capsys):
        # the report leaves jobs out (see test_deterministic); print-config not
        rc = run_cli("study", "--jobs", 3, "--print-config", "--out", tmp_path)
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["run"]["jobs"] == "3"

    def test_level_flag_overrides_config(self, tmp_path, capsys):
        rc = run_cli("study", "--level", 0.8, "--print-config", "--out", tmp_path)
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["study"]["level"] == "0.8"

    def test_readme_config_parses(self, tmp_path, capsys):
        # the README's INI example, inline "; comments" and all, is usable as is
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = tmp_path / "study.ini"
        cfg.write_text(block)
        rc = run_cli("study", "--config", cfg, "--print-config", "--out", tmp_path)
        assert rc == 0
        settings = json.loads(capsys.readouterr().out)
        assert settings["graph"]["lattice"] == "10"
        assert settings["study"]["links"] == "logit"
        assert settings["truth"]["hubs"] == ""


@pytest.fixture(scope="module")
def panel_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("panel")
    rng = np.random.default_rng(17)
    side = 3
    rows = ["region,year,y,n"]
    phi = rng.normal(scale=0.2, size=side * side)
    for t, year in enumerate(range(1990, 1995)):
        alpha = 0.1 * t
        for i in range(side * side):
            n = 40_000
            p = 1.0 / (1.0 + np.exp(-(-6.0 + phi[i] + alpha)))
            rows.append(f"r{i},{year},{rng.poisson(n * p)},{n}")
    (root / "panel.csv").write_text("\n".join(rows) + "\n")
    # 3x3 lattice adjacency
    edges = ["from,to"]
    for r in range(side):
        for c in range(side):
            i = side * r + c
            if c + 1 < side:
                edges.append(f"r{i},r{i + 1}")
            if r + 1 < side:
                edges.append(f"r{i},r{i + side}")
    (root / "adjacency.csv").write_text("\n".join(edges) + "\n")
    return root


class TestForecast:
    def test_report_shape(self, panel_file, tmp_path):
        rc = run_cli("forecast", "--data", panel_file / "panel.csv",
                     "--adjacency", panel_file / "adjacency.csv",
                     "--family", "both", *FAST, "--seed", 2, "--out", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "forecast_report.json").read_text())
        assert report["holdout"] == "1994"
        assert set(report["estimators"]) == {"r_is", "r_cg_tilde", "r_cg"}
        entry = report["estimators"]["r_cg"]
        assert len(entry["regions"]) == 9
        assert "rho_hat" in entry
        assert "pct_dynamic_shorter" in entry["intervals_last_fitted_year"]
        assert {"pmse", "crps", "coverage"} <= set(entry["prediction"])

    def test_static_data_rejected(self, lattice_files, tmp_path, capsys):
        rc = run_cli("forecast", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     *FAST, "--out", tmp_path)
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "panel" in err["message"]

    def test_deterministic(self, panel_file, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = run_cli("forecast", "--data", panel_file / "panel.csv",
                         "--adjacency", panel_file / "adjacency.csv",
                         "--family", "cg", *FAST, "--seed", 12, "--out", out)
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "forecast_report.json").read_bytes() == \
            (outs[1] / "forecast_report.json").read_bytes()

    @pytest.mark.parametrize("family", ["both", "cg"])
    def test_same_bytes_on_one_two_and_four_cpus(self, panel_file, tmp_path,
                                                  monkeypatch, family):
        # the chains go to a pool of one worker per usable CPU
        reports = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            out = tmp_path / str(cpus)
            rc = run_cli("forecast", "--data", panel_file / "panel.csv",
                         "--adjacency", panel_file / "adjacency.csv",
                         "--family", family, *FAST, "--seed", 3, "--out", out)
            assert rc == 0
            reports.append((out / "forecast_report.json").read_bytes())
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]
        assert multiprocessing.active_children() == []

    def test_chain_failing_in_a_worker_exits_through_the_error_json(
            self, panel_file, tmp_path, monkeypatch, capsys):
        from arealrisk import cli

        original = cli.run_chain
        failed_in = tmp_path / "pids"

        def failing_dynamic(dataset, graph, spec, config):
            if spec.temporal == "static":
                return original(dataset, graph, spec, config)
            with open(failed_in, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise RuntimeError("dynamic chain failed")

        monkeypatch.setattr(cli, "run_chain", failing_dynamic)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rc = run_cli("forecast", "--data", panel_file / "panel.csv",
                     "--adjacency", panel_file / "adjacency.csv",
                     "--family", "both", *FAST, "--out", tmp_path / "out")
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "RuntimeError", "message": "dynamic chain failed"}
        assert not (tmp_path / "out" / "forecast_report.json").exists()
        workers = {int(pid) for pid in failed_in.read_text().split()}
        assert workers and os.getpid() not in workers
        for pid in workers:  # reaped: no longer a child of this process
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []


class TestCompare:
    def test_compare_two_fits(self, lattice_files, tmp_path):
        cg_out, is_out = tmp_path / "cg", tmp_path / "is"
        for family, out in (("cg", cg_out), ("is", is_out)):
            rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                         "--adjacency", lattice_files / "adjacency.csv",
                         "--family", family, *FAST, "--seed", 4, "--out", out)
            assert rc == 0
        rc = run_cli("compare", "--left", cg_out / "summary.csv",
                     "--right", is_out / "summary.csv",
                     "--out", tmp_path / "cmp")
        assert rc == 0
        rep = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert rep["n_compared"] == 16
        assert 0.0 <= rep["fraction_left_shorter"] <= 1.0
        assert rep["left"]["estimator"] == "r_cg"

    def test_missing_estimator_rejected(self, lattice_files, tmp_path, capsys):
        is_out = tmp_path / "is"
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "is", *FAST, "--seed", 4, "--out", is_out)
        assert rc == 0
        rc = run_cli("compare", "--left", is_out / "summary.csv",
                     "--right", is_out / "summary.csv",
                     "--left-estimator", "r_cg", "--out", tmp_path / "cmp")
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "r_cg" in err["message"]


class TestSeedFallback:
    def test_env_seed_used(self, lattice_files, tmp_path, monkeypatch):
        monkeypatch.setenv("AREALRISK_SEED", "5")
        out_env = tmp_path / "env"
        rc = run_cli("simulate", "--lattice", 4, "--out", out_env)
        assert rc == 0
        assert (out_env / "dataset.csv").read_bytes() == \
            (lattice_files / "dataset.csv").read_bytes()

    def test_env_seed_used_by_study(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("AREALRISK_SEED", "11")
        rc = run_cli("study", "--print-config", "--out", tmp_path)
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["run"]["seed"] == "11"

    @pytest.mark.parametrize("value", ["abc", ""])
    @pytest.mark.parametrize("argv", [["study"], ["study", "--print-config"],
                                      ["simulate", "--print-config"]])
    def test_bad_env_seed_rejected(self, argv, value, monkeypatch, capsys,
                                   tmp_path):
        monkeypatch.setenv("AREALRISK_SEED", value)
        rc = run_cli(*argv, "--out", tmp_path)
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"AREALRISK_SEED must be an integer, got {value!r}"


class TestMalformedCsv:
    """Malformed input exits through the JSON error path, naming file and line."""

    @pytest.mark.parametrize("row, message", [
        ("r1,x,100", "invalid literal for int()"),
        ("r1,12", "row has 2 fields, expected 3"),
        ("r1,-3,100", "count must be nonnegative, got -3"),
        ("r1,3,0", "population must be positive and finite, got 0.0"),
        ("r1,3,-100", "population must be positive and finite, got -100.0"),
        ("r1,3,nan", "population must be positive and finite, got nan"),
        ("r1,3,inf", "population must be positive and finite, got inf"),
    ])
    def test_dataset_row(self, lattice_files, tmp_path, capsys, row, message):
        lines = (lattice_files / "dataset.csv").read_text().splitlines()
        lines[3] = row
        data = tmp_path / "bad_dataset.csv"
        data.write_text("\n".join(lines) + "\n")
        rc = run_cli("fit", "--data", data,
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", *FAST, "--out", tmp_path / "fit")
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{data}, line 4: ")
        assert message in err["message"]

    @pytest.mark.parametrize("row, message", [
        ("r1,abc", "could not convert string to float"),
        ("r1", "expected region,n"),
        ("r0,100", "repeated region 'r0'"),
        ("r1,-5", "population must be positive and finite, got -5.0"),
        ("r1,0", "population must be positive and finite, got 0.0"),
        ("r1,nan", "population must be positive and finite, got nan"),
        ("r1,inf", "population must be positive and finite, got inf"),
    ])
    def test_populations_row(self, lattice_files, tmp_path, capsys, row,
                             message):
        pops = tmp_path / "bad_populations.csv"
        pops.write_text("region,n\nr0,1000\n" + row + "\n")
        rc = run_cli("simulate", "--adjacency", lattice_files / "adjacency.csv",
                     "--populations", pops, "--out", tmp_path / "sim")
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CommandError"
        assert err["message"].startswith(f"{pops}, line 3: ")
        assert message in err["message"]

    def test_empty_files(self, lattice_files, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = run_cli("fit", "--data", empty,
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", *FAST, "--out", tmp_path / "fit")
        assert rc != 0
        assert "header must start with" in json.loads(capsys.readouterr().err)["message"]
        rc = run_cli("simulate", "--adjacency", lattice_files / "adjacency.csv",
                     "--populations", empty, "--out", tmp_path / "sim")
        assert rc != 0
        assert "header must be region,n" in json.loads(capsys.readouterr().err)["message"]


class TestInputErrorsNameFileAndLine:
    """Every input row error reaches the JSON error path as ``<file>, line <n>: ``."""

    def fit(self, tmp_path, data, adjacency):
        return run_cli("fit", "--data", data, "--adjacency", adjacency,
                       "--family", "cg", *FAST, "--out", tmp_path / "fit")

    @pytest.mark.parametrize("text, line, message", [
        ("from,to\nr0,r1\n,r1\n", 3, "incomplete edge row ['', 'r1']"),
        ("region,r0,r1\nr0,0,1\nr1,1,x\n", 3,
         "adjacency entries must be 0 or 1, got 'x'"),
        ("region,r0,r1\nr0,0,1\n  \nr1,1,0,0\n", 4, "expected 3 columns, got 4"),
        ("from,to\nr0,r1\nr1,r2,0\n", 3, "edge row has 3 fields, expected at most 2"),
    ])
    def test_adjacency_row(self, lattice_files, tmp_path, capsys, text, line, message):
        adj = tmp_path / "bad_adjacency.csv"
        adj.write_text(text)
        assert self.fit(tmp_path, lattice_files / "dataset.csv", adj) != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "GraphStructureError",
                       "message": f"{adj}, line {line}: {message}"}

    def test_duplicate_static_row(self, lattice_files, tmp_path, capsys):
        lines = (lattice_files / "dataset.csv").read_text().splitlines()
        data = tmp_path / "dup.csv"
        data.write_text("\n".join(lines + [lines[2]]) + "\n")
        region = lines[2].split(",")[0]
        assert self.fit(tmp_path, data, lattice_files / "adjacency.csv") != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message":
                       f"{data}, line {len(lines) + 1}: duplicate row for region "
                       f"{region!r}"}

    def test_count_above_int64_range(self, lattice_files, tmp_path, capsys):
        lines = (lattice_files / "dataset.csv").read_text().splitlines()
        region, _, n = lines[1].split(",")
        lines[1] = f"{region},99999999999999999999,{n}"
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(lines) + "\n")
        assert self.fit(tmp_path, data, lattice_files / "adjacency.csv") != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message":
                       f"{data}, line 2: count must be below 2**63 (the int64 "
                       "range), got 99999999999999999999"}

    def test_duplicate_panel_row(self, panel_file, tmp_path, capsys):
        lines = (panel_file / "panel.csv").read_text().splitlines()
        data = tmp_path / "dup.csv"
        data.write_text("\n".join(lines[:3] + [lines[1]] + lines[3:]) + "\n")
        region, year = lines[1].split(",")[:2]
        rc = run_cli("forecast", "--data", data,
                     "--adjacency", panel_file / "adjacency.csv", *FAST,
                     "--out", tmp_path / "fc")
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message":
                       f"{data}, line 4: duplicate row for region {region!r}, "
                       f"year {year}"}

    def test_adjacency_region_outside_the_dataset(self, lattice_files, tmp_path,
                                                  capsys):
        adj = tmp_path / "adjacency.csv"
        adj.write_text((lattice_files / "adjacency.csv").read_text() + "r0,D\n")
        assert self.fit(tmp_path, lattice_files / "dataset.csv", adj) != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "GraphStructureError",
                       "message": f"{adj}: regions not in the dataset: 'D'"}

    def test_whitespace_populations_rows_skipped(self, lattice_files, tmp_path):
        ids = [f"r{i}" for i in range(16)]
        rows = [f"{r},{1000 + 10 * i}" for i, r in enumerate(ids)]
        for name, body in (("clean", rows), ("padded", rows[:3] + ["  ", " , "]
                                             + rows[3:] + ["\t"])):
            pops = tmp_path / f"{name}.csv"
            pops.write_text("\n".join(["region,n"] + body) + "\n")
            rc = run_cli("simulate", "--adjacency", lattice_files / "adjacency.csv",
                         "--populations", pops, "--seed", 2, "--out", tmp_path / name)
            assert rc == 0
        assert ((tmp_path / "clean" / "dataset.csv").read_bytes()
                == (tmp_path / "padded" / "dataset.csv").read_bytes())


@pytest.fixture
def no_sampling(monkeypatch):
    def run_chain(*args, **kwargs):
        raise AssertionError("run_chain called")

    monkeypatch.setattr("arealrisk.cli.run_chain", run_chain)
    monkeypatch.setattr("arealrisk.simstudy.run_chain", run_chain)


class TestLevelCheckedUpFront:
    """A bad --level (or [study] level) fails before any chain is run."""

    def assert_rejected(self, rc, capsys):
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "level must be in (0, 1), got 1.5"}

    def test_fit(self, lattice_files, tmp_path, capsys, no_sampling):
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", *FAST, "--level", 1.5, "--out", tmp_path)
        self.assert_rejected(rc, capsys)

    def test_forecast(self, panel_file, tmp_path, capsys, no_sampling):
        rc = run_cli("forecast", "--data", panel_file / "panel.csv",
                     "--adjacency", panel_file / "adjacency.csv", *FAST,
                     "--level", 1.5, "--out", tmp_path)
        self.assert_rejected(rc, capsys)

    def test_study(self, tmp_path, capsys, no_sampling):
        cfg = tmp_path / "study.ini"
        cfg.write_text("[graph]\nlattice = 3\n"
                       "[study]\nreplicates = 2\nlevel = 1.5\n"
                       "[sampler]\niterations = 300\nburn_in = 100\n")
        rc = run_cli("study", "--config", cfg, "--out", tmp_path / "out")
        self.assert_rejected(rc, capsys)

    def test_study_flag(self, tmp_path, capsys, no_sampling):
        rc = run_cli("study", "--level", 1.5, "--out", tmp_path)
        self.assert_rejected(rc, capsys)


class TestCountsCheckedUpFront:
    """A fit whose expected counts degenerate fails before any chain is run."""

    def fit(self, data, adjacency, out):
        return run_cli("fit", "--data", data, "--adjacency", adjacency,
                       "--family", "cg", "--link", "cloglog", *FAST, "--out", out)

    def test_static(self, lattice_files, tmp_path, capsys, no_sampling):
        lines = (lattice_files / "dataset.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        data = tmp_path / "zero.csv"
        data.write_text("\n".join(lines[:1] + [f"{r},0,{n}" for r, _, n in rows]) + "\n")
        assert self.fit(data, lattice_files / "adjacency.csv", tmp_path) != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "all counts are zero; the pooled rate degenerates"}

    def test_panel_year(self, panel_file, tmp_path, capsys, no_sampling):
        lines = (panel_file / "panel.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        data = tmp_path / "zero_year.csv"
        data.write_text("\n".join(lines[:1] + [
            ",".join([r, year, "0" if year == "1992" else y, n])
            for r, year, y, n in rows]) + "\n")
        assert self.fit(data, panel_file / "adjacency.csv", tmp_path) != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "all counts are zero at time 1992; the pooled rate degenerates"}


class TestShortChainRejectedUpFront:
    """A chain that keeps fewer than MIN_DRAWS draws fails before any chain runs."""

    SHORT = ["--iterations", "20", "--burn-in", "10", "--adapt-window", "5"]

    def assert_rejected(self, rc, capsys, n_draws):
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"(iterations - burn_in) // thin keeps {n_draws} "
                                  "draws; summaries need at least 100"}

    def test_fit(self, lattice_files, tmp_path, capsys, no_sampling):
        rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                     "--adjacency", lattice_files / "adjacency.csv",
                     "--family", "cg", *self.SHORT, "--out", tmp_path)
        self.assert_rejected(rc, capsys, 5)

    def test_forecast(self, panel_file, tmp_path, capsys, no_sampling):
        rc = run_cli("forecast", "--data", panel_file / "panel.csv",
                     "--adjacency", panel_file / "adjacency.csv", *self.SHORT,
                     "--thin", 1, "--out", tmp_path)
        self.assert_rejected(rc, capsys, 10)

    def test_study(self, tmp_path, capsys, no_sampling):
        cfg = tmp_path / "study.ini"
        cfg.write_text("[graph]\nlattice = 3\n[study]\nreplicates = 2\n"
                       "[sampler]\niterations = 30\nburn_in = 10\n")
        rc = run_cli("study", "--config", cfg, "--out", tmp_path / "out")
        self.assert_rejected(rc, capsys, 10)

    def test_study_flag(self, tmp_path, capsys, no_sampling):
        rc = run_cli("study", "--replicates", 2, "--iterations", 298,
                     "--burn-in", 100, "--out", tmp_path)
        self.assert_rejected(rc, capsys, 99)


class TestStudyConfigErrors:
    """A bad study setting fails through the JSON error path, before any fit."""

    def assert_rejected(self, rc, capsys, error, message):
        assert rc != 0
        assert json.loads(capsys.readouterr().err) == {"error": error,
                                                       "message": message}

    def run_ini(self, tmp_path, text, graph="lattice = 3"):
        cfg = tmp_path / "study.ini"
        cfg.write_text(f"[graph]\n{graph}\n" + text)
        return cfg, run_cli("study", "--config", cfg, "--out", tmp_path / "out")

    def test_empty_link_flag(self, tmp_path, capsys, no_sampling):
        rc = run_cli("study", "--link", ",", "--out", tmp_path)
        self.assert_rejected(rc, capsys, "CommandError",
                             "no link to fit: [study] links (or --link) is ','")

    def test_empty_link_ini(self, tmp_path, capsys, no_sampling):
        # rejected before the (missing) adjacency file is read
        _, rc = self.run_ini(tmp_path, "[study]\nlinks =\n",
                             graph=f"adjacency = {tmp_path / 'missing.csv'}")
        self.assert_rejected(rc, capsys, "CommandError",
                             "no link to fit: [study] links (or --link) is ''")

    def test_population_low_zero(self, tmp_path, capsys, no_sampling):
        _, rc = self.run_ini(tmp_path, "[populations]\nlow = 0\n")
        self.assert_rejected(rc, capsys, "ValueError",
                             "populations need 0 < low <= high < inf, got low=0.0, "
                             "high=200000.0")

    def test_target_acceptance_one_value(self, tmp_path, capsys, no_sampling):
        cfg, rc = self.run_ini(tmp_path, "[sampler]\ntarget_acceptance = 0.2\n")
        self.assert_rejected(rc, capsys, "CommandError",
                             f"{cfg}: [sampler] target_acceptance: expected two "
                             "comma-separated numbers, got '0.2'")

    def test_adapt_window_not_an_integer(self, tmp_path, capsys, no_sampling):
        cfg, rc = self.run_ini(tmp_path, "[sampler]\nadapt_window = abc\n")
        self.assert_rejected(rc, capsys, "CommandError",
                             f"{cfg}: [sampler] adapt_window: invalid literal for "
                             "int() with base 10: 'abc'")

    def test_duplicate_section(self, tmp_path, capsys, no_sampling):
        cfg, rc = self.run_ini(tmp_path, "[graph]\nlattice = 4\n")
        self.assert_rejected(rc, capsys, "CommandError",
                             f"{cfg}: While reading from {str(cfg)!r} [line  3]: "
                             "section 'graph' already exists")

    def test_key_before_any_section(self, tmp_path, capsys, no_sampling):
        cfg = tmp_path / "study.ini"
        cfg.write_text("lattice = 3\n[graph]\n")
        rc = run_cli("study", "--config", cfg, "--out", tmp_path / "out")
        self.assert_rejected(rc, capsys, "CommandError",
                             f"{cfg}: File contains no section headers.\n"
                             f"file: {str(cfg)!r}, line: 1\n'lattice = 3\\n'")

    @pytest.mark.parametrize("argv, ini, value", [
        (["--jobs", "-3"], "", -3),
        ([], "[run]\njobs = 0\n", 0),
    ], ids=["flag", "ini"])
    def test_jobs_below_one(self, tmp_path, capsys, no_sampling, argv, ini, value):
        # rejected before the (missing) adjacency file is read
        cfg = tmp_path / "study.ini"
        cfg.write_text(f"[graph]\nadjacency = {tmp_path / 'missing.csv'}\n" + ini)
        rc = run_cli("study", "--config", cfg, *argv, "--out", tmp_path / "out")
        self.assert_rejected(rc, capsys, "CommandError",
                             f"[run] jobs (or --jobs) must be at least 1, got {value}")

    @pytest.mark.parametrize("argv, ini, link", [
        (["--link", "logit,cloglog,logit"], "", "logit"),
        ([], "[study]\nlinks = cloglog, logit,cloglog\n", "cloglog"),
    ], ids=["flag", "ini"])
    def test_repeated_link(self, tmp_path, capsys, no_sampling, argv, ini, link):
        # one master seed per link: a repeat would run the same study twice
        cfg = tmp_path / "study.ini"
        cfg.write_text(f"[graph]\nadjacency = {tmp_path / 'missing.csv'}\n" + ini)
        rc = run_cli("study", "--config", cfg, *argv, "--out", tmp_path / "out")
        self.assert_rejected(rc, capsys, "CommandError",
                             f"link {link!r} is named more than once")

    @pytest.mark.parametrize("argv, ini", [
        (["--replicates", "1"], ""),
        ([], "[study]\nreplicates = 1\n"),
    ], ids=["flag", "ini"])
    def test_one_replicate(self, tmp_path, capsys, no_sampling, argv, ini):
        cfg = tmp_path / "study.ini"
        cfg.write_text(f"[graph]\nadjacency = {tmp_path / 'missing.csv'}\n" + ini)
        rc = run_cli("study", "--config", cfg, *argv, "--out", tmp_path / "out")
        self.assert_rejected(rc, capsys, "CommandError",
                             "[study] replicates (or --replicates) must be at least "
                             "2, got 1")


class TestTruthRecipeNotFinite:
    """A NaN or infinite truth-recipe value is rejected by name, before any
    arithmetic on it (which would warn) and before any count is drawn."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, name, shown", [
        (["--baseline", "nan"], "baseline", "nan"),
        (["--baseline", "inf"], "baseline", "inf"),
        (["--neighbor-bump", "nan"], "neighbor_bump", "nan"),
        (["--neighbor-bump=-inf"], "neighbor_bump", "-inf"),
        (["--hub-bumps", "nan,0.001,0.001"], "hub_bumps", "(nan, 0.001, 0.001)"),
    ])
    def test_simulate(self, tmp_path, capsys, argv, name, shown):
        rc = run_cli("simulate", "--lattice", 3, *argv, "--out", tmp_path)
        assert rc != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"truth recipe {name} must be finite, got {shown}"}
        assert not (tmp_path / "dataset.csv").exists()

    def test_study_ini(self, tmp_path, capsys, no_sampling):
        cfg = tmp_path / "study.ini"
        cfg.write_text("[graph]\nlattice = 3\n[truth]\nhub_bumps = nan,0.001\n")
        rc = run_cli("study", "--config", cfg, "--out", tmp_path / "out")
        assert rc != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "truth recipe hub_bumps must be finite, got (nan, 0.001)"}


class TestPopulationSources:
    """simulate and study take the graph and the populations the same way."""

    @pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("0", "0.0"),
                                              ("nan", "nan")])
    @pytest.mark.parametrize("command", ["simulate", "study", "study-ini"])
    def test_bad_scale(self, tmp_path, capsys, no_sampling, command, value, shown):
        cfg = tmp_path / "study.ini"
        cfg.write_text(f"[graph]\nlattice = 3\n[populations]\nscale = {value}\n")
        argv = {"simulate": ["simulate", "--lattice", 3, "--population-scale", value],
                "study": ["study", "--population-scale", value],
                "study-ini": ["study", "--config", cfg]}[command]
        assert run_cli(*argv, "--out", tmp_path / "out") != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "CommandError",
            "message": "--population-scale (or [populations] scale) must be "
                       f"positive and finite, got {shown}"}

    def test_lattice_with_populations_file(self, tmp_path):
        pops = tmp_path / "populations.csv"
        pops.write_text("region,n\n" + "".join(f"r{i},{1000 * (i + 1)}\n"
                                                for i in range(9)))
        rc = run_cli("simulate", "--lattice", 3, "--populations", pops,
                     "--population-scale", 0.5, "--out", tmp_path / "sim")
        assert rc == 0
        rows = (tmp_path / "sim" / "dataset.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [
            repr(500.0 * (i + 1)) for i in range(9)]

    def test_malformed_populations_file_with_lattice(self, tmp_path, capsys):
        pops = tmp_path / "populations.csv"
        pops.write_text("region,n\nr0,abc\n")
        rc = run_cli("simulate", "--lattice", 3, "--populations", pops,
                     "--out", tmp_path / "sim")
        assert rc != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "CommandError",
            "message": f"{pops}, line 2: could not convert string to float: 'abc'"}


class TestQuotedIds:
    """Ids holding a comma or a quote are quoted in every CSV artifact."""

    def test_fit_artifacts_parse_and_compare(self, lattice_files, tmp_path, capsys):
        names = {"r0": "r,0", "r1": 'q"1'}
        for name in ("dataset.csv", "adjacency.csv"):
            rename_regions(lattice_files / name, tmp_path / name, names)
        rc = run_cli("fit", "--data", tmp_path / "dataset.csv",
                     "--adjacency", tmp_path / "adjacency.csv", "--family", "cg",
                     *FAST, "--dump-draws", "--seed", 1, "--out", tmp_path / "fit")
        assert rc == 0
        summary, draws = (read_rows(tmp_path / "fit" / name)
                          for name in ("summary.csv", "draws.csv"))
        for rows in (summary, draws):
            assert {len(row) for row in rows} == {len(rows[0])}
        assert {row[0] for row in summary[1:]} >= {"r,0", 'q"1'}
        assert {row[1] for row in draws[1:]} >= {"phi[r,0]", 'phi[q"1]'}
        rc = run_cli("compare", "--left", tmp_path / "fit" / "summary.csv",
                     "--right", tmp_path / "fit" / "summary.csv",
                     "--right-estimator", "r_cg_tilde", "--out", tmp_path / "cmp")
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert report["n_compared"] == 16


class TestQuotedHubs:
    """A hub id holding a comma is quoted as in CSV, on --hubs and in the INI."""

    @pytest.fixture
    def renamed(self, lattice_files, tmp_path):
        # the truth file has a region,n header, so it doubles as populations
        for name in ("adjacency.csv", "truth.csv"):
            rename_regions(lattice_files / name, tmp_path / name, {"r0": "r,0"})
        return tmp_path

    def test_simulate(self, lattice_files, renamed):
        runs = {"plain": (lattice_files, "r0,r5,r10"),
                "quoted": (renamed, '"r,0", r5,r10')}
        for out, (root, hubs) in runs.items():
            rc = run_cli("simulate", "--adjacency", root / "adjacency.csv",
                         "--populations", root / "truth.csv", "--seed", 5,
                         "--hubs", hubs, "--out", renamed / out)
            assert rc == 0
        for name in ("dataset.csv", "truth.csv"):
            plain = read_rows(renamed / "plain" / name)
            assert read_rows(renamed / "quoted" / name) == [
                ["r,0" if cell == "r0" else cell for cell in row] for row in plain]

    def test_study_ini(self, renamed, monkeypatch, capsys):
        hubs = []

        def stop(graph, truth, *args, **kwargs):
            hubs.append(truth.provenance["hubs"])
            raise ValueError("stopped before sampling")

        monkeypatch.setattr("arealrisk.cli.run_study", stop)
        cfg = renamed / "study.ini"
        cfg.write_text(f"[graph]\nadjacency = {renamed / 'adjacency.csv'}\n"
                       f"[populations]\npath = {renamed / 'truth.csv'}\n"
                       '[truth]\nhubs = "r,0", r5,r10\n')
        assert run_cli("study", "--config", cfg, "--out", renamed / "out") != 0
        assert json.loads(capsys.readouterr().err)["message"] == "stopped before sampling"
        assert hubs == [["r,0", "r5", "r10"]]


class TestUtf8WhateverTheLocale:
    """Inputs are read and CSV artifacts written as UTF-8 under any locale."""

    def test_fit_under_an_ascii_locale(self, lattice_files, tmp_path):
        for name in ("dataset.csv", "adjacency.csv"):
            rename_regions(lattice_files / name, tmp_path / name, {"r0": "ré"})
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = ["fit", "--data", tmp_path / "dataset.csv", "--adjacency",
                tmp_path / "adjacency.csv", "--family", "cg", *FAST, "--dump-draws",
                "--out", tmp_path / "fit"]
        proc = subprocess.run([sys.executable, "-m", "arealrisk.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        summary = read_rows(tmp_path / "fit" / "summary.csv")
        assert "ré" in {row[0] for row in summary}
        assert "phi[ré]" in {row[1] for row in read_rows(tmp_path / "fit" / "draws.csv")}


class TestByteOrderMark:
    """A CSV saved with a UTF-8 byte-order mark reads as the same file without one."""

    @staticmethod
    def with_and_without(tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        return plain, marked

    def test_dataset(self, lattice_files, tmp_path):
        text = (lattice_files / "dataset.csv").read_text()
        a, b = map(load_dataset, self.with_and_without(tmp_path, text))
        assert a.region_ids == b.region_ids
        for name in ("y", "n", "x"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_edge_list(self, lattice_files, tmp_path):
        text = (lattice_files / "adjacency.csv").read_text()
        a, b = map(load_adjacency, self.with_and_without(tmp_path, text))
        assert a.region_ids == b.region_ids
        assert np.array_equal(a.edges, b.edges)

    def test_populations(self, lattice_files, tmp_path):
        graph = load_adjacency(lattice_files / "adjacency.csv")
        text = "region,n\n" + "".join(f"{r},{1000 + i}\n"
                                      for i, r in enumerate(graph.region_ids))
        a, b = (_load_populations(path, graph)
                for path in self.with_and_without(tmp_path, text))
        assert np.array_equal(a, b)


class TestHeaderOnlyDataset:
    """A dataset with a header and no rows is named as empty, before any chain."""

    @pytest.mark.parametrize("header", ["region,y,n", "region,year,y,n"])
    def test_loader(self, tmp_path, header):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n \n")
        with pytest.raises(ValueError) as exc:
            load_dataset(data)
        assert str(exc.value) == f"{data}: no data rows"

    @pytest.mark.parametrize("command, header", [("fit", "region,y,n"),
                                                 ("forecast", "region,year,y,n")])
    def test_cli(self, lattice_files, tmp_path, capsys, no_sampling, command,
                 header):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n")
        family = ["--family", "cg"] if command == "fit" else []
        rc = run_cli(command, "--data", data,
                     "--adjacency", lattice_files / "adjacency.csv", *family, *FAST,
                     "--out", tmp_path / "out")
        assert rc != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"{data}: no data rows"}


class TestCompareInputErrors:
    """A malformed summary CSV names its file, and its line for a bad row."""

    def compare(self, tmp_path, text):
        summary = tmp_path / "summary.csv"
        summary.write_text(text)
        rc = run_cli("compare", "--left", summary, "--right", summary,
                     "--out", tmp_path / "cmp")
        assert rc != 0
        return summary

    @pytest.mark.parametrize("header, missing", [
        ("estimator,mean,length", "region"),
        ("region,mean,length", "estimator"),
        ("region,estimator,mean", "length"),
        ("mean", "region, estimator, length"),
    ])
    def test_missing_column(self, tmp_path, capsys, header, missing):
        summary = self.compare(tmp_path, header + "\n")
        assert json.loads(capsys.readouterr().err) == {
            "error": "CommandError",
            "message": f"{summary}: summary header lacks {missing}"}

    def test_length_not_a_number(self, tmp_path, capsys):
        summary = self.compare(tmp_path, "region,estimator,length\n"
                                         "r0,r_cg,0.5\nr1,r_cg,abc\n")
        assert json.loads(capsys.readouterr().err) == {
            "error": "CommandError",
            "message": f"{summary}, line 3: could not convert string to float: "
                       "'abc'"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_length_not_finite(self, tmp_path, capsys, value):
        summary = self.compare(tmp_path, "region,estimator,length\n"
                                         f"r0,r_cg,0.5\nr1,r_cg,{value}\n")
        assert json.loads(capsys.readouterr().err) == {
            "error": "CommandError",
            "message": f"{summary}, line 3: length must be finite, got {value}"}
        assert not (tmp_path / "cmp" / "comparison.json").exists()

    @pytest.mark.parametrize("text, where", [
        ("region,estimator,length\nr0,r_cg,0.5\nr1,r_cg,0.4\nr0,r_cg,99.0\n", ""),
        ("region,time,estimator,length\nr0,1990,r_cg,0.5\nr0,1991,r_cg,0.4\n"
         "r0,1990,r_cg,99.0\n", ", time '1990'"),
    ], ids=["static", "panel"])
    def test_repeated_row(self, tmp_path, capsys, text, where):
        summary = self.compare(tmp_path, text)
        assert json.loads(capsys.readouterr().err) == {
            "error": "CommandError",
            "message": f"{summary}, line 4: repeated row for region 'r0'{where}, "
                       "estimator 'r_cg'"}
        assert not (tmp_path / "cmp" / "comparison.json").exists()


# runs the CLI, then reports on stderr every scipy module the process loaded
_SCIPY_GUARD = """
import json, sys
from arealrisk.cli import main
rc = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")),
      file=sys.stderr)
sys.exit(rc)
"""


class TestNoScipyOnCliPath:
    """Every subcommand runs without importing SciPy, during or after set-up."""

    @pytest.fixture(scope="class")
    def fits(self, lattice_files, tmp_path_factory):
        root = tmp_path_factory.mktemp("fits")
        for family in ("cg", "is"):
            rc = run_cli("fit", "--data", lattice_files / "dataset.csv",
                         "--adjacency", lattice_files / "adjacency.csv",
                         "--family", family, *FAST, "--out", root / family)
            assert rc == 0
        return root

    @pytest.mark.parametrize("command", ["fit", "print-config", "simulate", "study",
                                         "forecast", "compare"])
    def test_scipy_never_imported(self, command, lattice_files, panel_file, fits,
                                  tmp_path):
        fit = ["fit", "--data", lattice_files / "dataset.csv",
               "--adjacency", lattice_files / "adjacency.csv", "--family", "cg", *FAST]
        (tmp_path / "study.ini").write_text(
            "[graph]\nlattice = 3\n[study]\nreplicates = 2\n"
            "[sampler]\niterations = 300\nburn_in = 100\nadapt_window = 50\n")
        argv = {
            "fit": fit,
            "print-config": fit + ["--print-config"],
            "simulate": ["simulate", "--lattice", 3],
            "study": ["study", "--config", tmp_path / "study.ini"],
            "forecast": ["forecast", "--data", panel_file / "panel.csv",
                         "--adjacency", panel_file / "adjacency.csv", "--family", "both",
                         *FAST],
            "compare": ["compare", "--left", fits / "cg" / "summary.csv",
                        "--right", fits / "is" / "summary.csv"],
        }[command] + ["--out", tmp_path / "out"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == []
