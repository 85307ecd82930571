import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from arealrisk.estimators import (
    _FIELDS,
    RiskSummary,
    _field_names,
    _risk_draws,
    risk_cg_tilde,
    risk_cg_true,
    risk_is,
    summarize,
    write_geojson_properties,
    write_summary_csv,
)
from arealrisk import cli, metrics, sampler
from arealrisk.model import (
    Dataset,
    ModelSpec,
    _write_json,
    apply_link,
    internal_standardization,
)
from arealrisk.sampler import PosteriorSamples, SamplerConfig
from tests.test_cli import FAST, lattice_files, panel_file, run_cli  # noqa: F401


def make_samples(spec, beta, phi, region_ids, alpha=None, rho=None, omega=None,
                 times=None):
    """Hand-built PosteriorSamples for transform tests."""
    beta = np.asarray(beta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    D = beta.shape[0]
    cfg = SamplerConfig(n_iterations=2 * D + 10, burn_in=10, thin=2, seed=0)
    return PosteriorSamples(
        spec=spec,
        config=cfg,
        region_ids=tuple(region_ids),
        times=times,
        beta=beta,
        phi=phi,
        tau=np.ones(D),
        alpha=None if alpha is None else np.asarray(alpha, dtype=float),
        rho=None if rho is None else np.asarray(rho, dtype=float),
        omega=None if omega is None else np.asarray(omega, dtype=float),
        acceptance={},
        proposal_scales={},
        n_nonfinite_events=0,
    )


def small_dataset():
    return Dataset(["A", "B"], [1, 1], [10.0, 20.0], np.ones((2, 1)))


class TestRiskIs:
    def test_zero_state_gives_unit_risk(self):
        s = make_samples(ModelSpec("is"), np.zeros((3, 1)), np.zeros((3, 2)),
                         ["A", "B"])
        r = risk_is(s, small_dataset())
        assert np.all(r == 1.0)

    def test_log_two_effect(self):
        phi = np.array([[np.log(2.0), 0.0]])
        s = make_samples(ModelSpec("is"), np.zeros((1, 1)), phi, ["A", "B"])
        r = risk_is(s, small_dataset())
        assert r[0, 0] == pytest.approx(2.0)
        assert r[0, 1] == pytest.approx(1.0)

    def test_monotone_in_phi(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(5, 2))
        s = make_samples(ModelSpec("is"), np.zeros((5, 1)), phi, ["A", "B"])
        r1 = risk_is(s, small_dataset())
        s2 = make_samples(ModelSpec("is"), np.zeros((5, 1)), phi + 0.3, ["A", "B"])
        r2 = risk_is(s2, small_dataset())
        assert np.all(r2 > r1)

    def test_rejects_cg_samples(self):
        s = make_samples(ModelSpec("cg"), np.zeros((3, 1)), np.zeros((3, 2)),
                         ["A", "B"])
        with pytest.raises(TypeError):
            risk_is(s, small_dataset())


def logit(p):
    return np.log(p / (1.0 - p))


class TestRiskCgTilde:
    def test_p_at_pooled_rate_gives_unit_risk(self):
        d = small_dataset()
        pbar = 2.0 / 30.0  # the pooled rate
        eta = logit(pbar)
        s = make_samples(ModelSpec("cg"), np.full((2, 1), eta), np.zeros((2, 2)),
                         ["A", "B"])
        r = risk_cg_tilde(s, d)
        assert r == pytest.approx(np.ones((2, 2)))

    def test_linear_in_p(self):
        d = small_dataset()
        p_lo, p_hi = 0.05, 0.10
        s_lo = make_samples(ModelSpec("cg"), np.full((1, 1), logit(p_lo)),
                            np.zeros((1, 2)), ["A", "B"])
        s_hi = make_samples(ModelSpec("cg"), np.full((1, 1), logit(p_hi)),
                            np.zeros((1, 2)), ["A", "B"])
        assert risk_cg_tilde(s_hi, d) == pytest.approx(
            2.0 * risk_cg_tilde(s_lo, d)
        )

    def test_direct_arithmetic(self):
        # n=(10,20), Y=(1,1): pooled rate 2/30; draw p=(0.1,0.05) -> (1.5, 0.75)
        d = small_dataset()
        phi = np.array([[logit(0.1), logit(0.05)]])
        s = make_samples(ModelSpec("cg"), np.zeros((1, 1)), phi, ["A", "B"])
        r = risk_cg_tilde(s, d)
        assert r[0] == pytest.approx([1.5, 0.75])

    def test_perfect_correlation_with_p(self):
        rng = np.random.default_rng(1)
        d = small_dataset()
        phi = rng.normal(size=(200, 2))
        s = make_samples(ModelSpec("cg"), np.zeros((200, 1)), phi, ["A", "B"])
        p = apply_link("logit", s.beta @ d.x.T + s.phi)
        r = risk_cg_tilde(s, d)
        for i in range(2):
            corr = np.corrcoef(p[:, i], r[:, i])[0, 1]
            assert corr == pytest.approx(1.0, abs=1e-12)


class TestRiskCgTrue:
    def test_constant_p_gives_unit_risk(self):
        d = small_dataset()
        s = make_samples(ModelSpec("cg"), np.full((4, 1), -2.0), np.zeros((4, 2)),
                         ["A", "B"])
        r = risk_cg_true(s, d)
        assert r == pytest.approx(np.ones((4, 2)))

    def test_direct_arithmetic(self):
        d = small_dataset()
        phi = np.array([[logit(0.1), logit(0.05)]])
        s = make_samples(ModelSpec("cg"), np.zeros((1, 1)), phi, ["A", "B"])
        r = risk_cg_true(s, d)
        # pbar = (10*0.1 + 20*0.05)/30 = 1/15
        assert r[0] == pytest.approx([1.5, 0.75])

    def test_weighted_mean_identity(self):
        rng = np.random.default_rng(2)
        d = small_dataset()
        phi = rng.normal(size=(500, 2))
        beta = rng.normal(size=(500, 1))
        s = make_samples(ModelSpec("cg"), beta, phi, ["A", "B"])
        r = risk_cg_true(s, d)
        wmean = r @ d.n / d.n.sum()
        assert np.max(np.abs(wmean - 1.0)) < 1e-12

    def test_rejects_is_samples(self):
        s = make_samples(ModelSpec("is"), np.zeros((1, 1)), np.zeros((1, 2)),
                         ["A", "B"])
        with pytest.raises(TypeError):
            risk_cg_true(s, small_dataset())


class TestRiskDraws:
    @pytest.mark.parametrize("link,c0", [("logit", None), ("cloglog", None),
                                         ("skewed_logit", 0.004)])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_cg_dict_equals_public_functions(self, link, c0, dynamic):
        # both estimators come from one incidence matrix, with the same bits
        rng = np.random.default_rng(3)
        D, I, T = 150, 6, 4
        shape = (I, T) if dynamic else (I,)
        d = Dataset([f"r{i}" for i in range(I)], rng.integers(0, 40, size=shape),
                    rng.uniform(200.0, 900.0, size=shape), np.ones(shape + (1,)),
                    times=tuple(range(T)) if dynamic else None)
        spec = ModelSpec("cg", link=link, c0=c0,
                         temporal="dynamic_ar1" if dynamic else "static")
        s = make_samples(spec, rng.normal(-3.0, 0.5, size=(D, 1)),
                         rng.normal(scale=0.5, size=(D, I)), d.region_ids,
                         alpha=rng.normal(scale=0.2, size=(D, T)) if dynamic else None,
                         times=d.times)
        for t in range(T) if dynamic else [None]:
            draws = _risk_draws(s, d, t)
            assert list(draws) == ["r_cg_tilde", "r_cg"]
            assert np.array_equal(draws["r_cg_tilde"], risk_cg_tilde(s, d, t))
            assert np.array_equal(draws["r_cg"], risk_cg_true(s, d, t))


class TestSummarize:
    def test_constant_matrix_degenerates(self):
        mat = np.full((150, 3), 2.5)
        s = summarize(mat, ["A", "B", "C"], "r_is")
        assert np.all(s.mean == 2.5)
        assert np.all(s.median == 2.5)
        assert np.all(s.lower == 2.5)
        assert np.all(s.upper == 2.5)
        assert np.all(s.length == 0.0)

    def test_quantiles_match_order_statistic_oracle(self):
        vals = np.arange(1.0, 1001.0) * 0.003
        rng = np.random.default_rng(3)
        rng.shuffle(vals)
        s = summarize(vals[:, None], ["A"], "r_is", level=0.90)

        def interp_quantile(sorted_x, q):
            h = (len(sorted_x) - 1) * q
            lo = int(np.floor(h))
            hi = min(lo + 1, len(sorted_x) - 1)
            return sorted_x[lo] + (h - lo) * (sorted_x[hi] - sorted_x[lo])

        srt = np.sort(vals)
        assert s.lower[0] == pytest.approx(interp_quantile(srt, 0.05), rel=1e-12)
        assert s.median[0] == pytest.approx(interp_quantile(srt, 0.50), rel=1e-12)
        assert s.upper[0] == pytest.approx(interp_quantile(srt, 0.95), rel=1e-12)

    def test_level_one_rejected(self):
        mat = np.ones((200, 1))
        with pytest.raises(ValueError):
            summarize(mat, ["A"], "r_is", level=1.0)

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError, match="draws"):
            summarize(np.ones((99, 1)), ["A"], "r_is")

    def test_exceedance_probability(self):
        mat = np.concatenate([np.full((30, 1), 0.5), np.full((70, 1), 1.5)])
        s = summarize(mat, ["A"], "r_cg")
        assert s.exceedance[0] == pytest.approx(0.7)

    def test_interval_ordering_invariant(self):
        rng = np.random.default_rng(4)
        mat = np.exp(rng.normal(size=(400, 6)))
        s = summarize(mat, list("ABCDEF"), "r_cg")
        assert np.all(s.lower <= s.median)
        assert np.all(s.median <= s.upper)
        assert np.all(s.length >= 0)


class TestShrinkage:
    def test_extreme_regions_shrink_on_fitted_replicate(self):
        # end-to-end: the spatial fit pulls extreme raw rates toward the mean
        from arealrisk.sampler import run_chain
        from arealrisk.simstudy import (build_truth, lattice_graph,
                                        simulate_counts, synthetic_populations)

        graph = lattice_graph(6)
        pops = synthetic_populations(graph.n_regions, 314, low=1e4, high=5e4)
        truth = build_truth(graph, pops)
        data = simulate_counts(truth, seed=314)
        E = internal_standardization(data)
        raw = data.y / E
        cfg = SamplerConfig(n_iterations=3_000, burn_in=1_000, thin=2, seed=314,
                            adapt_window=200)
        samples = run_chain(data, graph, ModelSpec("cg"), cfg)
        s = summarize(risk_cg_true(samples, data), data.region_ids, "r_cg")
        center = raw.mean()
        extremes = np.argsort(np.abs(raw - center))[::-1][:5]
        for i in extremes:
            assert abs(s.mean[i] - center) < abs(raw[i] - center)


class TestWriters:
    def test_summary_csv_static(self, tmp_path):
        mat = np.tile([1.0, 2.0], (150, 1))
        s = summarize(mat, ["A", "B"], "r_is")
        path = tmp_path / "summary.csv"
        write_summary_csv([s], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "region,estimator,mean,median,lo90,hi90,length,exceedance"
        assert len(lines) == 3
        assert lines[1].startswith("A,r_is,1.0,")

    @pytest.mark.parametrize("level, pct", [(0.8, "80"), (0.975, "97.5"),
                                            (0.5, "50"), (0.999, "99.9")])
    def test_interval_columns_named_by_level(self, tmp_path, level, pct):
        mat = np.tile([1.0, 2.0], (150, 1))
        s = summarize(mat, ["A", "B"], "r_is", level)
        path = tmp_path / "summary.csv"
        write_summary_csv([s], path)
        header = path.read_text().split("\n")[0]
        assert header == (f"region,estimator,mean,median,lo{pct},hi{pct},"
                          "length,exceedance")
        write_geojson_properties([s], tmp_path / "props.json")
        props = json.loads((tmp_path / "props.json").read_text())
        assert {f"lo{pct}", f"hi{pct}"} <= set(props["A"]["r_is"])

    def test_summary_csv_needs_one_level(self, tmp_path):
        mat = np.tile([1.0, 2.0], (150, 1))
        summaries = [summarize(mat, ["A", "B"], "r_cg", level) for level in (0.8, 0.9)]
        with pytest.raises(ValueError, match="summaries must share one level"):
            write_summary_csv(summaries, tmp_path / "summary.csv")

    def test_summary_csv_with_time(self, tmp_path):
        mat = np.tile([1.0, 2.0], (150, 1))
        s = summarize(mat, ["A", "B"], "r_cg", time=1990)
        path = tmp_path / "summary.csv"
        write_summary_csv([s], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",")[1] == "time"
        assert lines[1].split(",")[1] == "1990"

    def test_geojson_properties_keyed_by_region(self, tmp_path):
        mat = np.tile([1.0, 2.0], (150, 1))
        s = summarize(mat, ["A", "B"], "r_cg")
        path = tmp_path / "props.json"
        write_geojson_properties([s], path)
        props = json.loads(path.read_text())
        assert set(props) == {"A", "B"}
        assert props["A"]["r_cg"]["mean"] == 1.0
        assert "exceedance" in props["B"]["r_cg"]


# the writers' loop references: json.dump of the nested dict, and one repr per
# float; the writers format whole columns and must give the same bytes


def reference_geojson(summaries) -> str:
    out: dict = {}
    for s in summaries:
        names = _field_names(s.level)
        columns = [getattr(s, attr).tolist() for attr in _FIELDS]
        for region, *values in zip(s.region_ids, *columns):
            fields = dict(zip(names, values))
            slot = out.setdefault(region, {})
            if s.time is None:
                slot[s.estimator] = fields
            else:
                slot.setdefault(s.estimator, {})[str(s.time)] = fields
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def csv_field(text: str) -> str:
    """``text`` as the csv module writes one field, with ``csv.QUOTE_MINIMAL``."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue().removesuffix("\r\n")


def reference_summary_csv(summaries) -> str:
    with_time = any(s.time is not None for s in summaries)
    head = (["region"] + (["time"] if with_time else [])
            + ["estimator", *_field_names(summaries[0].level)])
    lines = [",".join(head)]
    for s in summaries:
        lead = ([] if not with_time else ["" if s.time is None else str(s.time)])
        for i, region in enumerate(s.region_ids):
            values = [repr(float(getattr(s, attr)[i])) for attr in _FIELDS]
            lines.append(",".join([csv_field(region), *lead, s.estimator, *values]))
    return "\n".join(lines) + "\n"


ODD_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-05, 0.1, 2.5e-300]
floats = hst.one_of(hst.sampled_from(ODD_FLOATS),
                    hst.floats(allow_nan=True, allow_infinity=True))
region_ids = hst.lists(
    hst.one_of(hst.sampled_from(['r"0', "ré", "r\\1", "r%s", "区"]),
               hst.text(hst.characters(blacklist_categories=("Cs",)),
                        min_size=1, max_size=4)),
    min_size=1, max_size=4, unique=True)


@hst.composite
def summary_sets(draw):
    """Static summaries of several estimators, or a panel's over several times."""
    ids = draw(region_ids)
    level = draw(hst.sampled_from([0.9, 0.8, 0.975]))
    panel = draw(hst.booleans())
    keys = ([("r_cg", t) for t in draw(hst.lists(hst.integers(1990, 2030),
                                                 min_size=1, max_size=3, unique=True))]
            if panel else [(tag, None) for tag in draw(hst.lists(
                hst.sampled_from(["r_cg", "r_cg_tilde", "r_is", "r é", "r%s"]),
                min_size=1, max_size=3, unique=True))])
    column = hst.lists(floats, min_size=len(ids), max_size=len(ids)).map(np.array)
    return [RiskSummary(estimator=tag, region_ids=tuple(ids), mean=draw(column),
                        median=draw(column), lower=draw(column), upper=draw(column),
                        level=level, exceedance=draw(column), time=time)
            for tag, time in keys]


# json.dump's hard cases: quotes, backslashes, control and non-ASCII characters
# (in keys too), ints past 2**63, non-finite and extreme floats, empty containers
json_strs = hst.text(hst.one_of(hst.sampled_from('"\\/\x00\x1f\x7f\n\té区\U0001f600'),
                                hst.characters()), max_size=5)
json_float_values = hst.one_of(
    hst.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e16, 1e-05, 5e-324]), hst.floats())
json_values = hst.recursive(
    hst.one_of(hst.none(), hst.booleans(), hst.integers(),
               hst.integers(2**63, 2**80), hst.integers(-2**80, -2**63), json_float_values,
               json_strs),
    lambda inner: hst.one_of(hst.lists(inner, max_size=4),
                             hst.lists(inner, max_size=4).map(tuple),
                             hst.lists(json_float_values, min_size=1, max_size=4),
                             hst.lists(json_float_values, min_size=1, max_size=4).map(tuple),
                             hst.dictionaries(json_strs, inner, max_size=4)),
    max_leaves=20)


def json_dump_text(obj) -> str:
    """The text every JSON artifact must hold: json.dump's, and a newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="class")
def json_artifacts(lattice_files, panel_file, tmp_path_factory):
    """The JSON artifacts of fits, a study, a forecast and a compare run, each
    with the object it was written from (by path)."""
    root = tmp_path_factory.mktemp("artifacts")
    written = {}

    def recording(write):
        def record(obj, fh):
            written[fh.name] = obj
            write(obj, fh)
        return record

    static = ["--data", lattice_files / "dataset.csv",
              "--adjacency", lattice_files / "adjacency.csv", *FAST, "--seed", 3]
    panel = ["--data", panel_file / "panel.csv",
             "--adjacency", panel_file / "adjacency.csv", *FAST, "--seed", 3]
    runs = {
        "fit-cg": ["fit", *static, "--family", "cg"],
        "fit-is": ["fit", *static, "--family", "is"],
        "fit-panel": ["fit", *panel, "--family", "cg", "--link", "cloglog"],
        "study": ["study", "--replicates", 2, "--iterations", 300, "--burn-in", 100,
                  "--link", "logit,cloglog", "--jobs", 2, "--seed", 3],
        "forecast": ["forecast", *panel, "--family", "both"],
        "compare": ["compare", "--left", root / "fit-cg" / "summary.csv",
                    "--right", root / "fit-is" / "summary.csv"],
    }
    with pytest.MonkeyPatch.context() as mp:
        for module in (cli, metrics, sampler):
            mp.setattr(module, "_write_json", recording(module._write_json))
        for name, argv in runs.items():
            assert run_cli(*argv, "--out", root / name) == 0
    return root, written


class TestWritersMatchTheirReference:
    @pytest.mark.parametrize("artifact", [
        "fit-cg/metadata.json", "fit-is/metadata.json", "fit-panel/metadata.json",
        "study/study_report.json", "forecast/forecast_report.json",
        "compare/comparison.json"])
    def test_json_artifact_is_json_dump(self, json_artifacts, artifact):
        root, written = json_artifacts
        path = root / artifact
        assert path.read_text() == json_dump_text(written[str(path)])

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "d.csv", "--adjacency", "a.csv", "--family", "cg"],
        ["simulate", "--hubs", '"r,0",r5'],
        ["study", "--link", "logit,cloglog"],
        ["forecast", "--data", "d.csv", "--adjacency", "a.csv"],
        ["compare", "--left", "l.csv", "--right", "é.csv"],
    ], ids=lambda argv: argv[0])
    def test_print_config_is_json_dump(self, argv, tmp_path, capsys, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "_write_json",
                            lambda obj, fh: (written.append(obj), _write_json(obj, fh)))
        assert run_cli(*argv, "--print-config", "--out", tmp_path) == 0
        assert capsys.readouterr().out == json_dump_text(written[0])

    @settings(max_examples=300, deadline=None)
    @given(obj=json_values)
    def test_write_json_is_json_dump(self, obj):
        fh = io.StringIO()
        _write_json(obj, fh)
        assert fh.getvalue() == json_dump_text(obj)

    @pytest.mark.parametrize("n", [999, 1000, 1001, 2500])
    def test_write_json_streams_a_big_report(self, n):
        # a top-level container goes out a thousand members at a time
        for obj in ({f"r{i}": {"mean": i / 7} for i in range(n)},
                    [[i / 7] for i in range(n)]):
            writes = []
            fh = io.StringIO()
            fh.write = lambda text: writes.append(text)
            _write_json(obj, fh)
            assert "".join(writes) == json_dump_text(obj)
            assert len(writes) == 2 + (n - 1) // 1000

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf lengths
    @settings(max_examples=200, deadline=None)
    @given(summaries=summary_sets())
    def test_geojson_is_json_dump(self, tmp_path_factory, summaries):
        path = tmp_path_factory.mktemp("geo") / "props.json"
        write_geojson_properties(summaries, path)
        assert path.read_bytes() == reference_geojson(summaries).encode()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(summaries=summary_sets())
    def test_summary_csv_is_fmt_per_value(self, tmp_path_factory, summaries):
        path = tmp_path_factory.mktemp("csv") / "summary.csv"
        write_summary_csv(summaries, path)
        assert path.read_bytes() == reference_summary_csv(summaries).encode()

    def test_empty_geojson(self, tmp_path):
        write_geojson_properties([], tmp_path / "props.json")
        assert (tmp_path / "props.json").read_text() == reference_geojson([])

    def test_static_and_panel_summary_of_one_estimator_rejected(self, tmp_path):
        mat = np.tile([1.0, 2.0], (150, 1))
        summaries = [summarize(mat, ["A", "B"], "r_cg"),
                     summarize(mat, ["A", "B"], "r_cg", time=1990)]
        with pytest.raises(ValueError, match="region 'A': estimator 'r_cg' has "
                                             "both a static and a panel summary"):
            write_geojson_properties(summaries, tmp_path / "props.json")

    @pytest.mark.parametrize("times, message", [
        ((1990, None), "has both a static and a panel summary"),
        ((1990, 1990), "has two summaries at time 1990"),
        ((None, None), "has two summaries at time None"),
    ], ids=["panel-then-static", "panel-twice", "static-twice"])
    def test_filled_slot_rejected(self, tmp_path, times, message):
        # a second summary of one (estimator, time) would replace the first
        mat = np.tile([1.0, 2.0], (150, 1))
        summaries = [summarize(mat, ["A", "B"], "r_cg", time=t) for t in times]
        with pytest.raises(ValueError, match=f"region 'A': estimator 'r_cg' {message}"):
            write_geojson_properties(summaries, tmp_path / "props.json")
        assert not (tmp_path / "props.json").exists()
