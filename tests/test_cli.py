import csv
import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import pytest

from sdof import cli
from sdof.analysis import MC_TRIAL_BUDGET
from sdof.cli import ExperimentConfig, main, parse_config, print_schema, run
from sdof.errors import UsageError

FAST_ARGS = {
    "helper_fading_mi": ["--M=1", "--realizations=2"],
    "helper_fixed_mc": ["--M=1", "--trials=2000", "--grid=1e4,1e5,1e6,1e7",
                        "--seed=8"],
    "interference_fixed_verify": ["--K=3", "--m=1", "--mutate=true"],
    "interference_fading_verify": ["--K=3", "--n=1", "--realizations=2"],
    "interference_fading_mi": ["--K=3", "--n=1"],
    "mac_partial": ["--K=3", "--m_informed=2"],
    "entropy_bound": ["--P=1e4", "--samples=30"],
    "sdof_table": ["--K=3", "--M=2"],
    "region": ["--K=3"],
}


def fast_config(name, tmp_path, tag=""):
    args = [f"--experiment={name}", "--seed=1",
            f"--out_json={tmp_path}/{name}{tag}.json",
            f"--out_csv={tmp_path}/{name}{tag}.csv",
            f"--out_plot={tmp_path}/{name}{tag}_plot.csv"]
    return parse_config(None, args + FAST_ARGS[name])


def _region_config(tmp_path, seed):
    path = tmp_path / "exp.cfg"
    path.write_text(f"experiment = region\nseed = {seed}\n"
                    f"out_json = {tmp_path}/r.json\n"
                    f"out_csv = {tmp_path}/r.csv\n"
                    f"out_plot = {tmp_path}/r_plot.csv\n")
    return str(path)


class TestConfigParsing:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nexperiment = region\nK = 4\nseed = 2\n")
        cfg = parse_config(str(path), ["--K=5"])
        assert cfg.experiment == "region"
        assert cfg.K == 5 and cfg.seed == 2

    def test_grid_parsing(self):
        cfg = parse_config(None, ["--grid=1e3,1e5 ,1e7"])
        assert cfg.grid == (1e3, 1e5, 1e7)

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            parse_config(None, ["--nonsense=1"])

    def test_bad_boolean_rejected(self):
        with pytest.raises(UsageError):
            parse_config(None, ["--mutate=perhaps"])

    def test_missing_file(self):
        with pytest.raises(UsageError):
            parse_config("/nonexistent/path.cfg")

    def test_integer_keys_accept_float_notation(self):
        assert parse_config(None, ["--trials=1e4"]).trials == 10000

    @pytest.mark.parametrize("override", ["--K=2.5", "--seed=1.7", "--K=inf"])
    def test_non_integral_integer_is_usage_error(self, override, tmp_path, capsys):
        assert main(["run", _region_config(tmp_path, seed=1), override]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["--P=nan", "--P=inf", "--rank_tol=nan",
                                          "--grid=1e5,nan"])
    def test_non_finite_float_is_usage_error(self, override, tmp_path, capsys):
        assert main(["run", _region_config(tmp_path, seed=1), override]) == 2
        assert "usage error" in capsys.readouterr().err


class TestRun:
    @pytest.mark.parametrize("name", sorted(FAST_ARGS))
    def test_experiment_passes_and_writes_artifacts(self, name, tmp_path):
        cfg = fast_config(name, tmp_path)
        assert run(cfg) == 0
        report = json.loads((tmp_path / f"{name}.json").read_text())
        assert report["ok"] is True
        assert report["schema_version"]
        assert (tmp_path / f"{name}.csv").exists()
        assert (tmp_path / f"{name}_plot.csv").exists()
        assert (tmp_path / f"{name}.json.meta.json").exists()

    def test_meta_sidecar_holds_the_runs_resource_usage(self, tmp_path):
        pytest.importorskip("resource")
        assert run(fast_config("sdof_table", tmp_path)) == 0
        meta = json.loads((tmp_path / "sdof_table.json.meta.json").read_text())
        for key in ("minor_page_faults", "user_seconds", "system_seconds", "max_rss_mb"):
            assert meta[key] >= 0
        assert isinstance(meta["minor_page_faults"], int) and meta["max_rss_mb"] > 0

    def test_meta_sidecar_omits_resource_usage_without_the_module(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        assert run(fast_config("sdof_table", tmp_path)) == 0
        meta = json.loads((tmp_path / "sdof_table.json.meta.json").read_text())
        assert sorted(meta) == ["finished_unix", "wall_seconds"]

    @pytest.mark.parametrize("name", sorted(FAST_ARGS))
    def test_reports_are_byte_identical_across_reruns(self, name, tmp_path):
        first = fast_config(name, tmp_path, tag="_a")
        second = fast_config(name, tmp_path, tag="_b")
        run(first)
        run(second)
        for suffix in (".json", ".csv", "_plot.csv"):
            a = (tmp_path / f"{name}_a{suffix}").read_bytes()
            b = (tmp_path / f"{name}_b{suffix}").read_bytes()
            assert a == b, suffix

    def test_failing_assertion_still_writes_report(self, tmp_path):
        cfg = fast_config("helper_fading_mi", tmp_path)
        cfg.slope_tol = 1e-9
        assert run(cfg) == 1
        report = json.loads((tmp_path / "helper_fading_mi.json").read_text())
        assert report["ok"] is False

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        code = main(["run", "/nonexistent.cfg"])
        assert code == 2
        cfg = ExperimentConfig(experiment="bogus", seed=1)
        with pytest.raises(UsageError):
            run(cfg)

    def test_seed_is_mandatory(self):
        with pytest.raises(UsageError):
            run(ExperimentConfig(experiment="region"))


# the MI experiments, with the legitimate receivers of their scheme and the
# realization seeds of their fast config
MI_LAYOUTS = {
    "helper_fading_mi": (1, [1, 2]),
    "interference_fading_mi": (3, [None]),
    "mac_partial": (1, [None]),
}


@pytest.mark.parametrize("name", sorted(MI_LAYOUTS))
def test_mi_experiments_share_one_layout(name, tmp_path):
    receivers, seeds = MI_LAYOUTS[name]
    assert run(fast_config(name, tmp_path)) == 0
    columns = ["P", "I_leak_nats"] + [f"I_rx{l}_nats" for l in range(1, receivers + 1)]
    series = ["leak_dof"] + [f"legit_rx{l}_dof" for l in range(1, receivers + 1)]
    grid = ExperimentConfig().grid
    with open(tmp_path / f"{name}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(tmp_path / f"{name}_plot.csv", newline="") as fh:
        plot = list(csv.reader(fh))
    if seeds == [None]:
        assert rows[0] == columns
        assert [float(r[0]) for r in rows[1:]] == list(grid)
        want = [s for _ in grid for s in series]
    else:
        # one block per realization seed: a leading seed column, and every
        # series name tagged _seed<s>
        assert rows[0] == ["seed"] + columns
        assert [(int(r[0]), float(r[1])) for r in rows[1:]] == [
            (seed, P) for seed in seeds for P in grid]
        want = [f"{s}_seed{seed}" for seed in seeds for _ in grid for s in series]
    assert plot[0] == ["series", "half_log10_P", "value"]
    assert [r[0] for r in plot[1:]] == want
    assert all(len(r) == len(rows[0]) for r in rows)


class TestFadingSeriesLimit:
    """The finite-n sum d.o.f. series of interference_fading_mi is judged
    against the blind limit (K-1)/2, which is 1 only at K = 3."""

    def _series_assertion(self, K, monkeypatch, series=None):
        # the series check needs no mutual information: the sweep is stubbed
        monkeypatch.setattr(cli, "_sweep", lambda grid, scheme: ({"leak": 0.0}, [], []))
        if series is not None:
            monkeypatch.setattr(cli.analysis, "interference_fading_sdof",
                                lambda K, n: series[n - 1])
        cfg = parse_config(None, ["--experiment=interference_fading_mi", "--seed=1",
                                  f"--K={K}", "--n=1"])
        return cli._run_interference_fading_mi(cfg).report["assertions"][1]

    def test_four_users_converge_toward_three_halves(self, monkeypatch):
        got = self._series_assertion(4, monkeypatch)
        assert got["assertion"] == "finite-n sum d.o.f. increases toward 3/2"
        assert got["status"] == "pass"
        assert got["detail"].startswith("12/2563 < 2048/33317 < ")

    @pytest.mark.parametrize("last, status", [
        (Fraction(5, 4), "pass"),   # past 1, still short of the K = 4 limit
        (Fraction(3, 2), "fail"),
        (Fraction(1, 2), "fail"),   # not increasing
    ])
    def test_the_bound_is_the_limit_not_one(self, last, status, monkeypatch):
        series = [Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), 1, Fraction(9, 8), last]
        assert self._series_assertion(4, monkeypatch, series)["status"] == status


class TestFadingVerifyMutation:
    def test_mutation_is_flagged_in_every_realization(self, tmp_path):
        # a random Q~_1 fails the three target-2 equations and lifts every
        # interference rank one past the bound (K=3, n=1)
        cfg = fast_config("interference_fading_verify", tmp_path)
        cfg.mutate = True
        assert run(cfg) == 0
        report = json.loads((tmp_path / "interference_fading_verify.json").read_text())
        assert [r["mutation"] for r in report["realizations"]] == [{
            "equations_passed": 13, "equations_total": 16,
            "decoder_ranks": dict.fromkeys("123", 66),
            "interference_ranks": dict.fromkeys("123", 65),
            "flagged": True}] * 2
        assert report["assertions"][-1] == {
            "assertion": "Q~_1 := random mutation is flagged for every realization",
            "status": "pass"}
        header = (tmp_path / "interference_fading_verify.csv").read_text().splitlines()[0]
        assert "mutation" not in header

    def test_an_unflagged_mutation_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.precoding, "mutate_qtilde", lambda pre, k, seed: pre)
        cfg = fast_config("interference_fading_verify", tmp_path)
        cfg.mutate = True
        assert run(cfg) == 1
        report = json.loads((tmp_path / "interference_fading_verify.json").read_text())
        assert [a["status"] for a in report["assertions"]] == ["pass", "fail"]


# SHA-256 of the JSON report of each experiment whose report is exact in
# floating point (no BLAS reduction reaches it) or holds only integers and
# booleans (the fading verifier's counts and ranks), at seed 1: a change
# that moves one of these reports must say so here
PINNED_REPORTS = {
    ("interference_fixed_verify", "--K=3", "--m=1", "--mutate=true"):
        "f293a7dce7d4f00af24a740456315753677d18c628b685b0f5e22e801289008b",
    ("interference_fixed_verify", "--K=4", "--m=1", "--mutate=true"):
        "5718ea957785bc9a3980b1fe52eca014fd8bfca7466edd670af49cfc2410955b",
    ("interference_fading_verify", "--K=3", "--n=1", "--mutate=true"):
        "60071139f5b0eec24a57c69b1f9bf83a730f167da10fd2b66cac0e7955676502",
    ("interference_fading_verify", "--K=3", "--n=2", "--mutate=true"):
        "45688878af63b5b6d2c2474e9946292e0dcb150fd85f79a517926311eaeba381",
    ("sdof_table", "--K=3", "--M=2"):
        "6b82984ad6ec188281fa534a25c46f96f0d2ef4ab23957be98e6017c59376d3d",
    ("region", "--K=3"):
        "218f2f7f01318a658b89faad635eb523c3fb9dfd8cbc1ce8d247b74cfd88e1d2",
    ("entropy_bound", "--P=1e4", "--samples=30"):
        "5706d8d9e689b1ed070c4719d1a62eaf3671b8ca22f7631d136819475739d262",
}


@pytest.mark.parametrize("args", sorted(PINNED_REPORTS), ids=" ".join)
def test_exact_reports_are_pinned(args, tmp_path):
    name, *overrides = args
    cfg = parse_config(None, [f"--experiment={name}", "--seed=1",
                              f"--out_json={tmp_path}/r.json",
                              f"--out_csv={tmp_path}/r.csv",
                              f"--out_plot={tmp_path}/r_plot.csv", *overrides])
    assert run(cfg) == 0
    digest = hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest()
    assert digest == PINNED_REPORTS[args]


class TestSchema:
    def test_lists_every_config_field(self, capsys):
        print_schema()
        text = capsys.readouterr().out
        for f in dataclasses.fields(ExperimentConfig):
            assert f.name in text
        assert "schema version" in text

    def test_example_round_trips(self, capsys, tmp_path):
        print_schema()
        text = capsys.readouterr().out
        example = re.search(r"--- BEGIN EXAMPLE ---\n(.*?)\n--- END EXAMPLE ---",
                            text, re.S).group(1)
        path = tmp_path / "example.cfg"
        path.write_text(example + "\n")
        cfg = parse_config(str(path))
        assert cfg.experiment == "interference_fading_verify"
        assert cfg.seed == 1


class TestMain:
    def test_schema_command(self, capsys):
        assert main(["schema"]) == 0
        assert "Keys:" in capsys.readouterr().out

    def test_formulas_command(self, capsys):
        assert main(["formulas", "--model=mac", "--K=3"]) == 0
        out = capsys.readouterr().out
        assert "2/3" in out and "6/7" in out

    def test_run_command(self, tmp_path, capsys):
        assert main(["run", _region_config(tmp_path, seed=3), "--K=4"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["K"] == 4

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "/definitely/not/here.cfg"]) == 2

    def test_oversized_fixed_verify_is_refused(self, tmp_path, capsys):
        config = _region_config(tmp_path, seed=1)
        assert main(["run", config, "--experiment=interference_fixed_verify",
                     "--K=10"]) == 2
        assert "needs 3 <= K <= 9, got K=10" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_four_three_fixed_verify_runs(self, tmp_path):
        config = _region_config(tmp_path, seed=1)
        assert main(["run", config, "--experiment=interference_fixed_verify",
                     "--K=4", "--m=3"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["ok"] and report["violations"] == []
        assert report["receiver_span"] == dict.fromkeys("1234", 1_356_526_187)

    def test_oversized_monte_carlo_is_refused(self, tmp_path, capsys):
        config = _region_config(tmp_path, seed=1)
        assert main(["run", config, "--experiment=helper_fixed_mc",
                     f"--trials={MC_TRIAL_BUDGET + 1}"]) == 2
        assert "Monte Carlo trials exceed the budget" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("overrides, message", [
        (["--experiment=helper_fixed_mc", "--trials=0"],
         "usage error: helper_fixed_mc needs trials >= 1"),
        (["--experiment=mac_partial", "--K=1"],
         "error: mac_partial(1, 1) has no message streams"),
        (["--experiment=helper_fixed_mc", "--grid="],
         "usage error: helper_fixed_mc needs a non-empty grid"),
        (["--experiment=interference_fading_verify", "--rank_tol=0"],
         "usage error: rank_tol must be in (0, 1)"),
        (["--experiment=interference_fading_verify", "--rank_tol=-1"],
         "usage error: rank_tol must be in (0, 1)"),
        (["--experiment=interference_fading_verify", "--rank_tol=2"],
         "usage error: rank_tol must be in (0, 1)"),
        (["--experiment=mac_partial", "--grid=1,1e2,1e4"],
         "usage error: grid powers must be > 1"),
        (["--experiment=interference_fading_verify", "--K=2"],
         "error: construction needs 3 <= K <= 9, got K=2"),
        (["--experiment=interference_fading_mi", "--K=10"],
         "error: construction needs 3 <= K <= 9, got K=10"),
        (["--experiment=entropy_bound", "--samples=0"],
         "usage error: entropy_bound needs samples >= 1"),
    ])
    def test_degenerate_experiment_is_refused(self, overrides, message, tmp_path, capsys):
        config = _region_config(tmp_path, seed=1)
        assert main(["run", config, *overrides]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("experiment", ["interference_fading_verify",
                                            "interference_fading_mi"])
    def test_oversized_fading_run_is_refused_before_sampling(self, experiment, tmp_path,
                                                             capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a channel for an oversized scheme")

        monkeypatch.setattr(cli, "sample_channel", no_sampling)
        config = _region_config(tmp_path, seed=1)
        assert main(["run", config, f"--experiment={experiment}", "--K=5", "--n=1"]) == 2
        assert "over budget" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_experiments_without_trials_ignore_them(self, tmp_path):
        assert main(["run", _region_config(tmp_path, seed=1), "--trials=0"]) == 0
