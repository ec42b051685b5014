"""Command line driver: exit codes, artifact layout, byte determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from dklab import cli
from dklab.cli import _sanitize, main, rows_to_csv

TINY_CHAOS = {
    "seed": 5,
    "study": {
        "name": "chaos",
        "n_ladder": [8, 16, 32, 64],
        "n_replicas": 4,
        "t_horizon": 0.2,
        "burn_in": 0.1,
        "n_snapshots": 2,
    },
}


TINY_MODEL = {"n_particles": 8, "t_horizon": 0.1, "burn_in": 0.0}


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def read_artifacts(out_root, study):
    runs = sorted((out_root / study).iterdir())
    assert len(runs) == 1
    d = runs[0]
    return (d / "raw.csv").read_bytes(), json.loads((d / "report.json").read_text()), \
        json.loads((d / "config.json").read_text())


class TestCsv:
    def test_format(self):
        rows = [{"a": 1, "b": 0.5, "c": True}, {"a": 2, "d": "x"}]
        got = rows_to_csv(rows).decode()
        lines = got.splitlines()
        assert lines[0] == "a,b,c,d"
        assert lines[1] == "1,0.5,1,"
        assert lines[2] == "2,,,x"
        assert got.endswith("\n")

    def test_seventeen_digit_floats(self):
        got = rows_to_csv([{"v": 1.0 / 3.0}]).decode().splitlines()[1]
        assert got == "0.33333333333333331"
        assert float(got) == 1.0 / 3.0

    def test_sanitize(self):
        tree = {"a": np.float64(1.5), "b": (1, 2), "c": math.inf,
                "d": {"e": np.int32(3)}, "f": np.arange(2)}
        got = _sanitize(tree)
        assert got == {"a": 1.5, "b": [1, 2], "c": "inf", "d": {"e": 3},
                       "f": [0, 1]}
        assert json.dumps(got)  # round-trips through strict JSON


class TestExitCodes:
    def test_missing_config_flag(self, capsys):
        assert main(["simulate"]) == 1
        assert "needs --config" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unparseable_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert main(["simulate", "--config", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"study": {}, "extra": 1})
        assert main(["study", "chaos", "--config", cfg]) == 1
        assert "extra" in capsys.readouterr().err

    def test_unknown_study_key(self, tmp_path, capsys):
        # the small_noise block is sized so that a run, were the key taken, is short
        for study, key, block in [
                ("chaos", "n_ladders", {"n_ladders": [8, 16]}),
                ("small_noise", "check_sigma_halving",
                 {"check_sigma_halving": False, "n_replicas": 1, "t_horizon": 0.001})]:
            cfg = write_config(tmp_path, {"study": block})
            assert main(["study", study, "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert "unknown study keys" in err and key in err

    def test_unknown_study_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"study": {}})
        assert main(["study", "turbulence", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "unknown study" in err and "chaos" in err

    def test_study_name_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"study": {"name": "chaos"}})
        assert main(["study", "mollifier", "--config", cfg]) == 1
        assert "chaos" in capsys.readouterr().err

    def test_study_needs_positional_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"study": {}})
        assert main(["study", "--config", cfg]) == 1
        assert "study name" in capsys.readouterr().err

    def test_simulate_rejects_positional_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"n_particles": 8}})
        assert main(["simulate", "chaos", "--config", cfg]) == 1
        assert "unexpected" in capsys.readouterr().err

    def test_seed_must_be_u64(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CHAOS)
        assert main(["study", "chaos", "--config", cfg, "--seed", "-3"]) == 1
        assert "64-bit" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CHAOS)
        assert main(["study", "chaos", "--config", cfg, "--jobs", "0"]) == 1
        assert "jobs" in capsys.readouterr().err

    def test_unresolvable_kernel_cites_the_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "spde": {"n_grid": 64, "epsilon": 0.05, "t_horizon": 0.01}})
        assert main(["spde", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "cannot resolve" in err and "need at least" in err

    def test_floor_above_datum_cites_the_ordering(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "spde": {"n_grid": 128, "epsilon": 0.2, "t_horizon": 0.01,
                     "delta": 0.2, "c1": 0.3}})
        assert main(["spde", "--config", cfg]) == 1
        assert "stopping ordering" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"model": {"n_particles": "10", "t_horizon": 0.1, "burn_in": 0.0}},
        {"spde": {"n_grid": 128, "epsilon": 0.2, "n_particles": "infinity"}},
        {"model": TINY_MODEL, "kernel": {"epsilon": [0.25]}},
        {"seed": True, "model": TINY_MODEL},
        {"jobs": True, "model": TINY_MODEL},
        {"model": {**TINY_MODEL, "n_replicas": 2.7}},
        {"model": {**TINY_MODEL, "n_snapshots": 2.7}},
        {"model": {**TINY_MODEL, "n_particles": 2.5}},
        {"spde": {"n_grid": 128, "epsilon": 0.2, "dt": True, "t_horizon": 1.0}},
        {"spde": {"n_grid": 64.0, "epsilon": 0.3, "t_horizon": 0.01}},
        {"model": {**TINY_MODEL, "gamma": "1"}},
        {"model": TINY_MODEL, "kernel": {"epsilon": True}},
        {"model": TINY_MODEL, "kernel": {"epsilon": "0.1"}},
        {"model": TINY_MODEL, "kernel": {"epsilon": 0.25, "n_grid": 256.0}},
        {"model": TINY_MODEL, "kernel": {"epsilon": 0.25, "n_grid": 64.7}},
        # flags laid over wrong-typed file values do not hide them
        ({"out": 5, "seed": True, "jobs": "x", "model": TINY_MODEL},
         ["--out", "runs", "--seed", "1", "--jobs", "1"]),
        # JSON NaN and Infinity parse as floats; no run takes them
        {"model": {**TINY_MODEL, "gamma": math.nan}},
        {"model": TINY_MODEL, "kernel": {"epsilon": math.nan}},
        {"spde": {"n_grid": 128, "epsilon": 0.2, "t_horizon": 0.01, "delta": math.nan}},
        {"model": {**TINY_MODEL, "t_horizon": math.inf}},
        {"spde": {"n_grid": 128, "epsilon": 0.2, "t_horizon": math.inf}},
        {"model": {**TINY_MODEL, "sigma": math.inf}},
        {"model": {**TINY_MODEL, "gamma": math.inf}},
        {"spde": {"n_grid": 128, "epsilon": 0.2, "t_horizon": 0.01, "sigma": math.inf}},
        # a guard that is not finite and positive would trip at once or never
        {"model": {**TINY_MODEL, "momentum_guard": 0}},
        {"model": {**TINY_MODEL, "momentum_guard": -1}},
        {"model": {**TINY_MODEL, "momentum_guard": math.inf}},
        {"model": {**TINY_MODEL, "n_replicas": 0}},
        {"model": {**TINY_MODEL, "n_snapshots": 0}},
    ])
    def test_wrong_typed_value_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                 config):
        config, flags = config if isinstance(config, tuple) else (config, [])
        monkeypatch.chdir(tmp_path)
        command = "spde" if "spde" in config else "simulate"
        assert main([command, "--config", write_config(tmp_path, config), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("study", [
        {"n_replicas": "4"}, {"n_replicas": 2.5},
        {"n_ladder": ["16", "32", "64", "128"]},
        {"gamma": math.nan}, ("interaction", {"eps_ladder": [0.2, math.nan]})])
    def test_wrong_typed_study_value_is_a_config_error(self, tmp_path, capsys, study):
        name, study = study if isinstance(study, tuple) else ("chaos", study)
        cfg = write_config(tmp_path, {"study": study})
        assert main(["study", name, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad study config")

    @pytest.mark.parametrize("study, block", [
        ("j2_closure", {"m2_ladder": []}),
        ("j2_closure", {"m2_ladder": [1.0]}),
        ("small_noise", {"n_ladder": []}),
        ("small_noise", {"n_ladder": [1e4]}),
        ("covariance", {"eps_ladder": []}),
        ("mollifier", {"eps_ladder": []}),
        ("interaction", {"eps_ladder": [0.2]}),
        ("interaction", {"moment_eps_ladder": [0.3]}),
        ("chaos", {"alpha": 3}),
        ("chaos", {"n_replicas": 1}),
        # counts: zero evidence is refused, not passed or crashed on
        ("covariance", {"replica_block": 0}),
        ("covariance", {"replica_block": -5}),
        ("covariance", {"separations": []}),
        ("chaos", {"n_snapshots": 0}),
        # a verdict bound is no config key, so a config that sets one is refused
        ("chaos", {"slope_window": [-0.65, -0.35]}),
        ("j2_closure", {"n_snapshots": 0}),
        ("j2_closure", {"n_replicas": 0}),
        ("mollifier", {"n_quad": 0}),
        ("mollifier", {"n_anchors": 0}),
        ("evolution_identity", {"n_replicas": 0}),
        ("small_noise", {"n_replicas": 0}),
        ("small_noise", {"halving_window": [1.4, 4.0]}),
        # times off their step grid, and ladder points that make one cell twice
        ("interaction", {"moment_t_horizon": 0.0503}),
        ("interaction", {"t_measure": 0.0503}),
        ("evolution_identity", {"dt_ladder": [0.01, 0.005, 0.003]}),
        ("covariance", {"eps_ladder": [0.4, 0.4, 0.2], "theta": 2.0}),
        ("covariance", {"eps_ladder": [0.4, 0.401, 0.2], "theta": 2.0}),
        # a repeated ladder point, which a verdict would read as two cells
        ("chaos", {"n_ladder": [64, 64, 128, 256]}),
        ("j2_closure", {"m2_ladder": [1.0, 0.25, 1.0, 0.25]}),
        ("interaction", {"eps_ladder": [0.4, 0.4, 0.2, 0.2], "theta": 2.0}),
        ("interaction", {"eps_ladder": [0.4, 0.401, 0.2], "theta": 2.0}),
        ("interaction", {"moment_eps_ladder": [0.35, 0.35, 0.3, 0.25, 0.2]}),
        ("mollifier", {"eps_ladder": [0.4, 0.4, 0.2, 0.1, 0.05]}),
        ("small_noise", {"n_ladder": [1e2, 1e2, 1e3, 1e4]}),
        ("evolution_identity", {"dt_ladder": [1e-2, 1e-2, 5e-3, 2.5e-3]}),
        # (eps, theta) points with no N >= 2 on N * eps^theta = 1
        ("covariance", {"eps_ladder": [0.0]}),
        ("covariance", {"theta": 0.0}),
        ("interaction", {"eps_ladder": [0.2, 0.0]}),
        ("interaction", {"eps_ladder": [-0.2, 0.1], "theta": 2.5}),
        ("interaction", {"eps_ladder": [0.9, 0.95], "theta": 3.0}),
        ("interaction", {"eps_ladder": [0.2, 1e-200], "theta": 2.0}),
    ])
    def test_ladder_too_short_for_its_verdict(self, tmp_path, capsys, monkeypatch,
                                              study, block):
        monkeypatch.chdir(tmp_path)  # a run that got through would write here
        calls = []
        cfg_cls, _runner = cli.STUDY_REGISTRY[study]
        monkeypatch.setitem(cli.STUDY_REGISTRY, study,
                            (cfg_cls, lambda *a, **k: calls.append(a)))
        assert main(["study", study, "--config", write_config(tmp_path, {"study": block})]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv, config, key", [
        (["study", "chaos"], {"study": [1]}, "study"),
        (["study", "chaos"], {"study": 5}, "study"),
        (["study", "chaos"], {**TINY_CHAOS, "out": 5}, "out"),
        (["study", "small_noise"], {"study": {"c2": "x"}}, "c2"),
        (["spde"], {"spde": {"n_grid": 128, "epsilon": 0.2, "t_horizon": 0.01,
                             "c2": "x"}}, "c2"),
    ])
    def test_wrong_typed_value_names_its_key(self, tmp_path, capsys, monkeypatch,
                                             argv, config, key):
        monkeypatch.chdir(tmp_path)  # a run that got through would write here
        assert main([*argv, "--config", write_config(tmp_path, config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_kernel_oversample_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": TINY_MODEL,
                                      "kernel": {"epsilon": 0.25, "oversample": 1.9}})
        assert main(["simulate", "--config", cfg]) == 1
        assert "unknown kernel keys: ['oversample']" in capsys.readouterr().err

    def test_model_block_has_no_epsilon_or_theta(self, tmp_path, capsys):
        for key in ("epsilon", "theta", "scheme"):
            cfg = write_config(tmp_path, {"model": {**TINY_MODEL, key: 0.1}})
            assert main(["simulate", "--config", cfg]) == 1
            assert "unknown model keys" in capsys.readouterr().err

    def test_bad_kernel_block_is_rejected_before_the_run(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulate_coupled", lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path, {"model": TINY_MODEL,
                                      "kernel": {"epsilon": 0.01, "n_grid": 64}})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert calls == []

    @pytest.mark.parametrize("key, message", [
        ("sigma", "error: temperature m2 must be positive"),
        ("gamma", "error: temperature undefined for gamma = 0")])
    def test_mean_field_law_without_a_temperature(self, tmp_path, capsys, key, message):
        # the coupled branch's law is a Maxwellian at sigma^2 / (2 gamma)
        cfg = write_config(tmp_path, {"model": {**TINY_MODEL, "n_replicas": 2, key: 0}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "runs").exists()

    def test_report_without_runs(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 1
        assert "no studies found" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"verdict": "fa', "5", "[]", "{}",
                                      '{"verdict": null}'],
                             ids=["truncated", "number", "list", "no_verdict",
                                  "null_verdict"])
    def test_an_unreadable_report_fails_the_rollup(self, tmp_path, capsys, text):
        out = tmp_path / "runs"
        for name, content in (("chaos", '{"verdict": "pass"}'), ("spde", text)):
            run = out / name / "20260101-000000"
            run.mkdir(parents=True)
            (run / "report.json").write_text(content)
        assert main(["report", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["chaos 20260101-000000 pass",
                                             "spde 20260101-000000 unreadable",
                                             "2 runs, 1 failing"]
        bad = out / "spde" / "20260101-000000" / "report.json"
        assert captured.err.splitlines() == [f"error: unreadable report {bad}"]


class TestArtifacts:
    def test_study_run_writes_the_trio(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CHAOS)
        out = tmp_path / "runs"
        assert main(["study", "chaos", "--config", cfg, "--out", str(out)]) == 0
        raw, report, resolved = read_artifacts(out, "chaos")
        assert report["raw_csv_sha256"] == hashlib.sha256(raw).hexdigest()
        assert report["study_name"] == "chaos"
        assert report["seed"] == 5
        assert "code_version" in report
        assert "runtime_seconds" not in report
        assert report["resolved_config"] == resolved
        assert resolved["n_ladder"] == [8, 16, 32, 64]
        assert resolved["seed"] == 5
        assert "jobs" not in resolved
        header = raw.decode().splitlines()[0]
        assert header == "n_particles,t,distance"
        stdout = capsys.readouterr().out
        assert "verdict" in stdout

    def test_artifacts_identical_across_jobs(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CHAOS)
        blobs = {}
        for jobs in (1, 2):
            out = tmp_path / f"out{jobs}"
            assert main(["study", "chaos", "--config", cfg,
                         "--out", str(out), "--jobs", str(jobs)]) == 0
            run = next((out / "chaos").iterdir())
            blobs[jobs] = tuple((run / f).read_bytes()
                                for f in ("raw.csv", "report.json", "config.json"))
        assert blobs[1] == blobs[2]

    def test_failing_study_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"study": {
            "name": "j2_closure", "m2_ladder": [0.0625, 1.0],
            "n_particles": 200, "n_replicas": 8, "t_horizon": 0.2,
            "burn_in": 0.2, "n_snapshots": 4}})
        out = tmp_path / "runs"
        assert main(["study", "j2_closure", "--config", cfg,
                     "--out", str(out)]) == 2
        assert "failed check" in capsys.readouterr().out

    def test_report_rollup(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        good = write_config(tmp_path, TINY_CHAOS, "good.json")
        bad = write_config(tmp_path, {"study": {
            "name": "j2_closure", "m2_ladder": [0.0625, 1.0],
            "n_particles": 200, "n_replicas": 8, "t_horizon": 0.2,
            "burn_in": 0.2, "n_snapshots": 4}}, "bad.json")
        assert main(["study", "chaos", "--config", good, "--out", out]) == 0
        assert main(["study", "j2_closure", "--config", bad, "--out", out]) == 2
        capsys.readouterr()
        assert main(["report", "--out", out]) == 2
        stdout = capsys.readouterr().out
        assert "chaos" in stdout and "j2_closure" in stdout
        assert "2 runs, 1 failing" in stdout

    def test_simulate_command(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"n_particles": 16, "t_horizon": 0.2, "burn_in": 0.1,
                      "n_replicas": 4, "n_snapshots": 2},
            "kernel": {"epsilon": 0.25},
        })
        out = tmp_path / "runs"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        raw, report, resolved = read_artifacts(out, "simulate")
        header = raw.decode().splitlines()[0].split(",")
        assert "chaos_distance" in header
        assert "h1_rho_mean" in header
        assert resolved["n_particles"] == 16
        assert resolved["n_replicas"] == 4
        assert "epsilon" not in resolved and "theta" not in resolved

    def test_spde_command(self, tmp_path):
        cfg = write_config(tmp_path, {
            "spde": {"n_grid": 128, "epsilon": 0.2, "n_particles": 10000,
                     "dt": 1e-3, "t_horizon": 0.05}})
        out = tmp_path / "runs"
        assert main(["spde", "--config", cfg, "--out", str(out)]) == 0
        raw, report, resolved = read_artifacts(out, "spde")
        header = raw.decode().splitlines()[0].split(",")
        assert "h1_norm" in header and "min_rho" in header
        assert report["details"]["status"]["stopped"] is False
        assert report["details"]["final_mass"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_particles", ["inf", math.inf])
    def test_spde_without_noise(self, tmp_path, n_particles):
        cfg = write_config(tmp_path, {
            "spde": {"n_grid": 128, "epsilon": 0.2, "n_particles": n_particles,
                     "dt": 1e-3, "t_horizon": 0.01}})
        out = tmp_path / "runs"
        assert main(["spde", "--config", cfg, "--out", str(out)]) == 0
        _raw, report, resolved = read_artifacts(out, "spde")
        assert resolved["n_particles"] == "inf"
        assert report["details"]["status"]["stopped"] is False

    def test_spde_raw_csv_is_pinned(self, tmp_path):
        # a run that reaches the norm cap at t = 0.041 and stays frozen
        cfg = write_config(tmp_path, {
            "seed": 0,
            "spde": {"n_grid": 128, "epsilon": 0.2, "n_particles": 25,
                     "dt": 1e-3, "t_horizon": 0.05, "k_norm": 0.45, "c2": 0.43}})
        out = tmp_path / "runs"
        assert main(["spde", "--config", cfg, "--out", str(out)]) == 0
        raw, report, _resolved = read_artifacts(out, "spde")
        assert report["details"]["status"] == {"stopped": True, "reason": "norm_cap",
                                               "time": pytest.approx(0.041)}
        assert hashlib.sha256(raw).hexdigest() == (
            "0248e015e02bfad54801b4f54ade19d3b82fa1b5fc5d648a20ab04967cf213a6")
