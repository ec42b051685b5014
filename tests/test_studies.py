"""Study harness: config plumbing, degenerate controls, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import dklab
from dklab import particles, studies
from dklab.cli import rows_to_csv
from dklab.particles import ConfigurationError
from dklab.potential import PotentialSpec
from dklab.ratefit import PowerLawFit, fit_loglog, halving_factors
from dklab.fields import sobolev_norms
from dklab.spde import (SpectralState, StoppingStatus, q_wiener_scales,
                        solve_replicas)
from dklab.torus import TWO_PI, TorusGeometry, make_kernel, von_mises_eval
from dklab.studies import (STUDY_NAMES, STUDY_REGISTRY, ChaosStudyConfig,
                           CovarianceStudyConfig, EvolutionIdentityConfig,
                           InteractionStudyConfig, J2ClosureConfig,
                           MollifierConfig, SmallNoiseConfig, StudyReport,
                           _child_seeds, _covariance_cell, _moment_cell, _pair_exp,
                           _point_increment_factor,
                           config_from_dict,
                           potential_from_config, run_chaos_study,
                           run_covariance_study, run_evolution_identity_check,
                           run_interaction_study, run_j2_closure_study,
                           run_mollifier_study, run_small_noise_study,
                           slope_within)


def raw_sha256(report) -> str:
    return hashlib.sha256(rows_to_csv(report.raw_table)).hexdigest()


class TestPlumbing:
    def test_registry_covers_the_name_list(self):
        assert set(STUDY_REGISTRY) == set(STUDY_NAMES)

    def test_potential_variants(self):
        assert potential_from_config("cos").cosine[1] == 1.0
        assert potential_from_config("zero").is_zero
        spec = potential_from_config({"cosine": [0.0, 0.5], "sine": [0.0, -0.25]})
        assert spec.cosine[1] == 0.5
        assert spec.sine[1] == -0.25
        passthrough = PotentialSpec.cosine_potential()
        assert potential_from_config(passthrough) is passthrough

    def test_potential_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            potential_from_config({"cosine": [0.0], "cubic": [1.0]})
        with pytest.raises(ValueError):
            potential_from_config("harmonic")

    def test_config_from_dict_strict(self):
        cfg = config_from_dict(ChaosStudyConfig,
                               {"n_ladder": [8, 16, 32, 64], "n_replicas": 4})
        assert cfg.n_ladder == (8, 16, 32, 64)
        assert cfg.n_replicas == 4
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict(ChaosStudyConfig, {"ladder": [8, 16]})

    def test_config_from_dict_checks_optional_fields_by_annotation(self):
        assert config_from_dict(SmallNoiseConfig, {"c2": 1}).c2 == 1
        assert config_from_dict(SmallNoiseConfig, {"c2": None}).c2 is None
        with pytest.raises(ValueError, match=r"c2='x' does not have the type float \| None"):
            config_from_dict(SmallNoiseConfig, {"c2": "x"})
        with pytest.raises(ValueError, match="study block must be a JSON object"):
            config_from_dict(SmallNoiseConfig, [1], "study")

    def test_resolving_a_study_config_loads_no_executor(self, tmp_path):
        # what perfbench's setup_s times, as its child does: import dklab and
        # resolve a study's config; the pools are imported where a run uses them
        configs = []
        for name in sorted(STUDY_REGISTRY):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"study": {"name": name}}))
            configs.append(str(config))
        code = ("import sys\n"
                "from dklab import cli, studies\n"
                f"for path in {configs!r}:\n"
                "    block = dict(cli.load_config(path)['study'])\n"
                "    cfg_cls, _runner = studies.STUDY_REGISTRY[block.pop('name')]\n"
                "    studies.config_from_dict(cfg_cls, block)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))\n")
        src = os.path.dirname(os.path.dirname(dklab.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("name", sorted(STUDY_REGISTRY))
    def test_every_count_and_ladder_has_a_least_size(self, name):
        # a new count or ladder field joins its config's size rule, or this fails
        cfg_cls, _runner = STUDY_REGISTRY[name]
        sized = 0
        for f in dataclasses.fields(cfg_cls):
            empty = {"int": 0, "tuple": ()}.get(f.type)
            if empty is None or f.name == "moment_eps_ladder":  # empty: no moment tables
                continue
            with pytest.raises(ConfigurationError,
                               match=rf"^{cfg_cls.__name__}\.{f.name} needs at least \d"):
                dataclasses.replace(cfg_cls(), **{f.name: empty})
            sized += 1
        assert sized >= 3

    @pytest.mark.parametrize("name", sorted(STUDY_REGISTRY))
    def test_every_ladder_refuses_a_repeated_point(self, name):
        # a point twice is one cell twice, which a verdict would read as two
        cfg_cls, _runner = STUDY_REGISTRY[name]
        ladders = [f.name for f in dataclasses.fields(cfg_cls) if f.name.endswith("_ladder")]
        for field in ladders:
            default = getattr(cfg_cls(), field)
            with pytest.raises(ConfigurationError,
                               match=rf"^{cfg_cls.__name__}\.{field} repeats a point"):
                dataclasses.replace(cfg_cls(), **{field: default[:1] + default})
        assert ladders

    @pytest.mark.parametrize("cfg_cls, kw, message", [
        (ChaosStudyConfig, {"alpha": 3}, r"^ChaosStudyConfig\.alpha must be even, got 3$"),
        (InteractionStudyConfig, {"moment_eps_ladder": (0.3,)},
         r"^InteractionStudyConfig\.moment_eps_ladder needs at least 2 points, got 1$"),
        (InteractionStudyConfig, {"moment_eps_ladder": (0.4, 0.401), "moment_theta": 2.0},
         r"^InteractionStudyConfig\.moment_eps_ladder point 0\.401 at theta 2\.0 gives N = 6"),
        (CovarianceStudyConfig, {"theta": 0.0},
         r"^CovarianceStudyConfig\.eps_ladder point 0\.2 at theta 0\.0: eps and theta"),
    ])
    def test_config_refusals_name_their_field(self, cfg_cls, kw, message):
        with pytest.raises(ConfigurationError, match=message):
            cfg_cls(**kw)

    def test_report_without_checks_fails(self):
        report = StudyReport("chaos", {}, [], {}, {}, {}, 0)
        assert report.verdict == "fail"
        assert report.to_dict()["verdict"] == "fail"

    def test_child_seeds_deterministic_and_distinct(self):
        a = _child_seeds(7, 6)
        b = _child_seeds(7, 6)
        assert a == b
        assert len(set(a)) == 6
        assert a != _child_seeds(8, 6)

    def test_slope_within_two_stderr_band(self):
        fit = PowerLawFit(slope=-0.30, prefactor=1.0, slope_stderr=0.04,
                          residual_rms=0.0)
        assert slope_within(fit, -0.65, -0.35)  # reaches -0.38 with the slack
        tight = PowerLawFit(slope=-0.30, prefactor=1.0, slope_stderr=0.01,
                            residual_rms=0.0)
        assert not slope_within(tight, -0.65, -0.35)
        assert not slope_within(tight, lo=-0.25)
        assert slope_within(tight, lo=-2.0, hi=-0.1)


class TestRateFit:
    def test_recovers_an_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_loglog(x, 3.0 * x ** -0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)
        assert slope_within(fit, -0.6, -0.4)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0], [1.0, 0.0])

    def test_halving_factors(self):
        assert halving_factors([8.0, 4.0, 1.0]) == pytest.approx([2.0, 4.0])


# 20 replicas run as blocks of 16 and 4, after a burn-in
CHAOS_PINNED = ChaosStudyConfig(n_ladder=(16, 32, 64, 128), n_replicas=20,
                                t_horizon=0.1, burn_in=0.1, n_snapshots=2)


class TestChaosStudy:
    def test_ladder_needs_four_points(self):
        with pytest.raises(ValueError):
            ChaosStudyConfig(n_ladder=(8, 16, 32))

    def test_zero_potential_control_is_exact(self):
        cfg = ChaosStudyConfig(n_ladder=(8, 16, 32, 64), n_replicas=4,
                               t_horizon=0.2, burn_in=0.0, n_snapshots=2,
                               potential="zero")
        report = run_chaos_study(cfg, seed=0)
        assert report.checks["degenerate_zero_error"]
        assert report.verdict == "pass"
        assert all(row["distance"] == 0.0 for row in report.raw_table)

    def test_raw_table_deterministic(self):
        cfg = ChaosStudyConfig(n_ladder=(8, 16, 32, 64), n_replicas=4,
                               t_horizon=0.2, burn_in=0.1, n_snapshots=2)
        a = run_chaos_study(cfg, seed=5)
        b = run_chaos_study(cfg, seed=5)
        assert a.raw_table == b.raw_table
        assert a.slopes == b.slopes

    def test_jobs_do_not_change_the_table(self):
        serial = run_chaos_study(CHAOS_PINNED, seed=0, jobs=1)
        parallel = run_chaos_study(CHAOS_PINNED, seed=0, jobs=2)
        assert rows_to_csv(serial.raw_table) == rows_to_csv(parallel.raw_table)

    def test_raw_csv_is_pinned(self):
        assert raw_sha256(run_chaos_study(CHAOS_PINNED, seed=0)) == (
            "6ce7d2fbc3cafd63edf1127c2ae5597c120f877a829ba1691f8aea1273e12409")


# 5 moment replicas run as blocks of 4 and 1
INTERACTION_PINNED = InteractionStudyConfig(eps_ladder=(0.4, 0.2), theta=2.0, n_replicas=2,
                                            moment_eps_ladder=(0.5, 0.4), moment_theta=3.0,
                                            moment_replicas=5, moment_t_horizon=0.05,
                                            t_measure=0.05)


class TestInteractionStudy:
    def test_raw_csv_is_pinned(self):
        assert raw_sha256(run_interaction_study(INTERACTION_PINNED, seed=0)) == (
            "8ad77ef6ae89c5e1d325f985969768e097bf1eb8526612abeecc8fb35ec321c4")

    def test_jobs_do_not_change_the_table(self):
        serial = run_interaction_study(INTERACTION_PINNED, seed=0, jobs=1)
        parallel = run_interaction_study(INTERACTION_PINNED, seed=0, jobs=2)
        assert rows_to_csv(serial.raw_table) == rows_to_csv(parallel.raw_table)

    @pytest.mark.parametrize("horizon, times", [
        (0.015, [0.0, 0.005, 0.015]),  # odd step count: middle is step 1 of 3
        (0.005, [0.0, 0.005])])        # one step: the start is step 0 = n // 2
    def test_moment_rows_carry_the_time_of_their_step(self, horizon, times):
        cfg = InteractionStudyConfig(moment_replicas=1, moment_t_horizon=horizon,
                                     dt=0.005)
        rows = _moment_cell((cfg, 8, 0.5, 0))
        assert [r["t"] for r in rows] == times

    def test_off_grid_moment_horizon_is_rejected(self):
        with pytest.raises(ConfigurationError, match="moment_t_horizon"):
            InteractionStudyConfig(eps_ladder=(0.4, 0.2), theta=2.0, n_replicas=2,
                                   moment_eps_ladder=(0.5, 0.4), moment_theta=3.0,
                                   moment_replicas=1, moment_t_horizon=0.0123,
                                   t_measure=0.05)


# One replica of the N = 40 cell reaches the norm cap k_norm = 0.45 and
# freezes while the others run on, and the sigma-halving rows are included.
SMALL_NOISE_GOLDEN = SmallNoiseConfig(n_ladder=(40.0, 100.0, 1e4), n_replicas=4,
                                      t_horizon=0.05, k_norm=0.45, c2=0.43)
SMALL_NOISE_GOLDEN_SHA256 = "4932a4f4d9a37c2c4293380a349b076eef9f2878879a6b09827aa6e0b9e3e4b7"


class TestSmallNoiseStudy:
    def test_raw_csv_is_pinned(self):
        report = run_small_noise_study(SMALL_NOISE_GOLDEN, seed=0)
        assert [r["stopped"] for r in report.raw_table].count(1) == 1
        assert raw_sha256(report) == SMALL_NOISE_GOLDEN_SHA256

    def test_jobs_do_not_change_the_table(self, monkeypatch):
        # 16 noisy rows: --jobs 3 cuts them into blocks of 5, 5 and 6, and a
        # block holding both sigmas carries both reference rows
        sizes = []
        map_ordered = studies._map_ordered

        def recording(fn, items, jobs):
            sizes.append([sum(ref >= 0 for ref in item[3]) for item in items])
            return map_ordered(fn, items, jobs)

        monkeypatch.setattr(studies, "_map_ordered", recording)
        tables = {jobs: rows_to_csv(run_small_noise_study(SMALL_NOISE_GOLDEN, seed=0,
                                                          jobs=jobs).raw_table)
                  for jobs in (1, 2, 3)}
        assert sizes == [[16], [8, 8], [5, 5, 6]]
        assert tables[1] == tables[2] == tables[3]

    def test_deviation_is_the_grid_round_trip_at_every_step(self, monkeypatch):
        # one block of two sigmas, each with its reference row before it; the
        # N = 10 row stops at the norm cap mid-run and keeps its state
        cfg = SMALL_NOISE_GOLDEN
        w = potential_from_config(cfg.potential)
        block = ([cfg.spde_config(math.inf), cfg.spde_config(10.0), cfg.spde_config(40.0),
                  cfg.spde_config(40.0), cfg.spde_config(math.inf, 0.5),
                  cfg.spde_config(40.0, 0.5)],
                 w, [None, 0, 1, 2, None, 3], [-1, 0, 0, 0, -1, 4])
        noisy, ref_rows = [1, 2, 3, 5], [0, 0, 0, 4]
        states = []
        run = solve_replicas(*block[:3], observe=lambda s, state: states.append(
            (state.rho_hat.copy(), state.j_hat.copy())))
        assert [st.stopped for st in run.status] == [False, True, False, False, False, False]
        worst, _ = studies._sup_deviation(block)

        def replay(rho_hat, j_hat):
            """_sup_deviation's deviation at one recorded step."""
            def one_step(cfgs, w, seeds, observe):
                observe(0, SpectralState(TorusGeometry(cfg.n_grid), rho_hat, j_hat))
                return types.SimpleNamespace(status=[StoppingStatus()] * len(cfgs))

            monkeypatch.setattr(studies, "solve_replicas", one_step)
            return studies._sup_deviation(block)[0]

        n = cfg.n_grid
        steps = []
        for rho_hat, j_hat in states:
            got = replay(rho_hat, j_hat)
            rho, j = (np.fft.irfft(c * n, n=n) for c in (rho_hat, j_hat))
            d_rho = sobolev_norms(np.fft.rfft(rho[noisy] - rho[ref_rows]) / n, k=1)
            d_j = sobolev_norms(np.fft.rfft(j[noisy] - j[ref_rows]) / n, k=1)
            ref = np.array([math.hypot(a, b) for a, b in zip(d_rho, d_j)])
            assert np.all(np.abs(got - ref) <= 1e-13 * ref)
            steps.append(got)
        assert len(steps) == 51 and np.all(steps[-1] > 0.0)
        assert np.array_equal(worst, np.max(steps, axis=0))

    def test_no_replicas_are_refused(self):
        with pytest.raises(ConfigurationError,
                           match=r"SmallNoiseConfig\.n_replicas needs at least 1, got 0"):
            dataclasses.replace(SMALL_NOISE_GOLDEN, n_replicas=0)

    def test_one_batch_with_jobs_one(self, monkeypatch):
        calls = []
        solve = studies.solve_replicas

        def counting(cfgs, *args, **kwargs):
            calls.append(len(cfgs))
            return solve(cfgs, *args, **kwargs)

        monkeypatch.setattr(studies, "solve_replicas", counting)
        run_small_noise_study(SMALL_NOISE_GOLDEN, seed=0, jobs=1)
        # both references, the 3 x 4 ladder rows and the 4 halving rows
        assert calls == [2 + 12 + 4]

    def test_serial_run_loads_no_process_pool(self, tmp_path):
        config = tmp_path / "small.json"
        config.write_text(json.dumps({"study": {"n_replicas": 2, "t_horizon": 0.01}}))
        code = ("import sys, dklab.cli, dklab.studies\n"
                f"code = dklab.cli.main(['study', 'small_noise', '--config', {str(config)!r},\n"
                f"                       '--out', {str(tmp_path / 'runs')!r}, '--jobs', '1'])\n"
                "print(code, sorted(m for m in sys.modules\n"
                "                   if m == 'concurrent.futures.process'\n"
                "                   or m.split('.')[0] == 'multiprocessing'))\n")
        src = os.path.dirname(os.path.dirname(dklab.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "0 []"


# 1000 replicas in blocks of 300: the last block holds 100
COVARIANCE_PINNED = CovarianceStudyConfig(eps_ladder=(0.4, 0.2), theta=2.0,
                                          n_replicas=1000, replica_block=300,
                                          t_horizon=0.01)


class TestCovarianceStudy:
    def test_replica_floor(self):
        with pytest.raises(ValueError):
            CovarianceStudyConfig(n_replicas=500)

    def test_noiseless_dynamics_give_zero_fields(self):
        cfg = CovarianceStudyConfig(eps_ladder=(0.4,), sigma=0.0,
                                    n_replicas=1000, t_horizon=0.05,
                                    replica_block=500)
        report = run_covariance_study(cfg, seed=0)
        assert report.checks["degenerate_zero_covariance"]
        assert report.verdict == "pass"
        for row in report.raw_table:
            assert row["cov_z"] == 0.0
            assert row["cov_y"] == 0.0
            assert row["disc_hat"] == 0.0

    def test_raw_csv_is_pinned(self):
        assert raw_sha256(run_covariance_study(COVARIANCE_PINNED, seed=0)) == (
            "ad11ef0df98433bd8c21482ca24b7f41e929074ece52c419bd3fea686dcda452")

    def test_jobs_do_not_change_the_table(self):
        serial = run_covariance_study(COVARIANCE_PINNED, seed=0, jobs=1)
        parallel = run_covariance_study(COVARIANCE_PINNED, seed=0, jobs=2)
        assert rows_to_csv(serial.raw_table) == rows_to_csv(parallel.raw_table)

    def test_negative_eigenvalue_is_rejected(self, monkeypatch):
        # the covariance cell builds its Q-Wiener scales once, before any step
        def negated(epsilon, geometry):
            kern = make_kernel(epsilon, geometry)
            return dataclasses.replace(kern, fourier_coeffs=-kern.fourier_coeffs)

        monkeypatch.setattr(studies, "make_kernel", negated)
        with pytest.raises(ValueError, match="eigenvalues must be nonnegative"):
            _covariance_cell((COVARIANCE_PINNED, 40, 0.4, 0))

    @pytest.mark.parametrize("eps", [0.2, 0.1])
    def test_pair_exp_gives_the_three_kernel_weights(self, eps):
        rng = np.random.default_rng(3)
        x_eval = rng.uniform(0, TWO_PI, 5)
        q = rng.uniform(0, TWO_PI, (7, 40))
        geometry = TorusGeometry.for_epsilon(eps / np.sqrt(2.0))
        kern = make_kernel(eps, geometry)
        kern_half = make_kernel(eps / np.sqrt(2.0), geometry)
        arg = x_eval[:, None, None] - q[None]
        kv_ref = von_mises_eval(kern, arg)
        out = (np.empty_like(q), np.empty_like(q))
        slabs = list(_pair_exp(kern.kappa, x_eval, np.cos(q), np.sin(q), out))
        assert len(slabs) == 5 and all(e is out[0] for e in slabs)
        # every slab overwrites the one before, so the points are stacked one
        # slab at a time
        e = np.stack([e.copy() for e in _pair_exp(kern.kappa, x_eval, np.cos(q),
                                                  np.sin(q), out)])
        assert e.shape == (5, 7, 40)

        def rel(got, ref):
            return np.abs(got / ref - 1.0).max()

        assert rel(e / kern.z_eps, kv_ref) <= 1e-12
        e *= e
        assert rel(e / kern.z_eps ** 2, kv_ref ** 2) <= 1e-12
        assert rel(e / kern_half.z_eps, von_mises_eval(kern_half, arg)) <= 1e-12

    def test_a_block_takes_only_the_steps_it_reads(self, monkeypatch):
        # 4 steps in blocks of 300, 300, 300 and 100: Z and Y read the
        # increments of steps 0 ... 3, so the step 3 -> 4 is never taken
        force, rows = particles.pairwise_force, []

        def counted(q, *args):
            rows.append(len(q))
            return force(q, *args)

        monkeypatch.setattr(particles, "pairwise_force", counted)
        cfg = dataclasses.replace(COVARIANCE_PINNED, t_horizon=0.02)
        _covariance_cell((cfg, 6, 0.4, 0))
        assert rows == [300] * 9 + [100] * 3

    def test_off_grid_horizon_is_rejected(self):
        cfg = CovarianceStudyConfig(eps_ladder=(0.4,), theta=2.0, n_replicas=1000,
                                    t_horizon=0.0123)
        with pytest.raises(ConfigurationError, match="t_horizon"):
            run_covariance_study(cfg, seed=0)

    @pytest.mark.parametrize("eps", [0.4, 0.2, 0.1])
    def test_point_map_reads_the_irfft_at_the_nodes(self, eps):
        b, factor, scales, _, idx = point_noise(eps)
        band = len(scales.modes)
        z = np.random.default_rng(5).standard_normal((64, 2 * band + 1))
        ref = scales.increments(z)[:, idx]
        assert np.abs(z @ b - ref).max() <= 1e-14 * np.abs(ref).max()
        gram = b.T @ b
        assert np.abs(factor.T @ factor - gram).max() <= 1e-14 * np.abs(gram).max()

    @pytest.mark.parametrize("eps", [0.4, 0.1])
    def test_point_sampler_has_the_gram_covariance(self, eps):
        b, factor, *_ = point_noise(eps)
        g = np.random.default_rng(11).standard_normal((20000, len(factor)))
        draws = g @ factor
        gram = b.T @ b
        assert np.abs(draws.T @ draws / len(draws) - gram).max() <= 0.05 * gram.max()

    def test_repeated_separations_give_equal_rows(self):
        # 0.0 and 0.0 round to one node, so the Gram matrix is singular
        cfg = dataclasses.replace(COVARIANCE_PINNED, separations=(0.0, 0.0, 0.1))
        rows = run_covariance_study(cfg, seed=0).raw_table
        assert len(rows) == 6
        for first, second in zip(rows[0::3], rows[1::3]):
            assert first["cov_y"] == second["cov_y"]
            assert first["cov_z"] == second["cov_z"]
        assert all(r["cov_y"] != 0.0 for r in rows)


def point_noise(eps):
    """B, by its closed form, and F of a covariance cell at eps on the
    default separations.

    Row 0 of B is the DC scale; mode k gives 2 m_k cos(k x_a) for its real
    normal and -2 m_k sin(k x_a) for its imaginary one, except the Nyquist
    mode, which counts once and whose imaginary part irfft drops.
    """
    geometry = TorusGeometry.for_epsilon(eps / np.sqrt(2.0))
    lam = make_kernel(np.sqrt(2.0) * eps, geometry).fourier_coeffs
    scales = q_wiener_scales(lam, geometry, 5e-3, geometry.n_modes - 1)
    idx = np.array([int(round(s / geometry.spacing))
                    for s in CovarianceStudyConfig().separations])
    k = np.arange(1, len(scales.modes) + 1)[:, None]
    angle = k * idx * geometry.spacing
    weight = 2.0 * scales.modes[:, None]
    weight[-1] /= 2.0  # the grid is even, so mode band is the Nyquist mode
    b_im = -weight * np.sin(angle)
    b_im[-1] = 0.0
    b = np.vstack([np.full((1, len(idx)), scales.dc), weight * np.cos(angle), b_im])
    return b, _point_increment_factor(scales, idx), scales, geometry, idx


class TestJ2ClosureStudy:
    def test_reduced_ladder_is_nonincreasing(self):
        cfg = J2ClosureConfig(m2_ladder=(1.0, 0.25), n_particles=200,
                              n_replicas=8, t_horizon=0.2, burn_in=0.2,
                              n_snapshots=4)
        report = run_j2_closure_study(cfg, seed=0)
        assert report.verdict == "pass"
        averaged = report.details["time_averaged_rel_error"]
        assert averaged["0.25"]["mean"] < averaged["1.0"]["mean"]

    def test_raw_csv_is_pinned(self):
        cfg = J2ClosureConfig(m2_ladder=(1.0, 0.25), n_particles=200,
                              n_replicas=8, t_horizon=0.1, burn_in=0.1,
                              n_snapshots=2)
        assert raw_sha256(run_j2_closure_study(cfg, seed=0)) == (
            "ee810ade75f6f714e167c7c3eea10b3e25ccff3bd7ad691a02c3fec196b1334e")

    def test_raw_csv_with_a_ragged_block_is_pinned(self):
        # 20 replicas run as blocks of 16 and 4, after a burn-in
        cfg = J2ClosureConfig(m2_ladder=(1.0, 0.25), n_particles=200,
                              n_replicas=20, t_horizon=0.1, burn_in=0.1,
                              n_snapshots=2)
        assert raw_sha256(run_j2_closure_study(cfg, seed=0)) == (
            "56e4af3a7acaec7f2f3af27d021c628c2f610d69b893e732bea9207929109bfa")


class TestMollifierStudy:
    def test_reduced_run_passes(self):
        cfg = MollifierConfig(eps_ladder=(0.4, 0.2, 0.1), n_anchors=9,
                              n_quad=1 << 12)
        report = run_mollifier_study(cfg)
        assert report.checks["bound_every_point"]
        assert report.verdict == "pass"

    def test_raw_csv_is_pinned(self):
        cfg = MollifierConfig(eps_ladder=(0.4, 0.2, 0.1), n_anchors=9,
                              n_quad=1 << 12)
        assert raw_sha256(run_mollifier_study(cfg, seed=0)) == (
            "8d5b6d57a959992ca3eeb098a020428cf605b0297ffc796b263f0777713cfa2b")

    def test_jobs_do_not_change_the_table(self):
        cfg = MollifierConfig(eps_ladder=(0.4, 0.2, 0.1), n_anchors=9,
                              n_quad=1 << 12)
        serial = run_mollifier_study(cfg, seed=0, jobs=1)
        parallel = run_mollifier_study(cfg, seed=0, jobs=2)
        assert rows_to_csv(serial.raw_table) == rows_to_csv(parallel.raw_table)


class TestEvolutionIdentity:
    def test_dt_ladder_needs_three_points(self):
        with pytest.raises(ValueError):
            EvolutionIdentityConfig(dt_ladder=(1e-2, 5e-3))

    def test_static_degenerate_case(self):
        # sigma = 0 starts every momentum at zero; with no potential nothing
        # moves and all three residuals vanish identically
        cfg = EvolutionIdentityConfig(sigma=0.0, potential="zero",
                                      n_particles=16, n_replicas=2,
                                      t_horizon=0.05)
        report = run_evolution_identity_check(cfg, seed=0)
        assert report.checks["static_residuals_zero"]
        assert report.verdict == "pass"

    def test_reduced_orders_are_positive(self):
        cfg = EvolutionIdentityConfig(n_particles=16, n_replicas=2,
                                      t_horizon=0.05)
        report = run_evolution_identity_check(cfg, seed=0)
        assert report.slopes["density_order"]["slope"] > 0.5
        assert report.slopes["momentum_order"]["slope"] > 0.25

    def test_each_step_takes_one_pairwise_force(self, monkeypatch):
        # the study reads the step's force through the phase and the step
        # reuses it; 20 replicas in blocks of 16 and 4, 5 steps each
        force, rows = particles.pairwise_force, []

        def counted(q, *args):
            rows.append(len(q))
            return force(q, *args)

        monkeypatch.setattr(particles, "pairwise_force", counted)
        monkeypatch.setattr(studies, "pairwise_force", counted)
        cfg = EvolutionIdentityConfig(n_particles=16, n_replicas=20, t_horizon=0.05)
        studies._identity_residuals((cfg, 1e-2, 0))
        assert rows == [16] * 5 + [4] * 5

    def test_raw_csv_is_pinned(self):
        cfg = EvolutionIdentityConfig(n_particles=16, n_replicas=2,
                                      t_horizon=0.05)
        assert raw_sha256(run_evolution_identity_check(cfg, seed=0)) == (
            "985d4deb5c7bc333325ba2c80ecdc2ff75f1d01305ece2d279836e8d4e9e9632")

    def test_raw_csv_with_a_ragged_block_is_pinned(self):
        # 20 replicas run as blocks of 16 and 4
        cfg = EvolutionIdentityConfig(n_particles=16, n_replicas=20,
                                      t_horizon=0.05)
        assert raw_sha256(run_evolution_identity_check(cfg, seed=0)) == (
            "7c86967161241f98c505fd8fde3fcf54dfe76a9f65f4f9b2768fdff259d32e9a")

    def test_jobs_do_not_change_the_table(self):
        cfg = EvolutionIdentityConfig(n_particles=16, n_replicas=2,
                                      t_horizon=0.05)
        serial = run_evolution_identity_check(cfg, seed=0, jobs=1)
        parallel = run_evolution_identity_check(cfg, seed=0, jobs=2)
        assert serial.raw_table == parallel.raw_table
