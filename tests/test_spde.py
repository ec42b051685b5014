"""Mild-solution integrator: propagators, noise, stopping, conservation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import dklab
from dklab import spde
from dklab.potential import PotentialSpec
from dklab.spde import (DivergenceError, SpdeConfig, SpectralState,
                        StoppingStatus, build_propagator_bank,
                        convolution_bound_check,
                        default_datum, h_delta, initial_state,
                        mode_energy, q_wiener_increment, q_wiener_scales,
                        solve_replicas, solve_spde,
                        step_mild, total_mass)
from dklab.torus import TWO_PI, ResolutionError, TorusGeometry, make_kernel

W_COS = PotentialSpec.cosine_potential()


def small_cfg(**kw):
    base = dict(n_grid=128, epsilon=0.2, gamma=1.0, sigma=1.0,
                n_particles=1e4, dt=1e-3, t_horizon=0.05)
    base.update(kw)
    return SpdeConfig(**base)


def dense_propagator(k, gamma, csq, dt):
    """exp(dt A_k) by scipy's dense matrix exponential, the bank's oracle."""
    a = np.array([[0.0, -1j * k], [-1j * k * csq, -gamma]], dtype=complex)
    return scipy.linalg.expm(dt * a)


class TestConfig:
    def test_derived_quantities(self):
        cfg = small_cfg(sigma=2.0, gamma=4.0)
        assert cfg.csq == pytest.approx(0.5)
        assert cfg.dealias_band == 42
        assert cfg.noise_amplitude == pytest.approx(2.0 / 100.0)

    def test_infinite_particles_silence_the_noise(self):
        cfg = small_cfg(n_particles=math.inf)
        assert cfg.noise_amplitude == 0.0

    def test_c2_defaults_to_half_cap(self):
        cfg = small_cfg(k_norm=3.0)
        assert cfg.c2 == pytest.approx(1.5)

    @pytest.mark.parametrize("kw", [
        dict(gamma=0.0),
        dict(sigma=-1.0),
        dict(epsilon=0.0),
        dict(n_particles=0.5),
        dict(dt=0.0),
        dict(t_horizon=0.0),
        dict(k_norm=0.0),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            small_cfg(**kw)

    def test_floor_ordering_message(self):
        with pytest.raises(ValueError, match="stopping ordering"):
            small_cfg(delta=0.1, c1=0.05)

    def test_cap_ordering_message(self):
        with pytest.raises(ValueError, match="stopping ordering"):
            small_cfg(c2=6.0, k_norm=5.0)

    def test_unresolvable_kernel(self):
        with pytest.raises(ResolutionError):
            small_cfg(n_grid=64, epsilon=0.05)


class TestPropagator:
    @pytest.mark.parametrize("dt", [1e-3, 0.3])
    def test_matches_dense_exponential(self, dt):
        g = TorusGeometry(64)
        bank = build_propagator_bank(g, 1.0, 0.5, dt)
        worst = 0.0
        for k in range(g.n_modes):
            mat = dense_propagator(k, 1.0, 0.5, dt)
            worst = max(worst,
                        abs(bank.m00[k] - mat[0, 0]), abs(bank.m01[k] - mat[0, 1]),
                        abs(bank.m10[k] - mat[1, 0]), abs(bank.m11[k] - mat[1, 1]))
        assert worst <= 1e-10

    def test_defective_mode_falls_back(self):
        # gamma^2 = 4 k^2 csq: the eigenvalues of mode k collide exactly
        for gamma, csq, k in ((2.0, 1.0, 1), (4.0, 1.0, 2)):
            for dt in (1e-3, 0.1):
                bank = build_propagator_bank(TorusGeometry(16), gamma, csq, dt)
                mat = dense_propagator(k, gamma, csq, dt)
                got = np.array([[bank.m00[k], bank.m01[k]], [bank.m10[k], bank.m11[k]]])
                assert np.abs(got - mat).max() <= 1e-14

    def test_bank_and_solver_load_no_scipy(self):
        code = ("import sys, dklab, dklab.cli, dklab.studies\n"
                "from dklab.potential import PotentialSpec\n"
                "from dklab.spde import SpdeConfig, solve_spde\n"
                "cfg = SpdeConfig(n_grid=64, epsilon=0.3, n_particles=1e4, t_horizon=0.01)\n"
                "solve_spde(cfg, PotentialSpec.cosine_potential(), seed=0)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(dklab.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_semigroup_property(self):
        g = TorusGeometry(64)
        one = build_propagator_bank(g, 1.0, 0.5, 2e-3)
        two = build_propagator_bank(g, 1.0, 0.5, 4e-3)
        sq00 = one.m00 * one.m00 + one.m01 * one.m10
        sq01 = one.m00 * one.m01 + one.m01 * one.m11
        sq10 = one.m10 * one.m00 + one.m11 * one.m10
        sq11 = one.m10 * one.m01 + one.m11 * one.m11
        for sq, ref in ((sq00, two.m00), (sq01, two.m01),
                        (sq10, two.m10), (sq11, two.m11)):
            assert np.abs(sq - ref).max() <= 1e-12

    def test_mass_row_is_pinned(self):
        bank = build_propagator_bank(TorusGeometry(32), 1.3, 0.7, 5e-3)
        assert bank.m00[0] == 1.0
        assert bank.m01[0] == 0.0
        assert bank.m10[0] == 0.0
        assert bank.m11[0] == pytest.approx(np.exp(-1.3 * 5e-3), rel=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_against_ode_integrator(self, k):
        gamma, csq, t_end = 1.0, 0.5, 0.7
        a = np.array([[0.0, -1j * k], [-1j * k * csq, -gamma]], dtype=complex)
        x0 = np.array([1.0 + 0.5j, -0.3j])
        sol = scipy.integrate.solve_ivp(
            lambda t, y: a @ y, (0.0, t_end), x0, method="DOP853",
            rtol=1e-12, atol=1e-14)
        bank = build_propagator_bank(TorusGeometry(32), gamma, csq, t_end)
        got = np.array([bank.m00[k] * x0[0] + bank.m01[k] * x0[1],
                        bank.m10[k] * x0[0] + bank.m11[k] * x0[1]])
        assert got == pytest.approx(sol.y[:, -1], abs=1e-10)


class TestEnergy:
    def test_linear_flow_dissipates_every_mode(self):
        cfg = small_cfg(n_particles=math.inf)
        rng = np.random.default_rng(0)
        g = cfg.geometry
        state = SpectralState(g, rng.normal(size=g.n_modes) + 1j * rng.normal(size=g.n_modes),
                              rng.normal(size=g.n_modes) + 1j * rng.normal(size=g.n_modes))
        bank = build_propagator_bank(g, cfg.gamma, cfg.csq, cfg.dt)
        before = mode_energy(state, cfg.csq)
        for _ in range(5):
            state = step_mild(state, cfg, bank, PotentialSpec.zero(), None)
            after = mode_energy(state, cfg.csq)
            assert np.all(after <= before + 1e-12)
            before = after


class TestHDelta:
    def test_equals_sqrt_above_the_floor(self):
        r = np.array([0.02, 0.1, 1.0, 7.0])
        assert h_delta(r, 0.02) == pytest.approx(np.sqrt(r), abs=1e-15)

    def test_value_at_zero(self):
        assert h_delta(np.array([0.0]), 0.04)[0] == pytest.approx(
            math.sqrt(0.04) * 35.0 / 48.0)

    def test_continuously_differentiable_at_the_floor(self):
        delta, e = 0.02, 1e-6
        h = lambda r: h_delta(np.array([r]), delta)[0]
        right = (h(delta + e) - h(delta)) / e
        left = (h(delta) - h(delta - e)) / e
        assert right == pytest.approx(0.5 / math.sqrt(delta), rel=1e-4)
        assert left == pytest.approx(right, abs=1e-3)

    def test_positive_and_monotone(self):
        delta = 0.03
        r = np.linspace(-0.05, 0.5, 401)
        vals = h_delta(r, delta)
        assert vals.min() >= math.sqrt(delta) * 35.0 / 48.0 - 1e-12
        pos = h_delta(np.linspace(0.0, 0.5, 301), delta)
        assert np.all(np.diff(pos) >= -1e-15)

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            h_delta(np.array([0.1]), 0.0)

    @pytest.mark.parametrize("r", [
        np.linspace(0.02, 0.4, 97),                     # all above the floor
        np.linspace(-0.05, 0.0199, 97),                 # all below
        np.linspace(-0.05, 0.4, 16 * 128).reshape(16, 128),
        np.array([0.1, np.nan, 0.001, np.nan]),
        np.empty((3, 0)),
        np.array(0.005)])
    def test_has_the_bits_of_the_whole_grid_formula(self, r):
        # the quartic and the sqrt evaluated on every cell, then selected
        delta = 0.02
        s = np.minimum(np.abs(r) / delta, 1.0)
        inner = math.sqrt(delta) * (35.0 / 48.0 + (7.0 / 12.0) * s ** 3 - (5.0 / 16.0) * s ** 4)
        expected = np.where(r >= delta, np.sqrt(np.maximum(r, delta)), inner)
        got = h_delta(r, delta)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestQWiener:
    def test_empirical_covariance(self):
        g = TorusGeometry(32)
        lam = np.array([1.0, 0.5, 0.25, 0.125])
        dt, band = 1e-2, 3
        rng = np.random.default_rng(0)
        draws = np.array([q_wiener_increment(rng, lam, g, dt, band)
                          for _ in range(30000)])
        # absolute band of about 4 standard errors of the product estimator
        for node, tau in ((0, 0.0), (8, np.pi / 2.0), (16, np.pi)):
            got = np.mean(draws[:, 0] * draws[:, node])
            k = np.arange(1, 4)
            expected = dt * (lam[0] + 2.0 * np.sum(lam[1:] * np.cos(k * tau))) / TWO_PI
            assert got == pytest.approx(expected, abs=1.5e-4)

    def test_mean_is_centred(self):
        g = TorusGeometry(32)
        rng = np.random.default_rng(1)
        draws = np.array([q_wiener_increment(rng, np.array([1.0, 0.5]), g, 1e-2, 1)
                          for _ in range(20000)])
        assert np.abs(draws.mean(axis=0)).max() < 2e-3

    def test_band_guard(self):
        g = TorusGeometry(32)
        with pytest.raises(ValueError):
            q_wiener_increment(np.random.default_rng(0), np.ones(40), g, 1e-2, 17)

    def test_negative_eigenvalue_guard(self):
        g = TorusGeometry(32)
        with pytest.raises(ValueError, match="eigenvalues must be nonnegative"):
            q_wiener_increment(np.random.default_rng(0),
                               np.array([1.0, -0.1]), g, 1e-2, 1)

    def test_batch_has_the_bits_of_one_row_calls(self):
        g = TorusGeometry(64)
        lam = make_kernel(math.sqrt(2.0) * 0.3, g).fourier_coeffs
        band = 21
        scales = q_wiener_scales(lam, g, 1e-3, band)
        z = np.random.default_rng(3).standard_normal((7, 2 * band + 1))
        batch = scales.increments(z)
        assert batch.shape == (7, g.n_grid)
        for row, z_row in zip(batch, z):
            assert np.array_equal(bits(row), bits(scales.increments(z_row[None])[0]))
        # q_wiener_increment is the one-row call on its generator's next normals
        one = q_wiener_increment(np.random.default_rng(3), lam, g, 1e-3, band)
        assert np.array_equal(bits(one), bits(batch[0]))


class TestMassConservation:
    def test_dc_mode_is_carried_bit_for_bit(self):
        cfg = small_cfg()
        state = initial_state(cfg)
        dc0 = state.rho_hat[0]
        bank = build_propagator_bank(cfg.geometry, cfg.gamma, cfg.csq, cfg.dt)
        rng = np.random.default_rng(0)
        lam = make_kernel(math.sqrt(2.0) * cfg.epsilon, cfg.geometry).fourier_coeffs
        for _ in range(200):
            dw = q_wiener_increment(rng, lam, cfg.geometry, cfg.dt, cfg.dealias_band)
            state = step_mild(state, cfg, bank, W_COS, dw)
            assert state.rho_hat[0] == dc0
        assert total_mass(state) == pytest.approx(1.0, abs=1e-14)


class TestLinearClosedForm:
    def test_repeated_steps_match_one_long_step(self):
        # no drift, no noise: n steps of dt must equal exp(T A) applied once
        cfg = small_cfg(n_particles=math.inf, dt=1e-3, t_horizon=0.2)
        traj = solve_spde(cfg, PotentialSpec.zero(), snapshot_times=[0.0, 0.2])
        rho0, j0 = default_datum(cfg.geometry)
        x0 = SpectralState.from_values(cfg.geometry, rho0, j0, band=cfg.dealias_band)
        bank = build_propagator_bank(cfg.geometry, cfg.gamma, cfg.csq, 0.2)
        rho_exp = bank.m00 * x0.rho_hat + bank.m01 * x0.j_hat
        j_exp = bank.m10 * x0.rho_hat + bank.m11 * x0.j_hat
        final = traj.final
        assert np.abs(final.rho_hat - rho_exp).max() <= 1e-12
        assert np.abs(final.j_hat - j_exp).max() <= 1e-12


class TestInitialState:
    def test_default_datum_is_admissible(self):
        state = initial_state(small_cfg())
        assert total_mass(state) == pytest.approx(1.0, abs=1e-14)

    def test_floor_must_sit_below_the_datum(self):
        with pytest.raises(ValueError, match="stopping ordering"):
            initial_state(small_cfg(delta=0.2, c1=0.3))

    def test_norm_must_sit_below_c2(self):
        with pytest.raises(ValueError, match="stopping ordering"):
            initial_state(small_cfg(k_norm=0.2))


class TestStopping:
    def test_norm_cap_freezes_the_state(self):
        cfg = small_cfg(n_particles=25.0, t_horizon=0.2, k_norm=0.45, c2=0.43)
        traj = solve_spde(cfg, W_COS, seed=0, snapshot_times=[0.0, 0.1, 0.2])
        assert traj.status.stopped
        assert traj.status.reason == "norm_cap"
        stop_idx = int(round(traj.status.time / cfg.dt))
        assert traj.norm_path[stop_idx] >= cfg.k_norm
        frozen = traj.norm_path[stop_idx]
        assert np.all(traj.norm_path[stop_idx:] == frozen)
        if traj.status.time <= 0.1:
            assert np.array_equal(traj.rho[1], traj.rho[2])

    def test_density_floor_reason(self):
        cfg = small_cfg(n_particles=9.0, t_horizon=0.2, delta=0.1, c1=0.105)
        traj = solve_spde(cfg, W_COS, seed=0)
        assert traj.status.stopped
        assert traj.status.reason == "density_floor"
        assert traj.min_rho_path.min() <= cfg.delta

    def test_quiet_run_does_not_stop(self):
        cfg = small_cfg(n_particles=math.inf, t_horizon=0.2)
        traj = solve_spde(cfg, W_COS)
        assert not traj.status.stopped
        assert traj.min_rho_path.min() > cfg.c1
        assert traj.norm_path.max() < cfg.c2


def serial_reference(cfg, w, seed):
    """Reference for the batched loop: one replica stepped alone with 1-D
    states.  Returns the norm path, min-rho path, stop and final state."""
    state = initial_state(cfg)
    bank = build_propagator_bank(cfg.geometry, cfg.gamma, cfg.csq, cfg.dt)
    lam = make_kernel(math.sqrt(2.0) * cfg.epsilon, cfg.geometry).fourier_coeffs
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    norms, lows, stop = [state.norm_h1()], [state.min_rho()], (False, None, None)
    for _ in range(int(round(cfg.t_horizon / cfg.dt))):
        if not stop[0]:
            dw = q_wiener_increment(rng, lam, cfg.geometry, cfg.dt, cfg.dealias_band)
            state = step_mild(state, cfg, bank, w, dw)
            if state.norm_h1() >= cfg.k_norm:
                stop = (True, "norm_cap", state.t)
            elif state.min_rho() <= cfg.delta:
                stop = (True, "density_floor", state.t)
        norms.append(state.norm_h1())
        lows.append(state.min_rho())
    return np.array(norms), np.array(lows), stop, state


# the TestStopping configs over horizons where seeds 0-7 mix stopped and running rows
MIXED_STOPS = [dict(n_particles=25.0, k_norm=0.45, c2=0.43, t_horizon=0.04),
               dict(n_particles=9.0, delta=0.1, c1=0.105, t_horizon=0.1)]


class TestReplicaBatch:
    @pytest.mark.parametrize("kw", MIXED_STOPS)
    def test_rows_equal_their_single_runs(self, kw):
        cfg = small_cfg(**kw)
        seeds = list(range(8))
        batch = solve_replicas([cfg] * len(seeds), W_COS, seeds)
        stopped = [st.stopped for st in batch.status]
        assert any(stopped) and not all(stopped)
        for r, seed in enumerate(seeds):
            single = solve_spde(cfg, W_COS, seed=seed)
            norms, lows, stop, final = serial_reference(cfg, W_COS, seed)
            st = batch.status[r]
            assert st == single.status
            assert (st.stopped, st.reason, st.time) == stop
            for path in (batch.norm_path[:, r], single.norm_path):
                assert np.array_equal(path, norms)
            for path in (batch.min_rho_path[:, r], single.min_rho_path):
                assert np.array_equal(path, lows)
            for got in (batch.final.rho_hat[r], single.final.rho_hat):
                assert np.array_equal(got, final.rho_hat)
            for got in (batch.final.j_hat[r], single.final.j_hat):
                assert np.array_equal(got, final.j_hat)
            assert single.final.t == final.t

    def test_frozen_rows_are_never_stepped(self):
        # Poison every row once it stops: stepping or finiteness-checking a
        # frozen row would raise DivergenceError or change the active rows.
        cfg = small_cfg(**MIXED_STOPS[0])
        seeds = list(range(8))
        clean = solve_replicas([cfg] * len(seeds), W_COS, seeds)

        def poison(step, state):
            frozen = state.norm_h1() >= cfg.k_norm
            state.rho_hat[frozen] = np.nan
            state.j_hat[frozen] = np.nan

        poisoned = solve_replicas([cfg] * len(seeds), W_COS, seeds, observe=poison)
        assert poisoned.status == clean.status
        assert np.array_equal(poisoned.norm_path, clean.norm_path)
        assert np.array_equal(poisoned.min_rho_path, clean.min_rho_path)
        for r, st in enumerate(clean.status):
            assert np.isnan(poisoned.final.rho_hat[r]).all() == st.stopped
            if not st.stopped:
                assert np.array_equal(poisoned.final.j_hat[r], clean.final.j_hat[r])

    def test_norm_cap_wins_when_both_guards_trip(self):
        # a datum at the edge of both guards: some rows cross the cap and the
        # floor on the same step, and the cap is the recorded reason
        cfg = small_cfg(n_particles=1.0, t_horizon=0.01, delta=0.111399, c1=0.1114,
                        k_norm=0.4175, c2=0.417)
        batch = solve_replicas([cfg] * 8, W_COS, list(range(8)))
        both = (batch.norm_path[1] >= cfg.k_norm) & (batch.min_rho_path[1] <= cfg.delta)
        assert both.any()
        for r in np.flatnonzero(both):
            assert batch.status[r] == StoppingStatus(True, "norm_cap", cfg.dt)

    def test_active_rows_are_checked(self):
        cfg = small_cfg(n_particles=math.inf)

        def poison(step, state):
            if step == 3:
                state.j_hat[1, 2] = np.inf

        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            solve_replicas([cfg] * 3, W_COS, [None, None, None], observe=poison)


def bits(a):
    return np.asarray(a).view(np.int64)


def assert_row_is_its_run(batch, r, single):
    """Row r of a batch has the bits of its own single run."""
    assert batch.status[r] == single.status
    assert np.array_equal(bits(batch.norm_path[:, r]), bits(single.norm_path))
    assert np.array_equal(bits(batch.min_rho_path[:, r]), bits(single.min_rho_path))
    assert np.array_equal(bits(batch.final.rho_hat[r]), bits(single.final.rho_hat))
    assert np.array_equal(bits(batch.final.j_hat[r]), bits(single.final.j_hat))


# (sigma, n_particles, seed) rows over the MIXED_STOPS[0] cap: seeds 0-3 at
# N = 25 mix stopped and running rows; the noise-free and sigma = 0 rows
# draw nothing, whatever their seed
MIXED_ROWS = [(1.0, math.inf, 5), (1.0, 25.0, 0), (1.0, 25.0, 1), (1.0, 25.0, 2),
              (1.0, 25.0, 3), (0.5, math.inf, None), (0.5, 25.0, 4), (2.0, 1e4, 6),
              (0.0, 100.0, 7), (0.5, 100.0, 8)]


class TestMixedRows:
    def test_rows_equal_their_single_runs(self):
        cfgs = [small_cfg(**{**MIXED_STOPS[0], "sigma": sigma, "n_particles": n})
                for sigma, n, _ in MIXED_ROWS]
        seeds = [seed for _, _, seed in MIXED_ROWS]
        batch = solve_replicas(cfgs, W_COS, seeds)
        stopped = [st.stopped for st in batch.status]
        assert any(stopped) and not all(stopped)
        for r, (cfg, seed) in enumerate(zip(cfgs, seeds)):
            # a noise-free row equals its unseeded run
            single = solve_spde(cfg, W_COS,
                                seed=None if math.isinf(cfg.n_particles) else seed)
            assert_row_is_its_run(batch, r, single)

    def test_only_noisy_rows_are_forced(self, monkeypatch):
        # a row of zero amplitude takes no forcing at all, not a zero one
        forced = []
        h = spde.h_delta

        def recording(r, delta):
            forced.append(r.shape)
            return h(r, delta)

        monkeypatch.setattr(spde, "h_delta", recording)
        cfgs = [small_cfg(), small_cfg(n_particles=math.inf), small_cfg(sigma=0.0),
                small_cfg(sigma=0.5)]
        solve_replicas(cfgs, W_COS, [0, 1, 2, 3])
        assert len(forced) == 50
        assert set(forced) == {(2, cfgs[0].n_grid)}

    @pytest.mark.parametrize("field, value", [
        ("n_grid", 256), ("epsilon", 0.25), ("dt", 2e-3), ("gamma", 2.0),
        ("delta", 0.03), ("k_norm", 4.0)])
    def test_rows_differing_elsewhere_are_rejected(self, field, value):
        cfgs = [small_cfg(), small_cfg(sigma=0.5), small_cfg(**{field: value})]
        with pytest.raises(ValueError, match=f"differ in {field};"):
            solve_replicas(cfgs, W_COS, [0, 1, 2])

    @pytest.mark.parametrize("n_cfgs, n_seeds", [(2, 3), (0, 0)])
    def test_one_config_per_seed(self, n_cfgs, n_seeds):
        with pytest.raises(ValueError, match="at least one row and one config per seed"):
            solve_replicas([small_cfg()] * n_cfgs, W_COS, list(range(n_seeds)))


class TestSharedNoiseRefinement:
    def test_strong_error_shrinks_with_dt(self):
        n_grid, eps = 64, 0.3
        g = TorusGeometry(n_grid)
        lam = make_kernel(math.sqrt(2.0) * eps, g).fourier_coeffs
        dt_f = 5e-4
        n_f = 320
        rng = np.random.default_rng(2)
        fine = np.array([q_wiener_increment(rng, lam, g, dt_f, n_grid // 3)
                         for _ in range(n_f)])

        def run(dt, incs):
            # steps one run over the given increments, as serial_reference does
            cfg = SpdeConfig(n_grid=n_grid, epsilon=eps, n_particles=100.0,
                             dt=dt, t_horizon=0.16)
            state = initial_state(cfg)
            bank = build_propagator_bank(g, cfg.gamma, cfg.csq, dt)
            for dw in incs:
                state = step_mild(state, cfg, bank, W_COS, dw)
                # no stopping guard fires, so no solver would freeze this run
                assert state.norm_h1() < cfg.k_norm and state.min_rho() > cfg.delta
            return state

        ref = run(dt_f, fine)
        coarse = run(4e-3, fine.reshape(40, 8, n_grid).sum(axis=1))
        mid = run(2e-3, fine.reshape(80, 4, n_grid).sum(axis=1))

        def dist(a, b):
            return np.linalg.norm(a.rho_hat - b.rho_hat) + np.linalg.norm(a.j_hat - b.j_hat)

        e_coarse = dist(coarse, ref)
        e_mid = dist(mid, ref)
        assert e_mid < e_coarse
        assert e_coarse / e_mid > 1.3


class TestConvolutionBound:
    def test_noisy_trajectory_respects_the_bound(self):
        cfg = small_cfg(t_horizon=0.2)
        traj = solve_spde(cfg, W_COS, seed=0,
                          snapshot_times=[0.0, 0.05, 0.1, 0.15, 0.2])
        result = convolution_bound_check(traj, W_COS)
        assert result["checked_snapshots"] >= 1
        assert result["ok"]
        assert result["worst_margin"] >= 0.0


class TestValidation:
    def test_snapshot_times_must_be_step_multiples(self):
        with pytest.raises(ValueError):
            solve_spde(small_cfg(), W_COS, snapshot_times=[0.00033])

    def test_snapshot_times_must_not_be_negative(self):
        with pytest.raises(ValueError):
            solve_spde(small_cfg(), W_COS, snapshot_times=[-0.001, 0.0])

    def test_horizon_must_be_step_multiple(self):
        with pytest.raises(ValueError):
            solve_spde(small_cfg(t_horizon=0.0503), W_COS)

    def test_state_shape_guard(self):
        g = TorusGeometry(64)
        with pytest.raises(ValueError):
            SpectralState(g, np.zeros(10, dtype=complex),
                          np.zeros(33, dtype=complex))
