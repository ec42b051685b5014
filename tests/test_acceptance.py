"""Acceptance gate: one test per numbered criterion, frozen seed, pinned tolerances.

Every test prints a single [PASS]/[FAIL] line before asserting, so the log
reads as a checklist.  Heavy studies run once per module and are shared by
the criteria that grade them.
"""

import hashlib
import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special

from dklab.cli import main as cli_main, rows_to_csv
from dklab.potential import PotentialSpec
from dklab.ratefit import fit_loglog, halving_factors
from dklab.spde import (SpdeConfig, SpectralState, build_propagator_bank,
                        convolution_bound_check, initial_state,
                        mode_energy, q_wiener_increment,
                        solve_spde, step_mild)
from dklab.studies import (STUDY_NAMES, STUDY_REGISTRY, ChaosStudyConfig,
                           run_chaos_study)
from dklab.torus import (TWO_PI, TorusGeometry, kernel_residual_sup,
                         make_kernel, normalization_constant, von_mises_eval)

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
W_COS = PotentialSpec.cosine_potential()


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:02d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _default_run(name: str, jobs: int = 1):
    """The study's report at its default config and SEED, and its wall time."""
    config_cls, run = STUDY_REGISTRY[name]
    t0 = time.perf_counter()
    rep = run(config_cls(), seed=SEED, jobs=jobs)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def chaos_report():
    return _default_run("chaos")


@pytest.fixture(scope="module")
def interaction_report():
    # two processes: the golden raw.csv test then also checks jobs invariance
    return _default_run("interaction", jobs=2)


@pytest.fixture(scope="module")
def covariance_report():
    return _default_run("covariance", jobs=2)


@pytest.fixture(scope="module")
def small_noise_report():
    return _default_run("small_noise")


@pytest.fixture(scope="module")
def mollifier_report():
    return _default_run("mollifier")


@pytest.fixture(scope="module")
def evolution_identity_report():
    return _default_run("evolution_identity")


@pytest.fixture(scope="module")
def j2_closure_report():
    return _default_run("j2_closure")


def test_01_kernel_normalization_oracle():
    worst_z = 0.0
    worst_coeff = 0.0
    for eps in (0.4, 0.2, 0.1, 0.05):
        kappa = eps ** -2
        g = TorusGeometry.for_epsilon(eps)
        z = normalization_constant(eps, g.n_grid)
        z_ref = TWO_PI * scipy.special.ive(0, kappa)
        worst_z = max(worst_z, abs(z - z_ref) / z_ref)
        kern = make_kernel(eps, g)
        k = np.arange(g.n_modes)
        ref = scipy.special.ive(k, kappa) / scipy.special.ive(0, kappa)
        worst_coeff = max(worst_coeff, np.abs(kern.fourier_coeffs - ref).max())
    ok = worst_z <= 1e-10 and worst_coeff <= 1e-8
    _report(1, ok, "normalization and spectrum match the Bessel oracle",
            f"Z rel err {worst_z:.2e}, coeff err {worst_coeff:.2e}")


def test_02_gaussian_residual_exponent():
    ladder = (0.4, 0.2, 0.1, 0.05)
    res = [kernel_residual_sup(e) for e in ladder]
    decreasing = all(b < a for a, b in zip(res, res[1:]))
    # The closed form gives r = C0*eps*(1 + 7 eps^2/16 + O(eps^4)): the exponent
    # is exactly 1, the window's closed edge, and every finite-ladder log-log
    # slope lands above it.  So check the compensated ratio q = r/(C0*eps)
    # instead: q - 1 must be positive, at most eps^2, and shrink like eps^2.
    c0 = 1.0 / (8.0 * math.sqrt(TWO_PI))
    q = np.asarray(res) / (c0 * np.asarray(ladder))
    in_band = all(1.0 < qi <= 1.0 + e * e for qi, e in zip(q, ladder))
    shrinks = bool(np.all(halving_factors(q - 1.0) >= 3.0))
    fit = fit_loglog(np.asarray(ladder), np.asarray(res))
    ok = decreasing and in_band and shrinks
    _report(2, ok, "kernel-vs-line-Gaussian sup residual decays with exponent in (0, 1]",
            f"decreasing={decreasing}, q={', '.join(f'{v:.4f}' for v in q)},"
            f" in_band={in_band}, shrinks={shrinks},"
            f" alpha_hat={fit.slope:.4f} +- {fit.slope_stderr:.4f}")


def test_03_chaos_rate(chaos_report):
    rep, elapsed = chaos_report
    control = run_chaos_study(
        ChaosStudyConfig(n_ladder=(8, 16, 32, 64), n_replicas=4,
                         t_horizon=0.2, burn_in=0.0, n_snapshots=2,
                         potential="zero"), seed=SEED)
    slope = rep.slopes["distance_vs_n"]["slope"]
    ok = (rep.checks["slope_in_window"]
          and control.checks["degenerate_zero_error"]
          and all(r["distance"] == 0.0 for r in control.raw_table)
          and elapsed <= 600.0)
    _report(3, ok, "coupling distance scales in the N window with an exact zero control",
            f"slope {slope:.3f}, control sup 0, {elapsed:.0f} s")


def test_04_moment_ladders(interaction_report):
    rep, elapsed = interaction_report
    keys = ("h1_rho_sq_bounded", "l2_j_sq_bounded", "l2_j2_sq_bounded")
    slopes = {k: rep.slopes[k.replace('_bounded', '_vs_inv_eps')]["slope"]
              for k in keys}
    ok = all(rep.checks[k] for k in keys) and elapsed <= 600.0
    _report(4, ok, "smoothed-field second moments stay bounded along the theta=8 ladder",
            ", ".join(f"{k.split('_bounded')[0]} slope {v:.3f}"
                      for k, v in slopes.items()) + f", {elapsed:.0f} s")


def test_05_interaction_remainders(interaction_report):
    rep, _ = interaction_report
    ok = (rep.checks["identity_closes"] and rep.checks["r1_slope"]
          and rep.checks["r2_slope"])
    _report(5, ok, "interaction remainders shrink and the decomposition closes",
            f"r1 slope {rep.slopes['sup_r1_vs_eps']['slope']:.2f}, "
            f"r2 slope {rep.slopes['mean_r2_vs_eps']['slope']:.2f}, "
            f"worst residue {rep.details['worst_identity_residue']:.2e}")


def test_06_mollifier_bound(mollifier_report):
    rep, _ = mollifier_report
    ok = rep.checks["bound_every_point"] and rep.checks["triangle_slope"]
    _report(6, ok, "mollifier error sits under 2 Lip sqrt(eps) at every ladder point",
            f"triangle slope {rep.slopes['triangle_error_vs_eps']['slope']:.3f}")


def test_07_spde_structural_invariants():
    g = TorusGeometry(128)
    gamma, csq = 1.0, 0.5
    bank = build_propagator_bank(g, gamma, csq, 1e-3)

    worst_prop = 0.0
    for k in range(g.n_modes):
        a = np.array([[0.0, -1j * k], [-1j * k * csq, -gamma]], dtype=complex)
        mat = scipy.linalg.expm(1e-3 * a)
        worst_prop = max(worst_prop,
                         abs(bank.m00[k] - mat[0, 0]), abs(bank.m01[k] - mat[0, 1]),
                         abs(bank.m10[k] - mat[1, 0]), abs(bank.m11[k] - mat[1, 1]))

    worst_ode = 0.0
    for k in (1, 5, 20):
        a = np.array([[0.0, -1j * k], [-1j * k * csq, -gamma]], dtype=complex)
        x0 = np.array([1.0 + 0.5j, -0.3j])
        sol = scipy.integrate.solve_ivp(lambda t, y: a @ y, (0.0, 1e-3), x0,
                                        method="DOP853", rtol=1e-13, atol=1e-15)
        got = np.array([bank.m00[k] * x0[0] + bank.m01[k] * x0[1],
                        bank.m10[k] * x0[0] + bank.m11[k] * x0[1]])
        worst_ode = max(worst_ode, np.abs(got - sol.y[:, -1]).max())

    double = build_propagator_bank(g, gamma, csq, 2e-3)
    worst_semi = max(
        np.abs(bank.m00 * bank.m00 + bank.m01 * bank.m10 - double.m00).max(),
        np.abs(bank.m00 * bank.m01 + bank.m01 * bank.m11 - double.m01).max(),
        np.abs(bank.m10 * bank.m00 + bank.m11 * bank.m10 - double.m10).max(),
        np.abs(bank.m10 * bank.m01 + bank.m11 * bank.m11 - double.m11).max())

    cfg_lin = SpdeConfig(n_grid=128, epsilon=0.2, n_particles=math.inf,
                         dt=1e-3, t_horizon=0.5)
    rng = np.random.default_rng(SEED)
    state = SpectralState(g, rng.normal(size=g.n_modes) + 1j * rng.normal(size=g.n_modes),
                          rng.normal(size=g.n_modes) + 1j * rng.normal(size=g.n_modes))
    energy_ok = True
    before = mode_energy(state, csq)
    for _ in range(500):
        state = step_mild(state, cfg_lin, bank, PotentialSpec.zero(), None)
        after = mode_energy(state, csq)
        energy_ok = energy_ok and bool(np.all(after <= before + 1e-12))
        before = after

    cfg = SpdeConfig(n_grid=128, epsilon=0.2, n_particles=1e4, dt=1e-3,
                     t_horizon=10.0)
    traj = solve_spde(cfg, W_COS, seed=SEED)
    dc0 = initial_state(cfg).rho_hat[0]
    mass_ok = (traj.final.rho_hat[0] == dc0) and not traj.status.stopped

    ok = (worst_prop <= 1e-10 and worst_ode <= 1e-10
          and worst_semi <= 1e-12 and energy_ok and mass_ok)
    _report(7, ok, "propagator, semigroup, energy and mass invariants hold",
            f"prop {worst_prop:.1e}, ode {worst_ode:.1e}, semigroup "
            f"{worst_semi:.1e}, energy monotone {energy_ok}, mass bits over "
            f"1e4 steps {mass_ok}")


def test_08_q_wiener_covariance():
    t0 = time.perf_counter()
    eps = 0.4
    bandwidth = math.sqrt(2.0) * eps
    g = TorusGeometry.for_epsilon(bandwidth)
    kern = make_kernel(bandwidth, g)
    dt, band = 1e-3, g.n_grid // 3
    rng = np.random.default_rng(SEED)
    draws = np.empty((10000, g.n_grid))
    for r in range(draws.shape[0]):
        draws[r] = q_wiener_increment(rng, kern.fourier_coeffs, g, dt, band)
    worst = 0.0
    pairs = []
    for idx in (0, 1, 2, 4, 8):
        est = float((draws * np.roll(draws, -idx, axis=1)).mean())
        target = dt * float(von_mises_eval(kern, np.array([idx * g.spacing]))[0])
        rel = abs(est - target) / target
        worst = max(worst, rel)
        pairs.append(f"s={idx * g.spacing:.2f}:{rel:.3f}")
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed <= 60.0
    _report(8, ok, "increment covariance matches the doubled-bandwidth kernel times dt",
            f"worst rel {worst:.3f} [{', '.join(pairs)}], {elapsed:.0f} s")


def test_09_particle_noise_vs_surrogate(covariance_report):
    rep, elapsed = covariance_report
    iso = {k: v for k, v in rep.checks.items() if k.startswith("isometry")}
    mono = {k: v for k, v in rep.checks.items()
            if k.startswith("monotone") or k.startswith("envelope")}
    ok = all(rep.checks.values()) and elapsed <= 900.0
    _report(9, ok, "isometry self-check and covariance discrepancy ordering hold",
            f"{sum(iso.values())}/{len(iso)} isometry, "
            f"{sum(mono.values())}/{len(mono)} envelope+monotone, {elapsed:.0f} s")


def test_10_convolution_bound_along_trajectories():
    snap = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    noisy = solve_spde(SpdeConfig(n_grid=128, epsilon=0.2, n_particles=1e4,
                                  dt=1e-3, t_horizon=0.5), W_COS,
                       seed=SEED, snapshot_times=snap)
    quiet = solve_spde(SpdeConfig(n_grid=128, epsilon=0.2, n_particles=math.inf,
                                  dt=1e-3, t_horizon=0.5), W_COS,
                       snapshot_times=snap)
    res_n = convolution_bound_check(noisy, W_COS, tol=1e-10)
    res_q = convolution_bound_check(quiet, W_COS, tol=1e-10)
    ok = (res_n["ok"] and res_q["ok"]
          and res_n["checked_snapshots"] == len(snap)
          and res_q["checked_snapshots"] == len(snap))
    _report(10, ok, "convolved force stays under max|W'| times mass on trajectories",
            f"worst margins {res_n['worst_margin']:.2e} noisy, "
            f"{res_q['worst_margin']:.2e} quiet")


def test_11_small_noise_scaling(small_noise_report):
    rep, elapsed = small_noise_report
    ok = (rep.checks["error_strictly_decreasing"]
          and rep.checks["no_stop_nondecreasing"]
          and rep.checks["no_stop_at_largest"]
          and rep.checks["sigma_halving_in_window"]
          and elapsed <= 900.0)
    errs = rep.details["mean_sup_deviation"]
    _report(11, ok, "deviation from the quiet solution shrinks with N and with sigma",
            f"errors {', '.join(f'{v:.3g}' for v in errs.values())}, "
            f"halving factor {rep.details['sigma_halving_factor']:.2f}, "
            f"{elapsed:.0f} s")


def test_12_evolution_identity_orders(evolution_identity_report):
    rep, _ = evolution_identity_report
    ok = rep.checks["density_order"] and rep.checks["momentum_order"]
    _report(12, ok, "discrete field identities refine at the required dt orders",
            f"density {rep.slopes['density_order']['slope']:.2f}, "
            f"momentum {rep.slopes['momentum_order']['slope']:.2f}, "
            f"flux {rep.slopes['flux_order']['slope']:.2f}")


def test_13_j2_closure_ladder(j2_closure_report):
    rep, _ = j2_closure_report
    ok = all(rep.checks.values())
    avg = rep.details["time_averaged_rel_error"]
    _report(13, ok, "second-moment closure error is non-increasing in temperature",
            ", ".join(f"m2={k}: {v['mean']:.3f}" for k, v in avg.items()))


@pytest.fixture(scope="module")
def golden():
    """scripts/golden_defaults.json, and the machine keys in which this
    machine differs from the one that took its hashes."""
    spec = importlib.util.spec_from_file_location("run_all_studies",
                                                  ROOT / "scripts" / "run_all_studies.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    doc = json.loads(script.GOLDEN.read_text())
    here, there = script.machine(), doc["machine"]
    differ = [k for k in sorted(here.keys() | there.keys()) if here.get(k) != there.get(k)]
    return doc, differ


@pytest.mark.parametrize("name", [*STUDY_NAMES, "simulate", "spde"])
def test_default_raw_csv_is_golden(name, golden, request, tmp_path):
    # the seed-0 default runs above, and the simulate and spde commands on
    # the default config, are the runs whose raw.csv hashes the golden file
    # holds, so any bit move in a default run shows here.  A hash that
    # matches passes on any machine; one that does not fails on the golden
    # machine and skips on another, whose SIMD tan may round differently
    doc, differ = golden
    if name in STUDY_NAMES:
        rep, _ = request.getfixturevalue(f"{name}_report")
        raw = rows_to_csv(rep.raw_table)
    else:
        assert cli_main([name, "--config", str(ROOT / "configs" / "default.json"),
                         "--seed", str(SEED), "--out", str(tmp_path)]) == 0
        (run_dir,) = (tmp_path / name).iterdir()
        raw = (run_dir / "raw.csv").read_bytes()
    got = hashlib.sha256(raw).hexdigest()
    if got != doc["runs"][name]["raw.csv"] and differ:
        reason = f"machine keys differ from the golden block: {', '.join(differ)}"
        print(reason)
        pytest.skip(reason)
    assert got == doc["runs"][name]["raw.csv"], f"{name} raw.csv moved: {got}"
