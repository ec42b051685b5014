"""Validation studies: each turns one quantitative claim into a fitted rate
or a pass/fail property over a parameter ladder.

Every study is a pure function of (config, seed): ladder cells draw from
seeds spawned off the master seed by cell index, replicas are simulated in
fixed-size blocks, and aggregation is an ordered reduce, so the raw table is
byte-reproducible no matter how many worker processes execute the cells.

Verdict rules follow one convention: rate gates compare the fitted slope
plus/minus two standard errors against the declared window, exact identities
use fixed absolute tolerances, and Monte Carlo comparisons use two-sigma
bands from the replica spread.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import (DensityField, convolve_potential, interaction_decomposition,
                     sobolev_norm, weighted_field_values)
from .particles import (ModelParams, _advance, ladder_from_thetas,
                        pairwise_force, simulate_coupled, simulate_interacting,
                        chaos_distance)
from .potential import PotentialSpec
from .ratefit import PowerLawFit, fit_loglog
from .spde import SpdeConfig, solve_noise_free, solve_spde
from .torus import TWO_PI, TorusGeometry, make_kernel, von_mises_eval, wrap_centered

STUDY_NAMES = ("chaos", "interaction", "covariance", "j2_closure",
               "small_noise", "mollifier", "evolution_identity")


# ---------------------------------------------------------------------------
# plumbing


def potential_from_config(value) -> PotentialSpec:
    """Accepts "cos", "zero", or {"cosine": [...], "sine": [...]}."""
    if isinstance(value, PotentialSpec):
        return value
    if value == "cos":
        return PotentialSpec.cosine_potential()
    if value == "zero":
        return PotentialSpec.zero()
    if isinstance(value, dict):
        unknown = set(value) - {"cosine", "sine"}
        if unknown:
            raise ValueError(f"unknown potential keys {sorted(unknown)}")
        cos = value.get("cosine", [])
        sin = value.get("sine", [0.0] * len(cos))
        return PotentialSpec(np.asarray(cos, float), np.asarray(sin, float))
    raise ValueError(f"cannot interpret potential {value!r}")


def config_from_dict(cls, data: dict):
    """Strict dataclass construction: unknown keys are an error."""
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            v = data[f.name]
            kwargs[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**kwargs)


@dataclass
class StudyReport:
    """Raw table plus fitted rates and the pass/fail verdict of one study."""

    study_name: str
    parameter_grid: dict
    raw_table: list
    slopes: dict
    checks: dict
    verdict: str
    details: dict
    runtime_seconds: float
    seed: int | None

    def to_dict(self) -> dict:
        return {
            "study_name": self.study_name,
            "parameter_grid": self.parameter_grid,
            "slopes": self.slopes,
            "checks": self.checks,
            "verdict": self.verdict,
            "details": self.details,
            "runtime_seconds": self.runtime_seconds,
            "seed": self.seed,
            "n_rows": len(self.raw_table),
        }


def _verdict(checks: dict) -> str:
    return "pass" if all(checks.values()) else "fail"


def _slope_entry(fit: PowerLawFit | None) -> dict | None:
    if fit is None:
        return None
    return {"slope": fit.slope, "stderr": fit.slope_stderr}


def slope_within(fit: PowerLawFit, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """Window test with the two-stderr slack every verdict uses."""
    return (fit.slope + 2.0 * fit.slope_stderr >= lo
            and fit.slope - 2.0 * fit.slope_stderr <= hi)


def _child_seeds(seed: int | None, n: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _map_ordered(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return float(v.mean()) if v.size else 0.0, 0.0
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


# ---------------------------------------------------------------------------
# chaos


@dataclass
class ChaosStudyConfig:
    n_ladder: tuple = (64, 128, 256, 512, 1024, 2048)
    n_replicas: int = 50
    alpha: int = 2
    gamma: float = 1.0
    sigma: float = 1.0
    t_horizon: float = 1.0
    dt: float = 5e-3
    burn_in: float = 0.5
    n_snapshots: int = 8
    potential: object = "cos"
    slope_window: tuple = (-0.65, -0.35)

    def __post_init__(self):
        if len(self.n_ladder) < 4:
            raise ValueError("chaos ladder needs at least 4 points")


def _chaos_cell(args):
    cfg, n, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=n, gamma=cfg.gamma, sigma=cfg.sigma,
                         t_horizon=cfg.t_horizon, dt=cfg.dt, burn_in=cfg.burn_in)
    snap = np.linspace(cfg.t_horizon / cfg.n_snapshots, cfg.t_horizon, cfg.n_snapshots)
    traj = simulate_coupled(params, w, n_replicas=cfg.n_replicas,
                            snapshot_times=snap, seed=seed)
    dist = chaos_distance(traj, cfg.alpha)
    return [{"n_particles": n, "t": float(t), "distance": float(d)}
            for t, d in zip(traj.times, dist)]


def run_chaos_study(cfg: ChaosStudyConfig, seed: int | None = None,
                    jobs: int = 1) -> StudyReport:
    t0 = time.perf_counter()
    w = potential_from_config(cfg.potential)
    seeds = _child_seeds(seed, len(cfg.n_ladder))
    cells = [(cfg, int(n), s) for n, s in zip(cfg.n_ladder, seeds)]
    rows = [r for cell_rows in _map_ordered(_chaos_cell, cells, jobs) for r in cell_rows]

    sups = []
    for n in cfg.n_ladder:
        sups.append(max(r["distance"] for r in rows if r["n_particles"] == n))
    details = {"sup_distance": {str(n): s for n, s in zip(cfg.n_ladder, sups)}}
    if w.is_zero:
        checks = {"degenerate_zero_error": all(s == 0.0 for s in sups)}
        fit = None
    else:
        fit = fit_loglog(np.asarray(cfg.n_ladder, float), np.asarray(sups))
        checks = {"slope_in_window": slope_within(fit, *cfg.slope_window)}
    return StudyReport("chaos", {"n_ladder": list(cfg.n_ladder),
                                 "alpha": cfg.alpha, "n_replicas": cfg.n_replicas},
                       rows, {"distance_vs_n": _slope_entry(fit)}, checks,
                       _verdict(checks), details,
                       time.perf_counter() - t0, seed)


# ---------------------------------------------------------------------------
# interaction remainders + moment tables (one pass, shared machinery)


@dataclass
class InteractionStudyConfig:
    theta: float = 3.0
    eps_ladder: tuple = (0.2, 0.1, 0.05, 0.025)
    n_replicas: int = 32
    moment_theta: float = 8.0
    moment_eps_ladder: tuple = (0.35, 0.3, 0.25, 0.2)
    moment_replicas: int = 8
    moment_t_horizon: float = 0.5
    gamma: float = 1.0
    sigma: float = 1.0
    t_measure: float = 0.5
    dt: float = 5e-3
    potential: object = "cos"
    slope_min: float = 0.4
    moment_slope_max: float = 0.05


def _interaction_cell(args):
    """sup|r1| and mean|r2| of equilibrated ensembles at one ladder point."""
    cfg, n, eps, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=n, gamma=cfg.gamma, sigma=cfg.sigma,
                         t_horizon=cfg.t_measure, dt=cfg.dt, burn_in=0.0)
    q, _p = simulate_interacting(params, w, n_replicas=cfg.n_replicas, seed=seed)
    geometry = TorusGeometry.for_epsilon(eps)
    kern = make_kernel(eps, geometry)
    rows = []
    for r in range(cfg.n_replicas):
        lhs, r1, r2, rho = interaction_decomposition(q[r], kern, w, geometry)
        conv = convolve_potential(rho, w, derivative=1)
        residue = lhs.values - conv.values * rho.values - r1.values * rho.values - r2.values
        rows.append({
            "section": "remainder", "epsilon": eps, "n_particles": n, "replica": r,
            "sup_r1": float(np.abs(r1.values).max()),
            "mean_abs_r2": float(np.abs(r2.values).mean()),
            "identity_residue": float(np.abs(residue).max()),
        })
    return rows


def _moment_cell(args):
    """Field moment metrics along one trajectory of the N * eps^8 = 1 ladder.

    Ensembles are evolved in replica blocks and the fields of each block are
    estimated at the snapshot steps only, so the largest cells never
    materialise particle paths.
    """
    cfg, n, eps, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=n, gamma=cfg.gamma, sigma=cfg.sigma,
                         t_horizon=cfg.moment_t_horizon, dt=cfg.dt, burn_in=0.0)
    geometry = TorusGeometry.for_epsilon(eps)
    kern = make_kernel(eps, geometry)
    n_steps = int(round(cfg.moment_t_horizon / cfg.dt))
    snap_steps = {0: 0.0, n_steps // 2: cfg.moment_t_horizon / 2,
                  n_steps: cfg.moment_t_horizon}
    block = 4
    children = np.random.SeedSequence(seed).spawn(
        (cfg.moment_replicas + block - 1) // block)
    rows = []
    m2 = params.temperature
    for b, child in enumerate(children):
        rng = np.random.default_rng(child)
        rows_b = min(block, cfg.moment_replicas - b * block)
        q = rng.uniform(0.0, TWO_PI, (rows_b, n))
        p = rng.normal(0.0, math.sqrt(m2), (rows_b, n))
        lift = q.copy()
        for s in range(n_steps + 1):
            if s in snap_steps:
                t_here = snap_steps[s]
                rho_v = weighted_field_values(q, np.ones_like(q), kern, geometry, deriv=0)
                j_v = weighted_field_values(q, p, kern, geometry, deriv=0)
                j2_v = weighted_field_values(q, p ** 2, kern, geometry, deriv=1)
                for r in range(rows_b):
                    frho = DensityField(geometry, rho_v[r])
                    rows.append({
                        "section": "moment", "epsilon": eps, "n_particles": n,
                        "replica": b * block + r, "t": t_here,
                        "h1_rho_sq": sobolev_norm(frho, k=1) ** 2,
                        "l2_j_sq": sobolev_norm(DensityField(geometry, j_v[r])) ** 2,
                        "l2_j2_sq": sobolev_norm(DensityField(geometry, j2_v[r])) ** 2,
                        "lc2": float(np.mean(p[r] ** 2)),
                        "lc4": float(np.mean(p[r] ** 4)),
                    })
            if s == n_steps:
                break
            dw = rng.standard_normal(q.shape) * math.sqrt(cfg.dt)
            q, p, lift = _advance(q, p, lift, lambda x: pairwise_force(x, w),
                                  params, dw)
    return rows


def run_interaction_study(cfg: InteractionStudyConfig, seed: int | None = None,
                          jobs: int = 1) -> StudyReport:
    t0 = time.perf_counter()
    w = potential_from_config(cfg.potential)
    rem_ladder = ladder_from_thetas(cfg.eps_ladder, cfg.theta)
    mom_ladder = ladder_from_thetas(cfg.moment_eps_ladder, cfg.moment_theta)
    seeds = _child_seeds(seed, len(rem_ladder) + len(mom_ladder))
    rem_cells = [(cfg, n, eps, s) for (n, eps), s in zip(rem_ladder, seeds[: len(rem_ladder)])]
    mom_cells = [(cfg, n, eps, s) for (n, eps), s in zip(mom_ladder, seeds[len(rem_ladder):])]
    rows = [r for cell in _map_ordered(_interaction_cell, rem_cells, jobs) for r in cell]
    rows += [r for cell in _map_ordered(_moment_cell, mom_cells, jobs) for r in cell]

    checks: dict = {}
    slopes: dict = {}
    details: dict = {}

    rem_rows = [r for r in rows if r["section"] == "remainder"]
    worst_residue = max((r["identity_residue"] for r in rem_rows), default=0.0)
    checks["identity_closes"] = worst_residue <= 1e-12
    details["worst_identity_residue"] = worst_residue
    if w.is_zero:
        checks["degenerate_zero_remainders"] = all(
            r["sup_r1"] == 0.0 and r["mean_abs_r2"] == 0.0 for r in rem_rows)
    else:
        eps_vals, r1_means, r2_means = [], [], []
        for n, eps in rem_ladder:
            sel = [r for r in rem_rows if r["epsilon"] == eps]
            eps_vals.append(eps)
            r1_means.append(np.mean([r["sup_r1"] for r in sel]))
            r2_means.append(np.mean([r["mean_abs_r2"] for r in sel]))
        fit_r1 = fit_loglog(eps_vals, r1_means)
        fit_r2 = fit_loglog(eps_vals, r2_means)
        slopes["sup_r1_vs_eps"] = _slope_entry(fit_r1)
        slopes["mean_r2_vs_eps"] = _slope_entry(fit_r2)
        checks["r1_slope"] = slope_within(fit_r1, lo=cfg.slope_min)
        checks["r2_slope"] = slope_within(fit_r2, lo=cfg.slope_min)

    mom_rows = [r for r in rows if r["section"] == "moment"]
    if mom_rows:
        inv_eps, metrics = [], {"h1_rho_sq": [], "l2_j_sq": [], "l2_j2_sq": []}
        for n, eps in mom_ladder:
            sel = [r for r in mom_rows if r["epsilon"] == eps]
            inv_eps.append(1.0 / eps)
            times = sorted({r["t"] for r in sel})
            for key in metrics:
                per_time = [np.mean([r[key] for r in sel if r["t"] == t]) for t in times]
                metrics[key].append(max(per_time))
        for key, vals in metrics.items():
            fit = fit_loglog(inv_eps, vals)
            slopes[f"{key}_vs_inv_eps"] = _slope_entry(fit)
            checks[f"{key}_bounded"] = fit.slope <= cfg.moment_slope_max + 2 * fit.slope_stderr
        details["moment_tables"] = {key: [float(v) for v in vals]
                                    for key, vals in metrics.items()}

    grid = {"remainder_ladder": [[n, e] for n, e in rem_ladder],
            "moment_ladder": [[n, e] for n, e in mom_ladder],
            "theta": cfg.theta, "moment_theta": cfg.moment_theta}
    return StudyReport("interaction", grid, rows, slopes, checks,
                       _verdict(checks), details, time.perf_counter() - t0, seed)


# ---------------------------------------------------------------------------
# covariance of the particle noise field vs its density-driven surrogate


@dataclass
class CovarianceStudyConfig:
    eps_ladder: tuple = (0.2, 0.1)
    theta: float = 3.0
    n_replicas: int = 2000
    separations: tuple = (0.0, 0.1, 0.2, 0.4, 0.8)
    gamma: float = 1.0
    sigma: float = 1.0
    t_horizon: float = 0.5
    dt: float = 5e-3
    envelope_exponent: float = 0.2
    potential: object = "cos"
    replica_block: int = 100
    iso_tol: float = 0.05

    def __post_init__(self):
        if self.n_replicas < 1000:
            raise ValueError("covariance study needs >= 1000 replicas")


def _covariance_cell(args):
    """Accumulate Z (kernel-weighted particle noise) and Y (density surrogate).

    Z uses exactly the increments that drive the momenta; Y draws an
    independent Q-Wiener increment per step and scales it by the square root
    of the empirical density at bandwidth eps / sqrt(2), per the surrogate's
    definition.  Both are tracked at the evaluation points only.
    """
    cfg, n, eps, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=n, gamma=cfg.gamma, sigma=cfg.sigma,
                         t_horizon=cfg.t_horizon, dt=cfg.dt, burn_in=0.0)
    geometry = TorusGeometry.for_epsilon(eps / math.sqrt(2.0))
    kern = make_kernel(eps, geometry)
    kern_half = make_kernel(eps / math.sqrt(2.0), geometry)
    kern_double = make_kernel(math.sqrt(2.0) * eps, geometry)
    idx = np.array([int(round(s / geometry.spacing)) for s in cfg.separations])
    x_eval = idx * geometry.spacing
    n_steps = int(round(cfg.t_horizon / cfg.dt))
    sqdt = math.sqrt(cfg.dt)
    lam = kern_double.fourier_coeffs
    band = geometry.n_modes - 1
    m2 = params.temperature

    sums = {k: np.zeros(len(idx)) for k in ("pz", "pz2", "py", "py2", "z2", "iso")}
    n_blocks = (cfg.n_replicas + cfg.replica_block - 1) // cfg.replica_block
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    for b, child in enumerate(children):
        rng = np.random.default_rng(child)
        rows = min(cfg.replica_block, cfg.n_replicas - b * cfg.replica_block)
        q = rng.uniform(0.0, TWO_PI, (rows, n))
        p = rng.normal(0.0, math.sqrt(m2), (rows, n))
        lift = q.copy()
        z = np.zeros((rows, len(idx)))
        y = np.zeros_like(z)
        iso = np.zeros_like(z)
        for _s in range(n_steps):
            xi = rng.standard_normal((rows, n))
            dw = xi * sqdt
            arg = x_eval[:, None, None] - q[None, :, :]
            kv = von_mises_eval(kern, arg)                      # (A, rows, n)
            z += (cfg.sigma / n) * np.einsum("abn,bn->ba", kv, dw)
            iso += (cfg.sigma ** 2 / n ** 2) * cfg.dt * (kv ** 2).sum(axis=-1).T
            rho_half = von_mises_eval(kern_half, arg).mean(axis=-1).T  # (rows, A)
            coeffs = np.zeros((rows, geometry.n_modes), dtype=complex)
            coeffs[:, 0] = (math.sqrt(lam[0] * cfg.dt / TWO_PI)
                            * rng.standard_normal(rows))
            g = rng.standard_normal((rows, band)) + 1j * rng.standard_normal((rows, band))
            coeffs[:, 1:] = np.sqrt(lam[1: band + 1] * cfg.dt / (2.0 * TWO_PI)) * g
            dwq = np.fft.irfft(coeffs * geometry.n_grid, n=geometry.n_grid, axis=-1)
            y += (cfg.sigma / math.sqrt(n)) * np.sqrt(rho_half) * dwq[:, idx]
            q, p, lift = _advance(q, p, lift, lambda x: pairwise_force(x, w),
                                  params, dw)
        pz = z[:, [0]] * z
        py = y[:, [0]] * y
        sums["pz"] += pz.sum(axis=0)
        sums["pz2"] += (pz ** 2).sum(axis=0)
        sums["py"] += py.sum(axis=0)
        sums["py2"] += (py ** 2).sum(axis=0)
        sums["z2"] += (z ** 2).sum(axis=0)
        sums["iso"] += iso.sum(axis=0)

    r_tot = cfg.n_replicas
    mean_pz = sums["pz"] / r_tot
    mean_py = sums["py"] / r_tot
    se_pz = np.sqrt(np.maximum(sums["pz2"] / r_tot - mean_pz ** 2, 0.0) / r_tot)
    se_py = np.sqrt(np.maximum(sums["py2"] / r_tot - mean_py ** 2, 0.0) / r_tot)
    w2_at = von_mises_eval(kern_double, x_eval)
    normalizer = (cfg.sigma ** 2 / n) * w2_at * cfg.t_horizon \
        + cfg.sigma ** 2 * cfg.t_horizon / n
    rows_out = []
    for a, s in enumerate(cfg.separations):
        disc = abs(mean_pz[a] - mean_py[a])
        band_abs = 2.0 * (se_pz[a] + se_py[a])
        # sigma = 0 zeroes the normalizer along with everything it scales
        denom = normalizer[a] if normalizer[a] > 0.0 else 1.0
        rows_out.append({
            "epsilon": eps, "n_particles": n, "separation": float(x_eval[a]),
            "cov_z": float(mean_pz[a]), "cov_z_se": float(se_pz[a]),
            "cov_y": float(mean_py[a]), "cov_y_se": float(se_py[a]),
            "normalizer": float(normalizer[a]),
            "disc_hat": float(disc / denom),
            "band_hat": float(band_abs / denom),
        })
    # isometry ledger: Z(x, T)^2 against the accumulated quadratic variation,
    # averaged over the evaluation points to tame the chi-square noise
    iso_lhs = float(sums["z2"].mean() / r_tot)
    iso_rhs = float(sums["iso"].mean() / r_tot)
    return rows_out, (iso_lhs, iso_rhs)


def run_covariance_study(cfg: CovarianceStudyConfig, seed: int | None = None,
                         jobs: int = 1) -> StudyReport:
    t0 = time.perf_counter()
    ladder = ladder_from_thetas(cfg.eps_ladder, cfg.theta)
    seeds = _child_seeds(seed, len(ladder))
    cells = [(cfg, n, eps, s) for (n, eps), s in zip(ladder, seeds)]
    results = _map_ordered(_covariance_cell, cells, jobs)
    rows = [r for cell_rows, _iso in results for r in cell_rows]

    checks: dict = {}
    details: dict = {"isometry": {}}
    if cfg.sigma == 0.0:
        checks["degenerate_zero_covariance"] = all(
            r["cov_z"] == 0.0 and r["cov_y"] == 0.0 for r in rows)
        return StudyReport("covariance", {"ladder": [[n, e] for n, e in ladder]},
                           rows, {}, checks, _verdict(checks), details,
                           time.perf_counter() - t0, seed)

    for (n, eps), (_r, (iso_lhs, iso_rhs)) in zip(ladder, results):
        rel = abs(iso_lhs - iso_rhs) / iso_rhs
        details["isometry"][f"{eps:.6g}"] = {"mc_lhs": iso_lhs, "running_rhs": iso_rhs,
                                             "rel_diff": rel}
        checks[f"isometry_eps_{eps:.6g}"] = rel <= cfg.iso_tol

    # envelope constant fitted on the coarsest epsilon, then applied down-ladder
    by_eps = {eps: [r for r in rows if r["epsilon"] == eps] for _n, eps in ladder}
    eps_sorted = sorted(by_eps, reverse=True)
    coarse = by_eps[eps_sorted[0]]
    env = [r["separation"] + eps_sorted[0] ** cfg.envelope_exponent for r in coarse]
    c_fit = max(r["disc_hat"] / e for r, e in zip(coarse, env))
    details["envelope_constant"] = c_fit
    for eps in eps_sorted[1:]:
        ok = all(r["disc_hat"] <= c_fit * (r["separation"] + eps ** cfg.envelope_exponent)
                 + r["band_hat"] for r in by_eps[eps])
        checks[f"envelope_eps_{eps:.6g}"] = ok
    for hi, lo in zip(eps_sorted[:-1], eps_sorted[1:]):
        ok = all(rl["disc_hat"] <= rh["disc_hat"] + rh["band_hat"] + rl["band_hat"]
                 for rh, rl in zip(by_eps[hi], by_eps[lo]))
        checks[f"monotone_{hi:.6g}_to_{lo:.6g}"] = ok

    slopes: dict = {}
    return StudyReport("covariance", {"ladder": [[n, e] for n, e in ladder],
                                      "separations": list(cfg.separations),
                                      "n_replicas": cfg.n_replicas},
                       rows, slopes, checks, _verdict(checks), details,
                       time.perf_counter() - t0, seed)


# ---------------------------------------------------------------------------
# second-moment closure across a temperature ladder


@dataclass
class J2ClosureConfig:
    m2_ladder: tuple = (1.0, 0.25, 0.0625)
    gamma: float = 1.0
    n_particles: int = 2000
    epsilon: float = 0.1
    n_replicas: int = 32
    t_horizon: float = 0.5
    dt: float = 5e-3
    burn_in: float = 0.5
    n_snapshots: int = 10
    potential: object = "cos"


def _j2_cell(args):
    cfg, m2, seed = args
    sigma = math.sqrt(2.0 * cfg.gamma * m2)
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=cfg.n_particles, gamma=cfg.gamma, sigma=sigma,
                         t_horizon=cfg.t_horizon, dt=cfg.dt, burn_in=cfg.burn_in)
    snap = np.linspace(cfg.t_horizon / cfg.n_snapshots, cfg.t_horizon, cfg.n_snapshots)
    traj = simulate_coupled(params, w, n_replicas=cfg.n_replicas,
                            snapshot_times=snap, seed=seed)
    geometry = TorusGeometry.for_epsilon(cfg.epsilon)
    kern = make_kernel(cfg.epsilon, geometry)
    rel_per_replica = np.zeros(cfg.n_replicas)
    rows = []
    for si, t in enumerate(traj.times):
        q = traj.q_int[si]
        p = traj.p_int[si]
        drho = weighted_field_values(q, np.ones_like(q), kern, geometry, deriv=1)
        j2 = weighted_field_values(q, p ** 2, kern, geometry, deriv=1)
        resid = j2 - m2 * drho
        h = geometry.spacing
        rel = np.sqrt((resid ** 2).sum(axis=-1) * h) / np.sqrt((drho ** 2).sum(axis=-1) * h)
        rel_per_replica += rel / len(traj.times)
        rows.append({"m2": m2, "t": float(t), "rel_error": float(rel.mean())})
    mean, se = _mean_se(rel_per_replica)
    return rows, (mean, se)


def run_j2_closure_study(cfg: J2ClosureConfig, seed: int | None = None,
                         jobs: int = 1) -> StudyReport:
    t0 = time.perf_counter()
    seeds = _child_seeds(seed, len(cfg.m2_ladder))
    cells = [(cfg, float(m2), s) for m2, s in zip(cfg.m2_ladder, seeds)]
    results = _map_ordered(_j2_cell, cells, jobs)
    rows = [r for cell_rows, _ in results for r in cell_rows]
    means = [m for _, (m, _se) in results]
    ses = [se for _, (_m, se) in results]
    checks = {}
    for i in range(len(means) - 1):
        lo_t, hi_t = cfg.m2_ladder[i + 1], cfg.m2_ladder[i]
        checks[f"nonincreasing_{hi_t}_to_{lo_t}"] = (
            means[i + 1] <= means[i] + 2.0 * (ses[i] + ses[i + 1]))
    details = {"time_averaged_rel_error": {str(m2): {"mean": m, "se": s}
                                           for m2, m, s in zip(cfg.m2_ladder, means, ses)}}
    return StudyReport("j2_closure", {"m2_ladder": list(cfg.m2_ladder),
                                      "n_particles": cfg.n_particles,
                                      "epsilon": cfg.epsilon},
                       rows, {}, checks, _verdict(checks), details,
                       time.perf_counter() - t0, seed)


# ---------------------------------------------------------------------------
# small-noise deviation of the stochastic field system from its quiet limit


@dataclass
class SmallNoiseConfig:
    n_ladder: tuple = (1e2, 1e3, 1e4)
    n_grid: int = 128
    epsilon: float = 0.2
    gamma: float = 1.0
    sigma: float = 1.0
    dt: float = 1e-3
    t_horizon: float = 0.5
    delta: float = 0.02
    c1: float = 0.05
    k_norm: float = 5.0
    c2: float | None = None
    n_replicas: int = 32
    check_sigma_halving: bool = True
    halving_window: tuple = (1.4, 4.0)
    potential: object = "cos"

    def spde_config(self, n_particles: float, sigma: float | None = None) -> SpdeConfig:
        return SpdeConfig(n_grid=self.n_grid, epsilon=self.epsilon, gamma=self.gamma,
                          sigma=self.sigma if sigma is None else sigma,
                          n_particles=n_particles, dt=self.dt,
                          t_horizon=self.t_horizon, delta=self.delta, c1=self.c1,
                          k_norm=self.k_norm, c2=self.c2)


def _sup_deviation(traj, ref) -> float:
    geometry = traj.config.geometry
    worst = 0.0
    for s in range(traj.rho.shape[0]):
        dr = DensityField(geometry, traj.rho[s] - ref.rho[s])
        dj = DensityField(geometry, traj.j[s] - ref.j[s])
        worst = max(worst, math.hypot(sobolev_norm(dr, k=1), sobolev_norm(dj, k=1)))
    return worst


def _small_noise_ladder(cfg: SmallNoiseConfig, w, sigma: float, seeds) -> list[dict]:
    snap = np.round(np.arange(0.0, cfg.t_horizon + cfg.dt / 2, cfg.dt), 12)
    ref, _report = solve_noise_free(cfg.spde_config(math.inf, sigma), w,
                                    snapshot_times=snap)
    rows = []
    for n_idx, n_part in enumerate(cfg.n_ladder):
        for r in range(cfg.n_replicas):
            run_seed = seeds[n_idx * cfg.n_replicas + r]
            traj = solve_spde(cfg.spde_config(float(n_part), sigma), w,
                              seed=run_seed, snapshot_times=snap)
            rows.append({"sigma": sigma, "n_particles": float(n_part), "replica": r,
                         "sup_deviation": _sup_deviation(traj, ref),
                         "stopped": int(traj.status.stopped)})
    return rows


def run_small_noise_study(cfg: SmallNoiseConfig, seed: int | None = None,
                          jobs: int = 1) -> StudyReport:
    t0 = time.perf_counter()
    w = potential_from_config(cfg.potential)
    n_primary = len(cfg.n_ladder) * cfg.n_replicas
    seeds = _child_seeds(seed, n_primary + cfg.n_replicas)
    rows = _small_noise_ladder(cfg, w, cfg.sigma, seeds[:n_primary])

    checks: dict = {}
    details: dict = {}
    errs, stops = [], []
    for n_part in cfg.n_ladder:
        sel = [r for r in rows if r["sigma"] == cfg.sigma
               and r["n_particles"] == float(n_part)]
        errs.append(float(np.mean([r["sup_deviation"] for r in sel])))
        stops.append(float(np.mean([1 - r["stopped"] for r in sel])))
    details["mean_sup_deviation"] = {str(n): e for n, e in zip(cfg.n_ladder, errs)}
    details["no_stop_probability"] = {str(n): s for n, s in zip(cfg.n_ladder, stops)}
    checks["error_strictly_decreasing"] = all(b < a for a, b in zip(errs, errs[1:]))
    checks["no_stop_nondecreasing"] = all(b >= a for a, b in zip(stops, stops[1:]))
    checks["no_stop_at_largest"] = stops[-1] >= 0.95

    if cfg.check_sigma_halving and cfg.sigma > 0:
        n_big = float(cfg.n_ladder[-1])
        half_rows = []
        snap = np.round(np.arange(0.0, cfg.t_horizon + cfg.dt / 2, cfg.dt), 12)
        ref_half, _ = solve_noise_free(cfg.spde_config(math.inf, cfg.sigma / 2), w,
                                       snapshot_times=snap)
        for r in range(cfg.n_replicas):
            traj = solve_spde(cfg.spde_config(n_big, cfg.sigma / 2), w,
                              seed=seeds[n_primary + r], snapshot_times=snap)
            half_rows.append({"sigma": cfg.sigma / 2, "n_particles": n_big,
                              "replica": r,
                              "sup_deviation": _sup_deviation(traj, ref_half),
                              "stopped": int(traj.status.stopped)})
        rows += half_rows
        err_half = float(np.mean([r["sup_deviation"] for r in half_rows]))
        factor = errs[-1] / err_half if err_half > 0 else math.inf
        details["sigma_halving_factor"] = factor
        lo, hi = cfg.halving_window
        checks["sigma_halving_in_window"] = lo <= factor <= hi

    return StudyReport("small_noise", {"n_ladder": list(cfg.n_ladder),
                                       "n_replicas": cfg.n_replicas},
                       rows, {}, checks, _verdict(checks), details,
                       time.perf_counter() - t0, seed)


# ---------------------------------------------------------------------------
# kernel-vs-identity approximation on Lipschitz test functions


@dataclass
class MollifierConfig:
    eps_ladder: tuple = (0.4, 0.2, 0.1, 0.05)
    n_anchors: int = 17
    n_quad: int = 1 << 14
    slope_min: float = 0.45


def _triangle(y: np.ndarray) -> np.ndarray:
    return np.abs(wrap_centered(y))


def run_mollifier_study(cfg: MollifierConfig, seed: int | None = None,
                        jobs: int = 1) -> StudyReport:
    t0 = time.perf_counter()
    anchors = np.linspace(0.0, TWO_PI, cfg.n_anchors, endpoint=False)
    y = np.linspace(-math.pi, math.pi, cfg.n_quad, endpoint=False)
    h = TWO_PI / cfg.n_quad
    tests = {"cos": (np.cos, 1.0), "triangle": (_triangle, 1.0)}
    rows = []
    for eps in cfg.eps_ladder:
        kern = make_kernel(eps, TorusGeometry.for_epsilon(eps, oversample=2))
        kv = von_mises_eval(kern, y)
        for name, (f, lip) in tests.items():
            vals = f(anchors[:, None] + y[None, :])
            err = float(np.abs(vals @ kv * h - f(anchors)).max())
            rows.append({"epsilon": eps, "function": name, "lipschitz": lip,
                         "max_error": err,
                         "bound": 2.0 * lip * math.sqrt(eps)})
    checks = {"bound_every_point": all(r["max_error"] <= r["bound"] for r in rows)}
    tri = [(r["epsilon"], r["max_error"]) for r in rows if r["function"] == "triangle"]
    fit = fit_loglog([e for e, _ in tri], [v for _, v in tri])
    slopes = {"triangle_error_vs_eps": _slope_entry(fit)}
    checks["triangle_slope"] = slope_within(fit, lo=cfg.slope_min)
    return StudyReport("mollifier", {"eps_ladder": list(cfg.eps_ladder)},
                       rows, slopes, checks, _verdict(checks),
                       {"triangle_slope": fit.slope},
                       time.perf_counter() - t0, seed)


# ---------------------------------------------------------------------------
# discrete evolution identities of the smoothed fields


@dataclass
class EvolutionIdentityConfig:
    dt_ladder: tuple = (1e-2, 5e-3, 2.5e-3)
    n_particles: int = 64
    epsilon: float = 0.25
    gamma: float = 1.0
    sigma: float = 1.0
    t_horizon: float = 0.1
    n_replicas: int = 4
    potential: object = "cos"
    order_min_density: float = 1.0
    order_min_momentum: float = 0.5

    def __post_init__(self):
        if len(self.dt_ladder) < 3:
            raise ValueError("need a dt ladder with at least 3 points")


def _identity_residuals(cfg, dt: float, seed: int):
    """Max-over-steps L2 residuals of the three discrete field identities."""
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=cfg.n_particles, gamma=cfg.gamma,
                         sigma=cfg.sigma, t_horizon=cfg.t_horizon, dt=dt,
                         burn_in=0.0)
    geometry = TorusGeometry.for_epsilon(cfg.epsilon)
    kern = make_kernel(cfg.epsilon, geometry)
    paths = simulate_interacting(params, w, n_replicas=cfg.n_replicas, seed=seed,
                                 record_path=True)
    h = geometry.spacing
    ones = np.ones((cfg.n_replicas, cfg.n_particles))

    def l2(vals):
        return float(np.sqrt((vals ** 2).sum(axis=-1) * h).max())

    def fields(q, p):
        rho = weighted_field_values(q, ones, kern, geometry, 0)
        jf = weighted_field_values(q, p, kern, geometry, 0)
        j2f = weighted_field_values(q, p ** 2, kern, geometry, 1)
        return rho, jf, j2f

    res_a = res_b = res_c = 0.0
    n_steps = paths["xi"].shape[0]
    for s in range(n_steps):
        q0, p0, xi = paths["q"][s], paths["p"][s], paths["xi"][s]
        q1, p1 = paths["q"][s + 1], paths["p"][s + 1]
        rho0, j0, j2f0 = fields(q0, p0)
        rho1, j1, j2f1 = fields(q1, p1)
        # density identity: transport by the momentum field
        jderiv0 = weighted_field_values(q0, p0, kern, geometry, 1)
        res_a = max(res_a, l2((rho1 - rho0) + dt * jderiv0))
        # momentum identity: flux + friction + interaction + noise
        force = pairwise_force(q0, w)
        inter = weighted_field_values(q0, -force, kern, geometry, 0)
        noise = cfg.sigma * weighted_field_values(q0, xi * math.sqrt(dt), kern,
                                                  geometry, 0)
        rhs_b = dt * (-j2f0 - cfg.gamma * j0 - inter) + noise
        res_b = max(res_b, l2((j1 - j0) - rhs_b))
        # flux identity (informational): next moment up the ladder
        j3f0 = weighted_field_values(q0, p0 ** 3, kern, geometry, 2)
        drho0 = weighted_field_values(q0, ones, kern, geometry, 1)
        cross = weighted_field_values(q0, force * p0, kern, geometry, 1)
        noise_c = 2.0 * cfg.sigma * weighted_field_values(
            q0, p0 * xi * math.sqrt(dt), kern, geometry, 1)
        rhs_c = dt * (-j3f0 - 2.0 * cfg.gamma * j2f0 + cfg.sigma ** 2 * drho0
                      + 2.0 * cross) + noise_c
        res_c = max(res_c, l2((j2f1 - j2f0) - rhs_c))
    return res_a, res_b, res_c


def run_evolution_identity_check(cfg: EvolutionIdentityConfig,
                                 seed: int | None = None,
                                 jobs: int = 1) -> StudyReport:
    t0 = time.perf_counter()
    seeds = _child_seeds(seed, len(cfg.dt_ladder))
    rows = []
    for dt, s in zip(cfg.dt_ladder, seeds):
        ra, rb, rc = _identity_residuals(cfg, float(dt), s)
        rows.append({"dt": float(dt), "res_density": ra, "res_momentum": rb,
                     "res_flux": rc})
    if all(r["res_density"] == 0.0 and r["res_momentum"] == 0.0
           and r["res_flux"] == 0.0 for r in rows):
        checks = {"static_residuals_zero": True}
        return StudyReport("evolution_identity",
                           {"dt_ladder": list(cfg.dt_ladder),
                            "n_particles": cfg.n_particles},
                           rows, {}, checks, _verdict(checks),
                           {"note": "all residuals vanish identically"},
                           time.perf_counter() - t0, seed)
    dts = [r["dt"] for r in rows]
    fit_a = fit_loglog(dts, [r["res_density"] for r in rows])
    fit_b = fit_loglog(dts, [r["res_momentum"] for r in rows])
    fit_c = fit_loglog(dts, [r["res_flux"] for r in rows])
    slopes = {"density_order": _slope_entry(fit_a),
              "momentum_order": _slope_entry(fit_b),
              "flux_order": _slope_entry(fit_c)}
    checks = {"density_order": slope_within(fit_a, lo=cfg.order_min_density),
              "momentum_order": slope_within(fit_b, lo=cfg.order_min_momentum)}
    return StudyReport("evolution_identity", {"dt_ladder": list(cfg.dt_ladder),
                                              "n_particles": cfg.n_particles},
                       rows, slopes, checks, _verdict(checks),
                       {"flux_order_informational": fit_c.slope},
                       time.perf_counter() - t0, seed)


# ---------------------------------------------------------------------------
# registry for the command line driver

STUDY_REGISTRY = {
    "chaos": (ChaosStudyConfig, run_chaos_study),
    "interaction": (InteractionStudyConfig, run_interaction_study),
    "covariance": (CovarianceStudyConfig, run_covariance_study),
    "j2_closure": (J2ClosureConfig, run_j2_closure_study),
    "small_noise": (SmallNoiseConfig, run_small_noise_study),
    "mollifier": (MollifierConfig, run_mollifier_study),
    "evolution_identity": (EvolutionIdentityConfig, run_evolution_identity_check),
}
