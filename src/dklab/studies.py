"""Validation studies: each turns one quantitative claim into a fitted rate
or a pass/fail property over a parameter ladder.

Every study is a pure function of (config, seed): ladder cells draw from
seeds spawned off the master seed by cell index, replicas are simulated in
fixed-size blocks, and each verdict reads the cells' results in ladder order,
so the raw table is byte-reproducible at any number of worker processes.
A study returns only what it computes, a `StudyReport`: no name, seed or
echo of its config, which the command line writes beside it.

Verdict rules follow one convention: rate gates compare the fitted slope
plus/minus two standard errors against the declared window, exact identities
use fixed absolute tolerances, and Monte Carlo comparisons use two-sigma
bands from the replica spread.  Each verdict fixes its own bounds in code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fields import (convolve_potential, interaction_decomposition, sobolev_norms,
                     weighted_field_values)
# _advance is unused here; perfbench's tracer test reads it from this module
from .particles import (ModelParams, _advance,  # noqa: F401
                        chaos_distance, ladder_from_thetas, pairwise_force,
                        replica_steps, simulate_coupled, simulate_interacting)
from .potential import PotentialSpec
from .ratefit import PowerLawFit, fit_loglog
from .spde import QWienerScales, SpdeConfig, q_wiener_scales, solve_replicas
from .torus import (TWO_PI, ConfigurationError, TorusGeometry, _at_least, cos_sin,
                    make_kernel, normalization_constant, step_index, von_mises_eval,
                    wrap_centered)

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


# a value of each annotated type; a tuple field takes its default instead
_TYPE_SAMPLES = {"int": 0, "float": 0.0, "bool": False, "str": "", "dict": {}}


def _fits(value, like) -> bool:
    """Whether a config value has the type of `like`, a value of its field's type.

    `object` fields (the potential) have no sample and are validated where used.
    """
    if isinstance(like, bool):
        return isinstance(value, bool)
    if isinstance(like, (int, float)):  # type(), as bools are ints
        return type(value) is int or isinstance(like, float) and isinstance(value, float)
    if isinstance(like, tuple):
        return isinstance(value, list) and all(_fits(v, like[0]) for v in value)
    if isinstance(like, (str, dict)):
        return isinstance(value, type(like))
    return True


def config_from_dict(cls, data: dict, block: str | None = None):
    """Strict dataclass construction from one JSON object, `block` of the document.

    The one rule for config input: the block is an object, every key names a
    field, every field without a default is given, and every value has its
    field's annotated type (an int passes as a float; `X | None` also admits
    null) and is no NaN.  The items of a tuple field's list have the type of
    its default's, and none is a NaN.
    """
    what = block or cls.__name__
    if not isinstance(data, dict):
        raise ValueError(f"{what} block must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields:
        if f.name not in data:
            if f.default is f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{what} block needs {f.name}")
            continue
        v = data[f.name]
        kind = f.type.removesuffix(" | None")
        like = f.default if kind == "tuple" else _TYPE_SAMPLES.get(kind)
        if not (_fits(v, like) or v is None and kind != f.type):
            raise ValueError(f"{f.name}={v!r} does not have the type {f.type}")
        items = v if isinstance(v, list) else [v]
        if any(isinstance(x, float) and math.isnan(x) for x in items):
            raise ValueError(f"{f.name}={v!r} holds a NaN")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


@dataclass
class StudyReport:
    """What one study computes; the verdict follows from the checks."""

    raw_table: list
    slopes: dict
    checks: dict
    details: dict

    @property
    def verdict(self) -> str:
        """A report passes when it has checks and every one of them holds."""
        return "pass" if self.checks and all(self.checks.values()) else "fail"

    def to_dict(self) -> dict:
        return {"slopes": self.slopes, "checks": self.checks,
                "verdict": self.verdict, "details": self.details}


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
    # imported here: a serial run never pays for the process pool's modules
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _call(fn_args):
    """fn(args) of one (fn, args) pair: a map over cells of more than one kind."""
    fn, args = fn_args
    return fn(args)


def _mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return float(v.mean()) if v.size else 0.0, 0.0
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def _ladder(cfg, field: str, theta: float) -> list[tuple[int, float]]:
    """The (N, eps) cells of cfg's eps ladder `field`; a refused point names it."""
    try:
        return ladder_from_thetas(getattr(cfg, field), theta)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{type(cfg).__name__}.{field} {exc}") from None


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

    def __post_init__(self):
        _at_least(self, n_ladder=4, alpha=2, n_replicas=2, n_snapshots=1)
        if self.alpha % 2 != 0:
            raise ConfigurationError(f"ChaosStudyConfig.alpha must be even, got {self.alpha}")


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
    w = potential_from_config(cfg.potential)
    seeds = _child_seeds(seed, len(cfg.n_ladder))
    cells = [(cfg, int(n), s) for n, s in zip(cfg.n_ladder, seeds)]
    results = _map_ordered(_chaos_cell, cells, jobs)
    rows = [r for cell_rows in results for r in cell_rows]
    sups = [max(r["distance"] for r in cell_rows) for cell_rows in results]
    details = {"sup_distance": {str(n): s for n, s in zip(cfg.n_ladder, sups)}}
    if w.is_zero:
        checks = {"degenerate_zero_error": all(s == 0.0 for s in sups)}
        fit = None
    else:
        fit = fit_loglog(np.asarray(cfg.n_ladder, float), np.asarray(sups))
        checks = {"slope_in_window": slope_within(fit, -0.65, -0.35)}
    return StudyReport(rows, {"distance_vs_n": _slope_entry(fit)}, checks, details)


# ---------------------------------------------------------------------------
# interaction remainders + moment tables (one pass, shared machinery)
_REMAINDER_SLOPE_MIN = 0.4


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

    def __post_init__(self):
        _at_least(self, eps_ladder=2, n_replicas=1, moment_replicas=1,
                  moment_eps_ladder=2 if self.moment_eps_ladder else 0)  # empty: no tables
        _ladder(self, "eps_ladder", self.theta)
        _ladder(self, "moment_eps_ladder", self.moment_theta)
        for name in ("t_measure", "moment_t_horizon"):
            step_index(getattr(self, name), self.dt, name)


def _interaction_cell(args):
    """sup|r1| and mean|r2| of equilibrated ensembles at one ladder point.

    identity_residue recomputes the expression that defines r2 from the same
    arrays, so it is 0.0 by construction and identity_closes cannot fail.
    """
    cfg, n, eps, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=n, gamma=cfg.gamma, sigma=cfg.sigma,
                         t_horizon=cfg.t_measure, dt=cfg.dt, burn_in=0.0)
    (q,), _p = simulate_interacting(params, w, n_replicas=cfg.n_replicas,
                                    snapshot_times=[cfg.t_measure], seed=seed)
    geometry = TorusGeometry.for_epsilon(eps)
    kern = make_kernel(eps, geometry)
    rows = []
    for r in range(cfg.n_replicas):
        lhs, r1, r2, rho = interaction_decomposition(q[r], kern, w, geometry)
        conv = convolve_potential(rho, w, derivative=1)
        residue = lhs - conv * rho - r1 * rho - r2
        rows.append({
            "section": "remainder", "epsilon": eps, "n_particles": n, "replica": r,
            "sup_r1": float(np.abs(r1).max()),
            "mean_abs_r2": float(np.abs(r2).mean()),
            "identity_residue": float(np.abs(residue).max()),
        })
    return rows


def _moment_cell(args):
    """Field moment metrics along one trajectory of the N * eps^8 = 1 ladder.

    Ensembles are evolved in replica blocks of 4 and the fields of each block
    are estimated at the steps {0, n // 2, n} only, so the largest cells never
    materialise particle paths.  A row's t is the time of its own step.
    """
    cfg, n, eps, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=n, gamma=cfg.gamma, sigma=cfg.sigma,
                         t_horizon=cfg.moment_t_horizon, dt=cfg.dt, burn_in=0.0)
    geometry = TorusGeometry.for_epsilon(eps)
    kern = make_kernel(eps, geometry)
    n_steps = step_index(cfg.moment_t_horizon, cfg.dt, "moment_t_horizon")
    snap_steps = {s: s * cfg.moment_t_horizon / n_steps
                  for s in (0, n_steps // 2, n_steps)}
    rows = []
    for lo, _hi, _rng, steps in replica_steps(params, w, n_replicas=cfg.moment_replicas,
                                               seed=seed, replica_block=4):
        for s, ((q, p),), _xi, _trig in steps:
            if s not in snap_steps:
                continue
            rho_v = weighted_field_values(q, np.ones_like(q), kern, geometry, deriv=0)
            j_v = weighted_field_values(q, p, kern, geometry, deriv=0)
            j2_v = weighted_field_values(q, p ** 2, kern, geometry, deriv=1)
            h1_rho = sobolev_norms(np.fft.rfft(rho_v) / geometry.n_grid, k=1).tolist()
            l2_j = sobolev_norms(np.fft.rfft(j_v) / geometry.n_grid).tolist()
            l2_j2 = sobolev_norms(np.fft.rfft(j2_v) / geometry.n_grid).tolist()
            for r in range(len(q)):
                rows.append({
                    "section": "moment", "epsilon": eps, "n_particles": n,
                    "replica": lo + r, "t": snap_steps[s],
                    "h1_rho_sq": h1_rho[r] ** 2,
                    "l2_j_sq": l2_j[r] ** 2,
                    "l2_j2_sq": l2_j2[r] ** 2,
                    "lc2": float(np.mean(p[r] ** 2)),
                    "lc4": float(np.mean(p[r] ** 4)),
                })
    return rows


def run_interaction_study(cfg: InteractionStudyConfig, seed: int | None = None,
                          jobs: int = 1) -> StudyReport:
    w = potential_from_config(cfg.potential)
    rem_ladder = _ladder(cfg, "eps_ladder", cfg.theta)
    mom_ladder = _ladder(cfg, "moment_eps_ladder", cfg.moment_theta)
    seeds = _child_seeds(seed, len(rem_ladder) + len(mom_ladder))
    cells = [(_interaction_cell, (cfg, n, eps, s)) for (n, eps), s in zip(rem_ladder, seeds)]
    cells += [(_moment_cell, (cfg, n, eps, s))
              for (n, eps), s in zip(mom_ladder, seeds[len(rem_ladder):])]
    results = _map_ordered(_call, cells, jobs)
    rem, mom = results[:len(rem_ladder)], results[len(rem_ladder):]
    rows = [r for cell in results for r in cell]

    checks, slopes, details = {}, {}, {}
    worst_residue = max((r["identity_residue"] for cell in rem for r in cell), default=0.0)
    checks["identity_closes"] = worst_residue <= 1e-12
    details["worst_identity_residue"] = worst_residue
    if w.is_zero:
        checks["degenerate_zero_remainders"] = all(
            r["sup_r1"] == 0.0 and r["mean_abs_r2"] == 0.0 for cell in rem for r in cell)
    else:
        eps_vals = [eps for _n, eps in rem_ladder]
        fit_r1, fit_r2 = (fit_loglog(eps_vals, [np.mean([r[key] for r in cell]) for cell in rem])
                          for key in ("sup_r1", "mean_abs_r2"))
        slopes["sup_r1_vs_eps"] = _slope_entry(fit_r1)
        slopes["mean_r2_vs_eps"] = _slope_entry(fit_r2)
        checks["r1_slope"] = slope_within(fit_r1, lo=_REMAINDER_SLOPE_MIN)
        checks["r2_slope"] = slope_within(fit_r2, lo=_REMAINDER_SLOPE_MIN)

    if mom:
        metrics = {"h1_rho_sq": [], "l2_j_sq": [], "l2_j2_sq": []}
        for sel in mom:
            times = sorted({r["t"] for r in sel})
            for key in metrics:  # the worst snapshot of the cell
                metrics[key].append(max(np.mean([r[key] for r in sel if r["t"] == t])
                                        for t in times))
        for key, vals in metrics.items():
            fit = fit_loglog([1.0 / eps for _n, eps in mom_ladder], vals)
            slopes[f"{key}_vs_inv_eps"] = _slope_entry(fit)
            checks[f"{key}_bounded"] = slope_within(fit, hi=0.05)
        details["moment_tables"] = {key: [float(v) for v in vals]
                                    for key, vals in metrics.items()}
    return StudyReport(rows, slopes, checks, details)


# ---------------------------------------------------------------------------
# covariance of the particle noise field vs its density-driven surrogate
_ENVELOPE_EXPONENT = 0.2


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
    potential: object = "cos"
    replica_block: int = 100

    def __post_init__(self):
        _at_least(self, eps_ladder=1, n_replicas=1000, separations=1, replica_block=1)
        _ladder(self, "eps_ladder", self.theta)


def _pair_exp(kappa: float, x_eval: np.ndarray, cos_q: np.ndarray,
              sin_q: np.ndarray, out: tuple[np.ndarray, np.ndarray]):
    """For each evaluation point x_a in turn, the slab
    e[..., j] = exp(kappa * (cos(x_a - q[..., j]) - 1)), built in place.

    For the kernel of concentration kappa and normalisation z_eps, e / z_eps
    is the kernel at x_a - q and (e / z_eps)**2 its square; e**2 / z_half is
    the kernel of concentration 2 kappa (width eps / sqrt 2, normalisation
    z_half) at the same separations.  cos(x_a - q) comes by angle addition
    from per-particle cos_q = cos q, sin_q = sin q and per-point cos x_a,
    sin x_a.  out is two arrays of q's shape: every slab is the first, which
    the next slab overwrites, and the second is scratch.
    """
    e, scratch = out
    for kc_a, ks_a in zip(kappa * np.cos(x_eval), kappa * np.sin(x_eval)):
        np.multiply(kc_a, cos_q, out=e)
        e += np.multiply(ks_a, sin_q, out=scratch)
        e -= kappa
        yield np.exp(e, out=e)


def _point_increment_factor(scales: QWienerScales, idx: np.ndarray) -> np.ndarray:
    """F, shape (M, A) for the M distinct grid nodes of idx: the Q-Wiener
    increment at idx from M normals per row instead of 2 band + 1.

    The synthesis scales.increments(z) read at idx is linear in the normals
    z, so it is z @ B for the (2 band + 1, A) matrix
    B = scales.increments(I)[:, idx], whose rows are the synthesis of each
    unit vector.  F has F^T F = B^T B, so g @ F for M standard normals g is a
    centred Gaussian vector with the covariance, and so the law, of z @ B
    (Lord, Powell & Shardlow, An Introduction to Computational Stochastic
    PDEs, CUP 2014, ch. 10).  F is the R factor of B over the distinct
    nodes, which needs no definite B^T B, and a repeated node takes its
    column again, so equal nodes get equal values.
    """
    nodes, inverse = np.unique(idx, return_inverse=True)
    b = scales.increments(np.eye(2 * len(scales.modes) + 1))[:, nodes]
    return np.linalg.qr(b, mode="r")[:, inverse]


def _covariance_cell(args):
    """Accumulate Z (kernel-weighted particle noise) and Y (density surrogate).

    Z uses exactly the increments that drive the momenta; Y draws an
    independent Q-Wiener increment per step from the block's generator,
    between the particle increments and the step, and scales it by the square
    root of the empirical density at bandwidth eps / sqrt(2), per the
    surrogate's definition.  Both are tracked at the evaluation points only,
    so the increment is drawn there only: one normal per row and distinct
    node, mapped through `_point_increment_factor`, which has the law of the
    full-grid synthesis read at those nodes.
    """
    cfg, n, eps, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=n, gamma=cfg.gamma, sigma=cfg.sigma,
                         t_horizon=cfg.t_horizon, dt=cfg.dt, burn_in=0.0)
    geometry = TorusGeometry.for_epsilon(eps / math.sqrt(2.0))
    kern = make_kernel(eps, geometry)
    z_half = normalization_constant(eps / math.sqrt(2.0), geometry.n_grid)
    kern_double = make_kernel(math.sqrt(2.0) * eps, geometry)
    idx = np.array([int(round(s / geometry.spacing)) for s in cfg.separations])
    x_eval = idx * geometry.spacing
    sqdt = math.sqrt(cfg.dt)
    band = geometry.n_modes - 1
    scales = q_wiener_scales(kern_double.fourier_coeffs, geometry, cfg.dt, band)
    factor = _point_increment_factor(scales, idx)

    main_steps = step_index(cfg.t_horizon, cfg.dt, "t_horizon")
    sums = {k: np.zeros(len(idx)) for k in ("pz", "pz2", "py", "py2", "z2", "iso")}
    slab = None
    for lo, hi, rng, steps in replica_steps(params, w, n_replicas=cfg.n_replicas,
                                            seed=seed, replica_block=cfg.replica_block):
        z, y, iso = (np.zeros((hi - lo, len(idx))) for _ in range(3))
        if slab is None or slab[0].shape != (hi - lo, n):  # once per block shape
            slab = (np.empty((hi - lo, n)), np.empty((hi - lo, n)))
        # the increments of steps 0 ... main_steps - 1 are all Z and Y read,
        # so the block stops before the step to main_steps
        for _s, ((q, _p),), xi, trig in islice(steps, main_steps):
            dw = xi * sqdt
            dz, e2_sum = np.empty((2, len(idx), hi - lo))  # (A, rows) each
            # the step's own cos q, sin q, which its pairwise force reads too
            for a, e in enumerate(_pair_exp(kern.kappa, x_eval, *(trig or cos_sin(q)),
                                            slab)):
                np.einsum("bn,bn->b", e, dw, out=dz[a])
                e *= e  # the kernel at concentration 2 kappa, up to z_half
                e.sum(axis=-1, out=e2_sum[a])
            z += (cfg.sigma / (n * kern.z_eps)) * dz.T
            iso += (cfg.sigma / (n * kern.z_eps)) ** 2 * cfg.dt * e2_sum.T
            rho_half = e2_sum.T / (n * z_half)
            # the block's one generator draws these normals after the step's xi;
            # normals @ factor is summed in a fixed order, so no BLAS build moves
            # its bits
            normals = rng.standard_normal((hi - lo, len(factor)))
            dwq = normals[:, :1] * factor[0]
            for g_m, f_m in zip(normals.T[1:], factor[1:]):
                dwq += g_m[:, None] * f_m
            y += (cfg.sigma / math.sqrt(n)) * np.sqrt(rho_half) * dwq
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
    ladder = _ladder(cfg, "eps_ladder", cfg.theta)
    seeds = _child_seeds(seed, len(ladder))
    cells = [(cfg, n, eps, s) for (n, eps), s in zip(ladder, seeds)]
    results = _map_ordered(_covariance_cell, cells, jobs)
    rows = [r for cell_rows, _iso in results for r in cell_rows]

    checks, details = {}, {"isometry": {}}
    if cfg.sigma == 0.0:
        checks["degenerate_zero_covariance"] = all(
            r["cov_z"] == 0.0 and r["cov_y"] == 0.0 for r in rows)
        return StudyReport(rows, {}, checks, details)

    for (n, eps), (_r, (iso_lhs, iso_rhs)) in zip(ladder, results):
        rel = abs(iso_lhs - iso_rhs) / iso_rhs
        details["isometry"][f"{eps:.6g}"] = {"mc_lhs": iso_lhs, "running_rhs": iso_rhs,
                                             "rel_diff": rel}
        checks[f"isometry_eps_{eps:.6g}"] = rel <= 0.05

    # envelope constant fitted on the coarsest epsilon, then applied down-ladder
    by_eps = sorted(((eps, cell_rows) for (_n, eps), (cell_rows, _iso) in zip(ladder, results)),
                    key=lambda cell: -cell[0])
    eps0, coarse = by_eps[0]
    env = [r["separation"] + eps0 ** _ENVELOPE_EXPONENT for r in coarse]
    c_fit = max(r["disc_hat"] / e for r, e in zip(coarse, env))
    details["envelope_constant"] = c_fit
    for eps, cell_rows in by_eps[1:]:
        ok = all(r["disc_hat"] <= c_fit * (r["separation"] + eps ** _ENVELOPE_EXPONENT)
                 + r["band_hat"] for r in cell_rows)
        checks[f"envelope_eps_{eps:.6g}"] = ok
    for (hi, rows_hi), (lo, rows_lo) in zip(by_eps, by_eps[1:]):
        ok = all(rl["disc_hat"] <= rh["disc_hat"] + rh["band_hat"] + rl["band_hat"]
                 for rh, rl in zip(rows_hi, rows_lo))
        checks[f"monotone_{hi:.6g}_to_{lo:.6g}"] = ok

    return StudyReport(rows, {}, checks, details)


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

    def __post_init__(self):
        _at_least(self, m2_ladder=2, n_particles=1, n_replicas=1, n_snapshots=1)


def _j2_cell(args):
    cfg, m2, seed = args
    sigma = math.sqrt(2.0 * cfg.gamma * m2)
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=cfg.n_particles, gamma=cfg.gamma, sigma=sigma,
                         t_horizon=cfg.t_horizon, dt=cfg.dt, burn_in=cfg.burn_in)
    snap = np.linspace(cfg.t_horizon / cfg.n_snapshots, cfg.t_horizon, cfg.n_snapshots)
    q_snaps, p_snaps = simulate_interacting(params, w, n_replicas=cfg.n_replicas,
                                            snapshot_times=snap, seed=seed)
    geometry = TorusGeometry.for_epsilon(cfg.epsilon)
    kern = make_kernel(cfg.epsilon, geometry)
    rel_per_replica = np.zeros(cfg.n_replicas)
    rows = []
    for t, q, p in zip(snap, q_snaps, p_snaps):
        drho = weighted_field_values(q, np.ones_like(q), kern, geometry, deriv=1)
        j2 = weighted_field_values(q, p ** 2, kern, geometry, deriv=1)
        resid = j2 - m2 * drho
        h = geometry.spacing
        rel = np.sqrt((resid ** 2).sum(axis=-1) * h) / np.sqrt((drho ** 2).sum(axis=-1) * h)
        rel_per_replica += rel / len(snap)
        rows.append({"m2": m2, "t": float(t), "rel_error": float(rel.mean())})
    mean, se = _mean_se(rel_per_replica)
    return rows, (mean, se)


def run_j2_closure_study(cfg: J2ClosureConfig, seed: int | None = None,
                         jobs: int = 1) -> StudyReport:
    seeds = _child_seeds(seed, len(cfg.m2_ladder))
    cells = [(cfg, float(m2), s) for m2, s in zip(cfg.m2_ladder, seeds)]
    results = _map_ordered(_j2_cell, cells, jobs)
    rows = [r for cell_rows, _ in results for r in cell_rows]
    means, ses = zip(*(mean_se for _rows, mean_se in results))
    checks = {}
    for i in range(len(means) - 1):
        lo_t, hi_t = cfg.m2_ladder[i + 1], cfg.m2_ladder[i]
        checks[f"nonincreasing_{hi_t}_to_{lo_t}"] = (
            means[i + 1] <= means[i] + 2.0 * (ses[i] + ses[i + 1]))
    details = {"time_averaged_rel_error": {str(m2): {"mean": m, "se": s}
                                           for m2, m, s in zip(cfg.m2_ladder, means, ses)}}
    return StudyReport(rows, {}, checks, details)


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
    potential: object = "cos"

    def __post_init__(self):
        _at_least(self, n_ladder=2, n_grid=4, n_replicas=1)

    def spde_config(self, n_particles: float, sigma: float | None = None) -> SpdeConfig:
        return SpdeConfig(n_grid=self.n_grid, epsilon=self.epsilon, gamma=self.gamma,
                          sigma=self.sigma if sigma is None else sigma,
                          n_particles=n_particles, dt=self.dt,
                          t_horizon=self.t_horizon, delta=self.delta, c1=self.c1,
                          k_norm=self.k_norm, c2=self.c2)


def _sup_deviation(args) -> tuple[np.ndarray, list]:
    """max over steps of |X - X_ref|_{H1 x H1} of every noisy row of one block.

    A block (spde_cfgs, w, seeds, refs) is one `solve_replicas` batch.
    refs[r] is the row of row r's noise-free reference within the block, or
    -1 when row r is itself a reference.  After every step the H1 norms of
    each noisy row's rho_hat and j_hat minus its reference row's come from
    the coefficients by Parseval, with no grid values, and only the running
    maximum is kept.  Also returns the noisy rows' stopping statuses; both
    lists follow the block's row order.
    """
    spde_cfgs, w, seeds, refs = args
    refs = np.asarray(refs)
    noisy = np.flatnonzero(refs >= 0)
    ref_rows = refs[noisy]
    worst = np.zeros(noisy.size)

    def accumulate(step, state):
        d_rho = sobolev_norms(state.rho_hat[noisy] - state.rho_hat[ref_rows], k=1)
        d_j = sobolev_norms(state.j_hat[noisy] - state.j_hat[ref_rows], k=1)
        np.maximum(worst, np.hypot(d_rho, d_j), out=worst)

    run = solve_replicas(spde_cfgs, w, seeds, observe=accumulate)
    return worst, [run.status[r] for r in noisy]


def _small_noise_ladder(cfg: SmallNoiseConfig, w, ladders, seeds,
                        jobs: int = 1) -> list[dict]:
    """Rows of every (sigma, N) cell of the (sigma, n_ladder) pairs in `ladders`.

    The noisy rows take `seeds` in order: cell by cell, replicas in seed
    order.  They are cut into at most `jobs` contiguous blocks, and each block
    runs as one `_sup_deviation` batch that carries its own copy of the
    noise-free reference row of every sigma it holds, placed before that
    sigma's first row.
    """
    cells = [(sigma, float(n_part), r) for sigma, n_ladder in ladders
             for n_part in n_ladder for r in range(cfg.n_replicas)]
    n_blocks = min(jobs, len(cells))
    bounds = [len(cells) * b // n_blocks for b in range(1, n_blocks + 1)]
    blocks = []
    for lo, hi in zip([0] + bounds, bounds):
        spde_cfgs, block_seeds, refs, ref_row = [], [], [], {}
        for (sigma, n_part, _), seed in zip(cells[lo:hi], seeds[lo:hi]):
            if sigma not in ref_row:
                ref_row[sigma] = len(spde_cfgs)
                spde_cfgs.append(cfg.spde_config(math.inf, sigma))
                block_seeds.append(None)
                refs.append(-1)
            spde_cfgs.append(cfg.spde_config(n_part, sigma))
            block_seeds.append(seed)
            refs.append(ref_row[sigma])
        blocks.append((spde_cfgs, w, block_seeds, refs))
    worst, status = [], []
    for block_worst, block_status in _map_ordered(_sup_deviation, blocks, jobs):
        worst += block_worst.tolist()
        status += block_status
    return [{"sigma": sigma, "n_particles": n_part, "replica": r,
             "sup_deviation": e, "stopped": int(st.stopped)}
            for (sigma, n_part, r), e, st in zip(cells, worst, status)]


def run_small_noise_study(cfg: SmallNoiseConfig, seed: int | None = None,
                          jobs: int = 1) -> StudyReport:
    w = potential_from_config(cfg.potential)
    n_primary = len(cfg.n_ladder) * cfg.n_replicas
    seeds = _child_seeds(seed, n_primary + cfg.n_replicas)
    ladders = [(cfg.sigma, cfg.n_ladder)]
    halving = cfg.sigma > 0
    if halving:
        ladders.append((cfg.sigma / 2, [cfg.n_ladder[-1]]))
    rows = _small_noise_ladder(cfg, w, ladders, seeds, jobs)

    checks, details = {}, {}
    # the primary cells' rows come first, cell by cell in ladder order
    cells = [rows[lo:lo + cfg.n_replicas] for lo in range(0, n_primary, cfg.n_replicas)]
    errs = [float(np.mean([r["sup_deviation"] for r in sel])) for sel in cells]
    stops = [float(np.mean([1 - r["stopped"] for r in sel])) for sel in cells]
    details["mean_sup_deviation"] = {str(n): e for n, e in zip(cfg.n_ladder, errs)}
    details["no_stop_probability"] = {str(n): s for n, s in zip(cfg.n_ladder, stops)}
    checks["error_strictly_decreasing"] = all(b < a for a, b in zip(errs, errs[1:]))
    checks["no_stop_nondecreasing"] = all(b >= a for a, b in zip(stops, stops[1:]))
    checks["no_stop_at_largest"] = stops[-1] >= 0.95

    if halving:
        err_half = float(np.mean([r["sup_deviation"] for r in rows[n_primary:]]))
        factor = errs[-1] / err_half if err_half > 0 else math.inf
        details["sigma_halving_factor"] = factor
        checks["sigma_halving_in_window"] = 1.4 <= factor <= 4.0

    return StudyReport(rows, {}, checks, details)


# ---------------------------------------------------------------------------
# kernel-vs-identity approximation on Lipschitz test functions


@dataclass
class MollifierConfig:
    eps_ladder: tuple = (0.4, 0.2, 0.1, 0.05)
    n_anchors: int = 17
    n_quad: int = 1 << 14

    def __post_init__(self):
        _at_least(self, eps_ladder=2, n_anchors=1, n_quad=1)


def _triangle(y: np.ndarray) -> np.ndarray:
    return np.abs(wrap_centered(y))


def _mollifier_cell(args):
    """Max smoothing error of each Lipschitz test function at one width."""
    cfg, eps = args
    anchors = np.linspace(0.0, TWO_PI, cfg.n_anchors, endpoint=False)
    y = np.linspace(-math.pi, math.pi, cfg.n_quad, endpoint=False)
    h = TWO_PI / cfg.n_quad
    kern = make_kernel(eps, TorusGeometry.for_epsilon(eps, oversample=2))
    kv = von_mises_eval(kern, y)
    rows = []
    for name, (f, lip) in {"cos": (np.cos, 1.0), "triangle": (_triangle, 1.0)}.items():
        vals = f(anchors[:, None] + y[None, :])
        err = float(np.abs(vals @ kv * h - f(anchors)).max())
        rows.append({"epsilon": eps, "function": name, "lipschitz": lip,
                     "max_error": err,
                     "bound": 2.0 * lip * math.sqrt(eps)})
    return rows


def run_mollifier_study(cfg: MollifierConfig, seed: int | None = None,
                        jobs: int = 1) -> StudyReport:
    cells = [(cfg, eps) for eps in cfg.eps_ladder]
    rows = [r for cell in _map_ordered(_mollifier_cell, cells, jobs) for r in cell]
    checks = {"bound_every_point": all(r["max_error"] <= r["bound"] for r in rows)}
    fit = fit_loglog(cfg.eps_ladder,
                     [r["max_error"] for r in rows if r["function"] == "triangle"])
    slopes = {"triangle_error_vs_eps": _slope_entry(fit)}
    checks["triangle_slope"] = slope_within(fit, lo=0.45)
    return StudyReport(rows, slopes, checks, {})


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

    def __post_init__(self):
        _at_least(self, dt_ladder=3, n_particles=1, n_replicas=1)
        for dt in self.dt_ladder:
            step_index(self.t_horizon, dt, "t_horizon")


def _identity_residuals(args):
    """Max-over-steps L2 residuals of the three discrete field identities."""
    cfg, dt, seed = args
    w = potential_from_config(cfg.potential)
    params = ModelParams(n_particles=cfg.n_particles, gamma=cfg.gamma,
                         sigma=cfg.sigma, t_horizon=cfg.t_horizon, dt=dt,
                         burn_in=0.0)
    geometry = TorusGeometry.for_epsilon(cfg.epsilon)
    kern = make_kernel(cfg.epsilon, geometry)
    h = geometry.spacing

    def l2(vals):
        return float(np.sqrt((vals ** 2).sum(axis=-1) * h).max())

    res = [0.0, 0.0, 0.0]
    for _lo, _hi, _rng, steps in replica_steps(params, w, n_replicas=cfg.n_replicas,
                                               seed=seed):
        for s, ((q, p),), xi, trig in steps:
            ones = np.ones_like(q)
            rho = weighted_field_values(q, ones, kern, geometry, 0)
            jf = weighted_field_values(q, p, kern, geometry, 0)
            j2f = weighted_field_values(q, p ** 2, kern, geometry, 1)
            if s > 0:  # each field's change over the step just taken
                for k, (now, (before, rhs)) in enumerate(zip((rho, jf, j2f), carried)):
                    res[k] = max(res[k], l2((now - before) - rhs))
            if xi is None:
                continue
            # density identity: transport by the momentum field
            rhs_a = -dt * weighted_field_values(q, p, kern, geometry, 1)
            # momentum identity: flux + friction + interaction + noise
            force = pairwise_force(q, w, trig)
            inter = weighted_field_values(q, -force, kern, geometry, 0)
            noise = cfg.sigma * weighted_field_values(q, xi * math.sqrt(dt), kern,
                                                      geometry, 0)
            rhs_b = dt * (-j2f - cfg.gamma * jf - inter) + noise
            # flux identity (informational): next moment up the ladder
            j3f = weighted_field_values(q, p ** 3, kern, geometry, 2)
            drho = weighted_field_values(q, ones, kern, geometry, 1)
            cross = weighted_field_values(q, force * p, kern, geometry, 1)
            noise_c = 2.0 * cfg.sigma * weighted_field_values(
                q, p * xi * math.sqrt(dt), kern, geometry, 1)
            rhs_c = dt * (-j3f - 2.0 * cfg.gamma * j2f + cfg.sigma ** 2 * drho
                          + 2.0 * cross) + noise_c
            # to step s+1, so that each state's fields are estimated once
            carried = ((rho, rhs_a), (jf, rhs_b), (j2f, rhs_c))
    return tuple(res)


def run_evolution_identity_check(cfg: EvolutionIdentityConfig,
                                 seed: int | None = None,
                                 jobs: int = 1) -> StudyReport:
    seeds = _child_seeds(seed, len(cfg.dt_ladder))
    cells = [(cfg, float(dt), s) for dt, s in zip(cfg.dt_ladder, seeds)]
    rows = [{"dt": dt, "res_density": ra, "res_momentum": rb, "res_flux": rc}
            for (_cfg, dt, _s), (ra, rb, rc)
            in zip(cells, _map_ordered(_identity_residuals, cells, jobs))]
    if all(r["res_density"] == 0.0 and r["res_momentum"] == 0.0
           and r["res_flux"] == 0.0 for r in rows):
        checks = {"static_residuals_zero": True}
        return StudyReport(rows, {}, checks, {"note": "all residuals vanish identically"})
    dts = [r["dt"] for r in rows]
    fit_a, fit_b, fit_c = (fit_loglog(dts, [r[key] for r in rows])
                           for key in ("res_density", "res_momentum", "res_flux"))
    slopes = {"density_order": _slope_entry(fit_a),
              "momentum_order": _slope_entry(fit_b),
              "flux_order": _slope_entry(fit_c)}
    checks = {"density_order": slope_within(fit_a, lo=1.0),
              "momentum_order": slope_within(fit_b, lo=0.5)}
    return StudyReport(rows, slopes, checks, {})


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
STUDY_NAMES = tuple(STUDY_REGISTRY)
