"""Pseudo-spectral mild-solution integrator for the density/momentum system.

The state X = (rho, j) lives in rfft coefficient space on a torus of period
2*pi.  Mode k of the linear part evolves by

    d/dt (rho_k, j_k) = A_k (rho_k, j_k),
    A_k = [[0, -i k], [-i k csq, -gamma]],   csq = sigma^2 / (2 gamma),

which is applied exactly through the closed-form matrix exponential, or its
gap -> 0 limit where the two eigenvalues collide.  The
interaction drift and the multiplicative noise enter through one exponential
Euler-Maruyama step per dt:

    X_{n+1} = exp(dt A) [X_n + dt alpha(X_n) + B(X_n) dW_n],

with alpha(X) = (0, -(W' * rho) rho) evaluated pseudo-spectrally under the
2/3 dealiasing rule and B(X) dW = (0, amp * h_delta(rho) dW).  dW is a
Q-Wiener increment whose spatial covariance is the von Mises kernel at
bandwidth sqrt(2) * epsilon, and amp = sigma / sqrt(n_particles) vanishes
when n_particles is infinite.

Both drift and noise leave the density component of the pre-propagator state
untouched, and the k = 0 row of the propagator is pinned to the identity, so
the total mass coefficient is carried through every step bit for bit.

The solver freezes once the H1 x H1 norm reaches k_norm or the minimum of
rho reaches the floor delta; the stopping status records which guard fired.

There is one time loop, `solve_replicas`, and it steps R replica rows
together.  Rows share every config field but sigma and n_particles, so one
batch can hold noisy rows of several (sigma, N) cells next to their
noise-free references.  States carry coefficient arrays of shape
(..., n_modes), so every per-mode operation and FFT runs along the last axis
of an (R, n_modes) batch.  A per-replica freeze mask applies the stopping
rules: a frozen row keeps its coefficients, draws no further noise and is no
longer stepped, so only the active rows are checked for finiteness.  Each
step takes one irfft of rho; its grid values serve the density-floor check
after the step and then the next step's drift and h_delta, while the
H1 x H1 norm comes from the coefficients by Parseval.  A noisy row r draws
its increments from its own Generator seeded with seeds[r]; a noise-free row
(zero amplitude, e.g. n_particles = inf) draws nothing and takes no forcing
at all.  Either way a row has the bits of a single run of its own config.
`solve_spde` is the R = 1 caller that records snapshots.

What a step reads that is fixed for the run is built once per
`solve_replicas` call, before the loop: the propagator bank (one per
distinct csq, gathered into one (R, n_modes) entry per row), the `StepPlan`
(dealiasing band, the noisy rows' amplitudes as a column and the W'
multiplier, None for a zero potential) and the `QWienerScales` of the
increments, their eigenvalue check included.  Bank and plan are cut down to
the active rows only when a row freezes.  The Sobolev weights behind the
norm are memoised per (n_modes, k) in `fields`.  Each per-step operation
then runs once over the whole (R, n) batch.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .fields import convolve_potential, sobolev_norms
from .potential import PotentialSpec
from .torus import TWO_PI, TorusGeometry, make_kernel, step_index

PROPAGATOR_GAP_TOL = 1e-8
MASS_IMAG_TOL = 1e-14


class DivergenceError(RuntimeError):
    """A step produced a non-finite coefficient."""


@dataclass
class SpectralState:
    """rfft-layout coefficients of (rho, j) plus the clock.

    rho_hat and j_hat have shape (..., n_modes): one state, or a batch of
    replicas stacked along the leading axes, all at time t.
    """

    geometry: TorusGeometry
    rho_hat: np.ndarray
    j_hat: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho_hat = np.asarray(self.rho_hat, dtype=complex)
        self.j_hat = np.asarray(self.j_hat, dtype=complex)
        if self.rho_hat.shape[-1:] != (self.geometry.n_modes,):
            raise ValueError("rho_hat has the wrong mode count")
        if self.j_hat.shape != self.rho_hat.shape:
            raise ValueError("j_hat does not match the shape of rho_hat")

    @classmethod
    def from_values(cls, geometry: TorusGeometry, rho_values, j_values, t: float = 0.0,
                    band: int | None = None) -> "SpectralState":
        n = geometry.n_grid
        rho_hat = np.fft.rfft(np.asarray(rho_values, dtype=float)) / n
        j_hat = np.fft.rfft(np.asarray(j_values, dtype=float)) / n
        if band is not None:
            rho_hat[..., band + 1:] = 0.0
            j_hat[..., band + 1:] = 0.0
        return cls(geometry, rho_hat, j_hat, t)

    def rho_values(self) -> np.ndarray:
        n = self.geometry.n_grid
        return np.fft.irfft(self.rho_hat * n, n=n)

    def j_values(self) -> np.ndarray:
        n = self.geometry.n_grid
        return np.fft.irfft(self.j_hat * n, n=n)

    def norm_h1(self) -> float | np.ndarray:
        """sqrt(|rho|_{H1}^2 + |j|_{H1}^2) by Parseval; an array for a batch."""
        norm = np.hypot(sobolev_norms(self.rho_hat, k=1), sobolev_norms(self.j_hat, k=1))
        return float(norm) if norm.ndim == 0 else norm

    def min_rho(self) -> float | np.ndarray:
        """Grid minimum of rho; an array for a batch."""
        low = self.rho_values().min(axis=-1)
        return float(low) if low.ndim == 0 else low


def total_mass(state: SpectralState) -> float:
    """Integral of rho over the torus, with a reality check on the DC mode."""
    dc = state.rho_hat[0]
    if abs(dc.imag) > MASS_IMAG_TOL:
        raise ValueError(f"mass coefficient has imaginary part {dc.imag:.3e}")
    return float(TWO_PI * dc.real)


def mode_energy(state: SpectralState, csq: float) -> np.ndarray:
    """Per-mode energy csq |rho_k|^2 + |j_k|^2, non-increasing under A_k."""
    return csq * np.abs(state.rho_hat) ** 2 + np.abs(state.j_hat) ** 2


@dataclass(frozen=True)
class SpdeConfig:
    """Discretisation, model and stopping parameters of one run.

    n_particles scales the noise as sigma / sqrt(n_particles); math.inf
    switches the noise off entirely.  delta is the density floor used both by
    the noise regularisation h_delta and the stopping rule, c1 the datum
    margin the floor must stay below, k_norm the hard norm cap of the stopped
    process and c2 the smaller norm the noise-free solution must not exceed.
    """

    n_grid: int
    epsilon: float
    gamma: float = 1.0
    sigma: float = 1.0
    n_particles: float = math.inf
    dt: float = 1e-3
    t_horizon: float = 1.0
    delta: float = 0.02
    c1: float = 0.05
    k_norm: float = 5.0
    c2: float | None = None

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (self.n_particles >= 1):
            raise ValueError("n_particles must be >= 1 (math.inf for no noise)")
        if self.dt <= 0 or self.t_horizon <= 0:
            raise ValueError("dt and t_horizon must be positive")
        if not 0 < self.delta < self.c1:
            raise ValueError(
                f"stopping ordering requires 0 < delta < c1; got delta = "
                f"{self.delta}, c1 = {self.c1}")
        if self.k_norm <= 0:
            raise ValueError("k_norm must be positive")
        if self.c2 is None:
            object.__setattr__(self, "c2", self.k_norm / 2.0)
        if not 0 < self.c2 < self.k_norm:
            raise ValueError(
                f"stopping ordering requires 0 < c2 < k_norm; got c2 = "
                f"{self.c2}, k_norm = {self.k_norm}")
        self.geometry.require_admissible(self.epsilon)

    @property
    def geometry(self) -> TorusGeometry:
        return TorusGeometry(self.n_grid)

    @property
    def csq(self) -> float:
        """Squared wave speed sigma^2 / (2 gamma) of the linearised system."""
        return self.sigma ** 2 / (2.0 * self.gamma)

    @property
    def dealias_band(self) -> int:
        """Largest retained wavenumber under the 2/3 rule."""
        return self.n_grid // 3

    @property
    def noise_amplitude(self) -> float:
        if math.isinf(self.n_particles):
            return 0.0
        return self.sigma / math.sqrt(self.n_particles)


@dataclass(frozen=True)
class StoppingStatus:
    stopped: bool = False
    reason: str | None = None  # "norm_cap" or "density_floor"
    time: float | None = None


@dataclass
class PropagatorBank:
    """exp(dt A_k) for every retained mode, stored entrywise.

    Each entry has shape (n_modes,), or (R, n_modes) with one bank per row.
    """

    dt: float
    m00: np.ndarray
    m01: np.ndarray
    m10: np.ndarray
    m11: np.ndarray

    def take(self, rows: np.ndarray) -> "PropagatorBank":
        """The per-row bank of the given rows."""
        return PropagatorBank(self.dt, self.m00[rows], self.m01[rows],
                              self.m10[rows], self.m11[rows])


def build_propagator_bank(geometry: TorusGeometry, gamma: float, csq: float,
                          dt: float) -> PropagatorBank:
    """Closed-form exp(dt A_k) over the rfft band, exact mass row at k = 0.

    Eigenvalues are (-gamma +- sqrt(gamma^2 - 4 k^2 csq)) / 2.  The spectral
    projector formula breaks down when the two collide, so modes whose gap
    sits below PROPAGATOR_GAP_TOL take its gap -> 0 limit,
    exp(dt A) = e^{-gamma dt / 2} (I + dt (A + gamma / 2 I)).
    """
    k = np.arange(geometry.n_modes, dtype=float)
    disc = gamma ** 2 - 4.0 * k ** 2 * csq
    gap = np.sqrt(disc.astype(complex))
    lam_p = (-gamma + gap) / 2.0
    lam_m = (-gamma - gap) / 2.0
    e_p = np.exp(dt * lam_p)
    e_m = np.exp(dt * lam_m)
    safe = np.abs(gap) >= PROPAGATOR_GAP_TOL
    denom = np.where(safe, gap, 1.0)
    e_c = math.exp(-gamma * dt / 2.0)
    m00 = np.where(safe, (-e_p * lam_m + e_m * lam_p) / denom, e_c * (1.0 + dt * gamma / 2.0))
    m01 = np.where(safe, (e_p - e_m) * (-1j * k) / denom, e_c * dt * (-1j * k))
    m10 = np.where(safe, (e_p - e_m) * (-1j * k * csq) / denom, e_c * dt * (-1j * k * csq))
    m11 = np.where(safe, (e_p * (-gamma - lam_m) + e_m * (lam_p + gamma)) / denom,
                   e_c * (1.0 - dt * gamma / 2.0))
    # Pin the mass row so rho_hat[0] is carried through bit for bit.
    m00[0] = 1.0
    m01[0] = 0.0
    m10[0] = 0.0
    m11[0] = np.exp(-gamma * dt)
    return PropagatorBank(dt, m00, m01, m10, m11)


def h_delta(r: np.ndarray, delta: float) -> np.ndarray:
    """C^2, strictly positive square-root surrogate.

    Equals sqrt(r) for r >= delta; below the floor it follows
    sqrt(delta) * P(|r| / delta) with the quartic
    P(s) = 35/48 + (7/12) s^3 - (5/16) s^4, which matches value, first and
    second derivative of sqrt at r = delta, is even and flat at r = 0, and
    never drops below sqrt(delta) * 35/48.  The quartic is evaluated on the
    cells below the floor only; NaN cells stay NaN.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    r = np.asarray(r, dtype=float)
    out = np.maximum(r, delta, out=np.empty(r.shape))
    np.sqrt(out, out=out)
    low = r < delta
    s = np.minimum(np.abs(r[low]) / delta, 1.0)
    out[low] = math.sqrt(delta) * (35.0 / 48.0 + (7.0 / 12.0) * s ** 3 - (5.0 / 16.0) * s ** 4)
    return out


@dataclass(frozen=True)
class QWienerScales:
    """Standard deviations of the rfft modes 0..band of one Q-Wiener increment.

    Fixed by the eigenvalues, dt and band, so a run builds them once.  The
    only code that knows how the normals map onto the modes is `increments`.
    """

    dc: float
    modes: np.ndarray   # (band,) modes 1..band, read-only
    n_grid: int

    def increments(self, z: np.ndarray) -> np.ndarray:
        """Grid values (R, n_grid) of one increment per row of the normals z.

        z has shape (R, 2 band + 1): the DC mode, then the real parts of
        modes 1..band, then their imaginary parts.  Each row is synthesised
        by its own irfft, so a row has the bits of a one-row call.  The
        covariance study reads the increment at a few nodes only; it maps
        the rows of np.eye(2 band + 1) through this method in
        `studies._point_increment_factor`.
        """
        band = len(self.modes)
        coeffs = np.zeros((len(z), self.n_grid // 2 + 1), dtype=complex)
        coeffs[:, 0] = self.dc * z[:, 0]
        coeffs[:, 1: band + 1] = self.modes * (z[:, 1: band + 1] + 1j * z[:, band + 1:])
        return np.fft.irfft(coeffs * self.n_grid, n=self.n_grid)


def q_wiener_scales(lam: np.ndarray, geometry: TorusGeometry, dt: float,
                    band: int) -> QWienerScales:
    """Mode scales sqrt(lam_0 dt / 2 pi) and sqrt(lam_k dt / 4 pi), k = 1..band.

    lam[k] are the kernel Fourier coefficients (its eigenvalues); a negative
    one is rejected.
    """
    if band >= geometry.n_modes:
        raise ValueError("band exceeds the grid's mode count")
    lam = np.asarray(lam, dtype=float)[: band + 1]
    if lam.min() < 0:
        raise ValueError("covariance eigenvalues must be nonnegative")
    modes = np.sqrt(lam[1:] * dt / (2.0 * TWO_PI))
    modes.flags.writeable = False
    return QWienerScales(math.sqrt(lam[0] * dt / TWO_PI), modes, geometry.n_grid)


def q_wiener_increment(rng: np.random.Generator, lam: np.ndarray,
                       geometry: TorusGeometry, dt: float, band: int) -> np.ndarray:
    """Grid values of one Q-Wiener increment with covariance kernel dt * w.

    lam[k] are the kernel Fourier coefficients (its eigenvalues); modes above
    `band` are dropped.  The synthesised field satisfies
    E[dW(x) dW(y)] = dt * sum_{|k| <= band} lam_k e^{i k (x - y)} / (2 pi).
    """
    scales = q_wiener_scales(lam, geometry, dt, band)
    return scales.increments(rng.standard_normal((1, 2 * band + 1)))[0]


@dataclass(frozen=True)
class StepPlan:
    """What a step reads of (cfg, w) beyond the propagator bank.

    Fixed for a whole run, so `solve_replicas` builds it once.  w1_hat is the
    multiplier of f -> W' * f on modes 0..min(k_max, n_modes - 1), read-only,
    or None when W' is zero.  noisy lists the rows of a batch that take the
    noise, None meaning every row, and amplitude is one float for all of
    them or an (R_noisy, 1) column with one per noisy row.
    """

    band: int
    amplitude: float | np.ndarray
    w1_hat: np.ndarray | None
    noisy: np.ndarray | None = None


def step_plan(cfg: SpdeConfig, w: PotentialSpec) -> StepPlan:
    w1_hat = None
    if not w.is_zero:
        kmax = min(w.k_max, cfg.geometry.n_modes - 1)
        w1_hat = w.conv_multiplier(kmax + 1, derivative=1)
        w1_hat.flags.writeable = False
    return StepPlan(cfg.dealias_band, cfg.noise_amplitude, w1_hat)


def _rows_plan(plan: StepPlan, amplitudes: np.ndarray) -> StepPlan:
    """plan for a batch of rows with the given noise amplitudes.

    Only the rows of positive amplitude take the noise.
    """
    noisy = np.flatnonzero(amplitudes > 0.0)
    return replace(plan, amplitude=amplitudes[noisy, None],
                   noisy=None if noisy.size == amplitudes.size else noisy)


def nonlinear_drift(state: SpectralState, plan: StepPlan,
                    rho_values: np.ndarray) -> np.ndarray:
    """Coefficients of the momentum drift -(W' * rho) rho, dealiased.

    rho_values must be state.rho_values().
    """
    n = state.geometry.n_grid
    if plan.w1_hat is None:
        return np.zeros(state.rho_hat.shape, dtype=complex)
    kept = len(plan.w1_hat)
    conv_hat = np.zeros(state.rho_hat.shape, dtype=complex)
    conv_hat[..., :kept] = state.rho_hat[..., :kept] * plan.w1_hat
    conv_vals = np.fft.irfft(conv_hat * n, n=n)
    drift_hat = np.fft.rfft(-conv_vals * rho_values) / n
    drift_hat[..., plan.band + 1:] = 0.0
    return drift_hat


def step_mild(state: SpectralState, cfg: SpdeConfig, bank: PropagatorBank,
              w: PotentialSpec, dw_values: np.ndarray | None,
              rho_values: np.ndarray | None = None,
              plan: StepPlan | None = None) -> SpectralState:
    """One exponential Euler-Maruyama step; dw_values None means no noise.

    Works on every row of a batch; dw_values holds one increment per row of
    plan.noisy (every row when it is None) or one shared by all.  The other
    rows take no forcing at all, not even a zero one.  rho_values, when
    given, must be state.rho_values(), and plan, when given, step_plan(cfg, w)
    or a plan of the batch's rows.  The drift and noise act on the momentum
    component only, so the pre-propagator density coefficients are literally
    state.rho_hat, and the pinned mass row keeps rho_hat[..., 0] unchanged to
    the last bit.
    """
    n = state.geometry.n_grid
    if plan is None:
        plan = step_plan(cfg, w)
    if rho_values is None:
        rho_values = state.rho_values()
    drift = nonlinear_drift(state, plan, rho_values)
    pre_rho = state.rho_hat
    pre_j = state.j_hat + bank.dt * drift
    if dw_values is not None:
        forced = rho_values if plan.noisy is None else rho_values[plan.noisy]
        forcing = plan.amplitude * h_delta(forced, cfg.delta) * dw_values
        forcing_hat = np.fft.rfft(forcing) / n
        forcing_hat[..., plan.band + 1:] = 0.0
        if plan.noisy is None:
            pre_j = pre_j + forcing_hat
        else:
            pre_j[plan.noisy] += forcing_hat
    new_rho = bank.m00 * pre_rho + bank.m01 * pre_j
    new_j = bank.m10 * pre_rho + bank.m11 * pre_j
    if not (np.all(np.isfinite(new_rho.view(float))) and np.all(np.isfinite(new_j.view(float)))):
        raise DivergenceError(f"non-finite coefficients at t = {state.t + bank.dt:.6g}")
    return SpectralState(state.geometry, new_rho, new_j, state.t + bank.dt)


@dataclass
class SpdeTrajectory:
    """Recorded run: field snapshots plus per-step scalar monitors."""

    times: np.ndarray        # (S,) snapshot times
    rho: np.ndarray          # (S, n_grid) values
    j: np.ndarray            # (S, n_grid) values
    step_times: np.ndarray   # (n_steps + 1,)
    norm_path: np.ndarray    # H1 x H1 norm at every step
    min_rho_path: np.ndarray
    status: StoppingStatus
    config: SpdeConfig
    final: SpectralState | None = None


def default_datum(geometry: TorusGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Mass-one density (1 + 0.3 cos x) / (2 pi) and zero momentum."""
    x = geometry.nodes()
    rho = (1.0 + 0.3 * np.cos(x)) / TWO_PI
    return rho, np.zeros_like(rho)


def initial_state(cfg: SpdeConfig) -> SpectralState:
    geometry = cfg.geometry
    rho0, j0 = default_datum(geometry)
    state = SpectralState.from_values(geometry, rho0, j0, band=cfg.dealias_band)
    if state.min_rho() < cfg.c1:
        raise ValueError(
            f"stopping ordering requires delta < c1 <= min rho0: datum minimum "
            f"{state.min_rho():.4g} sits below c1 = {cfg.c1} "
            f"(delta = {cfg.delta})"
        )
    if state.norm_h1() > cfg.c2:
        raise ValueError(
            f"stopping ordering requires norm(X0) <= c2 < k_norm: datum norm "
            f"{state.norm_h1():.4g} exceeds c2 = {cfg.c2}"
        )
    return state


@dataclass
class ReplicaRun:
    """Per-step monitors of replicas stepped together, one column per replica."""

    step_times: np.ndarray     # (n_steps + 1,)
    norm_path: np.ndarray      # (n_steps + 1, R) H1 x H1 norms
    min_rho_path: np.ndarray   # (n_steps + 1, R)
    status: list[StoppingStatus]
    final: SpectralState       # (R, n_modes); frozen rows hold their stopped state


# the config fields in which the rows of one replica batch may differ
ROW_FIELDS = ("sigma", "n_particles")


def _shared_config(cfgs: Sequence[SpdeConfig]) -> SpdeConfig:
    """The first row's config, once every row agrees with it outside ROW_FIELDS."""
    first = cfgs[0]
    shared = [f.name for f in dataclasses.fields(SpdeConfig) if f.name not in ROW_FIELDS]
    for cfg in cfgs[1:]:
        for name in shared:
            if getattr(cfg, name) != getattr(first, name):
                raise ValueError(f"replica rows differ in {name}; "
                                 f"only {' and '.join(ROW_FIELDS)} may differ")
    return first


def _row_bank(cfgs: Sequence[SpdeConfig]) -> PropagatorBank:
    """One propagator bank per distinct csq, gathered into (R, n_modes) entries."""
    cfg = cfgs[0]
    csqs = [row.csq for row in cfgs]
    distinct = list(dict.fromkeys(csqs))
    banks = [build_propagator_bank(cfg.geometry, cfg.gamma, csq, cfg.dt) for csq in distinct]
    stacked = PropagatorBank(cfg.dt, *(np.stack([getattr(bank, m) for bank in banks])
                                       for m in ("m00", "m01", "m10", "m11")))
    return stacked.take(np.array([distinct.index(csq) for csq in csqs]))


def solve_replicas(cfgs: Sequence[SpdeConfig], w: PotentialSpec,
                   seeds: Sequence[int | None], *,
                   observe: Callable[[int, SpectralState], None] | None = None
                   ) -> ReplicaRun:
    """Integrate R = len(seeds) replica rows over [0, t_horizon], freezing each
    row whose guard trips.

    Row r runs cfgs[r].  Rows may differ in sigma and n_particles only, so a
    batch can mix (sigma, N) cells and noise-free rows; any other field that
    differs raises ValueError naming it.  A noisy row r draws its Q-Wiener
    increments from a Generator seeded with seeds[r]; a row of zero noise
    amplitude (n_particles = inf or sigma = 0) draws nothing, takes no
    forcing and ignores its seed.  observe(s, state), when given, is called
    at step 0 and after every step s with the whole (R, n_modes) state, which
    is only valid during the call.
    """
    if not cfgs or len(cfgs) != len(seeds):
        raise ValueError("solve_replicas needs at least one row and one config per seed")
    cfg = _shared_config(cfgs)
    n_steps = step_index(cfg.t_horizon, cfg.dt, "t_horizon")
    geometry = cfg.geometry
    n_rows = len(seeds)
    start = initial_state(cfg)
    state = SpectralState(geometry, np.tile(start.rho_hat, (n_rows, 1)),
                          np.tile(start.j_hat, (n_rows, 1)))
    bank = _row_bank(cfgs)
    amplitudes = np.array([row.noise_amplitude for row in cfgs])
    plan = _rows_plan(step_plan(cfg, w), amplitudes)

    # the active rows, their bank and plan, and the noisy ones among them
    rows, sub_bank, sub_plan = np.arange(n_rows), bank, plan
    forced = np.flatnonzero(amplitudes > 0.0)
    if forced.size:
        rngs = {r: np.random.default_rng(np.random.SeedSequence(seeds[r])) for r in forced}
        band = cfg.dealias_band
        scales = q_wiener_scales(
            make_kernel(math.sqrt(2.0) * cfg.epsilon, geometry).fourier_coeffs,
            geometry, cfg.dt, band)

    rho_values = state.rho_values()
    norms = state.norm_h1()
    lows = rho_values.min(axis=-1)
    norm_path = np.empty((n_steps + 1, n_rows))
    min_path = np.empty((n_steps + 1, n_rows))
    norm_path[0] = norms
    min_path[0] = lows
    status = [StoppingStatus()] * n_rows
    active = np.ones(n_rows, dtype=bool)
    if observe is not None:
        observe(0, state)

    for s in range(n_steps):
        t = state.t + bank.dt
        whole = rows.size == n_rows
        if rows.size:
            sub = state if whole else SpectralState(
                geometry, state.rho_hat[rows], state.j_hat[rows], state.t)
            dw = None
            if forced.size:
                # each row's generator draws as q_wiener_increment's does
                z = np.empty((forced.size, 2 * band + 1))
                for row, r in zip(z, forced):
                    rngs[r].standard_normal(out=row)
                dw = scales.increments(z)
            new = step_mild(sub, cfg, sub_bank, w, dw,
                            rho_values=rho_values if whole else rho_values[rows],
                            plan=sub_plan)
            new_values = new.rho_values()
            new_norms = new.norm_h1()
            new_lows = new_values.min(axis=-1)
            if whole:
                state, rho_values, norms, lows = new, new_values, new_norms, new_lows
            else:
                state.rho_hat[rows] = new.rho_hat
                state.j_hat[rows] = new.j_hat
                rho_values[rows] = new_values
                norms[rows] = new_norms
                lows[rows] = new_lows
            capped = new_norms >= cfg.k_norm
            floored = new_lows <= cfg.delta
            stopping = np.flatnonzero(capped | floored)
            for i in stopping:
                reason = "norm_cap" if capped[i] else "density_floor"
                status[rows[i]] = StoppingStatus(True, reason, t)
                active[rows[i]] = False
            if stopping.size:
                rows = np.flatnonzero(active)
                sub_bank = bank.take(rows)
                sub_plan = _rows_plan(plan, amplitudes[rows])
                forced = rows[amplitudes[rows] > 0.0]
        state.t = t
        norm_path[s + 1] = norms
        min_path[s + 1] = lows
        if observe is not None:
            observe(s + 1, state)

    return ReplicaRun(step_times=cfg.dt * np.arange(n_steps + 1), norm_path=norm_path,
                      min_rho_path=min_path, status=status, final=state)


def solve_spde(cfg: SpdeConfig, w: PotentialSpec, *, seed: int | None = None,
               snapshot_times=None) -> SpdeTrajectory:
    """Integrate one run over [0, t_horizon], freezing the state if a guard trips.

    The R = 1 caller of `solve_replicas`, which describes seed.  Snapshots
    requested after a stop repeat the frozen state.
    """
    n_steps = step_index(cfg.t_horizon, cfg.dt, "t_horizon")
    if snapshot_times is None:
        snapshot_times = [0.0, cfg.t_horizon]
    snap_times = np.asarray(sorted(snapshot_times), dtype=float)
    snap_at: dict[int, list[int]] = {}
    for idx, t in enumerate(snap_times):
        snap_at.setdefault(step_index(t, cfg.dt, "snapshot time", n_steps), []).append(idx)

    rho_snap = np.zeros((len(snap_times), cfg.n_grid))
    j_snap = np.zeros_like(rho_snap)

    def record(step: int, state: SpectralState) -> None:
        for idx in snap_at.get(step, ()):
            rho_snap[idx] = state.rho_values()[0]
            j_snap[idx] = state.j_values()[0]

    run = solve_replicas([cfg], w, [seed], observe=record)
    status = run.status[0]
    final = SpectralState(cfg.geometry, run.final.rho_hat[0], run.final.j_hat[0],
                          status.time if status.stopped else run.final.t)
    return SpdeTrajectory(times=snap_times, rho=rho_snap, j=j_snap,
                          step_times=run.step_times, norm_path=run.norm_path[:, 0],
                          min_rho_path=run.min_rho_path[:, 0], status=status,
                          config=cfg, final=final)


def convolution_bound_check(traj: SpdeTrajectory, w: PotentialSpec,
                            tol: float = 1e-10) -> dict:
    """sup |W' * rho| <= max|W'| * mass at every admissible snapshot.

    A snapshot is admissible when it lies at or before the stopping time and
    its density is nonnegative; in that regime the integral of |rho| equals
    the mass and Young's inequality gives the bound.  tol absorbs the
    quadrature roundoff of the spectral convolution.  Returns the worst
    margin (bound + tol minus observed sup) over the admissible snapshots.
    """
    max_w1 = w.max_abs_w1()
    worst_margin = math.inf
    worst_sup = 0.0
    checked = 0
    for s, t in enumerate(traj.times):
        if traj.status.stopped and t > traj.status.time:
            continue
        values = traj.rho[s]
        if values.min() < 0.0:
            continue
        conv = convolve_potential(values, w, derivative=1)
        mass = float(values.mean()) * TWO_PI
        sup_conv = float(np.abs(conv).max())
        worst_margin = min(worst_margin, max_w1 * mass + tol - sup_conv)
        worst_sup = max(worst_sup, sup_conv)
        checked += 1
    return {
        "checked_snapshots": checked,
        "worst_sup": worst_sup,
        "worst_margin": worst_margin,
        "ok": checked > 0 and worst_margin >= 0.0,
    }
