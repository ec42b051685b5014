"""Coupled interacting / mean-field Langevin ensembles on the torus.

Two second-order systems share Brownian increments and initial data:

    interacting:  dq_i = p_i dt
                  dp_i = [-gamma p_i - (1/N) sum_j W'(q_i - q_j)] dt + sigma dB_i
    mean-field:   dq_i = p_i dt
                  dp_i = [-gamma p_i - (W' * rho[f_t])(q_i)] dt + sigma dB_i

where f_t is the mean-field phase-space law.  The pairing makes the pathwise
distance between the two systems a direct estimate of the mean-field
approximation error, which decays like N^{-1/2}.

Stationary law.  f_t starts from `default_datum`: uniform in q, Maxwellian
in p at the stationary temperature sigma^2 / (2 gamma).  That law is a
stationary state of the kinetic equation: its q marginal is the constant
1 / (2 pi) and W' has zero mean on the torus, so W' * rho[f_t] vanishes,
and the Maxwellian is the steady state of the p drift-diffusion.  The
mean-field force is therefore zero at every step.  The VfpSolver agrees
bit for bit: every coefficient of `build_force_table` from the datum is
+0.0, which makes its force -0.0, and x + (-0.0) == x for every float.  A
force that is identically zero is passed to `_advance` as None and not
added: the burn-in and the mean-field branch step without one, and so does
the interacting branch for the zero potential, whose pairwise force is -0.0
as well.  A run with a burn-in or a coupled branch and a nonzero potential
steps under that law, so it checks the temperature directly and refuses a
gamma or sigma for which the law does not exist (gamma = 0, sigma = 0).

Positions are integrated twice: wrapped onto [0, 2*pi) for force and field
evaluation, and as an unwrapped real-line lift.  Coupled distances are always
measured through the lift; the torus distance would fold excursions longer
than half a period back onto [0, pi] and corrupt the measured rate.

Every particle run goes through one driver, `replica_steps`, a generator.
`simulate_coupled` and `simulate_interacting` are thin callers of its
snapshot recorder `_record`, and `torus.step_index` turns every time into a
step, raising ConfigurationError for a time off the dt grid or the horizon.

Block seeding.  Replicas are simulated in vectorised blocks of
`replica_block` rows (the last block may be shorter).  Block b draws from a
Generator on the b-th child spawned off SeedSequence(seed), so a block's
numbers depend only on (seed, b) and its row count, not on other blocks.

Start and burn-in.  Each block samples q ~ U(0, 2 pi) and then
p ~ N(0, sigma^2 / (2 gamma)), sets the lift to q and runs burn_steps
mean-field steps.  The clock then restarts at s = 0.

Yield contract.  For s = 0 ... main_steps the driver yields
(lo, hi, s, branches, xi, rng, phase): `branches` holds the (q, p, lift)
state of rows [lo, hi) at step s, first the interacting branch and, for a
coupled run, the mean-field branch started from a copy of the same state;
`xi` is the standard-normal array that drives step s -> s+1 of every branch
(None at s = main_steps); `rng` is the block's Generator.  The yielded
arrays are replaced, never modified, by the next step.  A caller's loop
variables keep step s alive until step s+1 is yielded; a caller that must
not hold two states at once drops them at the end of its loop body.

`phase` is a `StepPhase` handle on the interacting q of step s when the
potential is nonzero and s < main_steps, and None otherwise.  Calling it
returns `torus.cos_sin(q)`, computed on the first call.  The step then takes
those arrays as the wavenumber-1 trig of the pairwise force instead of
computing its own, and the bits of every branch are the same whether or not
the caller asked.  A caller that never calls it pays nothing and holds
nothing more; the handle drops its arrays when the step runs.

Draw order per block: the start, one standard-normal array per burn-in
step, then per main step `xi` followed by whatever the caller draws from
`rng` while holding step s; the step itself draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import PotentialSpec, mean_w1_at
from .torus import (TWO_PI, ConfigurationError, TorusGeometry, cos_sin,
                    step_index, wrap)
from .vfp import (PhaseSpaceDensity, VfpSolver, meanfield_force_from_coeffs,
                  uniform_maxwellian)

DEFAULT_MOMENTUM_GUARD = 1e3


class TimeStepError(RuntimeError):
    """A momentum left the guard interval; the step size is too coarse."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and discretisation parameters of one particle run."""

    n_particles: int
    gamma: float = 1.0
    sigma: float = 1.0
    t_horizon: float = 1.0
    dt: float = 5e-3
    burn_in: float = 0.5
    momentum_guard: float = DEFAULT_MOMENTUM_GUARD

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigurationError("n_particles must be at least 1")
        if not (0 <= self.gamma < math.inf and 0 <= self.sigma < math.inf):
            raise ConfigurationError("gamma and sigma must be finite and nonnegative")
        if not 0 < self.dt <= 1e-2 / max(self.gamma, 1.0):
            raise ConfigurationError(
                f"dt={self.dt} violates dt <= 1e-2/max(gamma,1) with gamma={self.gamma}"
            )
        if not (0 <= self.t_horizon < math.inf and 0 <= self.burn_in < math.inf):
            raise ConfigurationError("t_horizon and burn_in must be finite and nonnegative")

    @property
    def temperature(self) -> float:
        """Stationary momentum variance sigma^2 / (2 gamma)."""
        return stationary_temperature(self.gamma, self.sigma)


def stationary_temperature(gamma: float, sigma: float) -> float:
    """Stationary momentum variance sigma^2 / (2 gamma) of the Langevin dynamics."""
    if gamma == 0:
        raise ConfigurationError("temperature undefined for gamma = 0")
    return sigma ** 2 / (2.0 * gamma)


def ladder_from_thetas(epsilons, theta: float) -> list[tuple[int, float]]:
    """(N, eps) pairs on the scaling N * eps^theta = 1.

    N is rounded to an integer and eps recomputed as N^(-1/theta), so the
    scaling holds to machine precision for the pair actually used.
    """
    out = []
    for eps in epsilons:
        n = max(2, int(round(float(eps) ** -theta)))
        out.append((n, float(n) ** (-1.0 / theta)))
    return out


@dataclass
class CoupledTrajectory:
    """Snapshots of both branches, replica-batched: arrays (S, R, N)."""

    times: np.ndarray
    q_int: np.ndarray
    p_int: np.ndarray
    lift_int: np.ndarray
    q_mf: np.ndarray
    p_mf: np.ndarray
    lift_mf: np.ndarray

    @property
    def n_replicas(self) -> int:
        return self.q_int.shape[1]


def pairwise_force(q: np.ndarray, w: PotentialSpec,
                   cos_sin_q: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Interacting drift -(1/N) sum_j W'(q_i - q_j), self term included.

    The trig of the positions comes from `torus.cos_sin` (see `mean_w1_at`).
    cos_sin_q, when given, is `torus.cos_sin(q)`, already computed, and the
    force has the same bits with or without it.
    """
    return -mean_w1_at(w, q, q, cos_sin_q=cos_sin_q)


class StepPhase:
    """cos q and sin q of one step's interacting positions, computed on demand.

    Calling the handle computes `torus.cos_sin(q)` on the first call and
    returns the same pair after that.  The step s -> s+1 calls `release`,
    which hands the pair, if computed, to the pairwise force and drops every
    reference the handle holds, so the force takes no trig of its own for
    wavenumber 1 and nothing is kept alive past the step.  A handle is valid
    while its step is yielded.
    """

    __slots__ = ("_q", "_cos_sin")

    def __init__(self, q: np.ndarray):
        self._q = q
        self._cos_sin = None

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cos_sin is None:
            if self._q is None:
                raise RuntimeError("the phase of a step that has already been taken")
            self._cos_sin = cos_sin(self._q)
        return self._cos_sin

    def release(self) -> tuple[np.ndarray, np.ndarray] | None:
        cos_sin, self._q, self._cos_sin = self._cos_sin, None, None
        return cos_sin


def _advance(q, p, lift, force_fn, params: ModelParams, dw):
    """One Euler-Maruyama step for a batch of ensembles.

    The new state is built in fresh arrays by in-place ufuncs in the order of

        p_new = p + (-gamma p + force(q)) dt + sigma dw,
        lift_new = lift + p dt,  q_new = wrap(q + p dt),

    so every bit is that of the formula.  force_fn=None stands for a force
    that is identically zero, which is not added.  Inputs, and the array
    force_fn returns, are never written to: a force function may return an
    array it shares with its caller.
    """
    dt, gamma, sigma = params.dt, params.gamma, params.sigma
    p_new = np.multiply(p, -gamma)
    if force_fn is not None:
        p_new += force_fn(q)
    p_new *= dt
    p_new += p
    p_new += sigma * dw
    drift = p * dt
    lift_new = lift + drift
    drift += q
    q_new = wrap(drift)
    worst = max(float(p_new.max()), -float(p_new.min())) if p_new.size else 0.0
    if worst > params.momentum_guard:
        raise TimeStepError(
            f"momentum {worst:.3e} exceeded guard {params.momentum_guard:.1e}"
        )
    return q_new, p_new, lift_new


@dataclass
class VfpForceTable:
    """Per-step mean-field force coefficients, shared by all replicas.

    coeffs[s] holds the complex coefficients of (W' * rho[f]) at the start of
    step s, so every replica block can evaluate the deterministic force
    without re-running the kinetic solver.
    """

    coeffs: np.ndarray  # (n_steps, k_max) complex

    def force_at(self, step: int, q_pts: np.ndarray) -> np.ndarray:
        return meanfield_force_from_coeffs(self.coeffs[step], q_pts)


def build_force_table(f0: PhaseSpaceDensity, w: PotentialSpec, gamma: float,
                      sigma: float, n_steps: int, dt: float):
    """Run the kinetic solver for n_steps, recording start-of-step coefficients."""
    solver = VfpSolver(f0.copy(), w, gamma, sigma)
    rows = np.zeros((n_steps, w.k_max), dtype=complex)
    for s in range(n_steps):
        rows[s] = solver.conv_coeffs()
        solver.step(dt)
    return VfpForceTable(rows)


def default_datum(gamma: float, sigma: float) -> PhaseSpaceDensity:
    """Uniform-in-q, Maxwellian-in-p datum at the stationary temperature."""
    m2 = stationary_temperature(gamma, sigma)
    return uniform_maxwellian(TorusGeometry(64), 6.0 * np.sqrt(m2), 96, m2)


def replica_steps(params: ModelParams, w: PotentialSpec, *, n_replicas: int,
                  seed: int | None = None, replica_block: int = 16,
                  coupled: bool = False):
    """Step the interacting system (and its coupled mean-field twin) block by block.

    Yields (lo, hi, s, branches, xi, rng, phase) for s = 0 ... main_steps of each
    replica block [lo, hi) in turn; see the module docstring for the contract.
    """
    dt = params.dt
    sqdt = math.sqrt(dt)
    burn_steps = step_index(params.burn_in, dt, "burn_in")
    main_steps = step_index(params.t_horizon, dt, "t_horizon")
    zero_w = w.is_zero
    if not zero_w and (burn_steps or (coupled and main_steps)):
        # the mean-field law must exist; gamma = 0 raises in params.temperature
        if params.temperature <= 0:
            raise ConfigurationError("temperature m2 must be positive")

    def interacting(phase):
        if phase is None:  # the zero potential
            return None
        return lambda x: pairwise_force(x, w, phase.release())

    def step(branches, forces, dw):
        return tuple(_advance(*b, f, params, dw) for b, f in zip(branches, forces))

    n_blocks = (n_replicas + replica_block - 1) // replica_block
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        lo, hi = b * replica_block, min((b + 1) * replica_block, n_replicas)
        rng = np.random.default_rng(child)
        shape = (hi - lo, params.n_particles)
        q = rng.uniform(0.0, TWO_PI, shape)
        p = rng.normal(0.0, math.sqrt(params.temperature), shape)
        branches = ((q, p, q.copy()),)
        for s in range(burn_steps):
            branches = step(branches, [None], rng.standard_normal(shape) * sqdt)
        if coupled:
            branches += (tuple(a.copy() for a in branches[0]),)
        for s in range(main_steps):
            xi = rng.standard_normal(shape)
            phase = None if zero_w else StepPhase(branches[0][0])
            yield lo, hi, s, branches, xi, rng, phase
            branches = step(branches, [interacting(phase), None], xi * sqdt)
        yield lo, hi, main_steps, branches, None, rng, None


def _record(params: ModelParams, w: PotentialSpec, snapshot_times, n_arrays: int, **driver):
    """Sorted snapshot times and the (n_arrays, S, R, N) snapshots of a run:
    the first n_arrays of the (q, p, lift) of each branch, interacting first.
    `driver` holds the keywords of `replica_steps`.
    """
    times = np.asarray(sorted(snapshot_times), dtype=float)
    last = step_index(params.t_horizon, params.dt, "t_horizon")
    steps = [step_index(t, params.dt, "snapshot time", last) for t in times]
    out = np.zeros((n_arrays, len(steps), driver["n_replicas"], params.n_particles))
    for lo, hi, s, branches, *rest in replica_steps(params, w, **driver):
        for k in [k for k, target in enumerate(steps) if target == s]:
            for snaps, a in zip(out, (a for b in branches for a in b)):
                snaps[k, lo:hi] = a
        del branches, rest  # hold no state while the driver steps
    return times, out


def simulate_coupled(params: ModelParams, w: PotentialSpec, *, n_replicas: int,
                     snapshot_times, seed: int | None = None,
                     replica_block: int = 16) -> CoupledTrajectory:
    """Integrate the coupled pair over [0, t_horizon] after a burn-in.

    The burn-in steps the mean-field branch from the start for params.burn_in
    time units under the stationary law; at its end the clock is reset, both
    branches are set to the common warm state, and from then on they share
    every Brownian increment.  Snapshots are taken on the post-restart clock.
    """
    times, out = _record(params, w, snapshot_times, 6, n_replicas=n_replicas,
                         seed=seed, replica_block=replica_block, coupled=True)
    return CoupledTrajectory(times, *out)


def simulate_interacting(params: ModelParams, w: PotentialSpec, *, n_replicas: int,
                         snapshot_times, seed: int | None = None,
                         replica_block: int = 16):
    """Integrate only the interacting system; (q, p) snapshots of shape (S, R, N).

    The burn-in and the clock are those of simulate_coupled; the snapshots,
    in ascending time order, are the bits of simulate_coupled's interacting
    branch, but no mean-field branch is run.
    """
    _times, (q, p) = _record(params, w, snapshot_times, 2, n_replicas=n_replicas,
                             seed=seed, replica_block=replica_block)
    return q, p


def chaos_distance(traj: CoupledTrajectory, alpha: int = 2) -> np.ndarray:
    """Per-snapshot estimate of E[|q - q_mf|^alpha + |p - p_mf|^alpha]^(1/alpha).

    Position differences are taken on the unwrapped lift.  Replicas and the
    exchangeable particle axis are pooled into the Monte Carlo average.
    """
    if alpha < 2 or alpha % 2 != 0:
        raise ValueError("alpha must be an even integer >= 2")
    if traj.n_replicas < 2:
        raise ValueError("need at least two replicas for a Monte Carlo estimate")
    # |dq|^alpha + |dp|^alpha in place: two (S, R, N) arrays instead of five,
    # as these temporaries set the chaos study's peak memory
    per = traj.lift_int - traj.lift_mf
    dp = traj.p_int - traj.p_mf
    for d in (per, dp):
        np.abs(d, out=d)
        d **= alpha
    per += dp
    return per.mean(axis=(1, 2)) ** (1.0 / alpha)
