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

Positions are integrated twice in the interacting branch of a coupled
run: wrapped onto [0, 2*pi) for force and field evaluation, and as an
unwrapped real-line lift.  Coupled distances are always measured through
the lift; the torus distance would fold excursions longer than half a
period back onto [0, pi] and corrupt the measured rate.  Only coupled runs
read distances, so an uncoupled run carries no lift.  The mean-field branch
carries only its lift: its force is zero and reads no position, and no
caller reads a wrapped mean-field position.

Every particle run goes through one driver, `replica_steps`, a generator.
`simulate_coupled` and `simulate_interacting` are thin callers of its
snapshot recorder `_record`, and `torus.step_index` turns every time into a
step, raising ConfigurationError for a time off the dt grid or the horizon.

Block seeding.  Replicas are simulated in vectorised blocks of
`replica_block` rows (the last block may be shorter).  Block b draws from a
Generator on the b-th child spawned off SeedSequence(seed), so a block's
numbers depend only on (seed, b) and its row count, not on other blocks,
and a block's draws may run beside another block's without moving a bit.

Start and burn-in.  Each block samples q ~ U(0, 2 pi) and then
p ~ N(0, sigma^2 / (2 gamma)), with the bits of `rng.uniform` and
`rng.normal` but into the block's own arrays, sets the lift (if carried) to
q and runs burn_steps mean-field steps.  The clock then restarts at s = 0.
The start is drawn before the driver yields the block: the raw uniforms and
normals are drawn into the block's start arrays, and the block scales them
when its `steps` begins.

Yield contract.  The driver yields (lo, hi, rng, steps) once per replica
block [lo, hi), where `rng` is the block's Generator and `steps` is an
iterator over the block's steps.  For s = 0 ... main_steps, `steps` yields
(s, branches, xi, trig): `branches` holds the state of rows [lo, hi) at
step s: for a coupled run, (q, p, lift) for the interacting branch and
then (p, lift) for the mean-field branch, started from a copy of the same
state; for an uncoupled run, (q, p) for its one branch.  `xi` is the
standard-normal array that drives step s -> s+1 of every branch (None at
s = main_steps).  The step s -> s+1 is taken when the caller asks `steps`
for its next item, so a caller that stops iterating `steps` takes no
further step of that block.  When the caller resumes the driver, it closes
the block's `steps` and moves on to the next block.  A block ends with its
driver: closing or dropping the driver closes the block's `steps` too, so a
`steps` takes no step after its driver has ended.

Every step works in place.  The yielded arrays stay valid until the caller
resumes the driver, and the next step overwrites them; a caller that keeps
a state across steps copies it.  The arrays of a block, and the force's
temporaries, are allocated once per run and block shape, so a step
allocates no array of the block's size.

`trig` is `torus.cos_sin(q)` of the interacting q of step s, as a pair
of arrays, when the potential is nonzero and s < main_steps, and None
otherwise.  The step s -> s+1 forms its pairwise force from it, so a caller
that reads it costs the step nothing.  The step also computes the trig of
the q it makes, beside the fill of the next xi; the trig of s = 0 is
computed before the block yields it.

Draw order per block: the start (q, then p), one standard-normal array per
burn-in step, then per main step `xi` followed by whatever the caller draws
from `rng` while holding step s.  The first of the normal arrays is drawn
with the start, and each step draws the xi of the step after it, so the xi
of step s+1 is drawn after the caller resumes from step s.

Drawing ahead.  The normals are the largest single cost of a step: at a
(16, 2048) block, `standard_normal(out=xi)` takes about 0.6 of a 1.5 ms
step.  numpy fills it with the GIL released, so a block of at least
DRAW_AHEAD_ELEMENTS elements (rows times particles) hands the fill of the
next xi to the run's helper thread once the step has formed sigma dw from
xi, runs the step's arithmetic meanwhile, and waits for the fill before it
yields.  The Generator is the block's own and is used by one thread at a
time, so every draw and bit is that of the inline fill.  A handoff costs
about 12 microseconds, so a smaller block draws inline.  On a 2-vCPU x86
host, a coupled cos block of 16 rows, timed inline and ahead by turns in
one process (three or five processes per size), stepped faster ahead in 0
of 63 runs at 2048 elements, 2 of 63 at 3072, 3 of 63 at 4096 (median
153 us inline, 165-172 us ahead), 13 of 42 at 4800, 84 of 105 at 5600
(medians 4-6 % lower ahead), 38 of 42 at 6400 and 42 of 42 at 8192, which
sets the threshold at 5600.

A block of at least DRAW_AHEAD_ELEMENTS elements whose successor is as
large also draws that successor's start on the helper, into the other of
two sets of start arrays, which blocks take by turns.  It hands over the
raw q and p as it yields its first step and the first xi as it yields its
second, so each fill runs beside the caller's work and the step's own xi
does not queue behind the whole start.  Before the driver yields the
successor, it waits for these fills and draws inline any that were not
handed over, as when the caller stopped at s = 0 or the block yields once.
Each Generator keeps its draw order, so the bits are those of the inline
run.  A covariance cell runs 100 blocks of 100 replicas and reads two
steps of each, so three of a block's four particle-sized fills are its
start; at (100, 316) a normal fill takes about 236 us and a uniform fill
47 us on a 2-vCPU AMD EPYC host.

The helper is the one thread of a single-worker
`concurrent.futures.ThreadPoolExecutor` that the driver opens per run.
The thread starts at the first fill handed to it, so a run of small blocks
starts none, and runs the fills in the order they were handed over.  Each
fill's future hands what the fill raised to the step or the driver that
waits for it, and a step that raises waits for its fill first.  At its end
the driver closes the block it holds and shuts the executor down, which
lets a pending start finish and joins the thread; that start's block never
runs, so what its fill raised is dropped with it.  The helper uses no BLAS
or OpenMP thread, and each process of a pool starts its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .potential import PotentialSpec, mean_w1_at
from .torus import (TWO_PI, ConfigurationError, TorusGeometry, Workspace,
                    _at_least, cos_sin, step_index, wrap)
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
        _at_least(self, n_particles=1)
        if not (0 <= self.gamma < math.inf and 0 <= self.sigma < math.inf):
            raise ConfigurationError("gamma and sigma must be finite and nonnegative")
        if not 0 < self.dt <= 1e-2 / max(self.gamma, 1.0):
            raise ConfigurationError(
                f"dt={self.dt} violates dt <= 1e-2/max(gamma,1) with gamma={self.gamma}"
            )
        if not (0 <= self.t_horizon < math.inf and 0 <= self.burn_in < math.inf):
            raise ConfigurationError("t_horizon and burn_in must be finite and nonnegative")
        if not 0 < self.momentum_guard < math.inf:
            raise ConfigurationError("momentum_guard must be finite and positive")

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
    scaling holds to machine precision for the pair actually used.  Refused by
    ConfigurationError: an eps or theta that is not finite and positive, an N
    that rounds below 2 or past the largest array index, an N whose one
    float64 row of particles is larger than the machine's physical memory
    (where sysconf can tell it), and the N of an earlier point.
    """
    n_max = int(np.iinfo(np.intp).max)
    names = getattr(os, "sysconf_names", {})  # none where there is no sysconf
    memory = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
              if {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= names.keys() else math.inf)
    out = {}
    for eps in map(float, epsilons):
        where = f"point {eps} at theta {theta}"
        if not (0 < eps < math.inf and 0 < theta < math.inf):
            raise ConfigurationError(f"{where}: eps and theta must be finite and positive")
        # past e^709, near the largest float, the power overflows
        n = round(eps ** -theta) if theta * -math.log(eps) < 709 else math.inf
        if not 2 <= n <= n_max or n in out:
            raise ConfigurationError(f"{where} gives N = {n:g}, " + (
                f"as point {out[n]} does" if n in out else f"not a finite count in [2, {n_max}]"))
        if 8 * n > memory:
            raise ConfigurationError(f"{where} gives N = {n:g}, whose particle row of {8 * n:g}"
                                     f" bytes exceeds the {memory:g} bytes of memory")
        out[n] = eps
    return [(n, float(n) ** (-1.0 / theta)) for n in out]


@dataclass
class CoupledTrajectory:
    """Snapshots of both branches, replica-batched: arrays (S, R, N)."""

    times: np.ndarray
    q_int: np.ndarray
    p_int: np.ndarray
    lift_int: np.ndarray
    p_mf: np.ndarray
    lift_mf: np.ndarray

    @property
    def n_replicas(self) -> int:
        return self.q_int.shape[1]


def pairwise_force(q: np.ndarray, w: PotentialSpec,
                   cos_sin_q: tuple[np.ndarray, np.ndarray] | None = None,
                   work: Workspace | None = None) -> np.ndarray:
    """Interacting drift -(1/N) sum_j W'(q_i - q_j), self term included.

    The trig of the positions comes from `torus.cos_sin` (see `mean_w1_at`).
    cos_sin_q, when given, is `torus.cos_sin(q)`, already computed, and the
    force has the same bits with or without it.  work, when given, is a
    `torus.Workspace` of q's shape that holds the force and its temporaries,
    as in `mean_w1_at`; otherwise the force is a new array.
    """
    return mean_w1_at(w, q, q, cos_sin_q=cos_sin_q, work=work, negate=True)


def _advance(p, q, lift, force, params: ModelParams, sdw, p_new):
    """One Euler-Maruyama step for a batch of ensembles, in place.

    With sdw = sigma dw for the Brownian increments dw, the step is

        p_new = p + (-gamma p + force) dt + sdw,
        lift += p dt,  q = wrap(q + p dt),

    evaluated by ufuncs in that order, so every bit is that of the formula.
    The new momentum goes into p_new, p is left holding the drift p dt, and
    lift and q are updated in place; lift=None carries no lift, and q=None
    carries no position, for a branch whose force does not read it.  p comes
    first because every branch carries it.
    force is an array of q's shape, which is only read, or None for a force
    that is identically zero, which is not added.  TimeStepError when a new
    momentum leaves the guard interval.
    """
    dt = params.dt
    np.multiply(p, -params.gamma, out=p_new)
    if force is not None:
        p_new += force
    p_new *= dt
    p_new += p
    p_new += sdw
    drift = np.multiply(p, dt, out=p)
    if lift is not None:
        lift += drift
    if q is not None:
        wrap(np.add(drift, q, out=q), out=q)
    worst = max(float(p_new.max()), -float(p_new.min())) if p_new.size else 0.0
    if worst > params.momentum_guard:
        raise TimeStepError(
            f"momentum {worst:.3e} exceeded guard {params.momentum_guard:.1e}"
        )


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


#: Blocks of at least this many elements (replicas times particles) draw
#: each step's normals, and the next such block's start, ahead on a helper
#: thread; see `replica_steps`.
DRAW_AHEAD_ELEMENTS = 5600


def replica_steps(params: ModelParams, w: PotentialSpec, *, n_replicas: int,
                  seed: int | None = None, replica_block: int = 16,
                  coupled: bool = False):
    """Step the interacting system (and its coupled mean-field twin) block by block.

    Yields (lo, hi, rng, steps) for each replica block [lo, hi) in turn, and
    `steps` yields (s, branches, xi, trig) for s = 0 ... main_steps of that
    block; see the module docstring for the contract.  A block's `steps`
    ends with the driver: resuming, closing or dropping the driver closes it.

    A block of at least DRAW_AHEAD_ELEMENTS elements draws the normals of
    step s+1 on the run's helper thread while the step s -> s+1 runs, and,
    when the next block is as large, that block's start while the caller
    holds its first two steps; see "Drawing ahead" in the module docstring.
    """
    burn_steps = step_index(params.burn_in, params.dt, "burn_in")
    main_steps = step_index(params.t_horizon, params.dt, "t_horizon")
    n_steps = burn_steps + main_steps
    pairwise = not w.is_zero
    if pairwise and (burn_steps or (coupled and main_steps)):
        # the mean-field law must exist; gamma = 0 raises in params.temperature
        if params.temperature <= 0:
            raise ConfigurationError("temperature m2 must be positive")

    n_blocks = (n_replicas + replica_block - 1) // replica_block
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    # per block shape (only the last block may differ): the step's and the
    # force's workspaces, and two for the start, which blocks take by turns
    # so that a block's successor can draw its start while the block runs
    shaped = {}

    def block(b):
        """Block b's lo, hi, Generator, start, step and force workspaces,
        whether it draws ahead, and its start as draws in draw order: the raw
        q and p, then the first xi if the block takes a step."""
        lo, hi = b * replica_block, min((b + 1) * replica_block, n_replicas)
        shape = (hi - lo, params.n_particles)
        if shape not in shaped:
            shaped[shape] = [Workspace(shape) for _ in range(4)]
        work, force_work, *starts = shaped[shape]
        rng, start = np.random.default_rng(children[b]), starts[b % 2]

        def raw_q_and_p():
            rng.random(out=start["q"])
            rng.standard_normal(out=start["p"])

        draws = [raw_q_and_p]
        if n_steps:
            draws.append(lambda: rng.standard_normal(out=start["xi"]))
        return (lo, hi, rng, start, work, force_work,
                (hi - lo) * params.n_particles >= DRAW_AHEAD_ELEMENTS, draws)

    # imported here, as the process pool of studies, so that importing dklab
    # stays cheap; the pool starts its thread at its first fill
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dklab-normals")
    steps = None
    try:
        following = block(0) if n_blocks else None
        for b in range(n_blocks):
            lo, hi, rng, start, work, force_work, large, draws = following
            # the previous block replaced each draw it handed to the helper
            # by a wait for it; those come first
            for draw in draws:
                draw()
            following = block(b + 1) if b + 1 < n_blocks else None
            # the block hands its successor's start to the helper when both
            # draw ahead
            prefetch = following[-1] if large and following and following[-2] else []
            steps = _block_steps(params, w if pairwise else None, rng, start, work,
                                 force_work, burn_steps, main_steps, coupled,
                                 pool if large else None, prefetch)
            yield lo, hi, rng, steps
            steps.close()
    finally:
        if steps is not None:
            steps.close()
        pool.shutdown()  # lets a pending start finish and joins the helper


def _block_steps(params: ModelParams, w: PotentialSpec | None, rng, start: Workspace,
                 work: Workspace, force_work: Workspace, burn_steps: int,
                 main_steps: int, coupled: bool, pool, prefetch: list):
    """The `steps` of one block of `replica_steps`.  `start` holds the block's
    start as drawn (the raw q and p, and the first xi), which the block
    scales; the step's other arrays come from `work`, and the pairwise force
    of w (None for the zero potential) takes its arrays from `force_work`.
    With a pool (a single-worker executor), each step submits the fill of
    the next step's normals to it and waits for the fill before it returns,
    and the block's k-th yield submits prefetch[k], a draw of the next
    block's start, and puts the future's `result` in its place, so that the
    driver's call of it waits for the draw."""
    sqdt = math.sqrt(params.dt)
    q, p, xi, sdw = start["q"], start["p"], start["xi"], work["sdw"]
    # the bits of rng.uniform(0, 2 pi) and rng.normal(0, sd), which numpy
    # forms as 0.0 + 2 pi u and 0.0 + sd z from the same draws; 2 pi u is
    # never -0.0, and the + 0.0 turns sd z = -0.0 (sd = 0) into +0.0
    q *= TWO_PI
    p *= math.sqrt(params.temperature)
    p += 0.0
    lift = None
    if coupled:
        lift = work["lift"]
        np.copyto(lift, q)
    # each branch is [q, p, lift, spare]: the step writes the new p into
    # spare, and the two then swap
    branches = [[q, p, lift, work["spare"]]]
    n_steps = burn_steps + main_steps
    # cos q, sin q of the interacting positions, none for the zero potential
    trig = None if w is None else (work["cos"], work["sin"])

    def step(trig, draw_next: bool):
        """Take one step of every branch, the interacting one under the
        pairwise force formed from trig (no force if trig is None); with
        draw_next, xi then holds the normals of the next step, and trig, if
        any, the cos q, sin q of the new q."""
        np.multiply(xi, sqdt, out=sdw)  # dw, then sigma dw
        np.multiply(sdw, params.sigma, out=sdw)
        drawn = None
        if draw_next and pool is None:
            rng.standard_normal(out=xi)
        elif draw_next:
            drawn = pool.submit(rng.standard_normal, out=xi)
        try:
            force = None if trig is None else pairwise_force(q, w, trig, force_work)
            for branch, b_force in zip(branches, (force, None)):
                b_q, b_p, b_lift, spare = branch
                _advance(b_p, b_q, b_lift, b_force, params, sdw, spare)
                branch[1], branch[3] = spare, b_p
            if trig is not None and draw_next:
                cos_sin(q, out=(*trig, work["trig"]))
        finally:
            if drawn is not None:
                drawn.result()  # raises what the fill raised

    def hand_over_the_next_start(k):
        if k < len(prefetch):
            prefetch[k] = pool.submit(prefetch[k]).result

    for r in range(burn_steps):
        step(None, r + 1 < n_steps)
    if coupled:
        # the mean-field branch's force is None and reads no position
        mf = [None, work["mf_p"], work["mf_lift"], work["mf_spare"]]
        np.copyto(mf[1], branches[0][1])
        np.copyto(mf[2], branches[0][2])
        branches.append(mf)
    state_slices = (slice(0, 3), slice(1, 3)) if coupled else (slice(0, 2),)

    def state():
        return tuple(tuple(b[k]) for b, k in zip(branches, state_slices))

    for s in range(main_steps):
        hand_over_the_next_start(s)
        if s == 0 and trig is not None:
            cos_sin(q, out=(*trig, work["trig"]))
        yield s, state(), xi, trig
        step(trig, s + 1 < main_steps)
    hand_over_the_next_start(main_steps)
    yield main_steps, state(), None, None


def _record(params: ModelParams, w: PotentialSpec, snapshot_times, n_arrays: int, **driver):
    """Sorted snapshot times and the (n_arrays, S, R, N) snapshots of a run:
    the first n_arrays of the state of each branch, interacting first.
    `driver` holds the keywords of `replica_steps`.  A block stops at its
    last snapshot.
    """
    times = np.asarray(sorted(snapshot_times), dtype=float)
    last = step_index(params.t_horizon, params.dt, "t_horizon")
    targets = [step_index(t, params.dt, "snapshot time", last) for t in times]
    out = np.zeros((n_arrays, len(targets), driver["n_replicas"], params.n_particles))
    for lo, hi, _rng, steps in replica_steps(params, w, **driver):
        for s, branches, _xi, _trig in islice(steps, max(targets, default=-1) + 1):
            for k in [k for k, target in enumerate(targets) if target == s]:
                for snaps, a in zip(out, (a for b in branches for a in b)):
                    snaps[k, lo:hi] = a
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
    times, out = _record(params, w, snapshot_times, 5, n_replicas=n_replicas,
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
