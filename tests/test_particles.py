"""Coupled Langevin integrator: forces, the step, coupling, diagnostics."""

import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dklab import particles
from dklab.particles import (ConfigurationError, CoupledTrajectory,
                             ModelParams, TimeStepError, VfpForceTable,
                             _advance, build_force_table, chaos_distance,
                             default_datum, ladder_from_thetas,
                             pairwise_force, replica_steps, simulate_coupled,
                             simulate_interacting)
from dklab.potential import PotentialSpec, mean_w1_at
from dklab.torus import TWO_PI, TorusGeometry, cos_sin, step_index, wrap
from dklab.vfp import VfpSolver, uniform_maxwellian

W_COS = PotentialSpec.cosine_potential()
W_MULTI = PotentialSpec([0.1, 0.7, 0.2, -0.4], [0.0, 0.4, -0.3, 0.25])


def euler_step(q, p, lift, force_of, params, dw):
    """The Euler-Maruyama step written out in new arrays, with the ufuncs of
    the in-place `_advance` in the same order: its oracle.

        p_new = p + (-gamma p + force(q)) dt + sigma dw,
        lift_new = lift + p dt,  q_new = wrap(q + p dt)
    """
    p_new = np.multiply(p, -params.gamma)
    if force_of is not None:
        p_new += force_of(q)
    p_new *= params.dt
    p_new += p
    p_new += params.sigma * dw
    drift = p * params.dt
    lift_new = None if lift is None else lift + drift
    drift += q
    return wrap(drift), p_new, lift_new


def copied(branches):
    """A copy of a yielded state, which the driver's next step overwrites."""
    return tuple(tuple(a.copy() for a in b) for b in branches)


def small_params(**kw):
    base = dict(n_particles=8, gamma=1.0, sigma=1.0, t_horizon=0.1,
                dt=5e-3, burn_in=0.0)
    base.update(kw)
    return ModelParams(**base)


def check_caller_draws(n_particles):
    """A caller's draws while it holds step s fall between that step's xi
    and the next, for a block of 2 rows of n_particles."""
    params = small_params(n_particles=n_particles, t_horizon=0.01)
    shape = (2, n_particles)
    plain, mixed, extra = [], [], []
    for path, draws in ((plain, False), (mixed, True)):
        for _lo, _hi, rng, steps in replica_steps(params, W_COS, n_replicas=2, seed=4):
            for s, branches, xi, _trig in steps:
                path.append((s, copied(branches), None if xi is None else xi.copy()))
                if draws and xi is not None:
                    extra.append(rng.standard_normal())
    # step 0 -> 1 used the xi drawn before the caller's draw
    assert np.array_equal(plain[1][1][0][1], mixed[1][1][0][1])
    ref = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    ref.uniform(0.0, TWO_PI, shape)
    ref.normal(0.0, np.sqrt(0.5), shape)
    assert np.array_equal(ref.standard_normal(shape), mixed[0][2])
    assert ref.standard_normal() == extra[0]
    assert np.array_equal(ref.standard_normal(shape), mixed[1][2])


class TestModelParams:
    def test_valid_construction(self):
        p = small_params()
        assert p.temperature == pytest.approx(0.5)

    @pytest.mark.parametrize("kw", [
        dict(n_particles=0),
        dict(gamma=-1.0),
        dict(sigma=-0.1),
        dict(dt=0.0),
        dict(dt=2e-2),
        dict(dt=6e-3, gamma=2.0),
        dict(burn_in=-0.5),
        dict(dt=1.01e-2, gamma=0.5),
        dict(t_horizon=-0.1),
        dict(momentum_guard=0.0),
        dict(momentum_guard=-1.0),
        dict(momentum_guard=math.inf),
        dict(momentum_guard=math.nan),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigurationError):
            small_params(**kw)

    def test_temperature_undefined_without_damping(self):
        p = small_params(gamma=0.0)
        with pytest.raises(ConfigurationError):
            p.temperature


class TestLadder:
    def test_example_pair(self):
        pairs = ladder_from_thetas([0.2], 3.0)
        assert pairs[0][0] == 125
        assert pairs[0][1] == pytest.approx(0.2, rel=1e-12)

    @given(eps=st.floats(0.05, 0.5), theta=st.floats(1.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_holds_exactly(self, eps, theta):
        # N reaches 2.6e10 here, past the memory of a small machine, whose
        # bound has its own refusal case below; without sysconf it is off
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(particles.os, "sysconf_names", {})
            pairs = ladder_from_thetas([eps], theta)
        for n, e in pairs:
            assert n >= 2
            assert n * e ** theta == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("epsilons, theta, message", [
        ([0.0], 2.0, r"^point 0\.0 at theta 2\.0: eps and theta must be finite and positive$"),
        ([0.2], 0.0, r"^point 0\.2 at theta 0\.0: eps and theta"),
        ([-0.2], 2.0, r"^point -0\.2 at theta 2\.0: eps and theta"),
        ([-0.2], 2.5, r"^point -0\.2 at theta 2\.5: eps and theta"),
        ([0.2], -3.0, r"^point 0\.2 at theta -3\.0: eps and theta"),
        ([math.inf], 2.0, r"^point inf at theta 2\.0: eps and theta"),
        ([0.2], math.nan, r"^point 0\.2 at theta nan: eps and theta"),
        ([0.2], math.inf, r"^point 0\.2 at theta inf: eps and theta"),
        ([1e-200], 2.0, r"^point 1e-200 at theta 2\.0 gives N = inf, not a finite count"),
        ([0.9, 0.95], 3.0, r"^point 0\.9 at theta 3\.0 gives N = 1, not a finite count"),
        ([1.5], 2.0, r"^point 1\.5 at theta 2\.0 gives N = 0, not a finite count"),
        ([0.4, 0.4], 2.0, r"^point 0\.4 at theta 2\.0 gives N = 6, as point 0\.4 does$"),
        ([0.4, 0.2, 0.401], 2.0, r"^point 0\.401 at theta 2\.0 gives N = 6, as point 0\.4"),
        ([1e-300], 1.0, r"^point 1e-300 at theta 1\.0 gives N = 1e\+300, not a finite count"),
        # 80 TB in one row of particles, refused from sysconf alone
        ([1e-13], 1.0, r"^point 1e-13 at theta 1\.0 gives N = 1e\+13, whose particle row of "
                       r"8e\+13 bytes exceeds the \S+ bytes of memory$"),
    ])
    def test_refuses_a_point_without_its_own_n(self, epsilons, theta, message):
        with pytest.raises(ConfigurationError, match=message):
            ladder_from_thetas(epsilons, theta)

    def test_smallest_n_is_two(self):
        # 1 / 0.6 rounds to N = 2, and the pair carries that N's eps
        assert ladder_from_thetas([0.6], 1.0) == [(2, 0.5)]
        assert ladder_from_thetas([], 0.0) == []


class TestForces:
    def test_two_particle_cosine(self):
        q = np.array([0.0, np.pi / 2.0])
        got = pairwise_force(q, W_COS)
        assert got == pytest.approx([-0.5, 0.5], abs=1e-14)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        w = PotentialSpec([0.0, 0.5, -0.2], [0.0, 0.1, 0.3])
        q = rng.uniform(0, TWO_PI, 17)
        brute = np.array([-w.w1(qi - q).mean() for qi in q])
        assert pairwise_force(q, w) == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("shape", [(17,), (3, 17)])
    def test_shared_trig_keeps_the_bits(self, shape):
        # at = q reuses the totals' cos/sin arrays; a copy of q takes the
        # general path, which evaluates the trig again
        w = PotentialSpec([0.1, 0.5, -0.2, 0.4], [0.0, 0.1, 0.3, -0.7])
        q = np.random.default_rng(1).uniform(0, TWO_PI, shape)
        assert np.array_equal(pairwise_force(q, w), -mean_w1_at(w, q, q.copy()))

    def test_meanfield_force_single_mode(self):
        # marginal (1 + cos q) / (2 pi) under W = cos gives force sin(q)/2
        f = uniform_maxwellian(TorusGeometry(64), 4.5, 96, 0.5)
        f.values = f.values * (1.0 + np.cos(f.geometry.nodes()))[:, None]
        q = np.linspace(0.0, TWO_PI, 13, endpoint=False)
        got = build_force_table(f, W_COS, 1.0, 1.0, 1, 5e-3).force_at(0, q)
        assert got == pytest.approx(0.5 * np.sin(q), abs=1e-12)


class TestAdvance:
    def test_euler_hand_step(self):
        params = small_params(n_particles=2, gamma=0.5, sigma=0.7, dt=1e-2)
        q = np.array([0.1, 6.27])
        p = np.array([1.0, 2.0])
        lift = q.copy()
        dw = np.array([0.05, -0.02])
        force = np.array([0.3, -0.4])
        q2, p2, lift2, p_new = q.copy(), p.copy(), lift.copy(), np.empty(2)
        _advance(p2, q2, lift2, force, params, 0.7 * dw, p_new)
        assert lift2 == pytest.approx(q + p * 1e-2, abs=1e-15)
        assert q2 == pytest.approx(wrap(q + p * 1e-2), abs=1e-15)
        assert q2[1] < 0.02  # the second particle wrapped around
        assert p_new == pytest.approx(p + (-0.5 * p + force) * 1e-2 + 0.7 * dw,
                                      abs=1e-15)
        assert np.array_equal(p2, p * 1e-2)  # p is left holding the drift

    def test_momentum_guard_trips(self):
        params = small_params(n_particles=1, momentum_guard=1.0)
        with pytest.raises(TimeStepError):
            _advance(np.array([0.99]), np.array([0.0]), np.array([0.0]),
                     np.array([100.0]), params,
                     np.array([0.0]), np.empty(1))

    @pytest.mark.parametrize("carried", [True, False])
    def test_in_place_step_has_the_bits_of_the_formula(self, carried):
        params = small_params(n_particles=64, gamma=0.8, sigma=1.3)
        rng = np.random.default_rng(4)
        # positions on both sides of the circle's ends, and far away
        q = np.concatenate([rng.uniform(0, TWO_PI, 60), [0.0, 1e-300, TWO_PI - 1e-16, 40.0]])
        p = rng.normal(0.0, 3.0, 64)
        lift = rng.normal(0.0, 5.0, 64) if carried else None
        dw = rng.standard_normal(64) * np.sqrt(params.dt)
        want = euler_step(q, p, lift, lambda x: pairwise_force(x, W_MULTI), params, dw)
        got = (q.copy(), p.copy(), None if lift is None else lift.copy())
        p_new = np.empty(64)
        _advance(got[1], got[0], got[2], pairwise_force(q, W_MULTI), params,
                 params.sigma * dw, p_new)
        assert same_bits(got[0], want[0]) and same_bits(p_new, want[1])
        if carried:
            assert same_bits(got[2], want[2])


class TestSchemeOrder:
    def _final_q(self, dt):
        # sigma = 0 and no burn-in: the path is fixed by the seeded start,
        # which is the same for every dt
        params = ModelParams(n_particles=2, gamma=1.0, sigma=0.0,
                             t_horizon=0.2, dt=dt, burn_in=0.0)
        q, _ = simulate_interacting(params, W_COS, n_replicas=1, seed=0,
                                    snapshot_times=[0.2])
        return q[0, 0]

    def test_euler_is_first_order(self):
        sols = [self._final_q(dt) for dt in (4e-3, 2e-3, 1e-3)]
        e1 = np.abs(sols[0] - sols[1]).max()
        e2 = np.abs(sols[1] - sols[2]).max()
        assert 1.6 < e1 / e2 < 2.4


class TestCoupledRuns:
    def test_zero_potential_branches_identical(self):
        params = small_params()
        traj = simulate_coupled(params, PotentialSpec.zero(), n_replicas=4,
                                snapshot_times=[0.0, 0.05, 0.1], seed=3)
        assert np.array_equal(traj.p_int, traj.p_mf)
        assert np.array_equal(traj.lift_int, traj.lift_mf)
        assert chaos_distance(traj).max() == 0.0

    def test_snapshot_zero_is_the_common_state(self):
        params = small_params(burn_in=0.1)
        traj = simulate_coupled(params, W_COS, n_replicas=4,
                                snapshot_times=[0.0, 0.1], seed=5)
        assert np.array_equal(traj.lift_int[0], traj.lift_mf[0])
        assert np.array_equal(traj.p_int[0], traj.p_mf[0])
        assert not np.array_equal(traj.p_int[1], traj.p_mf[1])

    def test_seed_reproducibility(self):
        params = small_params()
        a = simulate_coupled(params, W_COS, n_replicas=4,
                             snapshot_times=[0.1], seed=11)
        b = simulate_coupled(params, W_COS, n_replicas=4,
                             snapshot_times=[0.1], seed=11)
        assert np.array_equal(a.q_int, b.q_int)
        assert np.array_equal(a.p_mf, b.p_mf)

    def test_ragged_last_block(self):
        # 6 replicas in blocks of 4: the second block is partial
        params = small_params()
        traj = simulate_coupled(params, W_COS, n_replicas=6,
                                snapshot_times=[0.1], seed=7, replica_block=4)
        assert traj.q_int.shape == (1, 6, 8)
        # every replica got its own noise: no two final states coincide
        finals = traj.p_int[0]
        for i in range(6):
            for j in range(i + 1, 6):
                assert not np.array_equal(finals[i], finals[j])

    def test_snapshot_time_must_be_on_grid(self):
        params = small_params()
        with pytest.raises(ConfigurationError):
            simulate_coupled(params, W_COS, n_replicas=2,
                             snapshot_times=[0.0033], seed=0)

    def test_snapshot_beyond_horizon(self):
        params = small_params()
        with pytest.raises(ConfigurationError):
            simulate_coupled(params, W_COS, n_replicas=2,
                             snapshot_times=[0.2], seed=0)

    def test_snapshot_before_zero(self):
        params = small_params()
        with pytest.raises(ConfigurationError):
            simulate_coupled(params, W_COS, n_replicas=2,
                             snapshot_times=[-0.005, 0.01], seed=0)

    def test_interacting_run_is_the_coupled_interacting_branch(self):
        # after a burn-in, in blocks of 4 and 2
        params = small_params(burn_in=0.05, t_horizon=0.05)
        kw = dict(n_replicas=6, snapshot_times=[0.05, 0.0, 0.025], seed=9,
                  replica_block=4)
        traj = simulate_coupled(params, W_COS, **kw)
        q, p = simulate_interacting(params, W_COS, **kw)
        assert q.shape == p.shape == (3, 6, 8)
        assert np.array_equal(q.view(np.int64), traj.q_int.view(np.int64))
        assert np.array_equal(p.view(np.int64), traj.p_int.view(np.int64))

    def test_ou_momentum_variance(self):
        # zero potential: p is an OU process, stationary variance sigma^2/(2 gamma)
        params = small_params(n_particles=256, t_horizon=1.0)
        _, p = simulate_interacting(params, PotentialSpec.zero(),
                                    n_replicas=16, snapshot_times=[1.0], seed=0)
        assert p.shape == (1, 16, 256)
        assert p.var() == pytest.approx(0.5, rel=0.05)


class TestReplicaSteps:
    def test_yield_contract(self):
        # 6 replicas in blocks of 4: the second block holds rows 4 and 5
        params = small_params(t_horizon=0.02, burn_in=0.01)
        seen = []
        for lo, hi, _rng, steps in replica_steps(
                params, W_COS, n_replicas=6, seed=2, replica_block=4, coupled=True):
            for s, branches, xi, _trig in steps:
                seen.append((lo, hi, s, xi is None))
                (q, p, lift), (p_mf, lift_mf) = branches
                for a in (q, p, lift, p_mf, lift_mf):
                    assert a.shape == (hi - lo, 8)
                if s == 0:
                    assert np.array_equal(p, p_mf) and np.array_equal(lift, lift_mf)
                if xi is not None:
                    assert xi.shape == (hi - lo, 8)
        assert seen == [(lo, hi, s, s == 4) for lo, hi in ((0, 4), (4, 6))
                        for s in range(5)]

    def test_caller_draws_fall_between_xi_and_the_step(self):
        check_caller_draws(n_particles=3)

    @pytest.mark.parametrize("sigma", [1.3, 0.0])
    def test_the_start_has_the_bits_of_uniform_and_normal(self, sigma):
        # the start is drawn into the block's arrays; sigma = 0 makes sd z = -0.0
        params = small_params(n_particles=7, gamma=0.8, sigma=sigma)
        driver = replica_steps(params, W_COS, n_replicas=3, seed=2)  # a block ends with it
        _lo, _hi, _rng, steps = next(driver)
        _s, ((q, p),), _xi, _trig = next(steps)
        twin = np.random.default_rng(np.random.SeedSequence(2).spawn(1)[0])
        assert same_bits(q, twin.uniform(0.0, TWO_PI, (3, 7)))
        assert same_bits(p, twin.normal(0.0, math.sqrt(params.temperature), (3, 7)))

    @pytest.mark.parametrize("w", [W_COS, W_MULTI], ids=["cos", "multi"])
    def test_trig_is_the_cos_sin_of_q_and_changes_no_bit(self, w):
        params = small_params(t_horizon=0.02, burn_in=0.01)
        kw = dict(n_replicas=5, seed=3, replica_block=4, coupled=True)
        read, plain = [], []
        for _lo, _hi, _rng, steps in replica_steps(params, w, **kw):
            for s, branches, xi, trig in steps:
                if xi is None:
                    assert trig is None
                else:
                    ref = cos_sin(branches[0][0])
                    assert all(same_bits(a, b) for a, b in zip(trig, ref, strict=True))
                read.append([a.tobytes() for b in branches for a in b])
        for _lo, _hi, _rng, steps in replica_steps(params, w, **kw):
            for s, branches, xi, _trig in steps:
                plain.append([a.tobytes() for b in branches for a in b])
        assert read == plain
        assert len(plain) == 2 * 5

    def test_no_trig_without_a_pairwise_force(self):
        for _lo, _hi, _rng, steps in replica_steps(small_params(), PotentialSpec.zero(),
                                                   n_replicas=2, seed=0):
            for *_, trig in steps:
                assert trig is None

    def test_no_replicas_yield_no_block(self):
        assert list(replica_steps(small_params(), W_COS, n_replicas=0, seed=0)) == []

    def test_block_numbers_depend_only_on_seed_and_index(self):
        params = small_params()
        kw = dict(snapshot_times=[0.1], seed=6, replica_block=2)
        q4, p4 = simulate_interacting(params, W_COS, n_replicas=4, **kw)
        q5, p5 = simulate_interacting(params, W_COS, n_replicas=5, **kw)
        assert np.array_equal(q4, q5[:, :4])
        assert np.array_equal(p4, p5[:, :4])

    def test_recorded_path_follows_its_increments(self):
        params = small_params(n_particles=5, t_horizon=0.02)
        path = [(copied(branches)[0], None if xi is None else xi.copy())
                for _lo, _hi, _rng, steps in replica_steps(params, W_COS, n_replicas=3, seed=1)
                for _s, branches, xi, _trig in steps]
        assert len(path) == 5
        for (state, xi), (after, _) in zip(path, path[1:]):
            stepped = euler_step(*state, None, lambda x: pairwise_force(x, W_COS),
                                 params, xi * np.sqrt(params.dt))
            for a, b in zip(stepped, after):
                assert np.array_equal(a, b)

    def test_an_uncoupled_run_carries_no_lift(self, monkeypatch):
        lifts = []

        def recorded(p, q, lift, *args):
            lifts.append(lift)
            return _advance(p, q, lift, *args)

        monkeypatch.setattr(particles, "_advance", recorded)
        for _lo, _hi, _rng, steps in replica_steps(small_params(burn_in=0.02), W_COS,
                                                   n_replicas=2, seed=0):
            for _s, branches, _xi, _trig in steps:
                assert [len(b) for b in branches] == [2]
        assert len(lifts) == 4 + 20 and all(lift is None for lift in lifts)

    def test_a_block_stops_where_its_caller_stops(self, monkeypatch):
        calls = []
        monkeypatch.setattr(particles, "_advance",
                            lambda p, *args: calls.append(len(p)) or _advance(p, *args))
        for lo, _hi, _rng, steps in replica_steps(small_params(), W_COS, n_replicas=6,
                                                  seed=0, replica_block=4, coupled=True):
            for s, _branches, _xi, _trig in steps:
                if s == 2 + lo:
                    break
        # the first block takes 2 steps, the second 6, both branches each
        assert calls == [4] * 4 + [2] * 12

    @pytest.mark.parametrize("read_trig", [False, True])
    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("w", [W_COS, W_MULTI], ids=["cos", "multi"])
    def test_a_step_allocates_no_particle_sized_array(self, w, coupled, read_trig):
        # numpy reports its array buffers to tracemalloc
        params = small_params(n_particles=4096, t_horizon=0.04, burn_in=0.01)
        driver = replica_steps(params, w, n_replicas=16, coupled=coupled)
        _lo, _hi, _rng, steps = next(driver)
        tracemalloc.start()
        try:
            for s, _branches, _xi, trig in steps:
                if read_trig and trig is not None:
                    assert np.isfinite(trig[0].sum() + trig[1].sum())
                if s == 1:  # the first step made the block's arrays
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 16 * 4096 * 8


class Raised(Exception):
    """What a fill made to fail on the helper raises."""


def fail_on_the_helper(monkeypatch, method):
    """Make every block's Generator raise Raised from `method` on the helper."""
    def failing(self, *args, **kwargs):
        if threading.current_thread().name.startswith("dklab-normals"):
            raise Raised(method)
        return getattr(np.random.Generator, method)(self, *args, **kwargs)

    failing_generator = type("FailingGenerator", (np.random.Generator,), {method: failing})
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: failing_generator(np.random.PCG64(seed)))


def helpers_alive():
    return sum(t.name.startswith("dklab-normals") for t in threading.enumerate())


# a block of 2 rows of AHEAD_N particles draws ahead, a block of 1 row does not
AHEAD_N = 2800


def yielded(params, w, stops=None, **driver):
    """Every item a run yields, as [lo, s, state bytes..., xi bytes], and
    after each block a number the caller draws from its rng, as [lo, None,
    draw].  stops maps a block's lo to the last step its caller takes (None:
    the caller does not iterate the block)."""
    stops = stops or {}
    out = []
    for lo, _hi, rng, steps in replica_steps(params, w, **driver):
        for s, branches, xi, _trig in ([] if lo in stops and stops[lo] is None else steps):
            out.append([lo, s] + [a.tobytes() for b in branches for a in b]
                       + [None if xi is None else xi.tobytes()])
            if stops.get(lo) == s:
                break
        out.append([lo, None, rng.standard_normal()])
    return out


def ahead_and_inline(monkeypatch, params, w, **kw):
    """`yielded` at the threshold, then with every block drawing inline."""
    runs = []
    for threshold in (particles.DRAW_AHEAD_ELEMENTS, 10 ** 12):
        monkeypatch.setattr(particles, "DRAW_AHEAD_ELEMENTS", threshold)
        runs.append(yielded(params, w, **kw))
    return runs


class TestDrawAhead:
    """Blocks of at least DRAW_AHEAD_ELEMENTS draw each next xi on a helper."""

    def test_the_threshold_splits_the_test_blocks(self):
        assert AHEAD_N < particles.DRAW_AHEAD_ELEMENTS <= 2 * AHEAD_N

    @pytest.mark.parametrize("read_trig", [False, True])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_each_step_has_the_bits_of_the_oracle(self, coupled, read_trig):
        # a burn-in, then a block of 2 rows, which draws ahead, and one of 1 row,
        # which does not
        params = small_params(n_particles=AHEAD_N, burn_in=0.01, t_horizon=0.02)
        sqdt = np.sqrt(params.dt)
        before_run = helpers_alive()
        seen, during = [], []
        for lo, hi, rng, steps in replica_steps(params, W_MULTI, n_replicas=3, seed=5,
                                                replica_block=2, coupled=coupled):
            for s, branches, xi, trig in steps:
                during.append(helpers_alive())
                if read_trig and trig is not None:
                    # computed beside the fill of this xi
                    assert all(same_bits(a, b) for a, b in zip(trig, cos_sin(branches[0][0])))
                if s > 0:
                    inter = euler_step(*before[0], *[None][:3 - len(before[0])],
                                       lambda x: pairwise_force(x, W_MULTI), params, dw)
                    want = [inter if coupled else inter[:2]]
                    if coupled:
                        # the oracle keeps the mean-field positions the driver drops
                        mf = euler_step(mf[0], *before[1], None, params, dw)
                        want.append(mf[1:])
                    assert [len(b) for b in branches] == [len(b) for b in want]
                    for got, exp in zip(branches, want):
                        assert all(same_bits(a, b) for a, b in zip(got, exp))
                elif coupled:
                    mf = (branches[0][0].copy(),) + copied(branches)[1]
                before, dw = copied(branches), None if xi is None else xi * sqdt
                seen.append((lo, s))
        assert seen == [(lo, s) for lo in (0, 2) for s in range(5)]
        # the 2-row block ran with the helper, the 1-row block without it
        assert during[:5] == [before_run + 1] * 5
        assert helpers_alive() == before_run

    @pytest.mark.parametrize("coupled", [False, True])
    def test_the_helper_keeps_every_bit_of_the_inline_draws(self, monkeypatch, coupled):
        params = small_params(n_particles=AHEAD_N, burn_in=0.02, t_horizon=0.03)
        runs = []
        for threshold in (particles.DRAW_AHEAD_ELEMENTS, 10 ** 12):  # ahead, inline
            monkeypatch.setattr(particles, "DRAW_AHEAD_ELEMENTS", threshold)
            runs.append([[a.tobytes() for b in branches for a in b]
                         + [None if xi is None else xi.tobytes()]
                         for _lo, _hi, _rng, steps in replica_steps(
                             params, W_COS, n_replicas=4, seed=6, replica_block=2,
                             coupled=coupled)
                         for _s, branches, xi, _trig in steps])
        assert runs[0] == runs[1]
        assert len(runs[0]) == 2 * 7

    def test_caller_draws_fall_between_xi_and_the_step(self):
        check_caller_draws(n_particles=AHEAD_N)

    def test_no_helper_outlives_a_run_to_the_end(self):
        before, during = threading.active_count(), []
        for _lo, _hi, _rng, steps in replica_steps(small_params(n_particles=AHEAD_N), W_COS,
                                                   n_replicas=4, seed=0, replica_block=2):
            for _ in steps:
                during.append(helpers_alive())
        assert min(during) == 1
        assert threading.active_count() == before

    def test_no_helper_outlives_an_early_stop(self):
        before = threading.active_count()
        params = small_params(n_particles=AHEAD_N)
        q, _p = simulate_interacting(params, W_COS, n_replicas=2, snapshot_times=[0.01],
                                     seed=0)
        assert q.shape == (1, 2, AHEAD_N)

        def stop_at_step_3():  # its return drops the driver and the block
            for _lo, _hi, _rng, steps in replica_steps(params, W_COS, n_replicas=4, seed=0,
                                                       replica_block=2):
                for s, *_ in steps:
                    if s == 3:
                        assert helpers_alive() == 1
                        return

        stop_at_step_3()
        assert threading.active_count() == before

    def test_no_helper_outlives_a_tripped_momentum_guard(self, monkeypatch):
        # the guard trips in the first step, after it handed its fill over
        before, at_each_step = threading.active_count(), []

        def advance(*args):
            at_each_step.append(helpers_alive())
            return _advance(*args)

        monkeypatch.setattr(particles, "_advance", advance)
        params = small_params(n_particles=AHEAD_N, momentum_guard=1.0)
        with pytest.raises(TimeStepError):
            for _lo, _hi, _rng, steps in replica_steps(params, W_COS, n_replicas=2, seed=0):
                for _ in steps:
                    pass
        assert at_each_step == [1]
        assert threading.active_count() == before

    def test_a_dropped_driver_ends_its_block(self):
        before = threading.active_count()
        params = small_params(n_particles=AHEAD_N)
        driver = replica_steps(params, W_COS, n_replicas=2, seed=0, coupled=True)
        _lo, _hi, _rng, steps = next(driver)
        assert [s for s, *_ in islice(steps, 4)] == [0, 1, 2, 3]
        assert helpers_alive() == 1
        del driver  # the last reference: dropping it ends the driver
        assert list(steps) == []
        assert threading.active_count() == before

    def test_concurrent_runs_keep_their_bits_under_a_short_switch_interval(self, monkeypatch):
        # three runs at once, each with its helper: six threads on fewer cores,
        # switching as often as the interpreter allows
        params = small_params(n_particles=AHEAD_N, burn_in=0.02, t_horizon=0.05)

        def run(seed):
            return simulate_coupled(params, W_COS, n_replicas=4, snapshot_times=[0.05],
                                    seed=seed, replica_block=2)

        threshold = particles.DRAW_AHEAD_ELEMENTS
        monkeypatch.setattr(particles, "DRAW_AHEAD_ELEMENTS", 10 ** 12)
        inline = [run(seed) for seed in range(3)]
        monkeypatch.setattr(particles, "DRAW_AHEAD_ELEMENTS", threshold)
        ahead = {}
        runners = [threading.Thread(target=lambda s=s: ahead.update({s: run(s)}))
                   for s in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        for seed, want in enumerate(inline):
            for a, b in zip(vars(ahead[seed]).values(), vars(want).values()):
                assert same_bits(a, b)

    @pytest.mark.parametrize("burn_in", [0.0, 0.01])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_blocks_that_draw_their_successors_start_keep_the_inline_bits(
            self, monkeypatch, coupled, burn_in):
        # 8 replicas in blocks of 3, 3 and 2: every block draws ahead, and the
        # first two draw the start of the block after them
        params = small_params(n_particles=AHEAD_N, burn_in=burn_in, t_horizon=0.02)
        runs = ahead_and_inline(monkeypatch, params, W_MULTI, n_replicas=8, seed=8,
                                replica_block=3, coupled=coupled)
        assert runs[0] == runs[1]
        assert [item[:2] for item in runs[0] if item[1] is not None] == [
            [lo, s] for lo in (0, 3, 6) for s in range(5)]

    def test_callers_that_stop_early_keep_the_inline_bits(self, monkeypatch):
        # block 0 stops at s = 0, before its successor's first xi is handed
        # over; block 3 is never iterated; block 6 stops at s = 1
        params = small_params(n_particles=AHEAD_N, t_horizon=0.02)
        runs = ahead_and_inline(monkeypatch, params, W_COS, stops={0: 0, 3: None, 6: 1},
                                n_replicas=11, seed=3, replica_block=3, coupled=True)
        assert runs[0] == runs[1]
        assert [item[:2] for item in runs[0] if item[1] is not None] == [
            [0, 0], [6, 0], [6, 1], [9, 0], [9, 1], [9, 2], [9, 3], [9, 4]]

    @pytest.mark.parametrize("t_horizon", [0.0, 0.005])
    @pytest.mark.parametrize("burn_in", [0.0, 0.005, 0.01])
    def test_runs_of_at_most_one_main_step_keep_the_inline_bits(
            self, monkeypatch, burn_in, t_horizon):
        params = small_params(n_particles=AHEAD_N, burn_in=burn_in, t_horizon=t_horizon)
        runs = ahead_and_inline(monkeypatch, params, W_COS, n_replicas=8, seed=2,
                                replica_block=3, coupled=True)
        assert runs[0] == runs[1]
        assert len(runs[0]) == 3 * (2 + round(t_horizon / params.dt))
        # a block draws its start and one xi per step, the first step's before it
        n_steps = round((burn_in + t_horizon) / params.dt)
        draws = []
        for child, rows in zip(np.random.SeedSequence(2).spawn(3), (3, 3, 2)):
            ref = np.random.default_rng(child)
            ref.random((rows, AHEAD_N))
            for _ in range(1 + n_steps):
                ref.standard_normal((rows, AHEAD_N))
            draws.append(ref.standard_normal())
        assert [item[2] for item in runs[0] if item[1] is None] == draws

    def test_caller_draws_fall_between_xi_and_the_step_in_every_block(self):
        # blocks of 3, 3 and 2 draw ahead and draw each other's starts;
        # blocks of 1 draw inline
        params = small_params(n_particles=AHEAD_N, t_horizon=0.015)
        for n_replicas, block in ((8, 3), (2, 1)):
            children = np.random.SeedSequence(4).spawn(-(-n_replicas // block))
            taken = []
            for lo, hi, rng, steps in replica_steps(params, W_COS, n_replicas=n_replicas,
                                                    seed=4, replica_block=block):
                shape = (hi - lo, AHEAD_N)
                ref = np.random.default_rng(children[lo // block])
                ref.uniform(0.0, TWO_PI, shape)
                ref.normal(0.0, np.sqrt(0.5), shape)
                for s, _branches, xi, _trig in steps:
                    if xi is not None:
                        assert np.array_equal(ref.standard_normal(shape), xi)
                        assert ref.standard_normal() == rng.standard_normal()
                        taken.append((lo, s))
            assert taken == [(lo, s) for lo in range(0, n_replicas, block)
                             for s in range(3)]

    @pytest.mark.parametrize("close", [False, True])
    def test_no_helper_outlives_a_dropped_driver_with_a_start_pending(self, monkeypatch,
                                                                      close):
        # a slow uniform fill keeps the next block's start pending when the
        # driver ends, which it does when it is closed or dropped
        drawn = []

        class SlowUniforms(np.random.Generator):
            def random(self, *args, **kwargs):
                time.sleep(0.1)
                out = super().random(*args, **kwargs)
                drawn.append(threading.current_thread().name)
                return out

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: SlowUniforms(np.random.PCG64(seed)))
        before = threading.active_count()
        params = small_params(n_particles=AHEAD_N)
        driver = replica_steps(params, W_COS, n_replicas=4, seed=0, replica_block=2)
        _lo, _hi, _rng, steps = next(driver)
        assert next(steps)[0] == 0  # s = 0 handed the next block's q and p over
        assert helpers_alive() == 1
        if close:
            driver.close()
        else:
            del driver
        # block 0's uniforms were drawn inline, and block 1's finished on the
        # helper before the driver let it go
        assert [name.startswith("dklab-normals") for name in drawn] == [False, True]
        assert list(steps) == []
        assert threading.active_count() == before

    def test_no_helper_outlives_a_guard_tripped_with_a_start_pending(self):
        # one main step per block: it hands over no xi, so the next block's
        # start is still pending when the guard trips
        before = threading.active_count()
        params = small_params(n_particles=AHEAD_N, t_horizon=0.005, momentum_guard=1.0)
        with pytest.raises(TimeStepError):
            for _lo, _hi, _rng, steps in replica_steps(params, W_COS, n_replicas=4, seed=0,
                                                       replica_block=2):
                for _ in steps:
                    assert helpers_alive() == 1
        assert threading.active_count() == before

    def test_a_step_hands_the_caller_what_its_fill_raised(self, monkeypatch):
        # one block, which hands its first fill over in the step 0 -> 1
        fail_on_the_helper(monkeypatch, "standard_normal")
        params = small_params(n_particles=AHEAD_N)
        before, seen = threading.active_count(), []
        with pytest.raises(Raised):
            for _lo, _hi, _rng, steps in replica_steps(params, W_COS, n_replicas=2, seed=0):
                for s, *_ in steps:
                    seen.append(s)
        assert seen == [0]
        assert helpers_alive() == 0
        assert threading.active_count() == before

    def test_the_driver_hands_the_caller_what_a_start_fill_raised(self, monkeypatch):
        # only the start draws uniforms: block 0 hands block 1's over at s = 0,
        # and the driver waits for them before it yields block 1
        fail_on_the_helper(monkeypatch, "random")
        params = small_params(n_particles=AHEAD_N)
        before, seen = threading.active_count(), []
        with pytest.raises(Raised):
            for lo, _hi, _rng, steps in replica_steps(params, W_COS, n_replicas=4, seed=0,
                                                      replica_block=2):
                for s, *_ in steps:
                    seen.append((lo, s))
        assert seen == [(0, s) for s in range(21)]
        assert helpers_alive() == 0
        assert threading.active_count() == before

    def test_the_second_start_is_made_once_per_run_and_shape(self, monkeypatch):
        made = []

        class Counted(particles.Workspace):
            def __init__(self, shape):
                made.append(tuple(shape))
                super().__init__(shape)

        monkeypatch.setattr(particles, "Workspace", Counted)
        params = small_params(n_particles=AHEAD_N, t_horizon=0.01)
        counts = []
        for n_replicas in (6, 12, 13):  # 3 and 6 blocks of 2, then one ragged block of 1
            made.clear()
            starts = []
            for _lo, _hi, _rng, steps in replica_steps(params, W_COS, n_replicas=n_replicas,
                                                       seed=0, replica_block=2):
                starts.append(next(steps)[1][0][0])
                for _ in steps:
                    pass
            counts.append(Counter(made))
            # the blocks take two start arrays by turns
            assert all(a is b for a, b in zip(starts[:6], starts[2:6]))
            assert all(a is not b for a, b in zip(starts[:6], starts[1:6]))
        assert counts[0] == counts[1]
        assert counts[2] == counts[1] + Counter({(1, AHEAD_N): counts[1][(2, AHEAD_N)]})


def vfp_force_table(params, w, n_rows):
    """The kinetic solver's mean-field force table from the default datum,
    with no modes for the zero potential: the reference force of every
    burn-in and mean-field step."""
    if w.is_zero:
        return VfpForceTable(np.zeros((n_rows, 0), dtype=complex))
    return build_force_table(default_datum(params.gamma, params.sigma), w,
                             params.gamma, params.sigma, n_rows, params.dt)


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestZeroMeanFieldForce:
    """The default datum is a stationary law, so its force is exactly zero."""

    @pytest.mark.parametrize("gamma, sigma, dt", [
        (1.0, 1.0, 5e-3), (0.5, 0.7, 1e-2), (2.0, 1.5, 2.5e-3), (0.8, 0.3, 5e-3)])
    @pytest.mark.parametrize("w", [W_COS, W_MULTI], ids=["cos", "multi"])
    def test_force_table_of_the_datum_is_zero(self, monkeypatch, w, gamma, sigma, dt):
        solvers = []

        class Recorded(VfpSolver):
            def __init__(self, *args):
                super().__init__(*args)
                solvers.append(self)

        monkeypatch.setattr(particles, "VfpSolver", Recorded)
        table = build_force_table(default_datum(gamma, sigma), w, gamma, sigma, 300, dt)
        assert table.coeffs.shape == (300, w.k_max)
        assert (table.coeffs == 0).all()
        assert len(solvers) == 1 and solvers[0].clipped_mass == 0.0

    @pytest.mark.parametrize("w", [W_MULTI, PotentialSpec.zero()], ids=["multi", "zero"])
    def test_each_step_has_the_bits_of_the_added_force(self, w):
        # a burn-in, then a coupled run in blocks of 4 and 2
        params = small_params(burn_in=0.02, t_horizon=0.03)
        burn = step_index(params.burn_in, params.dt, "burn_in")
        main = step_index(params.t_horizon, params.dt, "t_horizon")
        table = vfp_force_table(params, w, burn + main)
        sqdt = np.sqrt(params.dt)
        children = np.random.SeedSequence(8).spawn(2)
        seen = []
        for lo, hi, _rng, steps in replica_steps(
                params, w, n_replicas=6, seed=8, replica_block=4, coupled=True):
            for s, branches, xi, _trig in steps:
                if s == 0:
                    rng = np.random.default_rng(children[lo // 4])
                    shape = (hi - lo, params.n_particles)
                    q = rng.uniform(0.0, TWO_PI, shape)
                    state = (q, rng.normal(0.0, np.sqrt(params.temperature), shape),
                             q.copy())
                    for r in range(burn):
                        state = euler_step(*state, lambda x: table.force_at(r, x), params,
                                           rng.standard_normal(shape) * sqdt)
                    mf = state
                    expected = (state, state[1:])
                else:
                    # the driver's mean-field branch is (p, lift); the oracle
                    # keeps its positions, at which the table's force is taken
                    mf = euler_step(mf[0], *before[1],
                                    lambda x: table.force_at(burn + s - 1, x), params, dw)
                    expected = (
                        euler_step(*before[0], lambda x: pairwise_force(x, w), params, dw),
                        mf[1:])
                for got, want in zip(branches, expected):
                    assert len(got) == len(want)
                    assert all(same_bits(a, b) for a, b in zip(got, want))
                before, dw = copied(branches), None if xi is None else xi * sqdt
                seen.append((lo, s))
        assert seen == [(lo, s) for lo in (0, 4) for s in range(main + 1)]


class TestChaosDistance:
    def _toy(self, dq, dp, n_replicas=3):
        rng = np.random.default_rng(0)
        shape = (2, n_replicas, 5)
        lift_mf = rng.normal(size=shape)
        p_mf = rng.normal(size=shape)
        return CoupledTrajectory(
            times=np.array([0.0, 1.0]),
            q_int=wrap(lift_mf + dq), p_int=p_mf + dp, lift_int=lift_mf + dq,
            p_mf=p_mf, lift_mf=lift_mf)

    def test_hand_values(self):
        traj = self._toy(0.3, 0.4)
        assert chaos_distance(traj, alpha=2) == pytest.approx([0.5, 0.5])
        expected4 = (0.3 ** 4 + 0.4 ** 4) ** 0.25
        assert chaos_distance(traj, alpha=4) == pytest.approx(
            [expected4, expected4])
        assert chaos_distance(traj).max() == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha", [1, 3, 0])
    def test_alpha_must_be_even(self, alpha):
        with pytest.raises(ValueError):
            chaos_distance(self._toy(0.1, 0.1), alpha=alpha)

    def test_needs_replicas(self):
        with pytest.raises(ValueError):
            chaos_distance(self._toy(0.1, 0.1, n_replicas=1))

    @pytest.mark.parametrize("alpha", [2, 4])
    def test_bits_equal_the_formula(self, alpha):
        rng = np.random.default_rng(2)
        traj = self._toy(rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3, 5)))
        per = (np.abs(traj.lift_int - traj.lift_mf) ** alpha
               + np.abs(traj.p_int - traj.p_mf) ** alpha)
        ref = per.mean(axis=(1, 2)) ** (1.0 / alpha)
        got = chaos_distance(traj, alpha=alpha)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
