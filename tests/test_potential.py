"""Trigonometric potentials, their derivatives and ensemble averages."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dklab.potential import PotentialSpec, mean_w1_at
from dklab.torus import TWO_PI, Workspace, cos_sin


def random_spec(rng, k_max=3):
    return PotentialSpec(rng.normal(size=k_max + 1), rng.normal(size=k_max + 1))


class TestPotentialSpec:
    def test_cosine_values(self):
        w = PotentialSpec.cosine_potential()
        x = np.linspace(0, TWO_PI, 13)
        assert w.w1(x) == pytest.approx(-np.sin(x))

    def test_zero_potential(self):
        w = PotentialSpec.zero()
        assert w.is_zero
        assert w.w1(np.linspace(0, 6, 7)) == pytest.approx(0.0)
        assert not PotentialSpec.cosine_potential().is_zero

    def test_mismatched_coefficients_raise(self):
        with pytest.raises(ValueError):
            PotentialSpec([0.0, 1.0], [0.0])

    def test_nonfinite_coefficients_raise(self):
        with pytest.raises(ValueError):
            PotentialSpec([0.0, np.nan], [0.0, 0.0])

    def test_extrema_scan(self):
        w = PotentialSpec.cosine_potential()
        assert w.max_abs_w1() == pytest.approx(1.0, abs=1e-5)

    def test_conv_multiplier_cosine(self):
        w = PotentialSpec.cosine_potential()
        mult = w.conv_multiplier(5, derivative=1)
        assert mult[1] == pytest.approx(1j * np.pi)
        assert mult[0] == 0.0 and np.all(mult[2:] == 0.0)

    def test_conv_multiplier_mean_mode(self):
        w = PotentialSpec([2.0, 1.0], [0.0, 0.0])
        assert w.conv_multiplier(3, derivative=0)[0] == pytest.approx(2.0 * TWO_PI)

    @pytest.mark.parametrize("w", [
        PotentialSpec.cosine_potential(),
        PotentialSpec([0.1, 0.7, 0.2, -0.4], [0.0, 0.4, -0.3, 0.25])], ids=["cos", "multi"])
    def test_force_multiplier_has_no_mean(self, w):
        # why the mean-field force of the stationary law is zero: its q
        # marginal is the constant 1 / (2 pi), which has only a k = 0
        # coefficient, and W' * rho multiplies that coefficient by this entry
        mult = w.conv_multiplier(16, 1)
        assert mult[0] == 0.0
        assert (mult[1:w.k_max + 1] != 0.0).all()


class TestMeanW1:
    def test_matches_pairwise_bruteforce(self):
        rng = np.random.default_rng(4)
        w = random_spec(rng)
        q = rng.uniform(0, TWO_PI, 23)
        at = rng.uniform(0, TWO_PI, 9)
        brute = np.array([w.w1(a - q).mean() for a in at])
        assert mean_w1_at(w, q, at) == pytest.approx(brute, abs=1e-12)

    def test_self_term_included(self):
        # evaluating at the particle itself keeps the j == i term
        w = PotentialSpec([0.0, 0.0], [0.0, 1.0])  # W = sin, W'(0) = 1
        q = np.array([0.0])
        got = mean_w1_at(w, q, q)
        assert got == pytest.approx([1.0], abs=1e-14)

    def test_batched_replicas(self):
        rng = np.random.default_rng(5)
        w = random_spec(rng, k_max=2)
        q = rng.uniform(0, TWO_PI, (3, 8))
        at = rng.uniform(0, TWO_PI, 11)
        got = mean_w1_at(w, q, at)
        assert got.shape == (3, 11)
        for r in range(3):
            assert got[r] == pytest.approx(mean_w1_at(w, q[r], at))

    @pytest.mark.parametrize("cosine, sine", [
        ([0.0, 1.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, 1.0]),
        ([0.3, 0.7, 0.0, 0.2], [0.0, 0.4, -0.3, 0.0])])
    @pytest.mark.parametrize("at_shape", [None, (13,), (4, 9)])
    def test_bits_equal_the_one_expression_sum(self, cosine, sine, at_shape):
        # the terms are built in place and zero coefficients skipped; the
        # result keeps the bits of the one-expression form over cos_sin's
        # trig, with or without the caller's cos q, sin q
        def reference(w, q, at):
            out = np.zeros(np.broadcast_shapes(q.shape[:-1] + (1,), at.shape))
            for k in range(1, w.k_max + 1):
                a, b = w.cosine[k], w.sine[k]
                cos_q, sin_q = cos_sin(k * q)
                ck = cos_q.sum(axis=-1, keepdims=True)
                sk = sin_q.sum(axis=-1, keepdims=True)
                cos_at, sin_at = cos_sin(k * at)
                out += k * (-a * (ck * sin_at - sk * cos_at)
                            + b * (ck * cos_at + sk * sin_at))
            return out / q.shape[-1]

        rng = np.random.default_rng(6)
        w = PotentialSpec(np.array(cosine), np.array(sine))
        q = rng.uniform(0, TWO_PI, (4, 21))
        q[0] = 0.0  # a zero total makes signed zeros
        at = q if at_shape is None else rng.uniform(-1.0, 7.0, at_shape)
        ref = reference(w, q, at).view(np.int64)
        assert np.array_equal(mean_w1_at(w, q, at).view(np.int64), ref)
        if at_shape is None:
            got = mean_w1_at(w, q, q, cos_sin_q=cos_sin(q))
            assert np.array_equal(got.view(np.int64), ref)
            # a workspace, used twice, holds the result and the temporaries
            work = Workspace(q.shape)
            for trig in (cos_sin(q), None):
                got = mean_w1_at(w, q, q, cos_sin_q=trig, work=work)
                assert got is work["w1"]
                assert np.array_equal(got.view(np.int64), ref)
        else:
            with pytest.raises(ValueError):
                mean_w1_at(w, q, at, work=Workspace(q.shape))

    @given(st.integers(0, 2 ** 32 - 1))
    def test_uniform_lattice_averages_to_zero(self, seed):
        # W' has no k=0 mode, so a full lattice of particles cancels exactly
        rng = np.random.default_rng(seed)
        w = random_spec(rng, k_max=2)
        q = np.arange(16) * (TWO_PI / 16) + rng.uniform(0, TWO_PI)
        at = rng.uniform(0, TWO_PI, 5)
        assert np.abs(mean_w1_at(w, q, at)).max() < 1e-12
