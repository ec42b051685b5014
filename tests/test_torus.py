"""Kernel geometry and spectrum against Bessel-function oracles."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ive

from dklab import particles
from dklab.torus import (TWO_PI, ConfigurationError, ResolutionError, TorusGeometry,
                         cos_sin, kernel_residual_sup, make_kernel,
                         normalization_constant, step_index, von_mises_eval, wrap,
                         wrap_centered)

EPS_LADDER = (0.4, 0.2, 0.1, 0.05)


class TestWrap:
    @given(st.floats(-1e6, 1e6))
    def test_wrap_lands_in_period(self, x):
        assert 0.0 <= wrap(x) < TWO_PI

    @given(st.floats(-1e6, 1e6))
    def test_wrap_centered_lands_in_symmetric_interval(self, x):
        assert -np.pi <= wrap_centered(x) <= np.pi

    @given(st.floats(-50.0, 50.0), st.integers(-3, 3))
    @example(x=-5.764130957394268e-16, k=2)  # wraps to 0.0 against 2pi - ulp
    def test_shift_by_full_turns_is_invisible(self, x, k):
        # the same point of the circle, so compare on the circle, not the line
        assert abs(wrap_centered(wrap(x + k * TWO_PI) - wrap(x))) <= 1e-10

    def test_reference_points(self):
        assert wrap(-0.5) == pytest.approx(TWO_PI - 0.5)
        assert wrap_centered(1.5 * np.pi) == pytest.approx(-0.5 * np.pi)

    def test_bits_equal_np_mod_with_the_fold(self):
        def reference(x):
            out = np.mod(x, TWO_PI)
            return np.where(out == TWO_PI, 0.0, out)

        rng = np.random.default_rng(0)
        edges = [0.0, -0.0, TWO_PI, 2 * TWO_PI, -TWO_PI, 5e-324, -5e-324]
        edges += [np.nextafter(v, d) for v in (0.0, TWO_PI, 2 * TWO_PI, -TWO_PI)
                  for d in (-np.inf, np.inf)]
        fallback = [1e6, -1e6, np.inf, -np.inf, np.nan]
        cases = [rng.uniform(-TWO_PI, 2 * TWO_PI, (64, 1000)),
                 rng.uniform(-1e-15, 1e-15, 1000),
                 np.array(edges), np.array(edges + fallback)]
        with np.errstate(invalid="ignore"):
            for x in cases + edges + fallback:
                got, ref = wrap(x), reference(x)
                assert got.shape == ref.shape
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))
                y = np.array(x, dtype=float)  # in place
                assert wrap(y, out=y) is y
                assert np.array_equal(y.view(np.int64), ref.view(np.int64))


class TestCosSin:
    def test_within_two_ulp_of_one_of_libm(self):
        q = np.random.default_rng(0).uniform(0.0, TWO_PI, (4, 250000))
        special = np.array([0.0, np.pi / 2, np.pi, np.nextafter(np.pi, 0.0),
                            1.5 * np.pi, np.nextafter(TWO_PI, 0.0)])
        for x in [k * q for k in (1, 2, 3)] + [special, 2.5]:
            c, s = cos_sin(x)
            assert c.shape == s.shape == np.shape(x)
            assert np.abs(c - np.cos(x)).max() <= 4.5e-16
            assert np.abs(s - np.sin(x)).max() <= 4.5e-16

    @pytest.mark.parametrize("alias", [None, 0, 1, 2])
    def test_out_keeps_the_bits(self, alias):
        # x may be any of the three arrays of out
        x = np.random.default_rng(1).uniform(-10.0, 10.0, (3, 500))
        ref = cos_sin(x)
        out = tuple(np.empty_like(x) for _ in range(3))
        if alias is not None:
            out[alias][...] = x
        got = cos_sin(x if alias is None else out[alias], out=out)
        assert got[0] is out[0] and got[1] is out[1]
        for a, b in zip(got, ref):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_nan_where_libm_gives_nan(self):
        x = np.array([np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            assert np.isnan(np.cos(x)).all()
            assert all(np.isnan(v).all() for v in cos_sin(x))


class TestStepIndex:
    def test_times_on_the_grid(self):
        assert step_index(0.0, 5e-3, "t_horizon") == 0
        assert step_index(0.1, 5e-3, "snapshot time", 20) == 20
        assert step_index(0.3, 0.1, "t_horizon") == 3  # 0.3 / 0.1 is 2.9999999999999996

    @pytest.mark.parametrize("t, message", [
        (0.0123, "not an integer multiple of dt"),
        (-0.005, "outside the steps"),
        (0.105, "outside the steps")], ids=["off_grid", "negative", "past_horizon"])
    def test_rejects(self, t, message):
        with pytest.raises(ConfigurationError, match=f"snapshot time={t} .*{message}"):
            step_index(t, 5e-3, "snapshot time", 20)

    @pytest.mark.parametrize("dt", [0.0, -5e-3, np.inf])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(ConfigurationError, match="dt=.* is not a finite time step"):
            step_index(0.1, dt, "t_horizon")

    def test_error_is_a_value_error_that_particles_reexports(self):
        assert issubclass(ConfigurationError, ValueError)
        assert particles.ConfigurationError is ConfigurationError


class TestGeometry:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TorusGeometry(100)

    def test_requires_at_least_four_nodes(self):
        with pytest.raises(ValueError):
            TorusGeometry(2)

    def test_spacing_covers_period(self):
        g = TorusGeometry(128)
        assert g.spacing * g.n_grid == pytest.approx(TWO_PI)
        assert g.n_modes == 65
        assert g.nodes().shape == (128,)
        assert g.nodes()[0] == 0.0

    @given(st.floats(0.02, 0.5))
    def test_for_epsilon_is_admissible_and_minimal(self, eps):
        g = TorusGeometry.for_epsilon(eps)
        assert g.admits(eps)
        if g.n_grid > 64:
            assert not TorusGeometry(g.n_grid // 2).admits(eps)

    def test_oversample_doubles(self):
        g0 = TorusGeometry.for_epsilon(0.1)
        g2 = TorusGeometry.for_epsilon(0.1, oversample=2)
        assert g2.n_grid == 4 * g0.n_grid

    def test_error_message_names_the_rule(self):
        with pytest.raises(ResolutionError, match="n_grid=64.*epsilon=0.05"):
            TorusGeometry(64).require_admissible(0.05)


class TestNormalization:
    @pytest.mark.parametrize("eps", EPS_LADDER)
    def test_matches_bessel_closed_form(self, eps):
        kappa = eps ** -2
        exact = TWO_PI * ive(0, kappa)  # 2 pi e^-kappa I0(kappa), overflow-safe
        assert abs(normalization_constant(eps) - exact) <= 1e-10 * exact

    def test_rejects_underresolved_quadrature(self):
        with pytest.raises(ResolutionError):
            normalization_constant(0.05, n_grid=64)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            normalization_constant(-0.1)


class TestKernelSpectrum:
    @pytest.mark.parametrize("eps", EPS_LADDER)
    def test_coefficients_match_bessel_ratio(self, eps):
        kern = make_kernel(eps)
        kappa = eps ** -2
        k = np.arange(min(40, kern.geometry.n_modes))
        oracle = ive(k, kappa) / ive(0, kappa)
        got = kern.fourier_coeffs[: len(k)]
        assert np.abs(got - oracle).max() <= 1e-8

    def test_mass_coefficient_is_one(self):
        for eps in EPS_LADDER:
            assert make_kernel(eps).fourier_coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_coefficients_clamped_and_decreasing(self):
        c = make_kernel(0.2).fourier_coeffs
        assert c.min() >= 0.0 and c.max() <= 1.0
        assert np.all(np.diff(c[:12]) < 0.0)

    def test_kernel_integrates_to_one(self):
        kern = make_kernel(0.15)
        vals = von_mises_eval(kern, kern.geometry.nodes())
        assert vals.sum() * kern.geometry.spacing == pytest.approx(1.0, abs=1e-12)


class TestEval:
    def test_derivatives_match_finite_differences(self):
        kern = make_kernel(0.3)
        x = np.linspace(-3.0, 3.0, 41)
        h = 1e-6
        d1_fd = (von_mises_eval(kern, x + h) - von_mises_eval(kern, x - h)) / (2 * h)
        d2_fd = (von_mises_eval(kern, x + h, 1) - von_mises_eval(kern, x - h, 1)) / (2 * h)
        scale = von_mises_eval(kern, 0.0) / 0.3
        assert np.abs(von_mises_eval(kern, x, 1) - d1_fd).max() <= 1e-4 * scale
        assert np.abs(von_mises_eval(kern, x, 2) - d2_fd).max() <= 1e-3 * scale / 0.3

    def test_even_symmetry(self):
        kern = make_kernel(0.25)
        x = np.linspace(0.1, 3.0, 17)
        assert von_mises_eval(kern, x) == pytest.approx(von_mises_eval(kern, -x))
        assert von_mises_eval(kern, x, 1) == pytest.approx(-von_mises_eval(kern, -x, 1))

    def test_order_guard(self):
        with pytest.raises(ValueError):
            von_mises_eval(make_kernel(0.2), 0.0, order=3)


class TestGaussianResidual:
    """Distance to the unperiodised line Gaussian of matching variance."""

    def test_decreases_with_width(self):
        vals = [kernel_residual_sup(e) for e in EPS_LADDER]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_linear_rate_constant(self):
        # residual / eps approaches 1/(8 sqrt(2 pi)) from above
        c = 1.0 / (8.0 * np.sqrt(TWO_PI))
        assert kernel_residual_sup(0.05) / 0.05 == pytest.approx(c, rel=2e-3)
        assert kernel_residual_sup(0.1) / 0.1 > c

    def test_second_coefficient(self):
        # residual = c eps (1 + a eps^2 + O(eps^4)) with a = 7/16
        c = 1.0 / (8.0 * np.sqrt(TWO_PI))
        a = [(kernel_residual_sup(e) / (c * e) - 1.0) / e ** 2
             for e in (0.05, 0.025, 0.0125)]
        assert all(y < x for x, y in zip(a, a[1:]))
        assert a[-1] == pytest.approx(7.0 / 16.0, rel=1e-3)

    def test_attained_at_origin(self):
        # closed form |g_eps(0) - 1/Z_eps| with Z_eps = 2 pi e^-kappa I_0(kappa)
        for eps in EPS_LADDER:
            at_zero = abs(1.0 / (eps * np.sqrt(TWO_PI))
                          - 1.0 / (TWO_PI * ive(0, eps ** -2)))
            assert kernel_residual_sup(eps) == pytest.approx(at_zero, rel=1e-9)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            kernel_residual_sup(0.6)

