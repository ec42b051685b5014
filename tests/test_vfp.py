"""Kinetic solver: stationarity, conservation, free transport, guards."""

import numpy as np
import pytest

from dklab.potential import PotentialSpec
from dklab.torus import TWO_PI, TorusGeometry
from dklab.vfp import (MassLossError, PhaseSpaceDensity, VfpSolver,
                       meanfield_force_from_coeffs, uniform_maxwellian)

W_COS = PotentialSpec.cosine_potential()
G32 = TorusGeometry(32)


def default_datum(m2=0.5, n_q=32, n_p=96):
    return uniform_maxwellian(TorusGeometry(n_q), 6.0 * np.sqrt(m2), n_p, m2)


class TestDatum:
    def test_mass_is_one(self):
        f = default_datum()
        assert f.mass() == pytest.approx(1.0, abs=1e-14)

    def test_moments(self):
        f = default_datum(m2=0.5)
        p_marginal = f.values.sum(axis=0) * f.geometry.spacing
        moments = [float((f.p_centers() ** m * p_marginal).sum() * f.dp) for m in range(3)]
        assert moments[0] == pytest.approx(1.0, abs=1e-14)
        assert moments[1] == pytest.approx(0.0, abs=1e-14)
        assert moments[2] == pytest.approx(0.5, rel=1e-3)

    def test_marginal_is_uniform(self):
        f = default_datum()
        assert f.marginal() == pytest.approx(np.full(32, 1.0 / TWO_PI))

    def test_narrow_momentum_box_rejected(self):
        with pytest.raises(MassLossError):
            uniform_maxwellian(G32, 3.0, 64, 0.5)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            uniform_maxwellian(G32, 4.0, 64, 0.0)

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            PhaseSpaceDensity(G32, 4.0, np.zeros((31, 8)))
        with pytest.raises(ValueError):
            PhaseSpaceDensity(G32, -1.0, np.zeros((32, 8)))


class TestSolverGuards:
    def test_negative_coefficients(self):
        with pytest.raises(ValueError):
            VfpSolver(default_datum(), W_COS, -1.0, 1.0)

    def test_step_needs_positive_dt(self):
        s = VfpSolver(default_datum(), W_COS, 1.0, 1.0)
        with pytest.raises(ValueError):
            s.step(0.0)


class TestStationarity:
    def test_uniform_maxwellian_is_a_fixed_point(self):
        # uniform marginal kills the convolution, so the product state is
        # stationary for the discrete operator even under a cosine potential
        f = default_datum(m2=0.5)
        ref = f.values.copy()
        solver = VfpSolver(f, W_COS, 1.0, 1.0)
        for _ in range(20):
            solver.step(5e-3)
        assert np.abs(solver.density.values - ref).max() <= 1e-12
        assert solver.clipped_mass == 0.0

    def test_mass_conserved_for_tilted_datum(self):
        f = default_datum(m2=0.5)
        f.values = f.values * (1.0 + 0.3 * np.cos(f.geometry.nodes()))[:, None]
        f.values /= f.mass()
        solver = VfpSolver(f, W_COS, 1.0, 1.0)
        for _ in range(20):
            solver.step(5e-3)
        assert solver.density.mass() == pytest.approx(1.0, abs=1e-12)
        assert solver.density.values.min() >= 0.0


class TestConvolutionCoefficients:
    def test_uniform_marginal_gives_zero_force(self):
        solver = VfpSolver(default_datum(), W_COS, 1.0, 1.0)
        assert np.abs(solver.conv_coeffs()).max() <= 1e-14
        force = meanfield_force_from_coeffs(solver.conv_coeffs(), np.linspace(0, 6, 5))
        assert force == pytest.approx(np.zeros(5), abs=1e-13)

    def test_single_mode_marginal(self):
        f = default_datum()
        f.values = f.values * (1.0 + np.cos(f.geometry.nodes()))[:, None]
        f.values /= f.mass()
        solver = VfpSolver(f, W_COS, 1.0, 1.0)
        q = np.linspace(0.0, TWO_PI, 9, endpoint=False)
        force = meanfield_force_from_coeffs(solver.conv_coeffs(), q)
        assert force == pytest.approx(0.5 * np.sin(q), abs=1e-12)


class TestFreeTransport:
    def test_marginal_mode_damps_like_a_characteristic_function(self):
        # gamma = sigma = 0 and no potential: each p row just advects, so the
        # cosine mode of the marginal contracts by E[e^{-ipt}] = e^{-m2 t^2/2}
        m2 = 0.5
        f = default_datum(m2=m2, n_q=32, n_p=128)
        f.values = f.values * (1.0 + np.cos(f.geometry.nodes()))[:, None]
        f.values /= f.mass()
        t_end = 1.0
        solver = VfpSolver(f, PotentialSpec.zero(), 0.0, 0.0)
        for _ in range(20):
            solver.step(0.05)
        marg = solver.density.marginal()
        c1 = 2.0 * np.real(np.fft.rfft(marg)[1]) / 32
        expected = np.exp(-m2 * t_end ** 2 / 2.0) / TWO_PI
        assert c1 == pytest.approx(expected, abs=1e-6)

    def test_p_substep_is_identity_without_noise_or_drift(self):
        f = default_datum(m2=0.5)
        ref = f.values.copy()
        solver = VfpSolver(f, PotentialSpec.zero(), 0.0, 0.0)
        solver._p_substep(5e-3)
        assert np.array_equal(solver.density.values, ref)
