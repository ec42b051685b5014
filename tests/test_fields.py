"""Field estimators, norms and the interaction decomposition."""

import numpy as np
import pytest

from dklab.fields import (DensityField, convolve_potential, empirical_field,
                          holder_quotient, interaction_decomposition,
                          sobolev_norm, weighted_field_values)
from dklab.potential import PotentialSpec
from dklab.torus import TWO_PI, TorusGeometry, make_kernel, von_mises_eval

G64 = TorusGeometry(64)


def cos_field(geometry=G64):
    return DensityField(geometry, np.cos(geometry.nodes()))


def direct_sum(q, c, kern, geometry, deriv):
    """Oracle: the kernel evaluated at every particle/node pair."""
    arg = geometry.nodes() - q[..., :, None]
    return (c[..., :, None] * von_mises_eval(kern, arg, order=deriv)).sum(axis=-2) / q.shape[-1]


class TestDensityField:
    def test_fourier_roundtrip(self):
        rng = np.random.default_rng(0)
        f = DensityField(G64, rng.normal(size=64))
        g = DensityField.from_fourier(G64, f.fourier)
        assert g.values == pytest.approx(f.values, abs=1e-12)

    def test_mass_is_quadrature(self):
        f = DensityField(G64, np.full(64, 0.5))
        assert f.mass() == pytest.approx(np.pi * 2.0 * 0.5)

    def test_spectral_derivative_of_cosine(self):
        df = cos_field().deriv()
        assert df.values == pytest.approx(-np.sin(G64.nodes()), abs=1e-12)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            DensityField(G64, np.zeros(65))

    def test_convolve_vm_damps_single_mode(self):
        kern = make_kernel(0.2, TorusGeometry.for_epsilon(0.2))
        g = kern.geometry
        f = DensityField(g, np.cos(g.nodes()))
        got = f.convolve_vm(kern)
        assert got.values == pytest.approx(
            kern.fourier_coeffs[1] * np.cos(g.nodes()), abs=1e-12)


class TestEmpiricalField:
    def test_single_particle_is_shifted_kernel(self):
        kern = make_kernel(0.2)
        g = kern.geometry
        q = np.array([1.3])
        rho = empirical_field(q, None, kern, g, preset="rho")
        assert rho.values == pytest.approx(von_mises_eval(kern, g.nodes() - 1.3))

    def test_density_has_unit_mass(self):
        rng = np.random.default_rng(1)
        kern = make_kernel(0.25)
        q = rng.uniform(0, TWO_PI, 37)
        rho = empirical_field(q, None, kern, kern.geometry)
        assert rho.mass() == pytest.approx(1.0, abs=1e-10)

    def test_presets_match_manual_sums(self):
        rng = np.random.default_rng(2)
        kern = make_kernel(0.3)
        g = kern.geometry
        q = rng.uniform(0, TWO_PI, 9)
        p = rng.normal(size=9)
        for preset, (n1, n) in (("rho", (0, 0)), ("j", (1, 0)),
                                ("j2", (2, 1)), ("j3", (3, 2))):
            manual = np.mean(
                [pi ** n1 * von_mises_eval(kern, g.nodes() - qi, order=n)
                 for qi, pi in zip(q, p)], axis=0)
            got = empirical_field(q, p, kern, g, preset=preset)
            assert got.values == pytest.approx(manual, abs=1e-10)

    def test_frozen_momenta_close_the_second_moment(self):
        """p_i = +-sqrt(m2) makes the j2 field exactly m2 times the density slope."""
        rng = np.random.default_rng(3)
        m2 = 0.37
        kern = make_kernel(0.2)
        q = rng.uniform(0, TWO_PI, 50)
        p = np.sqrt(m2) * rng.choice([-1.0, 1.0], size=50)
        j2 = empirical_field(q, p, kern, kern.geometry, preset="j2")
        drho = empirical_field(q, None, kern, kern.geometry, preset=(0, 1))
        assert j2.values == pytest.approx(m2 * drho.values, abs=1e-12)

    def test_batched_weighted_values(self):
        rng = np.random.default_rng(4)
        kern = make_kernel(0.3)
        q = rng.uniform(0, TWO_PI, (4, 11))
        c = rng.normal(size=(4, 11))
        got = weighted_field_values(q, c, kern, kern.geometry, deriv=1)
        assert got.shape == (4, kern.geometry.n_grid)
        for r in range(4):
            single = weighted_field_values(q[r], c[r], kern, kern.geometry, deriv=1)
            assert got[r] == pytest.approx(single)

    def test_matches_direct_sum_oracle(self):
        """Spectral sum against the pairwise oracle on equal, finer and coarser field grids.

        One doubling above admissibility the only error is round-off; at the
        edge (eps = 0.25 on 64 nodes) the kernel's tail beyond Nyquist is cut.
        """
        rng = np.random.default_rng(5)
        cases = [  # (eps, kernel grid, field grid, relative tolerance)
            (0.25, 128, 128, 1e-12), (0.5, 64, 256, 1e-12), (0.5, 128, 64, 1e-12),
            (0.25, 64, 64, 1e-10), (0.25, 64, 256, 1e-10), (0.25, 128, 64, 1e-10),
        ]
        for eps, n_kern, n_field, tol in cases:
            kern = make_kernel(eps, TorusGeometry(n_kern))
            g = TorusGeometry(n_field)
            for shape in ((57,), (3, 57)):
                q = rng.uniform(0, TWO_PI, shape)
                c = rng.normal(size=shape)
                for deriv in (0, 1, 2):
                    want = direct_sum(q, c, kern, g, deriv)
                    got = weighted_field_values(q, c, kern, g, deriv=deriv)
                    rel = np.abs(got - want).max(axis=-1) / np.abs(want).max(axis=-1)
                    assert rel.max() <= tol, (eps, n_kern, n_field, shape, deriv, rel)

    def test_rejects_batch_positions(self):
        kern = make_kernel(0.3)
        with pytest.raises(ValueError):
            empirical_field(np.zeros((2, 5)), None, kern, kern.geometry)

    def test_rejects_unsupported_derivative(self):
        kern = make_kernel(0.3)
        with pytest.raises(ValueError):
            weighted_field_values(np.zeros(5), np.ones(5), kern, kern.geometry, deriv=3)

    def test_momentum_preset_needs_momenta(self):
        kern = make_kernel(0.3)
        with pytest.raises(ValueError):
            empirical_field(np.zeros(5), None, kern, kern.geometry, preset="j")


class TestNorms:
    def test_constant_field(self):
        f = DensityField(G64, np.full(64, 2.0))
        assert sobolev_norm(f) == pytest.approx(2.0 * np.sqrt(TWO_PI))
        assert sobolev_norm(f, k=1) == pytest.approx(2.0 * np.sqrt(TWO_PI))

    def test_cosine_closed_forms(self):
        f = cos_field()
        assert sobolev_norm(f) == pytest.approx(np.sqrt(np.pi))
        assert sobolev_norm(f, k=1) == pytest.approx(np.sqrt(2.0 * np.pi))
        assert sobolev_norm(f, k=-1) == pytest.approx(np.sqrt(np.pi / 2.0))

    def test_lebesgue_norms(self):
        f = cos_field()
        assert sobolev_norm(f, p=np.inf) == pytest.approx(1.0)
        # |cos| has kinks, so the node quadrature is only O(h^2) accurate
        assert sobolev_norm(f, p=1.0) == pytest.approx(4.0, abs=5e-3)
        assert sobolev_norm(f, p=2.0) == pytest.approx(np.sqrt(np.pi), rel=1e-10)

    def test_guards(self):
        f = cos_field()
        with pytest.raises(ValueError):
            sobolev_norm(f, k=1, p=np.inf)
        with pytest.raises(ValueError):
            sobolev_norm(f, p=-2.0)

    def test_holder_quotient_two_snapshots(self):
        base = cos_field()
        f0 = DensityField(G64, 0.0 * base.values)
        f1 = DensityField(G64, 2.0 * base.values)
        got = holder_quotient([f0, f1], [0.0, 0.25], beta=0.5)
        assert got == pytest.approx(2.0 * np.sqrt(np.pi / 2.0) / 0.25 ** 0.5)

    def test_holder_quotient_guards(self):
        f = cos_field()
        with pytest.raises(ValueError):
            holder_quotient([f], [0.0], beta=0.5)
        with pytest.raises(ValueError):
            holder_quotient([f, f], [0.0, 1.0], beta=1.5)
        with pytest.raises(ValueError):
            holder_quotient([f, f], [1.0, 1.0], beta=0.5)


class TestConvolvePotential:
    def test_cosine_mode_oracle(self):
        # (W' * cos)(x) = -pi sin x for W = cos
        w = PotentialSpec.cosine_potential()
        got = convolve_potential(cos_field(), w, derivative=1)
        assert got.values == pytest.approx(-np.pi * np.sin(G64.nodes()), abs=1e-12)

    def test_zeroth_derivative(self):
        w = PotentialSpec.cosine_potential()
        got = convolve_potential(cos_field(), w, derivative=0)
        assert got.values == pytest.approx(np.pi * np.cos(G64.nodes()), abs=1e-12)


class TestInteractionDecomposition:
    def test_identity_closes_to_machine_precision(self):
        rng = np.random.default_rng(7)
        kern = make_kernel(0.2)
        w = PotentialSpec.cosine_potential()
        q = rng.uniform(0, TWO_PI, 40)
        lhs, r1, r2, rho = interaction_decomposition(q, kern, w)
        assert np.array_equal(rho.values, empirical_field(q, None, kern, kern.geometry).values)
        conv = convolve_potential(rho, w, derivative=1)
        residue = lhs.values - conv.values * rho.values \
            - r1.values * rho.values - r2.values
        assert np.abs(residue).max() <= 1e-12

    def test_equispaced_particles_null_the_remainders(self):
        kern = make_kernel(0.2)
        w = PotentialSpec.cosine_potential()
        q = np.arange(32) * (TWO_PI / 32)
        lhs, r1, r2, _rho = interaction_decomposition(q, kern, w)
        assert np.abs(lhs.values).max() <= 1e-12
        assert np.abs(r1.values).max() <= 1e-12
        assert np.abs(r2.values).max() <= 1e-12

    def test_zero_potential_gives_zeros(self):
        rng = np.random.default_rng(8)
        kern = make_kernel(0.25)
        q = rng.uniform(0, TWO_PI, 15)
        lhs, r1, r2, _rho = interaction_decomposition(q, kern, PotentialSpec.zero())
        assert np.abs(lhs.values).max() == 0.0
        assert np.abs(r1.values).max() == 0.0
        assert np.abs(r2.values).max() == 0.0
