"""Field estimators, norms and the interaction decomposition."""

import numpy as np
import pytest

from dklab.fields import (_sobolev_weights, convolve_potential, empirical_field,
                          interaction_decomposition, sobolev_norm, sobolev_norms,
                          weighted_field_values)
from dklab.potential import PotentialSpec
from dklab.torus import TWO_PI, TorusGeometry, make_kernel, von_mises_eval

G64 = TorusGeometry(64)


def cos_field(geometry=G64):
    return np.cos(geometry.nodes())


def direct_sum(q, c, kern, geometry, deriv):
    """Oracle: the kernel evaluated at every particle/node pair."""
    arg = geometry.nodes() - q[..., :, None]
    return (c[..., :, None] * von_mises_eval(kern, arg, order=deriv)).sum(axis=-2) / q.shape[-1]


# grid sizes and batch sizes of the row-bits tests
BIT_GRIDS = (64, 128, 256, 512, 1024)
BIT_BATCHES = (1, 3, 16)


class TestEmpiricalField:
    def test_single_particle_is_shifted_kernel(self):
        kern = make_kernel(0.2)
        g = kern.geometry
        q = np.array([1.3])
        rho = empirical_field(q, None, kern, g, preset="rho")
        assert rho == pytest.approx(von_mises_eval(kern, g.nodes() - 1.3))

    def test_density_has_unit_mass(self):
        rng = np.random.default_rng(1)
        kern = make_kernel(0.25)
        q = rng.uniform(0, TWO_PI, 37)
        rho = empirical_field(q, None, kern, kern.geometry)
        assert rho.sum() * kern.geometry.spacing == pytest.approx(1.0, abs=1e-10)

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
            assert got == pytest.approx(manual, abs=1e-10)

    def test_frozen_momenta_close_the_second_moment(self):
        """p_i = +-sqrt(m2) makes the j2 field exactly m2 times the density slope."""
        rng = np.random.default_rng(3)
        m2 = 0.37
        kern = make_kernel(0.2)
        q = rng.uniform(0, TWO_PI, 50)
        p = np.sqrt(m2) * rng.choice([-1.0, 1.0], size=50)
        j2 = empirical_field(q, p, kern, kern.geometry, preset="j2")
        drho = empirical_field(q, None, kern, kern.geometry, preset=(0, 1))
        assert j2 == pytest.approx(m2 * drho, abs=1e-12)

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

    @pytest.mark.parametrize("preset", ["rho", "j2"])
    def test_batch_rows_have_the_bits_of_1d_calls(self, preset):
        rng = np.random.default_rng(6)
        kern = make_kernel(0.3)
        q = rng.uniform(0, TWO_PI, (2, 3, 11))
        p = rng.normal(size=(2, 3, 11))
        got = empirical_field(q, p, kern, kern.geometry, preset=preset)
        rows = [empirical_field(qr, pr, kern, kern.geometry, preset=preset)
                for qr, pr in zip(q.reshape(-1, 11), p.reshape(-1, 11))]
        assert got.shape == (2, 3, kern.geometry.n_grid)
        assert got.tobytes() == np.array(rows).reshape(got.shape).tobytes()

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
        f = np.full(64, 2.0)
        assert sobolev_norm(f) == pytest.approx(2.0 * np.sqrt(TWO_PI))
        assert sobolev_norm(f, k=1) == pytest.approx(2.0 * np.sqrt(TWO_PI))

    def test_cosine_closed_forms(self):
        f = cos_field()
        assert sobolev_norm(f) == pytest.approx(np.sqrt(np.pi))
        assert sobolev_norm(f, k=1) == pytest.approx(np.sqrt(2.0 * np.pi))
        assert sobolev_norm(f, k=-1) == pytest.approx(np.sqrt(np.pi / 2.0))

    @pytest.mark.parametrize("n_modes", [65, 129, 513])
    @pytest.mark.parametrize("k", [-1, 0, 1])
    @pytest.mark.parametrize("shape", [(16,), (3, 5)])
    def test_batch_rows_have_the_bits_of_1d_calls(self, n_modes, k, shape):
        rng = np.random.default_rng(n_modes + k)
        c = (rng.standard_normal(shape + (n_modes,))
             + 1j * rng.standard_normal(shape + (n_modes,)))
        batch = sobolev_norms(c, k)
        rows = np.array([sobolev_norms(row, k) for row in c.reshape(-1, n_modes)])
        assert batch.shape == shape
        assert batch.tobytes() == rows.reshape(shape).tobytes()

    @pytest.mark.parametrize("n_grid", BIT_GRIDS)
    @pytest.mark.parametrize("n_rows", BIT_BATCHES)
    def test_grid_batch_rows_have_the_bits_of_1d_calls(self, n_grid, n_rows):
        values = np.random.default_rng(n_grid + n_rows).normal(size=(n_rows, n_grid))
        for k in (-1, 0, 1):
            batch = sobolev_norm(values, k)
            rows = [sobolev_norm(row, k) for row in values]
            assert isinstance(rows[0], float) and batch.shape == (n_rows,)
            assert batch.tobytes() == np.array(rows).tobytes()

    def test_weight_table_is_read_only(self):
        weights = _sobolev_weights(65, 1)
        assert weights is _sobolev_weights(65, 1)
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestConvolvePotential:
    def test_cosine_mode_oracle(self):
        # (W' * cos)(x) = -pi sin x for W = cos
        w = PotentialSpec.cosine_potential()
        got = convolve_potential(cos_field(), w, derivative=1)
        assert got == pytest.approx(-np.pi * np.sin(G64.nodes()), abs=1e-12)

    def test_zeroth_derivative(self):
        w = PotentialSpec.cosine_potential()
        got = convolve_potential(cos_field(), w, derivative=0)
        assert got == pytest.approx(np.pi * np.cos(G64.nodes()), abs=1e-12)

    @pytest.mark.parametrize("n_grid", BIT_GRIDS)
    @pytest.mark.parametrize("n_rows", BIT_BATCHES)
    def test_batch_rows_have_the_bits_of_1d_calls(self, n_grid, n_rows):
        values = np.random.default_rng(n_grid + n_rows).normal(size=(n_rows, n_grid))
        w = PotentialSpec(np.array([0.3, 1.0, -0.5, 0.25]), np.array([0.0, 0.2, 0.0, -0.7]))
        for derivative in (0, 1, 2):
            batch = convolve_potential(values, w, derivative)
            rows = [convolve_potential(row, w, derivative) for row in values]
            assert batch.tobytes() == np.array(rows).tobytes()


class TestInteractionDecomposition:
    def test_identity_closes_to_machine_precision(self):
        rng = np.random.default_rng(7)
        kern = make_kernel(0.2)
        w = PotentialSpec.cosine_potential()
        q = rng.uniform(0, TWO_PI, 40)
        lhs, r1, r2, rho = interaction_decomposition(q, kern, w)
        assert np.array_equal(rho, empirical_field(q, None, kern, kern.geometry))
        conv = convolve_potential(rho, w, derivative=1)
        # r2 is defined by this expression, so the residue is exactly zero
        assert np.abs(lhs - conv * rho - r1 * rho - r2).max() == 0.0

    def test_equispaced_particles_null_the_remainders(self):
        kern = make_kernel(0.2)
        w = PotentialSpec.cosine_potential()
        q = np.arange(32) * (TWO_PI / 32)
        lhs, r1, r2, _rho = interaction_decomposition(q, kern, w)
        assert np.abs(lhs).max() <= 1e-12
        assert np.abs(r1).max() <= 1e-12
        assert np.abs(r2).max() <= 1e-12

    def test_zero_potential_gives_zeros(self):
        rng = np.random.default_rng(8)
        kern = make_kernel(0.25)
        q = rng.uniform(0, TWO_PI, 15)
        lhs, r1, r2, _rho = interaction_decomposition(q, kern, PotentialSpec.zero())
        assert np.abs(lhs).max() == 0.0
        assert np.abs(r1).max() == 0.0
        assert np.abs(r2).max() == 0.0
