"""Regularised empirical fields and Fourier-side field calculus.

A field is an array of real values on a uniform torus grid, with any leading
batch axes: shape (..., n_grid), as the SPDE state and the VFP marginal also
hand them out.  Every function here acts on the last axis, so one call
covers a whole batch and each row has the bits of a 1-D call on that row.
Fourier-series coefficients follow the convention

    f(x) = sum_k c_k exp(i k x),          c_k = (1/n) sum_j f(x_j) exp(-i k x_j),

in rfft layout (k = 0 .. n/2), i.e. c = rfft(values) / n.  Convolution against
a kernel g multiplies c_k by g_hat_k = integral g exp(-ikx) dx, and Sobolev
norms are weighted coefficient sums,

    ||f||_{H^s}^2 = 2*pi * sum_k (1 + k^2)^s |c_k|^2,

with the k = 0 term included (so H^{-1} still controls the mean).

The empirical estimators are kernel-smoothed particle sums

    (1/N) sum_i c_i w_eps^{(n)}(x - q_i),     c_i = p_i^{n1},

with presets rho = (0,0), j = (1,0), j2 = (2,1), j3 = (3,2).  Expanding the
kernel in its Fourier series turns the sum into a filtered type-1 nonuniform
DFT of the particles,

    sum_k w_hat_k (ik)^n [(1/(2 pi N)) sum_i c_i exp(-i k q_i)] exp(i k x),

whose inner sums come from the power recurrence exp(-ikq) = exp(-iq)^k in
O(N K) multiplies, K being the last mode where w_hat_k k^n is above
round-off; one irfft then puts the series on the grid.  The result matches
the particle/node direct sum to the accuracy of the kernel's grid
coefficients (about 1e-14 absolute, amplified by k^n): below 1e-13 relative
on grids a doubling above admissibility, about 2e-12 for n = 2 at
eps = 0.025 on 1024 nodes.  On a grid at the admissibility edge the kernel's
tail beyond the Nyquist mode is cut off, which costs up to ~4e-11 relative.
"""

from __future__ import annotations

import functools

import numpy as np

from .potential import PotentialSpec, mean_w1_at
# von_mises_eval is unused here; perfbench's tracer test reads it from this module
from .torus import TWO_PI, KernelParams, TorusGeometry, von_mises_eval  # noqa: F401

FIELD_PRESETS = {
    "rho": (0, 0),
    "j": (1, 0),
    "j2": (2, 1),
    "j3": (3, 2),
}


def convolve_potential(values: np.ndarray, w: PotentialSpec,
                       derivative: int = 0) -> np.ndarray:
    """W^(derivative) * f for grid values (..., n_grid), by Fourier multipliers."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    coeffs = np.fft.rfft(v) / n * w.conv_multiplier(n // 2 + 1, derivative)
    return np.fft.irfft(coeffs * n, n=n)


def weighted_field_values(q: np.ndarray, coeffs: np.ndarray, kern: KernelParams,
                          geometry: TorusGeometry, deriv: int = 0) -> np.ndarray:
    """(1/N) sum_i coeffs_i w^(deriv)(x - q_i) on the grid, batched.

    q and coeffs share shape (..., N); the result has shape (..., n_grid).
    The kernel may be sampled on a grid finer or coarser than the field's;
    its coefficients are cut or zero-padded to the field's modes.  See the
    module docstring for the identity and its accuracy.
    """
    q = np.asarray(q, dtype=float)
    coeffs = np.broadcast_to(np.asarray(coeffs, dtype=float), q.shape)
    geometry.require_admissible(kern.epsilon)
    if deriv not in (0, 1, 2):
        raise ValueError(f"deriv must be 0, 1 or 2, got {deriv}")

    n_modes = geometry.n_modes
    w_hat = np.zeros(n_modes)
    m = min(len(kern.fourier_coeffs), n_modes)
    w_hat[:m] = kern.fourier_coeffs[:m]
    if m == len(kern.fourier_coeffs):
        w_hat[m - 1] /= 2.0     # the kernel grid's Nyquist coefficient holds the +-k pair
    w_hat[-1] *= 2.0            # irfft counts the field grid's Nyquist bin once
    k = np.arange(n_modes)
    filt = w_hat * (1j * k) ** deriv
    # past its peak the filter decays monotonically down to the coefficients'
    # noise floor, so the first mode below round-off ends the band
    mag = np.abs(filt)
    below = (mag < np.finfo(float).eps * mag.max()) & (k > mag.argmax())
    band = int(np.argmax(below)) if below.any() else n_modes

    z = np.exp(-1j * q)
    term = coeffs.astype(complex)           # c_i exp(-i k q_i) at the current k
    sums = np.zeros(q.shape[:-1] + (n_modes,), dtype=complex)
    for j in range(band):
        sums[..., j] = term.sum(axis=-1)
        term *= z
    spec = filt * sums * (geometry.n_grid / (TWO_PI * q.shape[-1]))
    return np.fft.irfft(spec, n=geometry.n_grid, axis=-1)


def empirical_field(q, p, kern: KernelParams, geometry: TorusGeometry | None = None,
                    preset: str | tuple[int, int] = "rho") -> np.ndarray:
    """Smoothed empirical field values of ensembles q, p of shape (..., N).

    preset names one of rho/j/j2/j3 or gives (momentum power, kernel
    derivative order) directly.  The result has shape (..., n_grid).
    """
    n1, n = FIELD_PRESETS[preset] if isinstance(preset, str) else preset
    if geometry is None:
        geometry = kern.geometry
    q = np.asarray(q, dtype=float)
    if n1 == 0:
        coeffs = np.ones_like(q)
    else:
        if p is None:
            raise ValueError("momentum array required for momentum-weighted presets")
        coeffs = np.asarray(p, dtype=float) ** n1
    return weighted_field_values(q, coeffs, kern, geometry, deriv=n)


@functools.lru_cache(maxsize=16)
def _sobolev_weights(n_modes: int, k: int) -> np.ndarray:
    """(1 + m^2)^k times the negative-frequency twin count of every rfft mode."""
    m = np.arange(n_modes)
    weights = (1.0 + m.astype(float) ** 2) ** k
    # negative-frequency twins: double every mode except DC and Nyquist
    mult = np.full(n_modes, 2.0)
    mult[0] = 1.0
    mult[-1] = 1.0
    table = weights * mult
    table.flags.writeable = False  # every caller gets this object
    return table


def sobolev_norms(coeffs: np.ndarray, k: int = 0) -> np.ndarray:
    """H^k norm of every row of rfft-layout coefficients of shape (..., n_modes).

    Parseval with Fourier weights (1 + m^2)^k, the m = 0 term included.  The
    weighted squares are laid out C-contiguously and summed by one reduce over
    the last axis, which sums each row as a 1-D call does, so each row's norm
    has the same bits as a 1-D call on that row, whatever the batch shape.
    """
    c = np.asarray(coeffs)
    terms = np.multiply(_sobolev_weights(c.shape[-1], k), np.abs(c) ** 2, order="C")
    return np.sqrt(TWO_PI * np.add.reduce(terms, axis=-1))


def sobolev_norm(values: np.ndarray, k: int = 0):
    """H^k norm of grid values (..., n_grid) through Fourier weights (1 + m^2)^k.

    The m = 0 term is included, so k may be negative, e.g. H^{-1}.  Returns a
    float for one field and an array of norms for a batch.
    """
    v = np.asarray(values, dtype=float)
    norms = sobolev_norms(np.fft.rfft(v) / v.shape[-1], k)
    return float(norms) if norms.ndim == 0 else norms


def interaction_decomposition(q: np.ndarray, kern: KernelParams, w: PotentialSpec,
                              geometry: TorusGeometry | None = None):
    """Split the smoothed interaction term of one ensemble into closure plus remainders.

    Returns the grid values (lhs, r1, r2, rho), rho being the smoothed
    density rho_eps and

        lhs(x) = (1/N) sum_i [ (1/N) sum_j W'(q_i - q_j) ] w_eps(x - q_i),
        r1(x)  = (1/N) sum_j W'(x - q_j) - (W' * rho_eps)(x),
        r2     = lhs - (W' * rho_eps) rho_eps - r1 rho_eps,

    so lhs == (W' * rho_eps) rho_eps + r1 rho_eps + r2 holds by construction:
    recomputing lhs - conv rho - r1 rho - r2 from these arrays gives exactly
    0.0, so that residue checks nothing.  The content of the decomposition is
    that r1 and r2 are small for small eps.
    """
    q = np.asarray(q, dtype=float)
    if geometry is None:
        geometry = kern.geometry
    nodes = geometry.nodes()

    per_particle = mean_w1_at(w, q, q)                   # (1/N) sum_j W'(q_i - q_j)
    lhs = weighted_field_values(q, per_particle, kern, geometry)
    rho = weighted_field_values(q, np.ones_like(q), kern, geometry)
    conv = convolve_potential(rho, w, derivative=1)
    r1 = mean_w1_at(w, q, nodes) - conv
    r2 = lhs - conv * rho - r1 * rho
    return lhs, r1, r2, rho
