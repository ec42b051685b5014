"""Regularised empirical fields and Fourier-side field calculus.

A DensityField is a real function sampled on a uniform torus grid together
with (lazily computed) Fourier-series coefficients c_k in the convention

    f(x) = sum_k c_k exp(i k x),          c_k = (1/n) sum_j f(x_j) exp(-i k x_j),

stored in rfft layout (k = 0 .. n/2).  Convolution against a kernel g then
multiplies c_k by g_hat_k = integral g exp(-ikx) dx, and Sobolev norms are
weighted coefficient sums,

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

from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass
class DensityField:
    """Real field on a torus grid with cached spectral coefficients."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.geometry.n_grid,):
            raise ValueError(f"values shape {v.shape} does not match grid {self.geometry.n_grid}")
        self.values = v
        self._fourier: np.ndarray | None = None

    @property
    def fourier(self) -> np.ndarray:
        if self._fourier is None:
            self._fourier = np.fft.rfft(self.values) / self.geometry.n_grid
        return self._fourier

    @classmethod
    def from_fourier(cls, geometry: TorusGeometry, coeffs: np.ndarray) -> "DensityField":
        n = geometry.n_grid
        if coeffs.shape != (geometry.n_modes,):
            raise ValueError("coefficient array does not match the grid")
        field = cls(geometry, np.fft.irfft(coeffs * n, n=n))
        field._fourier = coeffs.astype(complex)
        return field

    def mass(self) -> float:
        """Quadrature of the field over the torus (spectrally accurate)."""
        return float(self.values.sum() * self.geometry.spacing)

    def deriv(self, order: int = 1) -> "DensityField":
        """Spectral derivative; the Nyquist mode is zeroed for odd orders."""
        k = np.arange(self.geometry.n_modes)
        coeffs = self.fourier * (1j * k) ** order
        if order % 2 == 1:
            coeffs[-1] = 0.0
        return DensityField.from_fourier(self.geometry, coeffs)

    def convolve_vm(self, kern: KernelParams) -> "DensityField":
        """Convolution with a von Mises kernel through its coefficients."""
        weights = np.zeros(self.geometry.n_modes)
        m = min(len(kern.fourier_coeffs), self.geometry.n_modes)
        weights[:m] = kern.fourier_coeffs[:m]
        return DensityField.from_fourier(self.geometry, self.fourier * weights)


def convolve_potential(field: DensityField, w: PotentialSpec, derivative: int = 0) -> DensityField:
    """Circular convolution W^(derivative) * field via Fourier multipliers."""
    mult = w.conv_multiplier(field.geometry.n_modes, derivative)
    return DensityField.from_fourier(field.geometry, field.fourier * mult)


def _spectral_sum(q: np.ndarray, coeffs: np.ndarray, kern: KernelParams,
                  geometry: TorusGeometry, deriv: int) -> np.ndarray:
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
    return _spectral_sum(q, coeffs, kern, geometry, deriv)


def empirical_field(q, p, kern: KernelParams, geometry: TorusGeometry | None = None,
                    preset: str | tuple[int, int] = "rho") -> DensityField:
    """Smoothed empirical field of one ensemble.

    preset names one of rho/j/j2/j3 or gives (momentum power, kernel
    derivative order) directly.
    """
    n1, n = FIELD_PRESETS[preset] if isinstance(preset, str) else preset
    if geometry is None:
        geometry = kern.geometry
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("empirical_field takes a single ensemble; use weighted_field_values for batches")
    if n1 == 0:
        coeffs = np.ones_like(q)
    else:
        if p is None:
            raise ValueError("momentum array required for momentum-weighted presets")
        coeffs = np.asarray(p, dtype=float) ** n1
    values = weighted_field_values(q, coeffs, kern, geometry, deriv=n)
    return DensityField(geometry, values)


def sobolev_norm(field: DensityField, k: int = 0, p: float = 2.0) -> float:
    """Sobolev or Lebesgue norm of a grid field.

    p == 2 gives the H^k norm through Fourier weights (1 + m^2)^k, including
    the m = 0 term (so k may be negative, e.g. H^{-1}).  p == inf gives the
    grid sup-norm and any other positive p the L^p quadrature norm; k must
    be 0 in those cases.
    """
    if p == 2.0:
        c = field.fourier
        m = np.arange(field.geometry.n_modes)
        weights = (1.0 + m.astype(float) ** 2) ** k
        # negative-frequency twins: double every mode except DC and Nyquist
        mult = np.full(field.geometry.n_modes, 2.0)
        mult[0] = 1.0
        mult[-1] = 1.0
        return float(np.sqrt(TWO_PI * (weights * mult * np.abs(c) ** 2).sum()))
    if k != 0:
        raise ValueError("derivative index k is only meaningful for p = 2")
    if np.isinf(p):
        return float(np.abs(field.values).max())
    if p <= 0:
        raise ValueError("p must be positive")
    h = field.geometry.spacing
    return float((np.abs(field.values) ** p).sum() * h) ** (1.0 / p)


def holder_quotient(fields: Sequence[DensityField], times: Iterable[float], beta: float) -> float:
    """max over snapshot pairs of ||f(t) - f(s)||_{H^-1} / |t - s|^beta."""
    times = np.asarray(list(times), dtype=float)
    if len(fields) != len(times) or len(times) < 2:
        raise ValueError("need at least two snapshots with matching times")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    best = 0.0
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            dt = abs(times[j] - times[i])
            if dt == 0.0:
                raise ValueError("snapshot times must be distinct")
            diff = DensityField(fields[i].geometry, fields[j].values - fields[i].values)
            best = max(best, sobolev_norm(diff, k=-1) / dt ** beta)
    return best


def interaction_decomposition(q: np.ndarray, kern: KernelParams, w: PotentialSpec,
                              geometry: TorusGeometry | None = None):
    """Split the smoothed interaction term into closure plus remainders.

    Returns (lhs, r1, r2, rho) where rho is the smoothed density rho_eps and

        lhs(x) = (1/N) sum_i [ (1/N) sum_j W'(q_i - q_j) ] w_eps(x - q_i),
        r1(x)  = (1/N) sum_j W'(x - q_j) - (W' * rho_eps)(x),
        r2     = lhs - (W' * rho_eps) rho_eps - r1 rho_eps,

    so lhs == (W' * rho_eps) rho_eps + r1 rho_eps + r2 holds exactly by
    construction; the content of the decomposition is that r1 and r2 are
    small for small eps.
    """
    q = np.asarray(q, dtype=float)
    if geometry is None:
        geometry = kern.geometry
    nodes = geometry.nodes()

    per_particle = mean_w1_at(w, q, q)                   # (1/N) sum_j W'(q_i - q_j)
    lhs_vals = weighted_field_values(q, per_particle, kern, geometry)
    rho = DensityField(geometry, weighted_field_values(q, np.ones_like(q), kern, geometry))
    conv = convolve_potential(rho, w, derivative=1)
    r1_vals = mean_w1_at(w, q, nodes) - conv.values
    r2_vals = lhs_vals - conv.values * rho.values - r1_vals * rho.values

    lhs = DensityField(geometry, lhs_vals)
    r1 = DensityField(geometry, r1_vals)
    r2 = DensityField(geometry, r2_vals)
    return lhs, r1, r2, rho
