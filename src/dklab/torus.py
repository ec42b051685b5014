"""Periodic geometry and the von Mises smoothing kernel.

Everything in this package lives on the flat torus of circumference 2*pi,
sampled on uniform power-of-two grids.  The smoothing kernel is the
normalised von Mises bump

    w_eps(x) = Z_eps^{-1} exp(-sin^2(x/2) / (eps^2/2)),

which concentrates like a mean-zero Gaussian of variance eps^2 as eps -> 0.
Writing kappa = eps^{-2} and using sin^2(x/2) = (1 - cos x)/2 turns the
exponent into kappa*(cos x - 1), so the normalisation constant and the
Fourier coefficients have closed Bessel forms,

    Z_eps   = 2*pi * exp(-kappa) * I_0(kappa),
    w_hat_k = I_k(kappa) / I_0(kappa),

which the test-suite uses as independent oracles.  The implementation here
never calls Bessel routines: it integrates on the grid (the trapezoidal rule
is spectrally accurate for smooth periodic integrands) and reads coefficients
off an FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Grid admissibility rule: at least this many nodes per unit 1/eps.
NODES_PER_INV_EPS = 16

#: Fourier coefficients of the kernel below -CLAMP_TOL are treated as a bug;
#: values in (-CLAMP_TOL, 0) are rounded up to zero before square roots.
CLAMP_TOL = 1e-12


class ResolutionError(ValueError):
    """Raised when a grid is too coarse for the requested kernel width."""


def wrap(x):
    """Map angles onto the fundamental domain [0, 2*pi).

    Accepts scalars or arrays; the output always satisfies 0 <= wrap(x) < 2*pi
    and wrap(x + 2*pi*m) == wrap(x) for integer m up to roundoff.  For tiny
    negative inputs np.mod rounds to exactly 2*pi, which would land outside
    the half-open interval, hence the explicit fold back to zero.
    """
    out = np.mod(x, TWO_PI)
    return np.where(out == TWO_PI, 0.0, out)


def wrap_centered(x):
    """Map angles onto [-pi, pi)."""
    out = np.mod(np.asarray(x) + np.pi, TWO_PI) - np.pi
    return np.where(out == np.pi, -np.pi, out)


def _next_pow2(m: float) -> int:
    n = 2
    while n < m:
        n *= 2
    return n


@dataclass(frozen=True)
class TorusGeometry:
    """Uniform grid x_j = j * (2*pi/n_grid) on the circle.

    n_grid must be a power of two so FFT sizes stay cheap and halving or
    doubling a grid stays in-family.
    """

    n_grid: int

    def __post_init__(self):
        n = self.n_grid
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n_grid must be a power of two >= 4, got {n}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_grid

    @property
    def n_modes(self) -> int:
        """Number of nonnegative Fourier modes (rfft layout)."""
        return self.n_grid // 2 + 1

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_grid) * self.spacing

    def admits(self, epsilon: float) -> bool:
        return self.n_grid >= NODES_PER_INV_EPS / epsilon

    def require_admissible(self, epsilon: float) -> None:
        if not self.admits(epsilon):
            raise ResolutionError(
                f"n_grid={self.n_grid} cannot resolve epsilon={epsilon}; "
                f"need at least {NODES_PER_INV_EPS / epsilon:.0f} nodes"
            )

    @staticmethod
    def for_epsilon(epsilon: float, oversample: int = 0) -> "TorusGeometry":
        """Smallest admissible power-of-two grid for a kernel width.

        oversample doubles the node count that many extra times.  The
        mollifier study passes oversample=2, and a config's kernel block may
        set it; the field estimator needs none.
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        base = max(64, _next_pow2(NODES_PER_INV_EPS / epsilon))
        return TorusGeometry(base << oversample)


def normalization_constant(epsilon: float, n_grid: int | None = None) -> float:
    """Normalisation Z_eps of the von Mises kernel by periodic quadrature.

    Parameters
    ----------
    epsilon : kernel width, must be positive.
    n_grid : number of quadrature nodes; defaults to the smallest admissible
        power of two (at least 256).

    The rectangle/trapezoid rule on a uniform periodic grid converges
    spectrally here, so the default grid already reaches ~1e-15 relative
    accuracy against the closed Bessel form.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    kappa = epsilon ** -2.0
    if n_grid is None:
        n_grid = max(256, _next_pow2(NODES_PER_INV_EPS / epsilon))
    elif n_grid < NODES_PER_INV_EPS / epsilon:
        raise ResolutionError(
            f"n_grid={n_grid} too coarse for epsilon={epsilon}"
        )
    x = np.arange(n_grid) * (TWO_PI / n_grid)
    # exp(kappa*(cos x - 1)) equals exp(-kappa) * exp(kappa cos x) without overflow
    return float(np.exp(kappa * (np.cos(x) - 1.0)).sum() * (TWO_PI / n_grid))


@dataclass(frozen=True)
class KernelParams:
    """Width, concentration, normalisation and spectrum of one kernel.

    fourier_coeffs[k] holds w_hat_k = integral of w_eps(x) exp(-i k x) dx for
    k = 0 .. n_grid/2, clamped to [0, 1]; w_hat_0 == 1 because the kernel is
    a probability density.
    """

    epsilon: float
    kappa: float
    z_eps: float
    geometry: TorusGeometry
    fourier_coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fourier_coeffs",
                           np.asarray(self.fourier_coeffs, dtype=float))


def make_kernel(epsilon: float, geometry: TorusGeometry | None = None) -> KernelParams:
    """Build KernelParams for a width, validating the resolution rule."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if geometry is None:
        geometry = TorusGeometry.for_epsilon(epsilon)
    geometry.require_admissible(epsilon)
    kappa = epsilon ** -2.0
    z_eps = normalization_constant(epsilon, geometry.n_grid)
    values = von_mises_raw(kappa, geometry.nodes()) / z_eps
    coeffs = np.fft.rfft(values).real * geometry.spacing
    bad = coeffs.min()
    if bad < -CLAMP_TOL:
        raise ValueError(
            f"kernel spectrum has negative coefficient {bad:.3e} beyond clamp tolerance"
        )
    coeffs = np.clip(coeffs, 0.0, 1.0)
    return KernelParams(epsilon=epsilon, kappa=kappa, z_eps=z_eps,
                        geometry=geometry, fourier_coeffs=coeffs)


def von_mises_raw(kappa: float, x) -> np.ndarray:
    """Unnormalised kernel exp(kappa*(cos x - 1))."""
    return np.exp(kappa * (np.cos(x) - 1.0))


def von_mises_eval(params: KernelParams, x, order: int = 0) -> np.ndarray:
    """Evaluate w_eps or one of its first two derivatives pointwise.

    Derivatives are exact closed forms of the exponential:
        w'  = -kappa * sin(x) * w
        w'' = kappa * (kappa * sin(x)^2 - cos(x)) * w
    """
    x = np.asarray(x, dtype=float)
    k = params.kappa
    w = von_mises_raw(k, x) / params.z_eps
    if order == 0:
        return w
    if order == 1:
        return -k * np.sin(x) * w
    if order == 2:
        return k * (k * np.sin(x) ** 2 - np.cos(x)) * w
    raise ValueError(f"order must be 0, 1 or 2, got {order}")


def kernel_fourier(params: KernelParams, k_max: int) -> np.ndarray:
    """Fourier coefficients w_hat_k for k = 0 .. k_max (clamped to [0, 1])."""
    if k_max < 0 or k_max > params.geometry.n_grid // 2:
        raise ValueError(f"k_max={k_max} outside the resolved band")
    return params.fourier_coeffs[: k_max + 1].copy()


def kernel_residual_sup(epsilon: float, n_points: int = 1 << 16) -> float:
    """Sup-norm distance on [-pi, pi] between w_eps and the line Gaussian.

    The comparison density is the mean-zero variance-eps^2 Gaussian pdf
    evaluated on the interval (not re-normalised, not periodised).

    The sup is attained at the origin, where it has the closed form

        |1/(eps*sqrt(2*pi)) - 1/Z_eps|,   Z_eps = 2*pi * exp(-kappa) * I_0(kappa),

    and the large-kappa expansion of I_0 turns it into

        eps/(8*sqrt(2*pi)) * (1 + 7*eps^2/16 + O(eps^4)),

    so the residual decays with exponent exactly 1, approached from above.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")
    kappa = epsilon ** -2.0
    z = normalization_constant(epsilon)
    x = np.linspace(-np.pi, np.pi, n_points + 1)
    w = von_mises_raw(kappa, x) / z
    gauss = np.exp(-x ** 2 / (2.0 * epsilon ** 2)) / (epsilon * np.sqrt(TWO_PI))
    return float(np.abs(w - gauss).max())


def kernel_moment(epsilon: float, m: int, n_points: int = 1 << 14) -> float:
    """Quadrature of the centred absolute moment integral |x|^m w_eps(x) dx."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    kappa = epsilon ** -2.0
    z = normalization_constant(epsilon)
    x = -np.pi + np.arange(n_points) * (TWO_PI / n_points)
    w = von_mises_raw(kappa, x) / z
    return float((np.abs(x) ** m * w).sum() * (TWO_PI / n_points))
