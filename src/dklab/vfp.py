"""Kinetic Fokker-Planck solver for the mean-field phase-space law.

The mean-field law f_t(q, p) of the auxiliary dynamics solves

    df/dt + p df/dq - (W' * rho[f])(q) df/dp
        = (sigma^2/2) d^2f/dp^2 + d(gamma p f)/dp,

posed on the torus in q and a truncated interval [-p_max, p_max] in p with
zero-flux walls.  One step of length dt is Strang-split:

    half transport in q   (exact spectral phase shift per p row)
    full drift-diffusion in p   (Chang-Cooper finite volume, implicit Euler)
    half transport in q

The p substep is the flux form d/dp [A f + D df/dp] with A = gamma*p + G(q),
G = W' * rho[f], D = sigma^2/2.  Chang-Cooper interface weights make the
cell-sampled Gaussian exp(-gamma p^2 / sigma^2) an exact steady state of the
discrete operator (the midpoint rule integrates the linear drift exactly),
and the implicit update is an M-matrix solve, so positivity and mass
conservation are structural rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import PotentialSpec
from .torus import TWO_PI, TorusGeometry, cos_sin

#: zero-flux walls must see less mass than this, per cell, at construction
BOUNDARY_MASS_TOL = 1e-8

#: mass drift tolerance checked after every step
MASS_DRIFT_TOL = 1e-8


class MassLossError(RuntimeError):
    """Phase-space mass left the truncated p-domain or the solver leaked it."""


@dataclass
class PhaseSpaceDensity:
    """Cell-averaged density on (torus q nodes) x (centered p cells)."""

    geometry: TorusGeometry
    p_max: float
    values: np.ndarray  # shape (n_q, n_p)
    t: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.geometry.n_grid:
            raise ValueError("values must have shape (n_q, n_p)")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        self.values = v

    @property
    def n_p(self) -> int:
        return self.values.shape[1]

    @property
    def dp(self) -> float:
        return 2.0 * self.p_max / self.n_p

    def p_centers(self) -> np.ndarray:
        return -self.p_max + (np.arange(self.n_p) + 0.5) * self.dp

    def marginal(self) -> np.ndarray:
        """Position marginal rho[f](q_j) on the grid."""
        return self.values.sum(axis=1) * self.dp

    def mass(self) -> float:
        return float(self.marginal().sum() * self.geometry.spacing)

    def copy(self) -> "PhaseSpaceDensity":
        return PhaseSpaceDensity(self.geometry, self.p_max, self.values.copy(), self.t)


def uniform_maxwellian(geometry: TorusGeometry, p_max: float, n_p: int,
                       m2: float) -> PhaseSpaceDensity:
    """Product datum: uniform in q, centred Gaussian of variance m2 in p.

    Normalised so the discrete mass is exactly 1; the cell-sampled Gaussian
    is then an exact steady state of the p substep when W' vanishes.
    """
    if m2 <= 0:
        raise ValueError("temperature m2 must be positive")
    dens = PhaseSpaceDensity(geometry, p_max, np.zeros((geometry.n_grid, n_p)))
    g = np.exp(-dens.p_centers() ** 2 / (2.0 * m2))
    vals = np.broadcast_to(g, (geometry.n_grid, n_p)).copy()
    dens.values = vals / (vals.sum() * dens.dp * geometry.spacing)
    edge = max(dens.values[0, 0], dens.values[0, -1]) * dens.dp * TWO_PI
    if edge > BOUNDARY_MASS_TOL:
        raise MassLossError(
            f"p_max={p_max} too small: boundary cell mass {edge:.2e} exceeds {BOUNDARY_MASS_TOL}"
        )
    return dens


def _cc_delta(wgt: np.ndarray) -> np.ndarray:
    """Chang-Cooper interface weight delta(w) = 1/(1 - exp(-w)) - 1/w.

    Smoothly interpolates between the central value 1/2 at w = 0 and the
    upwind limits 0 / 1 as w -> -inf / +inf.
    """
    out = np.empty_like(wgt)
    small = np.abs(wgt) < 1e-8
    out[small] = 0.5 + wgt[small] / 12.0
    rest = ~small
    wr = np.clip(wgt[rest], -700.0, 700.0)
    out[rest] = 1.0 / (-np.expm1(-wr)) - 1.0 / wr
    return out


def _thomas_batch(lower, diag, upper, rhs):
    """Solve tridiagonal systems for every row of a (n_sys, n) batch."""
    n = rhs.shape[1]
    c_star = np.empty_like(rhs)
    d_star = np.empty_like(rhs)
    c_star[:, 0] = upper[:, 0] / diag[:, 0]
    d_star[:, 0] = rhs[:, 0] / diag[:, 0]
    for j in range(1, n):
        denom = diag[:, j] - lower[:, j] * c_star[:, j - 1]
        c_star[:, j] = upper[:, j] / denom
        d_star[:, j] = (rhs[:, j] - lower[:, j] * d_star[:, j - 1]) / denom
    out = np.empty_like(rhs)
    out[:, -1] = d_star[:, -1]
    for j in range(n - 2, -1, -1):
        out[:, j] = d_star[:, j] - c_star[:, j] * out[:, j + 1]
    return out


class VfpSolver:
    """Strang-split integrator holding one PhaseSpaceDensity.

    The self-consistent force coefficients are refreshed once per step (from
    the marginal after the first half transport) and cached; `conv_coeffs`
    hands them out, and `meanfield_force_from_coeffs` turns them into the
    force at off-grid positions for the particle dynamics.
    """

    def __init__(self, density: PhaseSpaceDensity, w: PotentialSpec,
                 gamma: float, sigma: float):
        if gamma < 0 or sigma < 0:
            raise ValueError("gamma and sigma must be nonnegative")
        self.density = density
        self.w = w
        self.gamma = gamma
        self.sigma = sigma
        self._mass0 = density.mass()
        self.clipped_mass = 0.0
        p = density.p_centers()
        self._p_interfaces = p[:-1] + density.dp / 2.0
        self._k_modes = np.arange(density.geometry.n_modes)
        # complex coefficients of (W' * rho) for k = 1 .. k_max, refreshed per step
        self._conv_coeffs = self._compute_conv_coeffs()

    def _compute_conv_coeffs(self) -> np.ndarray:
        kmax = self.w.k_max
        if kmax == 0 or self.w.is_zero:
            return np.zeros(0, dtype=complex)
        marg = self.density.marginal()
        c = np.fft.rfft(marg)[: kmax + 1] / self.density.geometry.n_grid
        mult = self.w.conv_multiplier(kmax + 1, derivative=1)
        return (c * mult)[1:]

    def conv_coeffs(self) -> np.ndarray:
        """Current coefficients g_k with (W'*rho)(x) = 2 Re sum_k g_k e^{ikx}."""
        return self._conv_coeffs.copy()

    def _transport(self, h: float) -> None:
        dens = self.density
        spec = np.fft.rfft(dens.values, axis=0)
        phase = np.exp(-1j * np.outer(self._k_modes, dens.p_centers()) * h)
        spec *= phase
        spec[-1, :] = spec[-1, :].real  # keep the Nyquist row real-compatible
        dens.values = np.fft.irfft(spec, n=dens.geometry.n_grid, axis=0)

    def _p_substep(self, dt: float) -> None:
        dens = self.density
        dp = dens.dp
        diffusion = 0.5 * self.sigma ** 2
        conv = meanfield_conv_from_coeffs(self._conv_coeffs, dens.geometry.nodes())
        # drift A(q, p) = gamma * p + (W' * rho)(q) at the interior interfaces
        a_int = self.gamma * self._p_interfaces[None, :] + conv[:, None]
        if diffusion > 0.0:
            delta = _cc_delta(a_int * dp / diffusion)
        else:
            delta = (a_int > 0).astype(float)
        flux_up = a_int * delta + diffusion / dp          # weight of f_{j+1}
        flux_dn = a_int * (1.0 - delta) - diffusion / dp  # weight of f_j
        n_q, n_p = dens.values.shape
        upper = np.zeros((n_q, n_p))
        lower = np.zeros((n_q, n_p))
        diag = np.zeros((n_q, n_p))
        upper[:, :-1] = flux_up / dp
        lower[:, 1:] = -flux_dn / dp
        diag[:, :-1] += flux_dn / dp
        diag[:, 1:] -= flux_up / dp
        m_lower = -dt * lower
        m_diag = 1.0 - dt * diag
        m_upper = -dt * upper
        new_vals = _thomas_batch(m_lower, m_diag, m_upper, dens.values)
        neg = new_vals < 0.0
        if neg.any():
            self.clipped_mass += float(-new_vals[neg].sum() * dp * dens.geometry.spacing)
            new_vals[neg] = 0.0
        dens.values = new_vals

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._transport(dt / 2.0)
        self._conv_coeffs = self._compute_conv_coeffs()
        self._p_substep(dt)
        self._transport(dt / 2.0)
        self.density.t += dt
        drift = abs(self.density.mass() - self._mass0)
        if drift > MASS_DRIFT_TOL:
            raise MassLossError(f"mass drifted by {drift:.2e} at t={self.density.t}")


def meanfield_conv_from_coeffs(coeffs: np.ndarray, q_pts: np.ndarray) -> np.ndarray:
    """(W' * rho)(q) from cached complex coefficients g_1 .. g_kmax."""
    q_pts = np.asarray(q_pts, dtype=float)
    out = np.zeros(q_pts.shape)
    for k, g in enumerate(coeffs, start=1):
        cos_kq, sin_kq = cos_sin(k * q_pts)
        out += 2.0 * (g.real * cos_kq - g.imag * sin_kq)
    return out


def meanfield_force_from_coeffs(coeffs: np.ndarray, q_pts: np.ndarray) -> np.ndarray:
    return -meanfield_conv_from_coeffs(coeffs, q_pts)
