"""Least-squares power-law fits for convergence and scaling studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerLawFit:
    """y ~ prefactor * x**slope from a log-log least-squares line."""

    slope: float
    prefactor: float
    slope_stderr: float
    residual_rms: float


def fit_loglog(x, y) -> PowerLawFit:
    """Fit log y = a + b log x; both inputs must be positive.

    The slope standard error is the usual OLS expression
    sqrt(sum r^2 / (n - 2) / sum (log x - mean)^2); with two points it is
    reported as zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-d samples at least")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if x.size > 2:
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = float(np.sqrt(np.sum(resid ** 2) / (x.size - 2) / sxx))
    else:
        stderr = 0.0
    return PowerLawFit(float(slope), float(np.exp(intercept)), stderr, rms)


def halving_factors(values) -> np.ndarray:
    """Ratios values[i] / values[i+1] along a ladder."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError("need at least two ladder points")
    return v[:-1] / v[1:]
