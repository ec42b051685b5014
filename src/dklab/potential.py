"""Smooth interaction potentials as short trigonometric polynomials.

A potential is W(x) = sum_k a_k cos(kx) + b_k sin(kx) with the wavenumber k
running from 0 to a small k_max.  Only W' and W'' enter the dynamics, so the
constant a_0 is irrelevant but kept for completeness.  The default choice
throughout the package is W = cos(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import TWO_PI, Workspace, cos_sin


@dataclass(frozen=True)
class PotentialSpec:
    """Trigonometric interaction potential.

    cosine[k] and sine[k] are the coefficients of cos(kx) and sin(kx);
    the arrays must have equal length k_max + 1.
    """

    cosine: np.ndarray
    sine: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.cosine, dtype=float))
        b = np.atleast_1d(np.asarray(self.sine, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("cosine and sine coefficient arrays must be 1-d and equal length")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("potential coefficients must be finite")
        object.__setattr__(self, "cosine", a)
        object.__setattr__(self, "sine", b)

    @classmethod
    def cosine_potential(cls) -> "PotentialSpec":
        """W(x) = cos(x)."""
        return cls(cosine=np.array([0.0, 1.0]), sine=np.array([0.0, 0.0]))

    @classmethod
    def zero(cls) -> "PotentialSpec":
        """Free dynamics, W' identically zero."""
        return cls(cosine=np.array([0.0]), sine=np.array([0.0]))

    @property
    def k_max(self) -> int:
        return len(self.cosine) - 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.cosine[1:] == 0.0) and np.all(self.sine[1:] == 0.0))

    def w1(self, x) -> np.ndarray:
        """First derivative W'."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for k in range(1, self.k_max + 1):
            out = out + k * (-self.cosine[k] * np.sin(k * x) + self.sine[k] * np.cos(k * x))
        return out

    def max_abs_w1(self, n_scan: int = 4096) -> float:
        """sup |W'| by dense scan (exact enough for low-order polynomials)."""
        x = np.arange(n_scan) * (TWO_PI / n_scan)
        return float(np.abs(self.w1(x)).max())

    def conv_multiplier(self, n_modes: int, derivative: int = 0) -> np.ndarray:
        """Fourier multiplier of f -> W^(derivative) * f (circular convolution).

        In the series convention f(x) = sum_k c_k exp(ikx), convolution with a
        kernel g multiplies c_k by g_hat_k = integral g(x) exp(-ikx) dx, i.e.
        2*pi times g's own series coefficient.  For the trig polynomial W the
        series coefficients are (a_k - i b_k)/2 on k >= 1, so

            multiplier[k] = 2*pi * (ik)^derivative * (a_k - i b_k) / 2.

        Returns a complex array over k = 0 .. n_modes-1 (rfft layout).
        """
        mult = np.zeros(n_modes, dtype=complex)
        if derivative == 0:
            mult[0] = TWO_PI * self.cosine[0]
        for k in range(1, min(self.k_max, n_modes - 1) + 1):
            ck = 0.5 * (self.cosine[k] - 1j * self.sine[k])
            mult[k] = TWO_PI * (1j * k) ** derivative * ck
        return mult


def mean_w1_at(w: PotentialSpec, q: np.ndarray, at: np.ndarray,
               cos_sin_q: tuple[np.ndarray, np.ndarray] | None = None,
               work: Workspace | None = None, negate: bool = False) -> np.ndarray:
    """Ensemble average (1/N) sum_j W'(at - q_j), vectorised in both arguments.

    q has shape (..., N) and `at` either (M,) or a batch-compatible (..., M);
    the sum over j collapses to per-wavenumber totals

        C_k = sum_j cos(k q_j),   S_k = sum_j sin(k q_j),

    so the cost is O((N + M) k_max) instead of O(N M).  Every cos and sin,
    of k q and of k at, comes from `torus.cos_sin`.  Evaluating at the
    particle positions themselves (`at` is the array `q`) includes the self
    term W'(0), which is the convention used by the pairwise force, and
    reuses the cos(k q), sin(k q) arrays of the totals as the evaluation
    trig, with the same bits as evaluating at a copy of q.

    cos_sin_q, when given, is `cos_sin(q)` as a caller has already computed
    it; it serves as the k = 1 arrays in place of new ones and is only read.
    1 * q has the bits of q, so the result does not change.

    work, when given, is a `torus.Workspace` of q's shape, for `at` is q
    only: the result and every array-sized temporary are taken from it, so
    the call allocates no array of that size, and the result is the
    workspace's array "w1", valid until its next use.  Otherwise the result
    is a new array.  The bits are the same either way.

    negate=True returns the negated average, with the bits of negating the
    result of negate=False.

    The passes that change no bit are left out.  The sum starts from its
    first term plus 0.0, not from an array of zeros: 0.0 + t is t except
    that it turns -0.0 into +0.0, which is all the zeros did, so no term
    adds to a -0.0.  The factor k is not applied at k = 1, as 1 * t is t.
    The sign of negate goes into the division, as x / (-N) is -(x / N) for
    every x that is not NaN: division rounds symmetrically, and a zero
    keeps the sign of its quotient.
    """
    q = np.asarray(q, dtype=float)
    at = np.asarray(at, dtype=float)
    shared = at is q
    if work is None:
        work = Workspace(np.broadcast_shapes(q.shape[:-1] + (1,), at.shape))
    elif not (shared and work.shape == q.shape):
        raise ValueError("a workspace serves the evaluation at q itself, of q's shape")
    n_part = q.shape[-1]
    out = work["w1"]
    first = True
    for k in range(1, w.k_max + 1):
        a, b = w.cosine[k], w.sine[k]
        if a == 0.0 and b == 0.0:
            continue
        if k == 1 and cos_sin_q is not None:
            cos_q, sin_q = cos_sin_q
        elif shared:
            kq = q if k == 1 else np.multiply(k, q, out=work["scratch"])
            cos_q, sin_q = cos_sin(kq, out=(work["cos"], work["sin"], work["scratch"]))
        else:
            cos_q, sin_q = cos_sin(q if k == 1 else k * q)
        ck = cos_q.sum(axis=-1, keepdims=True)
        sk = sin_q.sum(axis=-1, keepdims=True)
        cos_at, sin_at = (cos_q, sin_q) if shared else cos_sin(k * at)
        # k * (-a (C sin - S cos) + b (C cos + S sin)) in place, in that order;
        # a zero coefficient's term is skipped, which only changes the sign of
        # a zero that out (never -0.0) absorbs
        prod = work["scratch"]
        term = None
        if a != 0.0:
            term = np.multiply(ck, sin_at, out=work["term"])
            term -= np.multiply(sk, cos_at, out=prod)
            term *= -a
        if b != 0.0:
            cos_term = np.multiply(ck, cos_at,
                                   out=work["term" if term is None else "cos_term"])
            cos_term += np.multiply(sk, sin_at, out=prod)
            cos_term *= b
            if term is None:
                term = cos_term
            else:
                term += cos_term
        if k != 1:
            term *= k
        if first:
            np.add(term, 0.0, out=out)
            first = False
        else:
            out += term
    if first:
        out.fill(0.0)
    out /= -n_part if negate else n_part
    return out
