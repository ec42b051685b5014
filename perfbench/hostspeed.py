"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host whose throughput swings by
10 to 25 % over seconds to minutes, in CPU time as much as in wall time,
because other tenants compete for the same cores, caches and memory bus.
Those swings move every timing of a run together, so a run's median drifts
with the host rather than with the program.

`kernel_s` times a fixed reference kernel that does the kinds of work the
studies do, with numpy only and no dklab code: particle-style updates with
transcendental calls on a (16, 2048) array, a loop of small FFTs on a
128-point grid, and transcendental passes over an 8 MB array.  The benchmark
runs it between repetitions, and `scale` converts a repetition's seconds into
reference-host seconds: the time the repetition would have taken on a host
where the kernel takes `REFERENCE_S`.  A change to dklab moves the scaled
time exactly as it moves the raw time; a change of host speed moves the
kernel too and largely cancels.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the development machine (2 vCPUs of an Intel
# Xeon host), so scaled seconds read close to raw seconds there.
REFERENCE_S = 0.33

_rng = np.random.default_rng(0)
_PARTICLES = _rng.random((16, 2048)) * 2 * np.pi
_GRID = _rng.random(128)
_LARGE = _rng.random(1 << 20)


def _particle_steps() -> None:
    x = _PARTICLES.copy()
    for _ in range(20):
        force = np.sin(x[:, :, None] - x[:, None, :8]).mean(axis=2)
        x += 0.01 * force + 0.001 * np.cos(x)
        x %= 2 * np.pi


def _small_ffts() -> None:
    u = _GRID.copy()
    for _ in range(3000):
        v = np.fft.rfft(u)
        v *= 0.99
        u = np.fft.irfft(v, u.size) + 0.001
        float(u.min())


def _large_passes() -> None:
    for i in range(4):
        float(np.exp(np.cos(_LARGE * (1 + i))).sum())


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    _particle_steps()
    _small_ffts()
    _large_passes()
    return time.perf_counter() - t0


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` measured between two kernel timings, in reference-host seconds."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
