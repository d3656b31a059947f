"""A fixed calibration kernel that tracks the machine's speed during a run.

The machine this benchmark was written on drifts: over tens of seconds both
cores slow by up to 40 % and recover, for every kind of code, with no steal
time visible in the guest.  Raw timings therefore spread by 15-25 % between
runs.  A small kernel of the same kind of work as the workload (a Laguerre
recurrence on numpy arrays and scipy quadrature of a Python callback, or a
256**2 complex FFT for the grid workload) is timed between operations; the
ratio of its mean time near an operation to its nominal time is the
slow-down factor there, and the operation's time is divided by it.  In 5-second windows on that machine this
cut the spread of throughput from 14-27 % to 3-5 %.

The kernel is frozen benchmark code that never calls ``wigentropy``, so a
change to the package moves the scaled times exactly as it moves the raw ones.
The report prints the raw figures and the factor alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.integrate import quad

#: typical time in seconds of each kernel on the reference machine (2-core
#: Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17), between its fast
#: spells (about 0.65 of this) and its slow ones (about 1.25 of it); a
#: factor of 1 means that speed
NOMINAL_S = {"python": 0.0025, "fft": 0.0048}

#: op time between two kernel samples
SAMPLE_EVERY_S = 0.1

_COEFFS = np.array([0.2, -0.3, 0.25, -0.1, 0.15])
_NODES = np.linspace(0.0, 20.0, 2048)
_FIELD = np.random.default_rng(0).random((256, 256)) + 0j


def _damped_series(t):
    t = np.asarray(t, dtype=float)
    out = np.empty((len(_COEFFS),) + t.shape)
    out[0] = np.exp(-0.5 * t)
    out[1] = (1.0 - t) * out[0]
    for k in range(1, len(_COEFFS) - 1):
        out[k + 1] = ((2 * k + 1 - t) * out[k] - k * out[k - 1]) / (k + 1)
    return np.tensordot(_COEFFS, out, axes=1)


def python_kernel() -> float:
    """Interpreter-bound work like the quadrature and positivity paths; its thread CPU time."""
    t0 = time.thread_time()
    quad(lambda u: float(_damped_series(u)) ** 2, 0.0, 20.0, limit=100)
    _damped_series(_NODES).sum()
    return time.thread_time() - t0


def fft_kernel() -> float:
    """Memory- and FFT-bound work like the grid convolution; its thread CPU time."""
    t0 = time.thread_time()
    np.fft.ifft2(np.fft.fft2(_FIELD) * _FIELD).real.sum()
    return time.thread_time() - t0


# Each kernel reports CPU time: a slow core inflates it, but sharing a core
# with another process (a pool worker, say) does not.
KERNELS = {"python": python_kernel, "fft": fft_kernel}


class SpeedMeter:
    """Kernel samples taken during a run; a factor > 1 means slower than nominal.

    ``kind`` picks the kernel that resembles the workload's own work.
    """

    def __init__(self, kind: str = "python"):
        self.kernel = KERNELS[kind]
        self.nominal = NOMINAL_S[kind]
        self.samples: list[float] = []
        self.pending = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(self.kernel())

    def mark(self) -> int:
        """Position of an op that starts now among the samples."""
        return len(self.samples)

    def after_op(self, op_seconds: float) -> None:
        """Sample once per SAMPLE_EVERY_S of op time."""
        self.pending += op_seconds
        if self.pending >= SAMPLE_EVERY_S:
            self.pending = 0.0
            self.sample()

    def factor_since(self, mark: int) -> float:
        """Slow-down factor over the samples taken since ``mark``."""
        return statistics.fmean(self.samples[mark:]) / self.nominal

    def factor(self, mark: int | None = None, width: int = 3) -> float:
        """Slow-down factor: over every sample, or the ``width`` samples each side of ``mark``."""
        if not self.samples:
            self.sample(width)
        window = self.samples if mark is None else self.samples[max(0, mark - width):mark + width]
        return statistics.fmean(window or self.samples[-width:]) / self.nominal
