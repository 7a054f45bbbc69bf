"""Machine-speed calibration.

The benchmark shares its machine with other work. On a shared 2-vCPU VM
the speed a single thread gets switches between about 1x and 1.8x slower
than quiet, from one minute (or a few seconds) to the next. A fixed
calibration kernel runs before every op, so the benchmark knows how fast
the machine was around each op. Op times are divided by `speed factor =
median kernel time nearby / NOMINAL_SECONDS`, i.e. stated in milliseconds
at the speed where the kernel takes NOMINAL_SECONDS. The kernel mixes the
two kinds of work geodd does: small dense LAPACK calls through numpy and
pure-Python rational arithmetic. It touches no geodd code, so a change to
geodd moves the scaled times in the same proportion as the raw ones.
"""

import statistics
import time
from fractions import Fraction

import numpy as np

# Median kernel time on the reference machine (shared 2-vCPU x86_64 VM,
# Python 3.11, numpy 2.4 with scipy-openblas 0.3.31, one BLAS thread) when
# it was not slowed by other load.
NOMINAL_SECONDS = 1.2e-3

# Kernel runs on each side of an op that set its speed factor. The machine's
# speed can switch within a pass, so a narrow window tracks it; eleven runs
# keep the median steady.
HALF_WINDOW = 5

_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_FRACTIONS = [Fraction(i, i + 7) for i in range(1, 31)]


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    np.linalg.svd(_MATRIX)
    np.linalg.eigvals(_MATRIX)
    total = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS[:8]:
            total += a * b
    return time.perf_counter() - start


def factor(samples) -> float:
    """How much slower than nominal the machine ran while `samples` were taken."""
    return statistics.median(samples) / NOMINAL_SECONDS


def scaled(seconds, kernel, half_window=HALF_WINDOW):
    """Op times at nominal speed. `seconds[i]` is divided by the factor of
    the kernel runs `kernel[i - half_window : i + half_window + 1]` taken
    around it (both lists in the order the ops ran)."""
    out = []
    for i, sec in enumerate(seconds):
        near = kernel[max(0, i - half_window):i + half_window + 1]
        out.append(sec / factor(near))
    return out
