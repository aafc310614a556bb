"""Machine-pace reference: converts wall times to seconds at a nominal pace.

On a shared host the same pass reads up to twice as slow when neighbours
are busy, and the slow and fast phases last from a fraction of a second to
minutes.  Each measured interval is therefore bracketed by runs of a fixed
reference kernel, and its wall time is scaled by nominal/measured kernel
time.  The result is still a time in seconds: the time the interval would
have taken on a machine running the kernel at its nominal pace.

The kernel mixes the two kinds of work the program does: interpreted float
arithmetic with %.17g formatting, and numpy FFTs.  It touches neither the
program nor the disk.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one kernel unit over 511 passes on the 2-vCPU Xeon
# (2.1 GHz) machine that the reference figures in README.md come from.
UNIT_NOMINAL_S = 0.012
# Kernel time per interval, as a share of the interval's own time.
SHARE = 0.2

_X = np.linspace(0.0, 1.0, 4096)


def _unit() -> None:
    x, p, parts = 0.1, 1.0, []
    for _ in range(4800):
        p -= 1e-3 * x
        x += 1e-3 * p
        parts.append("%.17g,%.17g" % (x, p))
    ",".join(parts)
    y = _X
    for _ in range(32):
        y = np.fft.irfft(np.fft.rfft(y) * 0.5, n=4096) + _X


def kernel(units: int) -> float:
    """Run the reference kernel `units` times; return its wall time."""
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - t0


def units_for(seconds: float) -> int:
    """Kernel units that take about SHARE of an interval of `seconds`."""
    return max(1, round(SHARE * seconds / UNIT_NOMINAL_S))


class Paced:
    """Accumulates (wall, kernel wall, kernel units) for one interval."""

    def __init__(self):
        self.wall = 0.0
        self.ref_wall = 0.0
        self.ref_units = 0

    def reference(self, units: int) -> None:
        self.ref_wall += kernel(units)
        self.ref_units += units

    @property
    def seconds(self) -> float:
        """Wall time scaled to the nominal pace."""
        return self.wall * self.ref_units * UNIT_NOMINAL_S / self.ref_wall
