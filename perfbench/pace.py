"""Host-speed scaling for the benchmark's timings.

The speed of a shared host swings by up to a factor of two for tens of
seconds at a time, when other tenants load its cores. A fixed kernel of small
sparse matvecs, array updates and interpreter work, much like the package's
own inner loops, slows with it. The benchmark times this kernel between jobs
and scales each job's time by REFERENCE_PACE_S / (the mean of the kernel's
times just before and after the job). A scaled timing reads as seconds on a
host where the kernel takes REFERENCE_PACE_S, and a run no longer depends on
how long the host was slow during it. The kernel uses no g2coflow code, so a
change to the program moves the scaled job times in full.
"""

import time

import numpy as np
import scipy.sparse as sp

# the kernel's median time on the host the benchmark's bounds were set on
# (Intel Xeon, 2 vCPUs at 2.0 GHz, one compute thread)
REFERENCE_PACE_S = 0.005


class Pace:
    def __init__(self):
        n = 512
        self.matrix = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                               [-1, 0, 1], format="csr")
        self.x0 = np.linspace(0.0, 1.0, n)
        self.kernel_s = []
        self._time()                # the first call pays scipy's lazy set-up
        self.last = self._time()

    def _time(self):
        t0 = time.perf_counter()
        x, acc = self.x0, 0.0
        for i in range(400):
            x = x + 1e-4 * (self.matrix @ x)
            acc += float(x[i % x.size]) * 0.5
        return time.perf_counter() - t0

    def scale(self):
        """Factor for the work that just ended, from the kernel on each side."""
        before, self.last = self.last, self._time()
        self.kernel_s.append(self.last)
        return REFERENCE_PACE_S / (0.5 * (before + self.last))
