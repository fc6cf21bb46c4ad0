"""Host speed index: a fixed calibration kernel timed all through a run.

On a shared virtual machine the same code runs 25-40 % slower for minutes
at a time (neighbours' cache and memory traffic), which no median inside a
50-second run can remove. The benchmark therefore times a fixed kernel of
its own after every timed operation, and divides its end-to-end times by
median(kernel time) / KERNEL_REF_MS: they read as milliseconds on a host
where the kernel takes KERNEL_REF_MS. The kernel mixes what rigvo spends
its time on: dict building over (frame, pixel) lists, as the track table
does, and small dense numpy solves and products, as PnP and BA do.

Each sample runs the kernel once untimed and times a second pass, with the
garbage collector paused: the timed pass finds its data in cache, whatever
the operation before it evicted, and the size of the program's heap cannot
trigger a collection inside it. The samples taken back to back after
set-up and those taken after timed operations are kept apart, so that a
run shows whether the program's own work moved the kernel.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# median kernel time on the 2-vCPU machine the benchmark was written on
KERNEL_REF_MS = 2.0


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._tracks = [[(f, rng.normal(size=2)) for f in range(12)] for _ in range(300)]
        self._mats = rng.normal(size=(40, 6, 6)) + 6.0 * np.eye(6)
        self._rot = rng.normal(size=(200, 3, 3))
        self._vec = np.ones(6)
        self.kernel_ms = []
        self.after_ops_from = None  # index of the first sample after an operation

    def _kernel(self):
        total = 0.0
        for _ in range(3):
            for obs in self._tracks:
                by_frame = {f: pix for f, pix in obs}
                total += len(by_frame)
        for m in self._mats:
            total += float(np.linalg.solve(m, self._vec)[0])
        total += float(np.einsum("kij,kjl->kil", self._rot, self._rot).sum())
        return total

    def sample(self):
        """Warm the kernel up, then time it once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._kernel()
            start = time.perf_counter()
            self._kernel()
            self.kernel_ms.append(1e3 * (time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def start_ops(self):
        """Mark the samples from here on as taken after timed operations."""
        self.after_ops_from = len(self.kernel_ms)

    def index(self):
        """How much slower than the reference host this run ran."""
        return statistics.median(self.kernel_ms) / KERNEL_REF_MS

    def summary(self):
        """Raw kernel medians (ms): back to back after set-up, and after
        timed operations; and the index."""
        split = self.after_ops_from
        return {
            "kernel_ms_p50_setup": statistics.median(self.kernel_ms[:split]),
            "kernel_ms_p50_ops": statistics.median(self.kernel_ms[split:]),
            "host_index": self.index(),
        }
