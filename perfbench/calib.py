"""Fixed calibration kernel: how fast this machine runs right now.

On a shared VM the speed of a core drifts by tens of percent within
minutes, and CPU time drifts with it. The benchmark runs this kernel next
to every measurement. It then scales the measured CPU time by
``REFERENCE_S / kernel time`` to seconds on a machine where the kernel
takes ``REFERENCE_S``. The kernel mixes the two kinds of work sedtk does:
per-value Python parsing and numpy FFT/elementwise arithmetic. It must
never change, or figures from before and after the change stop being
comparable.
"""

from __future__ import annotations

import time

import numpy as np

# CPU time of one kernel run on the machine the benchmark was built on
# (2-core Intel Xeon VM, Python 3.11, numpy 2.4), when it was quiet.
REFERENCE_S = 0.22
_LINES = 20000
_FFT_REPS = 15


def kernel_cpu_s() -> float:
    """Run the kernel once; return the CPU seconds it took."""
    start = time.process_time()
    total = 0.0
    for i in range(_LINES):
        line = f"clip_{i},{i % 626}," + ",".join(
            "0.%06d" % ((i * 7919 + k) % 999999) for k in range(10))
        total += sum(float(v) for v in line.split(",")[2:])
    x = np.random.default_rng(0).standard_normal((200, 2048))
    for _ in range(_FFT_REPS):
        total += float(np.log(np.abs(np.fft.rfft(x, axis=1)) ** 2 + 1e-10).mean())
    if not np.isfinite(total):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return time.process_time() - start


def to_reference(cpu_s: float, kernel_s: float) -> float:
    """CPU seconds measured next to a kernel run, in reference seconds."""
    return cpu_s * REFERENCE_S / kernel_s
