"""Wall times corrected for the speed of the core they ran on.

On a shared host a vCPU's speed can drift by 1.4-2x for seconds to
minutes, as other guests load the physical core. Vector math in numpy,
which `quadrature_sweep` spends its time in, follows that drift closely.
`Pace` pins this process to one CPU and starts a sampler process on the
same CPU. Every 40 ms the sampler times a fixed kernel of that kind: 30
`np.sin` calls on 2048 points. `rate(t0, t1)` is REF_SECONDS over the
median kernel time within PAD of [t0, t1]. A wall time times its rate is
the time on a core where the kernel takes REF_SECONDS.
"""

import bisect
import os
import statistics
import subprocess
import sys

REF_SECONDS = 5e-4
PAD = 0.1   # s of samples either side of an interval, so short ops get some

SAMPLER = """
import os, select, sys, time
import numpy as np
os.sched_setaffinity(0, {int(sys.argv[1])})
x = np.linspace(0.0, 1.0, 2048)
out = []
while not select.select([sys.stdin], [], [], 0.04)[0]:
    t = time.perf_counter()
    for _ in range(30):
        np.sin(x)
    out.append(f"{t!r} {time.perf_counter() - t!r}")
sys.stdout.write("\\n".join(out))
"""


class Pace:
    """Context manager that samples the kernel while the block runs;
    `rate` is usable after exit. `samples` are (start, seconds) pairs."""

    def __init__(self, samples=()):
        self._set(samples)

    def _set(self, samples):
        self.samples = sorted(samples)
        self._starts = [t for t, _ in self.samples]

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        cpu = min(self._affinity)
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, "-c", SAMPLER, str(cpu)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()       # the sampler stops at end of input
        text = self._proc.stdout.read()
        self._proc.wait(timeout=60)
        os.sched_setaffinity(0, self._affinity)
        self._set(tuple(float(v) for v in line.split())
                  for line in text.splitlines())
        return False

    def rate(self, t0, t1):
        lo = bisect.bisect_left(self._starts, t0 - PAD)
        hi = bisect.bisect_right(self._starts, t1 + PAD)
        window = [d for _, d in self.samples[lo:hi]]
        if not window:
            raise RuntimeError("no reference samples near the interval")
        return REF_SECONDS / statistics.median(window)
