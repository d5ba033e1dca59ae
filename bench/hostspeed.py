"""Host-speed sampling for the benchmark's timed sections.

The benchmark runs on a few cores of a shared host, whose speed changes by up
to 2x from one second to the next.  A probe timed before a task samples
another moment than the task itself, so the sampler probes during it: an
interval timer interrupts the timed section every PERIOD_S, and the signal
handler runs a fixed probe (one dense Hermitian eigendecomposition) between two
bytecodes of the program.  The probe's mean time over the section measures
the host's speed while the section ran.  A section's time is reported
without the probes' own time, and rescaled to a host on which the probe
takes REF_S.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

PERIOD_S = 0.1
REF_S = 0.003  # about the probe's median time on an idle 2-vCPU Xeon host
_M = np.random.default_rng(0).standard_normal((100, 200)).view(np.complex128)
MATRIX = _M @ _M.conj().T


def probe() -> float:
    """Seconds of a fixed piece of dense linear algebra: the host's speed now."""
    t = time.perf_counter()
    np.linalg.eigh(MATRIX)
    return time.perf_counter() - t


@dataclass
class Section:
    seconds: float  # wall time of the section minus the probes run inside it
    samples: list[float] = field(default_factory=list)  # probe times inside it


def rescale(seconds: float, samples: list[float]) -> float:
    """seconds, rescaled from a host whose probe took samples to one where it takes REF_S."""
    return seconds * REF_S / statistics.fmean(samples)


class Sampler:
    """Times sections while probing the host's speed inside them."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        probe()  # warm-up: the first call loads LAPACK's code

    def _sample(self, signum, frame) -> None:
        self._samples.append(probe())

    @contextlib.contextmanager
    def timed(self, sections: list[Section]):
        """Time the block; append its Section to sections."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            samples = self._samples
            sections.append(Section(elapsed - sum(samples), samples))
