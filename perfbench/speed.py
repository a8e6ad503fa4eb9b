"""How fast the machine is running, sampled while a pass runs.

The benchmark's host is shared, and its speed drifts by up to 2x within
seconds to minutes, in user CPU time as much as in wall time, so a raw pass
time mostly measures the neighbours. While a pass runs, a one-shot timer
interrupts it every ``INTERVAL_S`` and times one *calibration unit*: a fixed
mix of interpreter work and tiny numpy calls, like the program's own inner
loops, that no change to switchsim can alter. The pass time, less the time
spent in the samples, is then scaled to the speed at which one unit takes
``REFERENCE_S``:

    normalized = (wall - sum(samples)) * mean(REFERENCE_S / sample)

Samples are evenly spaced in time, so the mean of the inverse sample times is
the average speed over the pass, which is what the pass time integrates. A
single slow sample (the process descheduled mid-unit) adds little to that
mean. The timer is re-armed only after a sample ends, so samples never nest,
and it runs only in the main thread of the one benchmark process.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds between the end of one sample and the start of the next
INTERVAL_S = 0.02
#: seconds one calibration unit is taken to last at the reference speed
REFERENCE_S = 1e-3
#: loop trips in one unit: about REFERENCE_S on the 2-vCPU Xeon VM of baseline.json
UNIT_TRIPS = 20

_A = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def calibration_unit() -> float:
    acc = 0.0
    for i in range(UNIT_TRIPS):
        psi = np.array([0.6, 0.0, 0.0, 0.8j])
        rho = np.outer(psi, psi.conj())
        k = np.kron(_A, _A.conj())
        acc += float(np.linalg.eigvalsh(rho + k @ k.conj().T)[0])
        acc += abs(np.trace(rho))
        row = {"i": i, "pair": [i, i + 1]}
        acc += sum(row["pair"]) * 1e-9
    return acc


class SpeedSampler:
    """Context manager that samples the machine's speed while it is active."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_unit()
        self.samples.append(time.perf_counter() - start)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, wall: float) -> float:
        """``wall`` less the sampling time, at the reference speed. A pass too
        short to be sampled is returned as it is."""
        if not self.samples:
            return wall
        speed = statistics.fmean(REFERENCE_S / s for s in self.samples)
        return (wall - sum(self.samples)) * speed

    def median_sample(self) -> float:
        return statistics.median(self.samples) if self.samples else float("nan")
