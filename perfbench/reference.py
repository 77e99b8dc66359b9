"""Machine-speed reference: a fixed task, timed every 50 ms while items run.

On a shared host the speed of the machine drifts.  On the 2-vCPU Intel
Xeon VM this benchmark was written on, the same figure item took from
0.34 s to 0.64 s within one minute, in regimes lasting 5 to 20 s, and
CPU time drifted with wall time, so neither longer runs nor CPU time made
runs repeat.  The end-to-end metrics therefore express each item's cost
in units of this reference task, timed by a SIGALRM handler every 50 ms
while the item runs: slowdowns of the host scale both alike and cancel.
The reference does not touch entbounds, so a change to the program moves
the item cost and not the unit.  It mixes what the workloads spend their
time on: numpy calls on small batched complex arrays, a 4 x 4 Hermitian
eigensolve and interpreted Python arithmetic.
"""

from __future__ import annotations

import collections
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
_ROUNDS = 12
_RECENT = 8


def _arrays():
    rng = np.random.Generator(np.random.PCG64(0))
    batch = rng.standard_normal((96, 8)) + 1j * rng.standard_normal((96, 8))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return batch, a @ a.conj().T


_BATCH, _HERMITIAN = _arrays()


def reference_task() -> float:
    """About 1 ms of fixed work; returns a checksum."""
    acc = 0.0
    for _ in range(_ROUNDS):
        mats = np.ascontiguousarray(
            _BATCH.reshape(96, 2, 2, 2).transpose(0, 1, 3, 2)).reshape(96, 2, 4)
        gram = mats @ mats.conj().transpose(0, 2, 1)
        p = np.einsum("nii->n", gram).real
        purity = np.einsum("nij,nji->n", gram, gram).real
        vals = np.sqrt(np.clip(2.0 * (p * p - purity), 0.0, None))
        acc += float(vals[int(np.argmin(vals))])
        acc += float(np.linalg.eigvalsh(_HERMITIAN)[0])
        acc += sum(math.sqrt(j) for j in range(30))
    return acc


class SpeedSampler:
    """Runs and times the reference task on SIGALRM while entered.

    `spent` and `samples` accumulate the time inside the task and the
    number of runs; `recent` keeps the last few durations.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.spent = 0.0
        self.samples = 0
        self.recent: collections.deque = collections.deque(maxlen=_RECENT)
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_task()
        elapsed = time.perf_counter() - t0
        self.spent += elapsed
        self.samples += 1
        self.recent.append(elapsed)
        self._busy = False

    def unit_seconds(self, spent: float, samples: int) -> float:
        """Reference duration that applies to an item during which the
        sampler spent `spent` seconds in `samples` runs."""
        if samples:
            return spent / samples
        return sum(self.recent) / len(self.recent)

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
