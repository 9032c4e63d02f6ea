"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's hosts share physical cores with other tenants, and the same
work runs up to 1.8 times slower from one second to the next.  The kernel
does a fixed amount of work of the kinds peterweyl does (small FFTs and
array reductions in numpy, dict and ``Fraction`` bookkeeping and JSON in
pure Python) on fixed inputs, using nothing of peterweyl.  It comes in
slices of about 25 ms: ``reference`` runs ``SLICES`` of them back to back,
and ``InPhase`` runs one every ``PERIOD_S`` seconds inside a timed phase.
``run.py`` scales each phase's seconds by ``REF_S`` over the kernel's time
measured next to and during that phase, so a slow moment on the host slows
both and cancels, while a change in peterweyl moves only the phase.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from fractions import Fraction

import numpy as np

SLICES = 10
# Scale of the reported times: a round figure for ``reference()`` on the
# 2-vCPU 2.1 GHz Xeon host on which the bounds were set, where it took
# 0.17-0.33 s as the neighbours' load came and went.
REF_S = 0.2
PERIOD_S = 0.5


def _input() -> np.ndarray:
    rng = np.random.default_rng(12345)
    return rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))


def _slice(a: np.ndarray) -> None:
    total = 0.0
    for _ in range(30):
        total += float(np.sum(np.abs(np.fft.ifft2(np.fft.fft2(a))) ** 2))
    table: dict = {}
    for i in range(3_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 13, 7)
    json.loads(json.dumps({repr(k): str(v) for k, v in table.items()}))
    if not total > 0.0:
        raise RuntimeError("reference kernel gave a wrong result")


def reference() -> float:
    """Seconds taken by ``SLICES`` slices back to back."""
    a = _input()
    start = time.perf_counter()
    for _ in range(SLICES):
        _slice(a)
    return time.perf_counter() - start


class InPhase:
    """Times one slice every ``PERIOD_S`` seconds of the enclosed code.

    The slice runs from a ``SIGALRM`` handler, between two bytecodes of the
    main thread, with the garbage collector off; ``times`` holds the seconds
    each slice took, which the caller takes off the phase's seconds.
    """

    def __enter__(self) -> "InPhase":
        self.times: list[float] = []
        self._a = _input()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        # A collection that the slice's allocations trigger would scan the
        # phase's heap; with the collector off it runs later, in the phase.
        collect = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _slice(self._a)
            self.times.append(time.perf_counter() - start)
        finally:
            if collect:
                gc.enable()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
