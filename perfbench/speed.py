"""Sampling of the host's current speed while a workload runs, and right
after set-up.

On a shared host the speed of interpreter-bound work drifts by 10-50% within
seconds to minutes, so the same pass can take very different wall times in
two runs. `SpeedProbe` times a fixed piece of pure-Python work, which does
not use the package, from a SIGALRM handler every INTERVAL_S seconds while an
invocation runs. The samples interleave with the workload at fine grain, so
their mean tracks the speed the workload saw. The benchmark scales its
end-to-end timings by REFERENCE_S / mean(samples): figures at a reference
speed, comparable between runs made at different times.
"""

from __future__ import annotations

import importlib
import signal
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.1
# Typical mean sample on the machine recorded in README.md.
REFERENCE_S = 0.0035

_N = 48
_KEYS = [(i, j) for i in range(_N) for j in range(_N) if i != j]


class _Entry:
    __slots__ = ("x_in", "x_out")

    def __init__(self):
        self.x_in = 0.0
        self.x_out = 0.0


def _sign(v: float) -> int:
    return 1 if v > 1.0 else (-1 if v < -1.0 else 0)


def reference_work() -> float:
    """Seconds taken by fixed work shaped like the engine's inner loop:
    tuple-keyed dict lookups, slot attributes, a small call and float
    arithmetic per item."""
    t0 = perf_counter()
    ledger = {k: _Entry() for k in _KEYS}
    x = [0.01 * i for i in range(_N)]
    sent = []
    for r in range(1, 6):
        scale = r**0.9
        for k in _KEYS:
            e = ledger[k]
            q = _sign(scale * (x[k[0]] - e.x_out))
            sent.append(q)
            if q:
                e.x_out += q / scale
        sent.clear()
    return perf_counter() - t0


class SpeedProbe:
    """Collects reference_work() timings while `sampling()` is active. The
    handler stays installed for the life of the process; only the timer is
    armed and disarmed, so a late signal never meets the default action."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = INTERVAL_S
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        self.samples.append(reference_work())

    @contextmanager
    def sampling(self):
        """Sample while the block runs. The timer resumes where the last
        block left it, so invocations shorter than INTERVAL_S still get
        sampled once their summed time passes it."""
        signal.setitimer(signal.ITIMER_REAL, self._next, INTERVAL_S)
        try:
            yield
        finally:
            remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._next = remaining or INTERVAL_S


# Set-up is import work (reading and unmarshalling modules, loading extension
# modules), which does not slow down in step with reference_work(). Its
# probe imports standard-library modules that neither the package nor the
# benchmark imports; IMPORT_REFERENCE_S is their import time on the machine
# recorded in README.md.
IMPORT_PROBE_MODULES = (
    "asyncio", "configparser", "csv", "difflib", "email.mime.multipart",
    "http.client", "sqlite3", "tarfile", "unittest", "xml.dom.minidom",
)
IMPORT_REFERENCE_S = 0.065


def import_work() -> float:
    """Seconds taken to import IMPORT_PROBE_MODULES, once per process."""
    t0 = perf_counter()
    for name in IMPORT_PROBE_MODULES:
        importlib.import_module(name)
    return perf_counter() - t0
