"""Host-speed sampling inside a benchmark child.

The benchmark's host is a shared machine whose speed for one process swings
by up to 1.6x within seconds (another guest running on the same physical
core), so raw CPU seconds of identical processes scatter widely and drift
between runs.  :func:`start` arms a profiling timer: after every
``INTERVAL_S`` of the process's CPU time, a signal handler times a fixed
stdlib-only probe loop.  The probes are spread evenly over the process's
CPU time, so the mean of ``NOMINAL_PROBE_S / probe`` over them is the
share of the process's CPU time it would have used on a host where the
probe takes ``NOMINAL_PROBE_S``; :func:`normalise` applies it.

The probe's own CPU time is reported so the parent can subtract it; the
program under test never sees the sampler except as brief pauses between
bytecodes.
"""

from __future__ import annotations

import atexit
import signal
import time
from typing import Dict, List

#: CPU seconds between two probes.
INTERVAL_S = 0.05
#: What one probe costs on the reference host speed (about the fast state
#: of a 2-vCPU Xeon guest); only scales the normalised figures.
NOMINAL_PROBE_S = 0.002

_TABLE = list(range(1 << 16))
_probes: List[float] = []
_busy = False


def probe() -> float:
    """CPU seconds of one fixed dict/list/int loop.

    Thread CPU time: right after a profiling-timer expiry the process-wide
    CPU clock can read stale, and the children are single-threaded.
    """
    start = time.thread_time()
    seen: Dict[int, int] = {}
    acc = 0
    table = _TABLE
    for i in range(5000):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        seen[acc & 4095] = table[acc & 0xFFFF] + i
    return time.thread_time() - start


def _on_tick(signum, frame) -> None:
    global _busy
    if _busy:
        return
    _busy = True
    try:
        _probes.append(probe())
    finally:
        _busy = False


def start() -> None:
    """Arm the sampler until :func:`stop` or the interpreter exits."""
    probe()  # warm the loop so the first sample is not an outlier
    signal.signal(signal.SIGPROF, _on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    # Without this, a tick during interpreter shutdown (after Python handlers
    # are gone) would kill the process with SIGPROF.
    atexit.register(_disarm)


def _disarm() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    signal.signal(signal.SIGPROF, signal.SIG_IGN)


def stop() -> Dict[str, float]:
    """Disarm the sampler; ``{"samples", "probe_cpu_s", "speed"}``.

    ``speed`` is the mean of ``NOMINAL_PROBE_S / probe`` (1.0 at the
    reference host speed, below 1 on a slower one).
    """
    _disarm()
    samples = list(_probes)
    if not samples:
        samples = [probe()]
    return {
        "samples": len(samples),
        "probe_cpu_s": sum(samples),
        "speed": sum(NOMINAL_PROBE_S / s for s in samples) / len(samples),
    }


def normalise(cpu_s: float, stats: Dict[str, float]) -> float:
    """A child's CPU seconds, less its probes, at the reference host speed."""
    return (cpu_s - stats["probe_cpu_s"]) * stats["speed"]
