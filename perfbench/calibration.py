"""Machine-speed calibration for the end-to-end timings.

On a virtual machine that shares its host, the speed drifts: on the
machine the baseline was taken on, the same pure-Python work took from
0.6x to 1.2x its usual time, in spells of seconds to minutes, as other
tenants came and went.  That drift moved whole 30-second runs by 20-40%
between seeds, more than the changes the benchmark has to resolve.

So while the ops run, a timer signal runs a fixed pure-Python kernel
(``chunk``) every INTERVAL_S and logs its duration.  Each op's time is
then its wall time minus the chunks that ran inside it, multiplied by the
machine's speed around it: the mean of CHUNK_REF_S / duration over the
chunks within WINDOW_S of the op.  A reported time is thus in seconds at
the machine's usual speed.  The kernel shares no code with the package,
so a change to the package moves the reported times and the drift does
not.  Raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Duration of ``chunk`` at the usual speed of the machine the baseline was
# taken on (Xeon 4th gen, 2 vCPUs under KVM): its median over 30 seconds.
CHUNK_REF_S = 0.0008
# Seconds between chunks while ops run (about 4% of the time).
INTERVAL_S = 0.02
# Chunks within this many seconds of an op give its speed ...
WINDOW_S = 0.1
# ... or, if fewer than this many, the nearest ones.
MIN_CHUNKS = 5


def chunk() -> int:
    """Fixed work of the same kind as the package's: tuple keys, dict updates, ints."""
    d: dict = {}
    for i in range(1500):
        k = (i % 61, (i % 7, i % 5))
        d[k] = d.get(k, 0) + i * 3
    return len(d)


def timed_chunk() -> tuple[float, float]:
    """Start and end of one chunk, run with the cyclic collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    chunk()
    t1 = time.perf_counter()
    if was_enabled:
        gc.enable()
    return t0, t1


def slowdown(n: int = 40) -> float:
    """The machine's slowdown right now: median chunk duration over CHUNK_REF_S."""
    return statistics.median(b - a for a, b in (timed_chunk() for _ in range(n))) / CHUNK_REF_S


class Calibrator:
    """Runs chunks on a timer between ``start`` and ``stop``; rescales op times."""

    def __init__(self):
        self.chunks: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.chunks.append(timed_chunk())

    def start(self) -> None:
        self.chunks.append(timed_chunk())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.chunks.append(timed_chunk())

    def rescale(self, ops: list[tuple[float, float]]) -> list[float]:
        """Each op's (start, end) as seconds of work at the usual speed."""
        chunks = self.chunks  # in time order, none overlapping
        starts = [a for a, _ in chunks]
        mids = [(a + b) / 2 for a, b in chunks]
        out = []
        for start, end in ops:
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
            inside = sum(b - a for a, b in chunks[lo:hi] if b <= end)
            lo = bisect.bisect_left(mids, start - WINDOW_S)
            hi = bisect.bisect_right(mids, end + WINDOW_S)
            if hi - lo < MIN_CHUNKS:
                centre = bisect.bisect_left(mids, (start + end) / 2)
                lo = max(0, min(centre - MIN_CHUNKS // 2, len(chunks) - MIN_CHUNKS))
                hi = min(lo + MIN_CHUNKS, len(chunks))
            speed = statistics.mean(CHUNK_REF_S / (b - a) for a, b in chunks[lo:hi])
            out.append((end - start - inside) * speed)
        return out
