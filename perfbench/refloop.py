"""Fixed pure-stdlib reference loops used to normalize host timings.

Shared machines change speed under us (frequency scaling, neighbours on
the same cores and caches).  The benchmark runs these loops next to the
measured code, in the same process, and converts host seconds into
*reference seconds*: seconds on a host where the loops run at their
nominal speed.

Two loops, because neighbours slow different code differently:

- ``scheduler``: a miniature discrete-event scheduler (heap pushes and
  pops, generator resumes, small dicts) that stays in cache.  It slows
  down *more* than the simulator when neighbours compete for caches.
- ``table``: random reads of int objects from a shuffled table of
  ``TABLE_SIZE`` (a pointer chase over ~9 MB, like the simulator's
  object graph).  It slows down about as much as the simulator, or
  less.

The host speed is the geometric mean of the two loops' speeds; over 138
``paper-rcdc`` ops that halved the spread of 14-op medians compared with
either loop alone.  Nothing here may import ``repro``: a change to the
program must not change the yardstick.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import time

#: Steps per loop in a full reference run (before/after a section) and
#: per loop in one in-section sample, with their seconds on the
#: calibration host (2-CPU container, Python 3.11.7).  They only scale
#: the reported numbers; changing them rescales every normalized metric.
FULL_STEPS = {"scheduler": 40_000, "table": 80_000}
FULL_NOMINAL_S = {"scheduler": 0.040, "table": 0.050}
SAMPLE_STEPS = {"scheduler": 2_000, "table": 4_000}
SAMPLE_NOMINAL_S = {"scheduler": 0.0020, "table": 0.0016}

#: Seconds between in-section samples (the loops alternate).
SAMPLE_INTERVAL_S = 0.05

#: Int objects in the table the ``table`` loop reads at random.
TABLE_SIZE = 200_000


def _job(seed: int, state: dict[int, int]):
    """A generator 'process' of the scheduler loop."""
    x = seed
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        state[x & 63] = state.get(x & 63, 0) + 1
        yield (x % 97) + 1


class Reference:
    """The two reference loops (the table is built once, ~0.1 s)."""

    def __init__(self) -> None:
        self._table = list(range(1_000, 1_000 + TABLE_SIZE))
        random.Random(1).shuffle(self._table)
        self._scratch: dict[int, int] = {}

    def scheduler(self, steps: int) -> int:
        queue: list = []
        state: dict[int, int] = {}
        for seq in range(32):
            heapq.heappush(queue, (0, seq, _job(seq * 7919 + 1, state)))
        now = 0
        for seq in range(32, 32 + steps):
            now, _, job = heapq.heappop(queue)
            heapq.heappush(queue, (now + next(job), seq, job))
        return now + sum(state.values())

    def table(self, steps: int) -> int:
        table = self._table
        scratch = self._scratch
        size = len(table)
        x = 1
        total = 0
        for _ in range(steps):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            value = table[x % size]
            scratch[value & 0xFFFF] = x
            total += value
        return total

    def timed(self, loop: str, steps: int) -> float:
        """Wall seconds of ``steps`` steps of one loop."""
        start = time.perf_counter()
        getattr(self, loop)(steps)
        return time.perf_counter() - start

    def speed(self) -> float:
        """Host speed now, relative to nominal (a full run of both)."""
        return math.sqrt(math.prod(
            FULL_NOMINAL_S[loop] / self.timed(loop, FULL_STEPS[loop])
            for loop in FULL_STEPS))


def combined_speed(samples: list[tuple[str, float]]) -> float:
    """Host speed over a stretch of equally spaced samples ``(loop,
    seconds)``: per loop, the mean of the samples' speeds (each slice
    counts with the speed it ran at); then the geometric mean of the
    loops.  0 when a loop has no sample."""
    speeds = []
    for loop, nominal in SAMPLE_NOMINAL_S.items():
        mine = [nominal / s for name, s in samples if name == loop]
        if not mine:
            return 0.0
        speeds.append(sum(mine) / len(mine))
    return math.sqrt(math.prod(speeds))


class Sampler:
    """Runs a short sample of one reference loop (alternating) every
    ``interval_s`` seconds of wall time, from a ``SIGALRM`` handler in
    the main thread, while armed (``with sampler:``).

    The samples interleave with the measured code itself, so they see
    the same host speed it does, at the grain of ``interval_s``.  They
    touch nothing of the measured program; their own time is subtracted
    from a timed section by :meth:`section`.  ``scale`` shrinks the
    samples for short sections.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S,
                 scale: float = 1.0) -> None:
        self.reference = Reference()
        self.interval_s = interval_s
        self.steps = {loop: int(n * scale)
                      for loop, n in SAMPLE_STEPS.items()}
        self.scale = self.steps["table"] / SAMPLE_STEPS["table"]
        self._loops = list(SAMPLE_STEPS)
        #: (start, loop, seconds) of every sample taken while armed.
        self.samples: list[tuple[float, str, float]] = []

    def _sample(self, signum, frame) -> None:
        loop = self._loops[len(self.samples) % len(self._loops)]
        start = time.perf_counter()
        getattr(self.reference, loop)(self.steps[loop])
        self.samples.append((start, loop, time.perf_counter() - start))

    def __enter__(self) -> "Sampler":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def section(self, start: float, end: float) -> tuple[float, float]:
        """``(seconds, factor)`` of the section ``[start, end]``: its wall
        time minus the samples inside it, and the factor converting that
        to reference seconds (0 unless both loops sampled inside)."""
        inside = [(loop, s) for t, loop, s in self.samples
                  if start <= t <= end]
        seconds = (end - start) - sum(s for _, s in inside)
        scaled = [(loop, s / self.scale) for loop, s in inside]
        return seconds, combined_speed(scaled)
