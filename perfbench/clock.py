"""Item timing scaled by a pure-Python reference loop run beside the work.

The host's speed drifts by a quarter or more over minutes, and wall time and
process CPU time drift together.  A fixed reference loop timed between the
items drifts with them, so an item's time divided by the loop's time nearby
is steady.  Scaled times are quoted at the loop's nominal speed: a scaled
second is the time the item would take on a host that runs
``reference_loop`` in ``NOMINAL_REF_S``.  Raw seconds are kept beside them.
"""

from __future__ import annotations

import statistics
import time

# Median time of one ``reference_loop`` call on the reference host
# (2 cores, Python 3.11.7); see README.md.
NOMINAL_REF_S = 0.001

# Read the reference again once this much item time has passed.
REF_EVERY_S = 0.05

# After a call longer than this, read the reference for a tenth of the
# call's time: two instant readings say little about seconds of work on a
# host that switches between a fast and a slow speed several times a second.
LONG_CALL_S = 0.5

_STEP = tuple((i * 7 + 3) % 31 for i in range(31))


def reference_loop() -> int:
    """Fixed work in the style of classgraph's hot paths.

    Tuple composition and set inserts as in the permutation engine, modular
    powers as in Miller-Rabin, and small-dict updates.  It must never change:
    its time is the unit every scaled figure is quoted in.
    """
    x = tuple(range(31))
    seen = set()
    acc = 0
    for i in range(220):
        x = tuple(x[j] for j in _STEP)
        seen.add(x)
        acc += pow(i + 2, 1_000_003, 998_244_353)
    counts: dict[int, int] = {}
    for i in range(700):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + len(seen) + len(counts)


def read_reference(repeats: int = 3) -> float:
    """Median seconds of a few back-to-back reference loops."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def read_reference_for(seconds: float) -> float:
    """Mean of reference readings taken back to back for about `seconds`."""
    readings = []
    end = time.perf_counter() + seconds
    while not readings or time.perf_counter() < end:
        readings.append(read_reference())
    return statistics.fmean(readings)


class ScaledClock:
    """Times calls and scales each by the reference readings around it.

    A reading is taken before a call whenever ``REF_EVERY_S`` of call time
    has passed since the last one, after every call longer than
    ``LONG_CALL_S``, and once more by ``stop``.  Each call's raw time is
    scaled by the mean of the readings just before and just after it.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self._refs: list[tuple[int, float]] = []
        self._since_ref = REF_EVERY_S
        self._stopped = False

    def call(self, fn, *args):
        if self._since_ref >= REF_EVERY_S:
            self._refs.append((len(self.raw), read_reference()))
            self._since_ref = 0.0
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.raw.append(dt)
        self._since_ref += dt
        if dt > LONG_CALL_S:
            self._refs.append((len(self.raw), read_reference_for(dt / 10)))
            self._since_ref = 0.0
        return out

    def stop(self) -> None:
        """Take the closing reading; call right after the last timed call."""
        self._refs.append((len(self.raw), read_reference()))
        self._stopped = True

    def scaled(self) -> list[float]:
        """Every call's time in nominal seconds, in call order."""
        if not self._stopped:
            raise RuntimeError("stop() must follow the last timed call")
        out: list[float] = []
        for (start, before), (end, after) in zip(self._refs, self._refs[1:]):
            factor = NOMINAL_REF_S / ((before + after) / 2)
            out.extend(t * factor for t in self.raw[start:end])
        return out

    def mean_reference(self) -> float:
        return statistics.fmean(ref for _, ref in self._refs)
