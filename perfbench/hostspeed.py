"""Host-speed reference for the benchmark's timings.

The benchmark shares a few cores of a host with other tenants, and the
same computation's CPU time swings by a third or more from one minute to
the next there (all of it user time: no page faults, no steal), so the
raw seconds of two runs of the same code disagree by more than any useful
bound.  A fixed reference computation, timed while the program runs and
slowed alike, measures the host's speed:

    scaled time = raw time x NOMINAL_CHUNK_S / mean reference chunk time

is the time the work would take on a host that runs one chunk in
``NOMINAL_CHUNK_S`` (the mean is the harmonic one, see `scale`).  The
chunk lives in the benchmark, so a change to the program moves the scaled
time and leaves the chunk alone.  It mixes the kinds of work occsim's
passes do (see `reference_chunk`).

During a pass, a wall-clock timer interrupts the program every
``PERIOD_S`` and times one chunk, so the samples cover the pass evenly,
inside long calls too; their time is left out of the pass's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# one chunk's time on the 2-vCPU Intel Xeon sandbox the bounds were set on,
# in a quiet stretch; it fixes the scale of the reported times, not their
# spread
NOMINAL_CHUNK_S = 0.003
PERIOD_S = 0.04
REPEATS = 5

_TABLE = {i: (i * 7) & 63 for i in range(1024)}
_BITS = [(i * 2654435761 >> 7) & 1 for i in range(4000)]
_RAMP = np.arange(64, dtype=np.float64)


class _Part:
    __slots__ = ("start", "bits", "ok")

    def __init__(self, start, bits, ok):
        self.start, self.bits, self.ok = start, bits, ok


def _check(x: int, y: int) -> int:
    return (x ^ y) & 255


def reference_chunk() -> int:
    """The fixed reference computation (~3 ms); returns a checksum.

    Three parts, each a kind of work occsim's passes do: packing bits into
    codewords and looking them up in a dict; building small objects and
    grouping them, with a function call each; and many numpy calls on
    small arrays.  On a busy host their summed time follows the passes'
    time more closely than any one part does, or numpy on large arrays.
    """
    acc = 0
    for i in range(0, len(_BITS) - 10, 5):
        code = 0
        for b in _BITS[i:i + 10]:
            code = (code << 1) | b
        acc += _TABLE.get(code, 0)
    parts = []
    for i in range(600):
        bits = tuple(_BITS[i:i + 8])
        part = _Part(i, bits, _check(i, len(bits)) > 3)
        parts.append(part)
        acc += sum(bits) + part.ok
    groups: dict[tuple, list[int]] = {}
    for part in parts:
        groups.setdefault(part.bits, []).append(part.start)
    acc += len(groups)
    for i in range(150):
        y = _RAMP[i % 8::8]
        acc += int(np.count_nonzero(y > i))
        acc += int(np.concatenate([y, y]).argmax())
    return acc


CHECKSUM = reference_chunk()


def _timed_chunk() -> float:
    start = time.perf_counter()
    checksum = reference_chunk()
    elapsed = time.perf_counter() - start
    if checksum != CHECKSUM:
        raise RuntimeError("reference chunk gave a different result")
    return elapsed


def scale(chunks: list[float]) -> float:
    """Factor from raw to scaled time, given the chunks timed alongside.

    The chunks sample the host's speed evenly in time, and a stretch's raw
    time is its work over its mean speed, so the mean to divide by is that
    of the chunks' speeds, 1 / chunk time: the harmonic mean of the times.
    """
    return NOMINAL_CHUNK_S / statistics.harmonic_mean(chunks)


def chunk() -> float:
    """The median time of REPEATS chunks run back to back."""
    return statistics.median(_timed_chunk() for _ in range(REPEATS))


class PassTimer:
    """Times a block while sampling the host's speed every PERIOD_S.

    After the block, `raw` is its wall time less the time spent sampling,
    `scaled` the raw time scaled by the samples, and `samples` the chunk
    times, the first one taken just before the block.
    """

    def __enter__(self):
        self.samples = [_timed_chunk()]
        self.sampling_s = 0.0
        self.busy = False
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _sample(self, signum, frame):
        if self.busy:  # the timer fired again during a slow sample
            return
        self.busy = True
        start = time.perf_counter()
        self.samples.append(_timed_chunk())
        self.sampling_s += time.perf_counter() - start
        self.busy = False

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self.previous)
        self.raw = end - self.start - self.sampling_s
        self.scaled = self.raw * scale(self.samples)
        return False
