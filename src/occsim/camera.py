"""Rolling-shutter camera model over a binary LED waveform.

Each frame exposes its rows sequentially; a row's luminance is the exact
time average of the piecewise-constant chip waveform over that row's
exposure window.  Frame-to-frame timing follows a varying frame rate:
interval_k = 1 / (mean_fps + delta_k * delta_fps) with delta_k drawn i.i.d.
from a bounded deviation process.

Distance enters through a single ratio: at ``reference_distance`` the LED
footprint spans exactly the ``subpacket_rows`` rows of one sub-packet, and
the footprint shrinks proportionally to 1/distance.  Rows outside the
footprint read background (zero) luminance, plus the sensor noise.

Frames come in blocks (:class:`FrameBlock`): columns of consecutive
frames and one frames x sensor-rows luma array of bounded size.
:func:`sample_frames` renders them one block at a time, as they are read,
each from an exact count of the on-chips over only the chips its rows
expose, so no run holds a whole waveform's frames or a float copy of the
waveform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rll import ChipStream

# frames x rows blocks hold at most this many luma values (but at least
# one frame), which bounds the memory a block and its temporaries take
_BLOCK_ELEMENTS = 1 << 15


class _Workspace:
    """Named arrays that one sampler iteration or receiver call writes block
    after block, viewed at each block's shape and replaced only when one
    needs more; a name's view is overwritten by the name's next use."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        size, array = math.prod(shape), self._arrays.get(name)
        if array is None or array.size < size or array.dtype != dtype:
            array = self._arrays[name] = np.empty(size, dtype)
        return array[:size].reshape(shape)


@dataclass(frozen=True)
class CameraConfig:
    rows: int
    row_period_s: float
    row_exposure_s: float
    mean_fps: float
    delta_fps: float = 0.0
    delta_process: str = "uniform"  # or "truncated_gaussian"
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # each rule fails on NaN, and its message names the
        # ExperimentConfig field it concerns
        if not self.rows >= 2:
            raise ValueError("camera_rows: must be at least 2")
        if not (self.row_period_s > 0 and self.row_exposure_s > 0):
            raise ValueError("row_period_s/row_exposure_factor: row timing "
                             "must be positive")
        if not self.delta_fps >= 0:
            raise ValueError("delta_fps: must be non-negative")
        if not self.mean_fps - self.delta_fps > 0:
            raise ValueError("mean_fps: mean_fps - delta_fps must be positive")
        if self.delta_process not in ("uniform", "truncated_gaussian"):
            raise ValueError(
                f"delta_process: unknown process {self.delta_process!r}")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma: must be non-negative")
        fastest = 1.0 / (self.mean_fps + self.delta_fps)
        if not self.capture_time_s <= fastest + 1e-12:
            raise ValueError(
                f"camera_rows: rolling exposure time {self.capture_time_s:g} s "
                f"exceeds the shortest frame interval {fastest:g} s; frames "
                f"would overlap"
            )

    @property
    def capture_time_s(self) -> float:
        """First-row-start to last-row-end: the rolling exposure time."""
        return self.rows * self.row_period_s


@dataclass(frozen=True)
class GeometryConfig:
    """LED footprint geometry reduced to the ratio reference_distance/distance.

    ``subpacket_rows`` is the number of sensor rows one sub-packet spans
    (its chip count times the rows per chip, possibly fractional), and
    ``reference_distance`` the distance at which the footprint spans exactly
    that many rows; the footprint's row count scales as
    reference_distance / distance.
    """

    distance: float
    reference_distance: float
    subpacket_rows: float

    def __post_init__(self):
        if not self.distance > 0:
            raise ValueError("distance: must be positive")
        if not self.reference_distance > 0:
            raise ValueError("reference_distance: must be positive")
        if not self.subpacket_rows > 0:
            raise ValueError("payload_bits/rows_per_chip: sub-packet rows "
                             "must be positive")
        if not math.isfinite(self.subpacket_rows * self.reference_distance
                             / self.distance):
            raise ValueError("distance: too small for reference_distance; "
                             "the footprint's row count is not finite")


def covered_rows(geometry: GeometryConfig, max_rows: int | None = None) -> int:
    """Rows of the sensor the LED footprint spans at the configured distance."""
    rows = round(geometry.subpacket_rows * geometry.reference_distance
                 / geometry.distance)
    if max_rows is not None:
        rows = min(rows, max_rows)
    return max(0, rows)


def covered_slice(rows: int, covered: int) -> slice:
    """The middle ``covered`` of ``rows`` sensor rows, rounded toward row 0."""
    begin = (rows - covered) // 2
    return slice(begin, begin + covered)


@dataclass(frozen=True, eq=False)
class FrameBlock:
    """Consecutive frames of one sensor, as columns: each frame's index
    and start time, and a frames x sensor-rows luma array whose
    ``covered`` rows the LED footprint spans (the rest are dark)."""

    index: np.ndarray  # int64
    start_time_s: np.ndarray  # float64
    luma: np.ndarray  # frames x sensor rows
    covered: slice

    def __len__(self) -> int:
        return len(self.index)


def _draw_deltas(config: CameraConfig, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    if config.delta_process == "uniform":
        deltas = rng.uniform(-1.0, 1.0, size=count)
    else:
        deltas = rng.normal(0.0, 0.5, size=count)
    # keep the instantaneous rate strictly inside the open deviation band
    return np.clip(deltas, -1.0 + 1e-9, 1.0 - 1e-9)


def frame_intervals(config: CameraConfig, count: int) -> np.ndarray:
    """Inter-frame intervals (seconds) realized by the varying frame rate."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(config.seed)
    deltas = _draw_deltas(config, count, rng)
    rates = config.mean_fps + deltas * config.delta_fps
    return 1.0 / rates


def _chip_span(chips: np.ndarray, lo: int, hi: int, ones_before: int,
               clock_hz: float, work: _Workspace
               ) -> tuple[np.ndarray, np.ndarray]:
    """Chips ``lo`` to ``hi`` as floats (0.0 past the end), and the
    waveform's on-time integral, in seconds, at the start of each, given
    the count of on-chips before chip ``lo``.

    The integral is that count plus a float sum over only these chips, so
    it equals, bit for bit, what a float prefix sum of the whole waveform
    gives: a float sum of 0/1 chips is exact below 2**53.  Both arrays
    are ``work``'s.
    """
    span, prefix = work("span", (hi + 1 - lo,)), work("prefix", (hi + 1 - lo,))
    reached = chips[lo:hi + 1]
    span[:len(reached)], span[len(reached):] = reached, 0.0
    prefix[0] = ones_before
    np.cumsum(span[:-1], out=prefix[1:])
    prefix[1:] += ones_before
    prefix /= clock_hz
    return span, prefix


def _integral_at(prefix: np.ndarray, span: np.ndarray, lo: int,
                 clock_hz: float, times: np.ndarray,
                 work: _Workspace) -> np.ndarray:
    """On-time integral of the waveform from 0 to each time (0 past the
    end), from a :func:`_chip_span` from chip ``lo`` that reaches every
    time, in ``work``'s arrays."""
    positions = np.multiply(times, clock_hz, out=work("positions", times.shape))
    # each time's chip (exact in floats) and its index in the span
    chip = np.floor(positions, out=work("integral", times.shape))
    idx = np.subtract(chip, lo, out=work("idx", times.shape, np.int64),
                      casting="unsafe")
    if idx.size and idx.view(np.uint64).max() >= len(span):
        # a time before or past the span (none sampled): clamped into it
        positions[...] = np.maximum(times, 0.0) * clock_hz
        chip[...] = np.minimum(np.floor(positions), lo + len(span) - 1)
        idx[...] = chip - lo
    positions -= chip  # the fraction of its chip each time has passed
    # every index is in range: "wrap" only spares take's buffered check
    integral = np.take(span, idx, out=chip, mode="wrap")
    integral *= positions
    integral /= clock_hz
    integral += np.take(prefix, idx, out=positions, mode="wrap")
    return integral


class SampledFrames:
    """The frames of one :func:`sample_frames` call: their count up front,
    and their blocks, rendered one at a time on each iteration, the same
    on every iteration."""

    def __init__(self, waveform: ChipStream, camera: CameraConfig,
                 covered: int, starts: np.ndarray):
        self.waveform, self.camera, self.starts = waveform, camera, starts
        self.covered = covered_slice(camera.rows, covered)

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        camera, chips = self.camera, self.waveform.chips
        clock_hz, exposure = self.waveform.clock_hz, camera.row_exposure_s
        noise_rng = np.random.default_rng((camera.seed, 1))
        work = _Workspace()  # this iteration's own
        # only the covered rows are integrated; the rest stay dark
        row_offsets = (np.arange(self.covered.start, self.covered.stop)
                       * camera.row_period_s)
        ones, mark = 0, 0  # the on-chips before chip `mark`
        step = max(1, _BLOCK_ELEMENTS // camera.rows)
        for lo in range(0, len(self.starts), step):
            block_starts = self.starts[lo:lo + step]
            luma = np.zeros((len(block_starts), camera.rows))
            if len(row_offsets):
                # the chips of the block's first begin and last end: times
                # only rise along frames and rows
                first, last = (min(int(max(t, 0.0) * clock_hz), len(chips))
                               for t in (block_starts[0] + row_offsets[0],
                                         block_starts[-1] + row_offsets[-1]
                                         + exposure))
                ones += int(np.count_nonzero(chips[mark:first]))
                mark = first
                span, prefix = _chip_span(chips, first, last, ones, clock_hz,
                                          work)
                # each row's luma: (integral at its end - its begin) / exposure
                begin = work("begin", (len(block_starts), len(row_offsets)))
                np.add(block_starts[:, None], row_offsets, out=begin)
                end = np.add(begin, exposure, out=work("end", begin.shape))
                covered = luma[:, self.covered]
                covered[...] = _integral_at(prefix, span, first, clock_hz,
                                            end, work)
                covered -= _integral_at(prefix, span, first, clock_hz, begin,
                                        work)
                covered /= exposure
            if camera.noise_sigma > 0:
                # normal(0, sigma) draws sigma * standard_normal
                noise = noise_rng.standard_normal(out=work("noise", luma.shape))
                noise *= camera.noise_sigma
                luma += noise
            np.clip(luma, 0.0, 1.0, out=luma)
            yield FrameBlock(np.arange(lo, lo + len(block_starts)),
                             block_starts, luma, self.covered)


def sample_frames(waveform: ChipStream, camera: CameraConfig,
                  geometry: GeometryConfig | None = None,
                  duration_s: float | None = None) -> SampledFrames:
    """Simulate frames over the waveform; deterministic for a given seed.

    Without geometry the LED fills the whole sensor.  The frames are
    counted at once and rendered as they are iterated, as blocks of at
    most ``_BLOCK_ELEMENTS`` luma values (but at least one frame).
    """
    duration = waveform.duration_s if duration_s is None else duration_s
    if not 0 <= duration <= waveform.duration_s + 1e-12:
        raise ValueError(f"duration: {duration!r} s is not within the "
                         f"waveform's [0, {waveform.duration_s!r}] s")

    cov = camera.rows if geometry is None \
        else covered_rows(geometry, max_rows=camera.rows)

    max_frames = int(duration * (camera.mean_fps + camera.delta_fps)) + 2
    intervals = frame_intervals(camera, max_frames)
    # frame k starts at the running sum of the first k intervals
    starts = np.concatenate(([0.0], np.cumsum(intervals[:-1])))
    last_row_end = (camera.rows - 1) * camera.row_period_s \
        + camera.row_exposure_s
    # starts only rise, so the frames that fit are a prefix
    starts = starts[:np.count_nonzero(starts + last_row_end
                                      <= duration + 1e-12)]
    return SampledFrames(waveform, camera, cov, starts)
