"""Rolling-shutter camera model over a binary LED waveform.

Each frame exposes its rows sequentially; a row's luminance is the exact
time average of the piecewise-constant chip waveform over that row's
exposure window (computed from a prefix integral, so conservation holds to
float precision).  Frame-to-frame timing follows a varying frame rate:
interval_k = 1 / (mean_fps + delta_k * delta_fps) with delta_k drawn i.i.d.
from a bounded deviation process.

Distance enters through a single ratio: at ``reference_distance`` the LED
footprint spans exactly the ``subpacket_rows`` rows of one sub-packet, and
the footprint shrinks proportionally to 1/distance.  Rows outside the
footprint read background (zero) luminance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rll import ChipStream

# frames x rows blocks hold at most this many rows (but at least one
# frame), which bounds the memory their temporaries take
_BLOCK_ELEMENTS = 1 << 15


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


def covered_rows(geometry: GeometryConfig, max_rows: int | None = None) -> int:
    """Rows of the sensor the LED footprint spans at the configured distance."""
    rows = round(geometry.subpacket_rows * geometry.reference_distance
                 / geometry.distance)
    if max_rows is not None:
        rows = min(rows, max_rows)
    return max(0, rows)


@dataclass(frozen=True)
class FrameSample:
    """One simulated image: per-row luminance plus capture metadata."""

    index: int
    start_time_s: float
    row_luma: np.ndarray
    covered_rows: int

    @property
    def covered_start(self) -> int:
        return (len(self.row_luma) - self.covered_rows) // 2

    def covered_slice(self) -> np.ndarray:
        start = self.covered_start
        return self.row_luma[start:start + self.covered_rows]


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


def _prefix_integral(stream: ChipStream) -> np.ndarray:
    # cumulative on-time in seconds at each chip boundary
    return np.concatenate(([0.0], np.cumsum(stream.chips, dtype=np.float64))) \
        / stream.clock_hz


def _integral_at(prefix: np.ndarray, chips: np.ndarray, clock_hz: float,
                 times: np.ndarray) -> np.ndarray:
    """On-time integral of the waveform from 0 to each time (0 past the end).

    ``chips`` are the waveform's chips as floats with one trailing 0.0, the
    level past the end.
    """
    positions = np.clip(times, 0.0, None) * clock_hz
    idx = np.minimum(positions.astype(np.int64), len(chips) - 1)
    return prefix[idx] + chips[idx] * (positions - idx) / clock_hz


def sample_frames(waveform: ChipStream, camera: CameraConfig,
                  geometry: GeometryConfig | None = None,
                  duration_s: float | None = None) -> list[FrameSample]:
    """Simulate frames over the waveform; deterministic for a given seed.

    Without geometry the LED fills the whole sensor.  Frames are rendered
    as frames x rows blocks of at most ``_BLOCK_ELEMENTS`` rows in all;
    each sample's ``row_luma`` is a row of its block.
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
    noise_rng = np.random.default_rng((camera.seed, 1))

    prefix = _prefix_integral(waveform)
    # the chips as floats and the 0.0 level past the end, in one array
    chips = np.zeros(len(waveform.chips) + 1)
    chips[:-1] = waveform.chips
    exposure = camera.row_exposure_s
    begin = (camera.rows - cov) // 2
    # only the covered rows are integrated; the rest stay dark
    row_offsets = np.arange(begin, begin + cov) * camera.row_period_s

    frames = []
    step = max(1, _BLOCK_ELEMENTS // camera.rows)
    for lo in range(0, len(starts), step):
        block_starts = starts[lo:lo + step]
        begins = block_starts[:, None] + row_offsets
        integ = (_integral_at(prefix, chips, waveform.clock_hz, begins + exposure)
                 - _integral_at(prefix, chips, waveform.clock_hz, begins))
        luma = np.zeros((len(block_starts), camera.rows))
        luma[:, begin:begin + cov] = integ / exposure
        if camera.noise_sigma > 0:
            luma += noise_rng.normal(0.0, camera.noise_sigma, luma.shape)
        np.clip(luma, 0.0, 1.0, out=luma)
        frames.extend(FrameSample(k, start, row, cov) for k, (start, row)
                      in enumerate(zip(block_starts.tolist(), luma), lo))
    return frames
