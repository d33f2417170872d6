"""Rolling-shutter sampling: timing, exposure integration, and coverage."""

import dataclasses
import math
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occsim import camera as camera_module
from occsim.camera import (
    _BLOCK_ELEMENTS,
    CameraConfig,
    GeometryConfig,
    _chip_span,
    _Workspace,
    _integral_at,
    covered_rows,
    frame_intervals,
    sample_frames,
)
from occsim.configs import PRESETS, ExperimentConfig
from occsim.decoder import decode_samples, extract_parts
from occsim.experiment import drop_frames, random_payloads
from occsim.framing import build_packet_stream
from occsim.rll import ChipStream


class Frame(NamedTuple):
    """One frame of a block: its index, start time, every sensor row's
    luma, and the rows the footprint covers."""

    index: int
    start_time_s: float
    row_luma: np.ndarray
    covered: slice


def _frames(blocks) -> list[Frame]:
    return [Frame(index, start, luma, block.covered) for block in blocks
            for index, start, luma in zip(block.index.tolist(),
                                          block.start_time_s.tolist(),
                                          block.luma)]


def camera(rows=50, row_period=0.0005, exposure=None, mean_fps=20.0,
           delta_fps=0.0, sigma=0.0, seed=0, process="uniform"):
    return CameraConfig(rows=rows, row_period_s=row_period,
                        row_exposure_s=exposure or row_period,
                        mean_fps=mean_fps, delta_fps=delta_fps,
                        delta_process=process, noise_sigma=sigma, seed=seed)


class TestFrameIntervals:
    def test_zero_deviation_is_constant(self):
        config = camera(mean_fps=25.0, delta_fps=0.0)
        intervals = frame_intervals(config, 10)
        assert np.allclose(intervals, 1 / 25.0)

    def test_rates_stay_inside_open_band(self):
        config = camera(rows=20, mean_fps=27.5, delta_fps=7.5, seed=3)
        rates = 1 / frame_intervals(config, 100_000)
        assert rates.min() > 20.0
        assert rates.max() < 35.0

    def test_monte_carlo_mean_rate(self):
        config = camera(rows=20, mean_fps=27.5, delta_fps=7.5, seed=4)
        rates = 1 / frame_intervals(config, 100_000)
        assert abs(rates.mean() - 27.5) / 27.5 < 0.01

    def test_truncated_gaussian_process(self):
        config = camera(rows=20, mean_fps=27.5, delta_fps=7.5, seed=5,
                        process="truncated_gaussian")
        rates = 1 / frame_intervals(config, 50_000)
        assert rates.min() > 20.0 and rates.max() < 35.0

    def test_deterministic_given_seed(self):
        config = camera(mean_fps=30.0, delta_fps=5.0, rows=20, seed=9)
        assert np.array_equal(frame_intervals(config, 1000),
                              frame_intervals(config, 1000))

    def test_invalid_deviation_rejected(self):
        with pytest.raises(ValueError):
            camera(mean_fps=10.0, delta_fps=10.0)


class TestCameraConfigValidation:
    def test_overlapping_frames_rejected(self):
        # 100 rows at 1 ms is 0.1 s of rolling exposure vs 25 fps frames
        with pytest.raises(ValueError, match="overlap"):
            camera(rows=100, row_period=0.001, mean_fps=25.0)

    @pytest.mark.parametrize("setting, named", [
        ({"rows": 1}, "camera_rows"),
        ({"delta_fps": math.nan}, "delta_fps"),
        ({"mean_fps": math.nan}, "mean_fps"),
        ({"sigma": math.nan}, "noise_sigma"),
        ({"row_period": math.nan}, "row_period_s"),
    ])
    def test_rule_names_config_field(self, setting, named):
        with pytest.raises(ValueError, match=f"^{named}[:/]"):
            camera(**setting)

    def test_capture_time(self):
        assert camera(rows=50, row_period=0.0005).capture_time_s == 0.025


class TestSampleFrames:
    def test_constant_on_gives_unit_luminance(self):
        stream = ChipStream.from_chips(np.ones(2000, dtype=np.int8), 1000.0)
        frames = sample_frames(stream, camera())
        assert len(frames) > 0
        for frame in _frames(frames):
            assert np.allclose(frame.row_luma, 1.0)

    def test_square_wave_full_period_exposure_is_half(self):
        # 500 Hz square wave; each row integrates exactly one period
        chips = np.tile([1, 0], 2000).astype(np.int8)
        stream = ChipStream.from_chips(chips, 1000.0)
        config = camera(rows=20, row_period=0.002, exposure=0.002,
                        mean_fps=10.0)
        frames = sample_frames(stream, config)
        for frame in _frames(frames):
            assert np.allclose(frame.row_luma, 0.5)

    def test_rows_reproduce_chips_exactly(self):
        rng = np.random.default_rng(11)
        chips = rng.integers(0, 2, size=64).astype(np.int8)
        stream = ChipStream.from_chips(chips, 1000.0)
        # one row per chip, exposure much shorter than the chip period
        config = camera(rows=64, row_period=0.001, exposure=0.00001,
                        mean_fps=10.0, delta_fps=0.0)
        frames = _frames(sample_frames(stream, config,
                                      duration_s=stream.duration_s))
        assert len(frames) >= 1
        assert np.abs(frames[0].row_luma - chips).max() < 1e-9

    def test_duration_cannot_exceed_waveform(self):
        stream = ChipStream.from_chips(np.ones(100, dtype=np.int8), 1000.0)
        with pytest.raises(ValueError):
            sample_frames(stream, camera(), duration_s=1.0)

    def test_zero_duration_yields_no_frames(self):
        stream = ChipStream.from_chips(np.ones(100, dtype=np.int8), 1000.0)
        frames = sample_frames(stream, camera(), duration_s=0.0)
        assert len(frames) == 0
        assert list(frames) == []

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        chips = rng.integers(0, 2, size=4000).astype(np.int8)
        stream = ChipStream.from_chips(chips, 1000.0)
        config = camera(mean_fps=25.0, delta_fps=5.0, sigma=0.05, seed=21,
                        rows=30)
        a = sample_frames(stream, config)
        b = sample_frames(stream, config)
        assert len(a) == len(b)
        # and a second reading of one sampling renders the same frames
        for fa, fb in [*zip(_frames(a), _frames(b)),
                       *zip(_frames(a), _frames(a))]:
            assert fa.start_time_s == fb.start_time_s
            assert np.array_equal(fa.row_luma, fb.row_luma)

    def test_noise_is_clamped(self):
        stream = ChipStream.from_chips(np.ones(2000, dtype=np.int8), 1000.0)
        frames = sample_frames(stream, camera(sigma=0.5, seed=1))
        for frame in _frames(frames):
            assert frame.row_luma.max() <= 1.0
            assert frame.row_luma.min() >= 0.0

    def test_geometry_limits_coverage(self):
        stream = ChipStream.from_chips(np.ones(2000, dtype=np.int8), 1000.0)
        geometry = GeometryConfig(distance=2.0, reference_distance=1.0,
                                  subpacket_rows=40)
        frames = sample_frames(stream, camera(rows=40), geometry)
        frame = _frames(frames)[0]
        assert frame.covered == slice(10, 30)
        covered = frame.row_luma[frame.covered]
        assert np.allclose(covered, 1.0)
        assert frame.row_luma[:frame.covered.start].max(initial=0.0) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_duty_cycle_conservation(self, seed):
        # rows tile the waveform exactly, so the mean row luminance must
        # equal the waveform duty cycle to float precision
        rng = np.random.default_rng(seed)
        chips = rng.integers(0, 2, size=100).astype(np.int8)
        stream = ChipStream.from_chips(chips, 1000.0)
        config = camera(rows=50, row_period=0.002, exposure=0.002,
                        mean_fps=5.0, delta_fps=0.0)
        frames = _frames(sample_frames(stream, config))
        assert len(frames) == 1
        duty = chips.mean()
        assert abs(frames[0].row_luma.mean() - duty) < 1e-9


class TestCoverage:
    def test_reference_distance_full_fit(self):
        geometry = GeometryConfig(distance=1.5, reference_distance=1.5,
                                  subpacket_rows=120)
        assert covered_rows(geometry) == 120

    def test_double_distance_halves_rows(self):
        geometry = GeometryConfig(distance=3.0, reference_distance=1.5,
                                  subpacket_rows=120)
        assert covered_rows(geometry) == 60

    def test_far_limit(self):
        geometry = GeometryConfig(distance=1e9, reference_distance=1.0,
                                  subpacket_rows=120)
        assert covered_rows(geometry) == 0

    def test_cap_at_sensor(self):
        geometry = GeometryConfig(distance=0.5, reference_distance=2.0,
                                  subpacket_rows=120)
        assert covered_rows(geometry, max_rows=200) == 200

    def test_inverse_distance_proportionality(self):
        geometry_of = lambda d: GeometryConfig(distance=d, reference_distance=1.0,
                                               subpacket_rows=400)
        for d in (1.0, 1.25, 2.0, 2.5, 4.0):
            exact = 400 / d
            assert abs(covered_rows(geometry_of(d)) - exact) <= 1


# --- reference camera --------------------------------------------------------
# The per-frame loop over a float prefix sum of the whole waveform that
# the frames x rows blocks replaced, kept as the oracle for the
# differential test below.

def _prefix_integral(stream):
    # cumulative on-time in seconds at each chip boundary
    return np.concatenate(([0.0], np.cumsum(stream.chips, dtype=np.float64))) \
        / stream.clock_hz


def _ref_integral_at(prefix, chips, clock_hz, times):
    """On-time integral from 0 to each time, 0 past the last chip."""
    if len(chips) == 0:
        return np.zeros_like(np.asarray(times, dtype=np.float64))
    positions = np.clip(times, 0.0, None) * clock_hz
    idx = np.minimum(positions.astype(np.int64), len(chips))
    frac = positions - idx
    inside = idx < len(chips)
    partial = np.where(inside, chips[np.minimum(idx, len(chips) - 1)] * frac, 0.0)
    return prefix[idx] + partial / clock_hz


def _ref_sample_frames(waveform, camera, geometry=None, duration_s=None):
    duration = waveform.duration_s if duration_s is None else duration_s
    cov = camera.rows if geometry is None \
        else covered_rows(geometry, max_rows=camera.rows)
    max_frames = int(duration * (camera.mean_fps + camera.delta_fps)) + 2
    intervals = frame_intervals(camera, max_frames)
    noise_rng = np.random.default_rng((camera.seed, 1))
    prefix = _prefix_integral(waveform)
    chips = waveform.chips.astype(np.float64)
    row_offsets = np.arange(camera.rows) * camera.row_period_s
    exposure = camera.row_exposure_s
    last_row_end = (camera.rows - 1) * camera.row_period_s + exposure
    frames = []
    start = 0.0
    for k in range(max_frames):
        if start + last_row_end > duration + 1e-12:
            break
        begins = start + row_offsets
        integ = (_ref_integral_at(prefix, chips, waveform.clock_hz,
                                  begins + exposure)
                 - _ref_integral_at(prefix, chips, waveform.clock_hz, begins))
        luma = integ / exposure
        if cov < camera.rows:
            mask = np.zeros(camera.rows, dtype=bool)
            begin = (camera.rows - cov) // 2
            mask[begin:begin + cov] = True
            luma = np.where(mask, luma, 0.0)
        if camera.noise_sigma > 0:
            luma = luma + noise_rng.normal(0.0, camera.noise_sigma, camera.rows)
        luma = np.clip(luma, 0.0, 1.0)
        begin = (camera.rows - cov) // 2
        frames.append(Frame(k, start, luma, slice(begin, begin + cov)))
        start += intervals[k]
    return frames


class TestAgainstReference:
    """Frames x rows blocks against the per-frame reference loop."""

    ROWS = 512
    BLOCK = _BLOCK_ELEMENTS // ROWS  # frames in one full block
    CLOCK = 10_000.0

    def config(self, **overrides):
        settings = dict(rows=self.ROWS, row_period_s=1 / (2 * self.CLOCK),
                        row_exposure_s=1 / (2 * self.CLOCK), mean_fps=30.0,
                        delta_fps=0.0, delta_process="uniform",
                        noise_sigma=0.0, seed=7)
        settings.update(overrides)
        return CameraConfig(**settings)

    def stream(self, frames, seed=0):
        rng = np.random.default_rng(seed)
        chips = rng.integers(0, 2, size=int(self.CLOCK * (frames + 2) / 20))
        return ChipStream.from_chips(chips.astype(np.int8), self.CLOCK)

    @staticmethod
    def assert_same(sampled, want):
        got = _frames(sampled)
        assert len(sampled) == len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.index, a.start_time_s, a.covered) == \
                (b.index, b.start_time_s, b.covered)
            assert a.row_luma.dtype == b.row_luma.dtype
            assert a.row_luma.tobytes() == b.row_luma.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 50), st.integers(0, 2**32 - 1))
    def test_integral_at(self, n_chips, seed):
        # before the start, inside, at chip edges and past the end, where
        # sampled frames never reach
        rng = np.random.default_rng(seed)
        stream = ChipStream.from_chips(rng.integers(0, 2, n_chips), self.CLOCK)
        times = np.concatenate([
            rng.uniform(-1.0, 2.0, 200) * stream.duration_s,
            np.arange(-1, n_chips + 2) / self.CLOCK])
        want = _ref_integral_at(_prefix_integral(stream),
                                stream.chips.astype(np.float64), self.CLOCK,
                                times)
        # over the whole waveform, and over only the chips the times reach
        first, last = (int(min(max(t, 0.0) * self.CLOCK, n_chips))
                       for t in (times.min(), times.max()))
        for lo, hi in ((0, n_chips), (first, last)):
            work = _Workspace()
            span, prefix = _chip_span(stream, lo, hi,
                                      int(stream.chips[:lo].sum()), work)
            got = _integral_at(prefix, span, lo, self.CLOCK, times, work)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 50), st.integers(0, 2**32 - 1))
    def test_integral_at_inside_the_span(self, n_chips, seed):
        # only times a sampled frame reaches, from 0 (and -0.0) to the
        # waveform's end: no time is clamped
        rng = np.random.default_rng(seed)
        stream = ChipStream.from_chips(rng.integers(0, 2, n_chips), self.CLOCK)
        times = np.concatenate([
            rng.uniform(0.0, 1.0, 200) * stream.duration_s,
            np.arange(n_chips + 1) / self.CLOCK, [0.0, -0.0]])
        want = _ref_integral_at(_prefix_integral(stream),
                                stream.chips.astype(np.float64), self.CLOCK,
                                times)
        # over the whole waveform, and over only the chips the times reach
        first, last = (int(t * self.CLOCK) for t in (times.min(), times.max()))
        for lo, hi in ((0, n_chips), (first, last)):
            work = _Workspace()
            span, prefix = _chip_span(stream, lo, hi,
                                      int(stream.chips[:lo].sum()), work)
            got = _integral_at(prefix, span, lo, self.CLOCK, times, work)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_iterations_are_independent(self, sigma):
        # each iteration keeps its own state: two advanced in turn yield,
        # block for block, the luma of one alone
        sampled = sample_frames(
            self.stream(3 * self.BLOCK), self.config(delta_fps=5.0,
                                                     noise_sigma=sigma),
            GeometryConfig(distance=2.0, reference_distance=1.0,
                           subpacket_rows=self.ROWS - 2))
        alone = [block.luma.tobytes() for block in sampled]
        first, second = iter(sampled), iter(sampled)
        # the blocks are kept, and read only once both are done: none is a
        # view that a later block overwrites
        turns = [(next(first), next(second)) for _ in alone]
        assert len(alone) > 2
        assert [a.luma.tobytes() for a, _ in turns] == alone
        assert [b.luma.tobytes() for _, b in turns] == alone

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_block_boundaries(self, offset, sigma):
        # a duration cut that leaves exactly BLOCK + offset frames at a
        # constant 30 fps
        camera = self.config(noise_sigma=sigma)
        count = self.BLOCK + offset
        stream = self.stream(count)
        duration = (count - 0.5) / camera.mean_fps + camera.capture_time_s
        got = sample_frames(stream, camera, duration_s=duration)
        assert len(got) == count
        self.assert_same(got, _ref_sample_frames(stream, camera,
                                                 duration_s=duration))

    @pytest.mark.parametrize("count", [0, 1])
    def test_few_frames(self, count):
        camera = self.config(noise_sigma=0.1)
        stream = self.stream(2)
        duration = count / camera.mean_fps + camera.capture_time_s - 1e-3
        got = sample_frames(stream, camera, duration_s=duration)
        assert len(got) == count
        self.assert_same(got, _ref_sample_frames(stream, camera,
                                                 duration_s=duration))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["uniform", "truncated_gaussian"]),
           st.sampled_from([0.0, 0.05, 0.5]),
           st.one_of(st.none(), st.floats(0.3, 4.0)),
           st.one_of(st.none(), st.floats(0.0, 1.0)),
           st.integers(0, 2**32 - 1))
    def test_random_cameras(self, process, sigma, distance, cut, seed):
        camera = self.config(mean_fps=30.0, delta_fps=8.0,
                             delta_process=process, noise_sigma=sigma,
                             seed=seed)
        geometry = None if distance is None else GeometryConfig(
            distance=distance, reference_distance=1.0, subpacket_rows=300)
        stream = self.stream(2 * self.BLOCK, seed)
        duration = None if cut is None else cut * stream.duration_s
        self.assert_same(sample_frames(stream, camera, geometry, duration),
                         _ref_sample_frames(stream, camera, geometry, duration))


def _table_columns(table):
    return ([c.tobytes() for c in (table.frame, table.position, table.forward,
                                   table.ab, table.length, table.bits)],
            table.n_frames, table.n_frames_with_sf)


class TestBlockPartition:
    """How frames are cut into blocks changes no luma and no part."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(PRESETS)), st.sampled_from([0.0, 0.3]),
           st.sampled_from([None, 1.0, 1.6, 2.5]), st.integers(0, 1000))
    def test_one_frame_blocks(self, name, sigma, distance, seed):
        # one frame per block
        cell = dataclasses.replace(
            PRESETS[name], noise_sigma=sigma, distance=distance,
            reference_distance=1.0, seed=seed, trials=12)
        stream = build_packet_stream(
            random_payloads(cell.trials, cell.payload_bits, seed),
            cell.plan(), cell.rll_scheme, cell.frame_structure)
        frames = sample_frames(stream, cell.camera(), cell.geometry())
        with mock.patch.object(camera_module, "_BLOCK_ELEMENTS", 1):
            single = list(frames)
            table = extract_parts(frames, cell.decoder())
        assert {len(block) for block in single} <= {1}
        want, got = _frames(frames), _frames(single)
        assert len(got) == len(want) == len(frames)
        for a, b in zip(got, want):
            assert (a.index, a.start_time_s, a.covered) == \
                (b.index, b.start_time_s, b.covered)
            assert a.row_luma.tobytes() == b.row_luma.tobytes()
        assert _table_columns(table) == \
            _table_columns(extract_parts(frames, cell.decoder()))


def _ref_drop_frames(samples, keep_probability, seed):
    """The per-frame rule the block version keeps: one draw per frame,
    except that a frame after three dropped ones is kept without one."""
    if keep_probability >= 1.0:
        return list(samples)
    rng = np.random.default_rng(seed)
    kept = []
    run = 0
    for sample in samples:
        if run >= 3 or rng.random() < keep_probability:
            kept.append(sample)
            run = 0
        else:
            run += 1
    return kept


class TestDropFrames:
    @pytest.mark.parametrize("keep", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("block_elements", [1, 7 * 30, _BLOCK_ELEMENTS])
    def test_against_per_frame_rule(self, keep, block_elements):
        rng = np.random.default_rng(5)
        stream = ChipStream.from_chips(rng.integers(0, 2, 20_000), 1000.0)
        frames = sample_frames(stream, camera(rows=30, delta_fps=5.0,
                                              sigma=0.2, seed=3))
        with mock.patch.object(camera_module, "_BLOCK_ELEMENTS",
                               block_elements):
            kept = list(drop_frames(frames, keep, 17))
        want = _ref_drop_frames(_frames(frames), keep, 17)
        got = _frames(kept)
        assert [f.index for f in got] == [f.index for f in want]
        assert [f.start_time_s for f in got] == [f.start_time_s for f in want]
        assert all(a.row_luma.tobytes() == b.row_luma.tobytes()
                   for a, b in zip(got, want))
        if keep == 0.0:
            # every fourth frame, kept without a draw
            assert [f.index for f in got] == list(range(3, len(frames), 4))


class TestStreamedMemory:
    # 20 packets of the far-field fusion cell: 2 680 frames of 490 rows
    # over an 864 000-chip waveform
    CELL = ExperimentConfig(
        scheme="manchester", version="v1", optical_clock_hz=8640.0,
        packet_rate=0.2, payload_bits=175, rows_per_chip=2,
        camera_rows=490, mean_fps=27.5, delta_fps=7.5, distance=1.8,
        reference_distance=1.0, seed=12, trials=20)

    def stream(self):
        cell = self.CELL
        return build_packet_stream(
            random_payloads(cell.trials, cell.payload_bits, 11, distinct=True),
            cell.plan(), cell.rll_scheme, cell.frame_structure)

    def test_far_field_stream_is_packed(self):
        # the stream keeps its 864 000 chips packed, 108 000 bytes; the
        # build traced a 1.74 MB peak when it tiled the sub-packets into
        # an int8 stream, 0.99 MB filling a uint8 slot matrix and packing it
        cell = self.CELL
        payloads = random_payloads(cell.trials, cell.payload_bits, 11,
                                   distinct=True)
        tracemalloc.start()
        try:
            stream = build_packet_stream(payloads, cell.plan(),
                                         cell.rll_scheme, cell.frame_structure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.count == 864_000
        assert stream.packed.dtype == np.uint8
        assert stream.packed.nbytes == 108_000
        assert peak < 1.3e6

    def test_far_field_peak(self):
        # Holding every frame's rows and a float prefix sum of the waveform
        # peaked at 26.6 MB under tracemalloc; blocks read as they are
        # rendered peak at 4.87 MB (5.17 MB when a part's bits took 175
        # int8 bytes).  The stream, built before tracing, is read in packed
        # spans: its 108 kB, not 864 kB of int8 chips, stay live.
        cell, stream = self.CELL, self.stream()
        tracemalloc.start()
        try:
            table = extract_parts(
                sample_frames(stream, cell.camera(), cell.geometry()),
                cell.decoder())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n_frames == 2680
        assert peak < 10e6

    def test_far_field_table_is_packed(self):
        # the table keeps each part's payload bits packed, ceil(175 / 8) =
        # 22 bytes a part.  Above the rendered blocks, extract_parts traced
        # a 3.53 MB peak when a part took 175 int8 bytes, 3.16 MB packed.
        cell = self.CELL
        blocks = list(sample_frames(self.stream(), cell.camera(),
                                    cell.geometry()))
        tracemalloc.start()
        try:
            table = extract_parts(blocks, cell.decoder())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.bits.dtype == np.uint8
        assert table.bits.shape == (len(table.length), 22)
        assert peak < 3.35e6

    def test_far_field_assembly_peak(self):
        # assembly's temporaries, the report included, stay within twice
        # the parts x payload-bits matrix unpacked: a few whole-matrix
        # boolean temporaries would not
        cell = self.CELL
        table = extract_parts(
            sample_frames(self.stream(), cell.camera(), cell.geometry()),
            cell.decoder())
        tracemalloc.start()
        try:
            report = decode_samples(table, fusion=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.payload)
        assert peak < 2 * len(table.length) * cell.payload_bits
