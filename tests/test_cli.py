"""Command-line driver: files, determinism, validation, and studies."""

import contextlib
import csv
import dataclasses
import json
import math
import re
import struct
import tempfile
import tracemalloc
import typing
from io import StringIO
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from occsim import camera, cli, io
from occsim.analysis import (FusionStudyConfig, monte_carlo_der,
                             wilson_interval)
from occsim.cli import main
from occsim.configs import PRESETS, ExperimentConfig, load_config
from occsim.experiment import random_payloads, run_link
from occsim.camera import FrameBlock
from occsim.rll import ChipStream


class Frame(NamedTuple):
    """One frame of a block: its index, start time, every sensor row's
    luma and the number of rows the footprint covers."""

    index: int
    start_time_s: float
    row_luma: np.ndarray
    covered_rows: int


def _frames(blocks) -> list[Frame]:
    return [Frame(index, start, luma, luma[block.covered].size)
            for block in blocks
            for index, start, luma in zip(block.index.tolist(),
                                          block.start_time_s.tolist(),
                                          block.luma)]


def _block(indices, starts, luma, covered):
    """A block of frames, each with every row covered unless ``covered``
    rows are, centred."""
    luma = np.asarray(luma)
    begin = (luma.shape[1] - covered) // 2
    return FrameBlock(np.asarray(indices), np.asarray(starts), luma,
                      slice(begin, begin + covered))


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def small_config(tmp_path):
    config = load_config("table8_manchester_1k")
    config.trials = 20
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    return path


class TestEncode:
    def test_writes_stream_and_manifest(self, tmp_path, small_config):
        out = tmp_path / "stream.chips"
        assert run_cli("encode", "--config", small_config, "--out", out) == 0
        stream = io.read_chipstream(out)
        assert stream.clock_hz == 1000.0
        # 20 packets x 5 sub-packets x 20 chips
        assert len(stream.chips) == 2000
        from occsim.decoder import _sf_match
        from occsim.rll import RllScheme
        sf = np.flatnonzero(_sf_match(stream.chips, RllScheme.MANCHESTER,
                                      camera._Workspace()))
        assert len(sf) == 20 * 5
        manifest = json.loads(out.with_suffix(".chips.manifest.json").read_text())
        assert manifest["payload_count"] == 20
        assert manifest["config"]["optical_clock_hz"] == 1000.0

    def test_deterministic_given_seed(self, tmp_path, small_config):
        a, b = tmp_path / "a.chips", tmp_path / "b.chips"
        run_cli("encode", "--config", small_config, "--out", a, "--seed", 9)
        run_cli("encode", "--config", small_config, "--out", b, "--seed", 9)
        assert a.read_bytes() == b.read_bytes()

    def test_packed_format_roundtrip(self, tmp_path, small_config):
        out = tmp_path / "stream.bin"
        run_cli("encode", "--config", small_config, "--out", out,
                "--format", "packed")
        ascii_out = tmp_path / "stream.chips"
        run_cli("encode", "--config", small_config, "--out", ascii_out)
        assert np.array_equal(io.read_chipstream(out).chips,
                              io.read_chipstream(ascii_out).chips)

    def test_payload_file(self, tmp_path, small_config):
        payload_file = tmp_path / "data.bin"
        payload_file.write_bytes(bytes(range(10)))
        out = tmp_path / "stream.chips"
        assert run_cli("encode", "--config", small_config, "--out", out,
                       "--payload-file", payload_file) == 0
        # 80 bits -> 16 five-bit payloads
        manifest = json.loads(out.with_suffix(".chips.manifest.json").read_text())
        assert manifest["payload_count"] == 16

    def test_empty_payload_file_rejected(self, tmp_path, small_config, capsys):
        payload_file = tmp_path / "empty.bin"
        payload_file.write_bytes(b"")
        out = tmp_path / "stream.chips"
        assert run_cli("encode", "--config", small_config, "--out", out,
                       "--payload-file", payload_file) != 0
        assert "empty" in capsys.readouterr().err

    def test_invalid_config_names_field(self, tmp_path, capsys):
        config = load_config("table8_manchester_1k")
        config.packet_rate = -1.0
        path = tmp_path / "bad.json"
        path.write_text(config.to_json())
        assert run_cli("encode", "--config", path,
                       "--out", tmp_path / "x.chips") == 2
        assert "packet_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("document, named", [
        ('{"payload_bits": "5"}', "payload_bits"),
        ('{"trials": 2.5}', "trials"),
        ('{"payload_bits": true}', "payload_bits"),
        ("[1, 2]", "JSON object"),
        ('{"seed": null}', "seed"),
    ])
    def test_mistyped_config_rejected(self, tmp_path, capsys, document, named):
        path = tmp_path / "bad.json"
        path.write_text(document)
        assert run_cli("encode", "--config", path,
                       "--out", tmp_path / "x.chips") != 0
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "x.chips").exists()

    @pytest.mark.parametrize("document, named", [
        ('{"noise_sigma": -1}', "noise_sigma"),
        ('{"delta_process": "foo"}', "delta_process"),
        ('{"distance": 0}', "distance"),
        ('{"distance": -2, "reference_distance": 1}', "distance"),
        ('{"distance": 1, "reference_distance": 0}', "reference_distance"),
        ('{"optical_clock_hz": Infinity}', "optical_clock_hz"),
        ('{"mean_fps": NaN}', "mean_fps"),
        ('{"rows_per_chip": NaN}', "rows_per_chip"),
        ('{"noise_sigma": NaN}', "noise_sigma"),
        ('{"distance": NaN}', "distance"),
        ('{"packet_rate": 0}', "packet_rate"),
        ('{"seed": -1}', "seed"),
        ('{"reference_distance": 2}', "reference_distance"),
        pytest.param('{"camera_rows": 1%s}' % ("0" * 400), "camera_rows",
                     id="camera_rows=10**400"),
        pytest.param('{"payload_bits": 1%s}' % ("0" * 400), "payload_bits",
                     id="payload_bits=10**400"),
        pytest.param('{"trials": 1%s}' % ("0" * 400), "trials",
                     id="trials=10**400"),
        pytest.param('{"seed": 1%s}' % ("0" * 400), "seed",
                     id="seed=10**400"),
        # within float range, but the sub-packet length or the row rate
        # derived from it is not
        pytest.param('{"payload_bits": 1%s}' % ("0" * 308), "payload_bits",
                     id="payload_bits=10**308"),
        pytest.param('{"payload_bits": 1%s, "optical_clock_hz": 1000}'
                     % ("0" * 308), "payload_bits",
                     id="payload_bits=10**308,int_clock"),
        pytest.param('{"optical_clock_hz": 1%s}' % ("0" * 308),
                     "optical_clock_hz", id="optical_clock_hz=10**308"),
    ])
    def test_camera_and_geometry_rules_validated(self, tmp_path, capsys,
                                                 document, named):
        # rules the plan, camera, footprint and config own are reported up
        # front, each named by its config field
        path = tmp_path / "bad.json"
        path.write_text(document)
        assert run_cli("encode", "--config", path,
                       "--out", tmp_path / "x.chips") == 2
        err = capsys.readouterr().err
        prefix = err.removeprefix("config error: ").split(": ")[0]
        assert named in prefix.split("/")
        assert "Traceback" not in err
        assert not (tmp_path / "x.chips").exists()

    def test_v1_undersampled_config_rejected(self, tmp_path, capsys):
        config = load_config("table8_manchester_1k")
        config.mean_fps, config.delta_fps = 8.0, 2.0
        path = tmp_path / "bad.json"
        path.write_text(config.to_json())
        assert run_cli("encode", "--config", path,
                       "--out", tmp_path / "x.chips") == 2
        err = capsys.readouterr().err
        assert "oversampling" in err and "packet_rate" in err


class TestSimulateAndDecode:
    def _encode(self, tmp_path, config_path):
        stream = tmp_path / "stream.chips"
        assert run_cli("encode", "--config", config_path, "--out", stream) == 0
        return stream

    def test_roundtrip_lossless(self, tmp_path, small_config, capsys):
        stream = self._encode(tmp_path, small_config)
        frames = tmp_path / "frames.csv"
        assert run_cli("simulate", "--config", small_config, "--stream", stream,
                       "--out", frames) == 0
        report_path = tmp_path / "report.txt"
        payload_path = tmp_path / "recovered.hex"
        assert run_cli("decode", "--config", small_config, "--frames", frames,
                       "--out", report_path, "--payload-out", payload_path) == 0
        text = report_path.read_text()
        assert "recovered payloads: 20" in text
        assert "detected gaps: 0" in text
        assert len(payload_path.read_text().splitlines()) == 20

    def test_frame_count_within_rate_band(self, tmp_path, small_config):
        stream = self._encode(tmp_path, small_config)
        frames = tmp_path / "frames.csv"
        run_cli("simulate", "--config", small_config, "--stream", stream,
                "--out", frames)
        samples = _frames(io.read_frames_csv(frames))
        duration = 20 / 10.0  # packets over packet rate
        assert 20 * duration <= len(samples) <= 35 * duration

    def test_simulate_deterministic(self, tmp_path, small_config):
        stream = self._encode(tmp_path, small_config)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", small_config, "--stream", stream,
                "--out", a)
        run_cli("simulate", "--config", small_config, "--stream", stream,
                "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_duration_gives_header_only(self, tmp_path, small_config):
        stream = self._encode(tmp_path, small_config)
        out = tmp_path / "frames.csv"
        assert run_cli("simulate", "--config", small_config, "--stream", stream,
                       "--out", out, "--duration", 0) == 0
        assert out.read_text().strip() == ",".join(io.FRAME_CSV_HEADER)

    @pytest.mark.parametrize("duration", ["-1", "nan", "-0.0001"])
    def test_duration_outside_the_waveform_rejected(self, tmp_path,
                                                    small_config, capsys,
                                                    duration):
        stream = self._encode(tmp_path, small_config)
        out = tmp_path / "frames.csv"
        assert run_cli("simulate", "--config", small_config, "--stream",
                       stream, "--out", out, "--duration", duration) != 0
        assert capsys.readouterr().err.startswith("error: duration: ")
        assert not out.exists()

    def test_partial_coverage_roundtrip(self, tmp_path):
        # at the reference distance the footprint spans exactly one
        # sub-packet, so recovery leans on prefix+suffix fusion
        config = load_config("table8_manchester_2k")
        config.trials = 30
        config.distance = 1.0
        config.reference_distance = 1.0
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        stream = tmp_path / "stream.chips"
        frames = tmp_path / "frames.csv"
        report = tmp_path / "report.txt"
        payloads = tmp_path / "recovered.hex"
        assert run_cli("encode", "--config", path, "--out", stream) == 0
        assert run_cli("simulate", "--config", path, "--stream", stream,
                       "--out", frames) == 0
        assert run_cli("decode", "--config", path, "--frames", frames,
                       "--out", report, "--payload-out", payloads) == 0
        text = report.read_text()
        recovered = len(payloads.read_text().splitlines())
        assert recovered >= 25
        assert f"recovered payloads: {recovered}" in text

    def test_fractional_footprint_matches_run_link(self, tmp_path):
        # 1.5 rows per chip at 0.9x the reference distance: the file
        # pipeline and run_link must cut the same footprint from the same
        # frames and print the same report
        config = dataclasses.replace(
            PRESETS["table5_v1"], scheme="8b10b", payload_bits=8,
            rows_per_chip=1.5, distance=0.9, reference_distance=1.0,
            packet_rate=10.0, camera_rows=120, trials=40)
        assert config.validate() == []
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        stream = tmp_path / "stream.chips"
        frames = tmp_path / "frames.csv"
        report = tmp_path / "report.txt"
        assert run_cli("encode", "--config", path, "--out", stream) == 0
        assert run_cli("simulate", "--config", path, "--stream", stream,
                       "--out", frames) == 0
        assert run_cli("decode", "--config", path, "--frames", frames,
                       "--out", report) == 0
        # the payload draw of `occsim encode` for narrow payloads
        payloads = random_payloads(config.trials, config.payload_bits,
                                   config.seed)
        outcome = run_link(payloads, config.plan(), config.rll_scheme,
                           config.frame_structure, config.camera(),
                           config.rows_per_chip, config.geometry())
        assert report.read_text() == outcome.report.to_text() + "\n"

    def test_malformed_csv_reports_line(self, tmp_path, small_config, capsys):
        frames = tmp_path / "frames.csv"
        frames.write_text("frame_index,start_time_s,row,luma\n0,0.0,0,bogus\n")
        assert run_cli("decode", "--config", small_config,
                       "--frames", frames) == 1
        assert "line 2" in capsys.readouterr().err


_PACKED_HEADER = struct.Struct("<IdQ")


class TestReadChipstream:
    @pytest.mark.parametrize("raw, message", [
        (b"OCHP\x01\x00", "header truncated"),
        (b"OCHP" + _PACKED_HEADER.pack(2, 1000.0, 8) + b"\x55",
         "unsupported packed version 2"),
        (b"OCHP" + _PACKED_HEADER.pack(1, 1000.0, 16) + b"\x55",
         "packed chip stream truncated"),
        (b"clock_hz=1000.0\nchips=4\nfoo=1\n0101\n",
         "line 3: unknown header 'foo'"),
        (b"clock_hz=1000.0\nchips=8\n0101\n01x1\n",
         "line 4: expected 0/1 chips"),
        (b"clock_hz=1000.0\nchips=5\n0101\n",
         "header says 5, file has 4"),
        (b"chips=4\n0101\n", "missing clock_hz/chips header"),
        (b"clock_hz=abc\nchips=4\n0101\n",
         "line 1: clock_hz must be a positive number, got 'abc'"),
        (b"clock_hz=0\nchips=4\n0101\n",
         "line 1: clock_hz must be a positive number, got '0'"),
        (b"clock_hz=1000.0\nchips=x\n0101\n",
         "line 2: chips must be an integer, got 'x'"),
        (b"clock_hz=1000.0\nchips=4\n01\xff1\n", "line 3: not UTF-8 text"),
        (b"OCHQ" + _PACKED_HEADER.pack(1, 1000.0, 8) + b"\x55",
         "line 1: not UTF-8 text"),
        (b"OCHP" + _PACKED_HEADER.pack(1, 0.0, 8) + b"\x55",
         "packed header: clock_hz must be a positive number"),
        (b"clock_hz=inf\nchips=4\n0101\n",
         "line 1: clock_hz must be a positive number, got 'inf'"),
        (b"OCHP" + _PACKED_HEADER.pack(1, math.inf, 8) + b"\x55",
         "packed header: clock_hz must be a positive number, got inf"),
    ], ids=["short_header", "bad_version", "truncated_bits", "unknown_key",
            "non_binary_body", "count_mismatch", "missing_header",
            "non_numeric_clock", "zero_clock", "non_numeric_count",
            "non_utf8_body", "mangled_magic", "packed_zero_clock",
            "ascii_inf_clock", "packed_inf_clock"])
    def test_malformed_stream_rejected(self, tmp_path, raw, message):
        path = tmp_path / "stream.chips"
        path.write_bytes(raw)
        with pytest.raises(io.FileFormatError, match=message):
            io.read_chipstream(path)

    @pytest.mark.parametrize("raw, message", [
        (b"clock_hz=1000.0\n0101\n01x1\nfoo=1\nchips=8\n",
         "^line 3: expected 0/1 chips$"),
        (b"clock_hz=1000.0\n0101\nchips=x\n01x1\n",
         "^line 3: chips must be an integer, got 'x'$"),
        (b"0101\n01x1\nclock_hz=0\n", "^line 2: expected 0/1 chips$"),
    ], ids=["chip_line_before_header", "header_before_chip_line",
            "chip_line_before_clock"])
    def test_first_fault_is_named(self, tmp_path, raw, message):
        # the chip lines are read in one pass, and still the first faulty
        # line of the file is the one named
        path = tmp_path / "stream.chips"
        path.write_bytes(raw)
        with pytest.raises(io.FileFormatError, match=message):
            io.read_chipstream(path)

    def test_packed_padding_and_trailing_bytes_ignored(self, tmp_path):
        # the header's count of chips is read; the rest of the last byte
        # and the bytes after it are not chips
        path = tmp_path / "stream.chips"
        path.write_bytes(b"OCHP" + _PACKED_HEADER.pack(1, 1000.0, 10)
                         + b"\xb3\xff\x12")
        stream = io.read_chipstream(path)
        assert stream.chips.tolist() == [1, 0, 1, 1, 0, 0, 1, 1, 1, 1]
        assert stream.packed.tolist() == [0xB3, 0xC0]
        io.write_chipstream_packed(path, stream)
        assert path.read_bytes() == (
            b"OCHP" + _PACKED_HEADER.pack(1, 1000.0, 10) + b"\xb3\xc0")

    def test_comments_blank_lines_and_wrap(self, tmp_path):
        chips = np.tile(np.array([0, 1, 1], dtype=np.int8), 60)
        path = tmp_path / "stream.chips"
        io.write_chipstream_ascii(path, ChipStream.from_chips(chips, 1000.0))
        lines = path.read_text().splitlines()
        assert [len(line) for line in lines[2:]] == [80, 80, 20]
        path.write_text("# a comment\n\n" + "\n".join(lines) + "\n")
        assert np.array_equal(io.read_chipstream(path).chips, chips)

    def test_simulate_short_packed_stream_fails_cleanly(
            self, tmp_path, small_config, capsys):
        stream = tmp_path / "stream.chips"
        stream.write_bytes(b"OCHP\x01\x00")
        assert run_cli("simulate", "--config", small_config, "--stream",
                       stream, "--out", tmp_path / "frames.csv") == 1
        assert "header truncated" in capsys.readouterr().err


def _long_csv(edits) -> bytes:
    """A frame CSV of 200 frames of 200 rows, longer than one of the
    ``io._CHUNK_BYTES`` chunks the reader reads, with lines replaced by
    number."""
    lines = [",".join(io.FRAME_CSV_HEADER) + "\n"] + [
        f"{frame},0.5,{row},0.5\n" for frame in range(200) for row in range(200)]
    for number, text in edits.items():
        lines[number - 1] = text
    return "".join(lines).encode("latin-1")


def _crlf_cut_at(raw: bytes, at: int) -> bytes:
    """``raw`` with CRLF line ends and line 2 padded with spaces so that
    the CR of a line end is byte ``at``."""
    raw = raw.replace(b"\n", b"\r\n")
    pad = at - raw.rindex(b"\r", 0, at + 1)
    second = raw.index(b"\r\n") + 2
    end = raw.index(b"\r\n", second)
    return raw[:end] + b" " * pad + raw[end:]


class TestReadFramesCsv:
    @pytest.mark.parametrize("raw, message", [
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,0.\xff5\n",
         "line 2: luma: could not convert"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,0.5\n0,0.0,1,x\n",
         "^line 3: luma: could not convert 'x'$"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,0.5\n0,0.0,1\n",
         "^line 3: expected 4 fields, got 3$"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,0.5\n0,0.0,1,0.5,7\n",
         "^line 3: expected 4 fields, got 5$"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,1.5,0.5\n",
         "^line 2: row: could not convert '1.5'$"),
        (b"frame_index,start_time_s,row,luma\n0,,0,0.5\n",
         "^line 2: start_time_s: could not convert ''$"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,\"0.5\n"
         + b"0,0.0,1,0.5\n" * 20000, "^line 2: "),
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,inf\n",
         "line 2: luma must be finite, got 'inf'"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,0.5\n0,NaN,1,0.5\n",
         "line 3: start_time_s must be finite, got 'NaN'"),
        (b"frame_index,start_time_s,row,luma\n0,-inf,0,0.5\n",
         "line 2: start_time_s must be finite, got '-inf'"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,1,0.5\n1,0.1,1,0.5\n"
         b"1,0.1,0,0.5\n0,0.0,1,0.5\n", "line 5: duplicate row 1"),
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,0.5\n0,0.0,2,0.5\n",
         "frame 0: non-contiguous row numbers"),
        # the first fault in line order, across chunks of lines
        (_long_csv({20_002: "37,0.5,1,0.5\n", 40_001: "1,2,3\n"}),
         "^line 20002: duplicate row 1$"),
        (_long_csv({33_000: "164,0.5,198,inf\n", 35_000: "0,0.0,0,0.5\n"}),
         "^line 33000: luma must be finite, got 'inf'$"),
        # empty lines count toward line numbers, not toward rows
        (_long_csv({5: "\n\n0,0.0,3,0.5\n", 39_000: "194,0.5,x,0.5\n"}),
         "^line 39002: row: could not convert 'x'$"),
        (_long_csv({16_386: "81,0.5,184,0.5\x1c\n"}),
         "^line 16386: byte b'\\\\x1c' is not printable ASCII$"),
        (_long_csv({38_000: ""}), "^frame 189: non-contiguous row numbers$"),
        # str.splitlines would end a line at \x85, past the first chunk
        (_long_csv({36_000: "179,0.5\x85,199,0.5\n"}),
         "^line 36000: byte b'\\\\x85' is not printable ASCII$"),
        # empty lines in both chunks, above a repeated row
        (_long_csv({5: "\n\n0,0.5,3,0.5\n", 36_000: "\n179,0.5,198,0.5\n",
                    38_003: "190,0.5,0,0.5\n"}),
         "^line 38006: duplicate row 0$"),
        # the first chunk's read ends between a CR and its LF
        (_crlf_cut_at(_long_csv({39_000: "194,0.5,x,0.5\n"}),
                      io._CHUNK_BYTES - 1),
         "^line 39000: row: could not convert 'x'$"),
        # a bare CR ends the header as it ends any line
        (_long_csv({1: ",".join(io.FRAME_CSV_HEADER) + "\r",
                    39_000: "194,0.5,x,0.5\n"}),
         "^line 39000: row: could not convert 'x'$"),
        # an empty or blank start field inside a run of equal start texts
        (b"frame_index,start_time_s,row,luma\n0,0.5,0,0.5\n0,0.5,1,0.5\n"
         b"0,,2,0.5\n0,0.5,3,0.5\n",
         "^line 4: start_time_s: could not convert ''$"),
        (b"frame_index,start_time_s,row,luma\n0,0.5,0,0.5\n0,0.5,1,0.5\n"
         b"0, ,2,0.5\n0,0.5,3,0.5\n",
         "^line 4: start_time_s: could not convert ''$"),
        (_long_csv({30_000: "149,,198,0.5\n"}),
         "^line 30000: start_time_s: could not convert ''$"),
        (_long_csv({30_000: "149, ,198,0.5\n"}),
         "^line 30000: start_time_s: could not convert ''$"),
    ], ids=["non_utf8_field", "bad_field", "short_line", "long_line",
            "fractional_row", "empty_field", "runaway_quote", "inf_luma",
            "nan_start", "minus_inf_start", "duplicate_row", "row_gap",
            "long_duplicate_first", "long_inf_first", "long_blank_lines",
            "long_byte_in_chunk", "long_row_gap", "long_x85_byte",
            "long_blank_lines_duplicate", "long_crlf_cut", "long_cr_header",
            "empty_start_in_run", "blank_start_in_run",
            "long_empty_start_in_run", "long_blank_start_in_run"])
    def test_malformed_frames_rejected(self, tmp_path, raw, message):
        path = tmp_path / "frames.csv"
        path.write_bytes(raw)
        with pytest.raises(io.FileFormatError, match=message):
            io.read_frames_csv(path)

    def test_frames_and_rows_in_any_order(self, tmp_path):
        # a frame's start time is its first line's; later lines' are not
        # checked against it
        path = tmp_path / "frames.csv"
        path.write_bytes(b"frame_index,start_time_s,row,luma\r\n"
                         b"7,0.5,1,0.25\r\n2,0.125,0,1e-3\r\n"
                         b"7,9.0,0,-0.0\r\n7,0.5,2,3\r\n")
        samples = _frames(io.read_frames_csv(path, covered_rows=2))
        assert [(s.index, s.start_time_s, s.row_luma.tolist(), s.covered_rows)
                for s in samples] == [(2, 0.125, [1e-3], 1),
                                      (7, 0.5, [-0.0, 0.25, 3.0], 2)]
        assert math.copysign(1.0, samples[1].row_luma[0]) == -1.0

    @pytest.mark.parametrize("raw", [
        b"frame_index,start_time_s,row,luma",
        b"frame_index,start_time_s,row,luma\r\n",
        b"frame_index,start_time_s,row,luma\n\n\r\n\r",
    ], ids=["header_no_newline", "header_only", "blank_lines_only"])
    def test_body_without_rows_reads_as_no_frames(self, tmp_path, raw):
        path = tmp_path / "frames.csv"
        path.write_bytes(raw)
        assert io.read_frames_csv(path) == []

    def test_written_frames_read_back(self, tmp_path):
        blocks = [_block([k], [0.1 * k],
                         np.random.default_rng(k).random((1, 7)), 7)
                  for k in range(3)]
        samples = _frames(blocks)
        path = tmp_path / "frames.csv"
        io.write_frames_csv(path, blocks)
        got = _frames(io.read_frames_csv(path))
        assert [(s.index, s.start_time_s, s.row_luma.tobytes())
                for s in got] == [(s.index, s.start_time_s, s.row_luma.tobytes())
                                  for s in samples]

    @pytest.mark.parametrize("line_ends", [
        {b"\n": b"\r\n"},
        {b"\n": b"\r"},
        {b"luma\n": b"luma\r"},
    ], ids=["long_crlf", "long_cr", "long_cr_header"])
    def test_long_files_read_back_at_any_line_end(self, tmp_path, line_ends):
        # longer than one chunk: a chunk is cut after a line end, never
        # inside a CRLF, and a bare CR ends the header too
        (old, new), = line_ends.items()
        lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
        lf.write_bytes(_long_csv({}))
        other.write_bytes(_long_csv({}).replace(old, new))
        got, want = io.read_frames_csv(other), io.read_frames_csv(lf)
        assert len(want) == 1 and want[0].luma.shape == (200, 200)
        assert [(b.index.tobytes(), b.start_time_s.tobytes(),
                 b.luma.tobytes(), b.covered) for b in got] == [
            (b.index.tobytes(), b.start_time_s.tobytes(), b.luma.tobytes(),
             b.covered) for b in want]

    @pytest.mark.parametrize("body, starts", [
        ("0,0.5,0,1\n0, 0.5,1,1\n0,5e-1,2,1\n0,+0.50,3,1\n", [0.5]),
        # a frame's start is its first line's, whatever the others say
        ("0,0.25,1,1\n0,0.5,0,1\n0,0.75,2,1\n1,2,0,1\n1,2.5,1,1\n",
         [0.25, 2.0]),
        # start fields longer than 24 bytes: one in the middle of a run,
        # one whose first 32 bytes read as 0.0, one with trailing spaces
        ("0,0.5,0,1\n0,0.5" + "0" * 30 + ",1,1\n0,0.5,2,1\n"
         "1,0." + "0" * 40 + "1,0,1\n1,0.5,1,1\n2,1.25" + " " * 30 + ",0,1\n",
         [0.5, 1e-41, 1.25]),
        ("0,-0.0,0,1\n0,-0.0,1,1\n1,0.0,0,1\n2,-0.0,0,1\n",
         [-0.0, 0.0, -0.0]),
    ], ids=["one_start_spelled_four_ways", "first_line_start",
            "long_start_fields", "signed_zero_starts"])
    def test_start_texts_read_as_values(self, tmp_path, body, starts):
        path = tmp_path / "frames.csv"
        path.write_text(",".join(io.FRAME_CSV_HEADER) + "\n" + body)
        got = [s.start_time_s for s in _frames(io.read_frames_csv(path))]
        assert np.array(got).tobytes() == np.array(starts).tobytes()

    def test_line_shuffled_long_file_reads_back(self, tmp_path, monkeypatch):
        # a start time per frame and a luma per row; shuffled, the start
        # text changes on most lines, so each chunk after the first
        # converts every start field
        raw = _long_csv({2 + 200 * frame + row:
                         f"{frame},{frame / 8},{row},{row / 4}\n"
                         for frame in range(200) for row in range(200)})
        header, *body = raw.splitlines(keepends=True)
        order = np.random.default_rng(0).permutation(len(body))
        ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
        ordered.write_bytes(raw)
        shuffled.write_bytes(header + b"".join(body[k] for k in order))
        want = io.read_frames_csv(ordered)
        runs = []
        monkeypatch.setattr(io, "_load_runs", lambda lines, load=io._load_runs:
                            runs.append(len(lines)) or load(lines))
        got = io.read_frames_csv(shuffled)
        assert len(runs) == 1 and len(shuffled.read_bytes()) > io._CHUNK_BYTES
        assert len(want) == 1 and want[0].luma.shape == (200, 200)
        assert [(b.index.tobytes(), b.start_time_s.tobytes(),
                 b.luma.tobytes(), b.covered) for b in got] == [
            (b.index.tobytes(), b.start_time_s.tobytes(), b.luma.tobytes(),
             b.covered) for b in want]

    def test_rejected_long_file_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "frames.csv"
        path.write_bytes(_long_csv({40_001: "1,2,3\n"}))
        opened = []
        monkeypatch.setattr(io, "open", lambda *args, **kwargs: opened.append(
            args) or open(*args, **kwargs), raising=False)
        with pytest.raises(io.FileFormatError,
                           match="^line 40001: expected 4 fields, got 3$"):
            io.read_frames_csv(path)
        assert len(opened) == 1

    def test_read_peak_memory(self, tmp_path):
        # 200 000 rows in (frame, row) order, over about 30 chunks: the
        # reader holds its columns' chunk arrays, joins one column at a
        # time, and sorts nothing.  Traced on numpy 2.4.6: 40.4 bytes per
        # row; 66.4 for the reader that grew one 32-byte row table with
        # ndarray.resize and gathered sorted copies of its columns
        frames, rows = 1000, 200
        path = tmp_path / "frames.csv"
        path.write_text(",".join(io.FRAME_CSV_HEADER) + "\n" + "".join(
            f"{frame},{frame / 30!r},{row},{row / 7!r}\n"
            for frame in range(frames) for row in range(rows)))
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        try:
            blocks = io.read_frames_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(blocks) == 1 and blocks[0].luma.shape == (frames, rows)
        assert peak / (frames * rows) < 46


def _csv_writer_frames(path, blocks):
    """The frame CSV as the csv module writes it: the writer's reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(io.FRAME_CSV_HEADER)
        for sample in _frames(blocks):
            for row, luma in enumerate(sample.row_luma):
                writer.writerow([sample.index, repr(float(sample.start_time_s)),
                                 row, repr(float(luma))])


def _per_row_writer_frames(path, blocks):
    """The writer that formatted every row with its own f-string: the
    reference for the writer that formats each distinct value once."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(io.FRAME_CSV_HEADER) + "\r\n")
        for block in blocks:
            for index, start, luma in zip(
                    np.asarray(block.index).tolist(),
                    np.asarray(block.start_time_s, dtype=np.float64).tolist(),
                    np.asarray(block.luma, dtype=np.float64).tolist()):
                head = f"{index},{start!r},"
                fh.write("".join([f"{head}{row},{value!r}\r\n"
                                  for row, value in enumerate(luma)]))


_AWKWARD = [-0.0, 5e-324, 1e-17, 0.1 + 0.2, float("nan"), float("inf"),
            -float("inf"), 1.0, 0.0, 1 / 3]


@st.composite
def _frame_blocks(draw):
    """Blocks of 0-3 frames whose luma repeat values across frames and
    blocks from one small pool: both zeros, subnormals and any float."""
    pool = [0.0, -0.0, 5e-324, -2.5e-310,
            *draw(st.lists(st.floats(), max_size=6))]
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        frames, rows = draw(st.integers(0, 3)), draw(st.integers(0, 6))
        luma = draw(st.lists(st.sampled_from(pool), min_size=frames * rows,
                             max_size=frames * rows))
        index = draw(st.lists(st.integers(0, 1 << 40), min_size=frames,
                              max_size=frames))
        starts = draw(st.lists(st.floats(allow_nan=False), min_size=frames,
                               max_size=frames))
        blocks.append(_block(np.int64(index), np.float64(starts),
                             np.float64(luma).reshape(frames, rows), rows))
    return blocks


class TestWriteFramesCsv:
    @pytest.mark.parametrize("samples", [
        [],
        [_block([0], [0.0], [_AWKWARD], len(_AWKWARD))],
        # one block of five frames
        [_block(range(5), [0.0, 0.1 + 0.2, 1e-17, 5e-324, 12.5],
                [np.roll(_AWKWARD, k) for k in range(5)], 4)],
        # a frame of no rows, and float32 luma
        [_block(np.int64([3]), np.float64([0.7]), np.empty((1, 0)), 0),
         _block(np.int64([4]), [0.75], np.float32([[0.1, 0.9]]), 2)],
    ], ids=["no_frames", "one_frame", "five_frames", "numpy_scalars"])
    def test_matches_csv_writer(self, tmp_path, samples):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        io.write_frames_csv(got, samples)
        _csv_writer_frames(want, samples)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_frame_blocks())
    # one block with both zeros and a subnormal, a one-frame block and a
    # zero-frame block
    @example([_block([2, 5], [0.5, 1e-17], [[0.0, -0.0, 5e-324]] * 2, 3),
              _block([6], [2.0], [[-0.0, 0.0, 0.0]], 3),
              _block(np.int64([]), np.float64([]), np.empty((0, 4)), 4)])
    def test_matches_per_row_writer(self, tmp_path, blocks):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        io.write_frames_csv(got, blocks)
        _per_row_writer_frames(want, blocks)
        assert got.read_bytes() == want.read_bytes()


def _valid_files() -> dict[str, bytes]:
    """Small well-formed files of each kind the readers accept."""
    stream = ChipStream.from_chips(np.tile([0, 1, 1], 30), 1000.0)
    samples = [_block(range(2), [0.0, 0.05],
                      [np.linspace(0.0, 1.0, 6)] * 2, 6)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        io.write_chipstream_ascii(root / "ascii", stream)
        io.write_chipstream_packed(root / "packed", stream)
        io.write_frames_csv(root / "frames", samples)
        return {kind: (root / kind).read_bytes()
                for kind in ("ascii", "packed", "frames")}


_VALID_FILES = _valid_files()
_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.integers(0, 2000),
    st.one_of(st.sampled_from(list(b'01=,.-e"#\n\r\x00\x80\xff')),
              st.integers(0, 255)))


def _edited(data: bytes, edits) -> bytes:
    """``data`` with ``_EDITS`` applied in turn."""
    data = bytearray(data)
    for op, position, byte in edits:
        at = position % (len(data) + 1)
        if op == "replace" and at < len(data):
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        elif op == "delete" and at < len(data):
            del data[at]
        elif op == "truncate":
            del data[at:]
    return bytes(data)


def _located(exc: io.FileFormatError) -> bool:
    """Whether a frame-CSV rejection names its line or frame."""
    return str(exc).startswith(("line ", "frame "))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_VALID_FILES)),
       st.lists(_EDITS, min_size=1, max_size=4))
def test_mangled_files_fail_cleanly(tmp_path, kind, edits):
    path = tmp_path / kind
    path.write_bytes(_edited(_VALID_FILES[kind], edits))
    read = io.read_frames_csv if kind == "frames" else io.read_chipstream
    try:
        read(path)
    except io.FileFormatError as exc:
        # a clean rejection; any other exception fails the test
        assert kind != "frames" or _located(exc), exc


# --- the frame-CSV grammar against ground truth -----------------------------

def _one_underscore(text: str) -> str:
    return re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)


# how a line spells its integer and its float fields, and whether the
# grammar admits the spelling; a spelling that leaves the text as
# plain ("1_0" needs two digits) is admitted whatever its flag
_SPELLINGS = {
    "plain": (str, repr, True),
    "spaced": (lambda v: f" {v}\t", lambda v: f"\t{v!r} ", True),
    "exponent": (str, lambda v: f"{v:.16E}", True),
    "signed": (lambda v: f"{v:+d}", lambda v: f"{v:+.17g}", True),
    "float_int": (lambda v: f"{v}.0", repr, False),
    "underscore": (lambda v: _one_underscore(str(v)),
                   lambda v: _one_underscore(repr(v)), False),
    "hash": (lambda v: f"{v}#", lambda v: f"{v!r}#x", False),
    "quoted": (lambda v: f'"{v}"', lambda v: f'"{v!r}"', False),
    "separator": (lambda v: f"{v}\x1c", lambda v: f"\x1f{v!r}", False),
    "non_ascii_digit": (lambda v: f"{v}\u0968", lambda v: f"{v!r}\u0968",
                        False),
}
_HEADER = ",".join(io.FRAME_CSV_HEADER) + "\n"


def _expected_frames(lines):
    """The frames a file of these final (index, start, row, luma, ...)
    lines holds, by index with the start time of each frame's first
    line; None if the grammar rejects it."""
    frames: dict[int, tuple[float, dict[int, float]]] = {}
    for line in lines:
        if len(line) != 4:
            return None
        index, start, row, luma = line
        if not (-2**63 <= index < 2**63 and math.isfinite(start)
                and math.isfinite(luma)):
            return None
        rows = frames.setdefault(index, (start, {}))[1]
        if row in rows:
            return None
        rows[row] = luma
    if any(sorted(rows) != list(range(len(rows)))
           for _, rows in frames.values()):
        return None
    return [(index, start, [rows[r] for r in range(len(rows))])
            for index, (start, rows) in sorted(frames.items())]


@st.composite
def _frame_csvs(draw):
    """A frame CSV and the frames it holds (None if it is invalid).

    Up to four frames of 1-4 rows, each line with its own start time,
    lines shuffled.  At most one line is duplicated, dropped, widened or
    narrowed, and validity is decided from the lines that remain (a
    dropped last row leaves a valid file).  Each field is plain or takes
    one of the file's other spellings, each line its own line end (LF,
    CRLF or bare CR), maybe followed by one of the file's kinds of blank
    line.  Extreme files hold indexes at and past the int64 range and
    non-finite values.
    """
    extreme = draw(st.booleans())
    indices = draw(st.lists(
        st.integers(-3, 30) | st.sampled_from(
            [-2**63 - 1, -2**63, 2**63 - 1, 2**63] if extreme else [0]),
        unique=True, max_size=4))
    values = st.floats(-1e6, 1e6) | st.sampled_from(
        [-0.0, 5e-324, 1e308]
        + ([math.inf, -math.inf, math.nan] if extreme else []))
    lines = []
    for index in indices:
        for row in range(draw(st.integers(1, 4))):
            lines.append([index, draw(values), row, draw(values)])
    defect = draw(st.none() | st.sampled_from(["duplicate", "drop", "wide",
                                               "narrow"]))
    if lines and defect:
        k = draw(st.integers(0, len(lines) - 1))
        if defect == "duplicate":
            lines.append(list(lines[k]))
        elif defect == "drop":
            del lines[k]
        elif defect == "wide":
            lines[k].append(0)
        else:
            lines[k].pop()
    lines = [lines[k] for k in draw(st.permutations(range(len(lines))))]
    expected = _expected_frames(lines)
    spellings = ["plain"] + draw(st.lists(st.sampled_from(sorted(_SPELLINGS)),
                                          max_size=2))
    blanks = draw(st.sampled_from([[""], ["", "\n"], ["", "\n", " \n"]]))
    text = _HEADER
    valid = expected is not None
    for line in lines:
        fields = []
        for column, value in enumerate(line):
            spelling = _SPELLINGS[draw(st.sampled_from(spellings))]
            field = spelling[column % 2](value)
            valid &= (spelling[2]
                      or field == _SPELLINGS["plain"][column % 2](value))
            fields.append(field)
        text += ",".join(fields) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
        blank = draw(st.sampled_from(blanks))
        valid &= blank != " \n"
        text += blank
    return text, expected if valid else None


def _read_fields(path):
    """Every field of the frames read from ``path``, with scalar types;
    floats as bits."""
    return [(type(s.index), s.index, type(s.start_time_s),
             s.start_time_s.hex(), s.row_luma.dtype, s.row_luma.tobytes())
            for s in _frames(io.read_frames_csv(path))]


def _fields(frames):
    """:func:`_read_fields` of (index, start, luma list) frames."""
    return [(int, index, float, start.hex(), np.dtype(np.float64),
             np.array(luma, dtype=np.float64).tobytes())
            for index, start, luma in frames]


def _split_lines(data: bytes):
    """The rows of a file the reader accepted, read with str.split, int
    and float."""
    lines = (line.split(",") for line in data.decode("ascii").splitlines()[1:]
             if line)
    return [[int(index), float(start), int(row), float(luma)]
            for index, start, row, luma in lines]


class TestFramesCsvGrammar:
    """read_frames_csv accepts exactly the files of its grammar, reads
    them bit for bit, and names the line or frame of every rejection."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_frame_csvs())
    # numpy's default comment character would end the field at "#"
    @example((_HEADER + "0,0.5,0,1.5#x\n", None))
    # beyond Python's 4 300-digit int() limit and the csv module's
    # 131 072-character field limit
    @example((_HEADER + "0" * 5000 + "7,0.5,0,1.5\n", [(7, 0.5, [1.5])]))
    @example((_HEADER + "7,0.5,0,1." + "0" * 140000 + "\n",
              [(7, 0.5, [1.0])]))
    def test_generated_files(self, tmp_path, case):
        text, expected = case
        path = tmp_path / "frames.csv"
        path.write_bytes(text.encode("utf-8"))
        if expected is None:
            with pytest.raises(io.FileFormatError) as rejected:
                io.read_frames_csv(path)
            assert _located(rejected.value), rejected.value
        else:
            assert _read_fields(path) == _fields(expected)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_frame_csvs())
    def test_generated_files_across_chunks(self, tmp_path, monkeypatch,
                                           case):
        # read whole, then in chunks of a few dozen bytes, where duplicates,
        # gaps, blank lines and interleaved frames fall in different chunks:
        # the same frames, or the same located message
        text, expected = case
        path = tmp_path / "frames.csv"
        path.write_bytes(text.encode("utf-8"))
        results = []
        for chunk in (io._CHUNK_BYTES, 24):
            with monkeypatch.context() as patch:
                patch.setattr(io, "_CHUNK_BYTES", chunk)
                try:
                    results.append(_read_fields(path))
                except io.FileFormatError as exc:
                    assert _located(exc), exc
                    results.append(str(exc))
        whole, chunked = results
        assert chunked == whole
        if expected is not None:
            assert chunked == _fields(expected)
        else:
            assert isinstance(chunked, str), chunked

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_EDITS, min_size=1, max_size=4))
    def test_mangled_files(self, tmp_path, edits):
        data = _edited(_VALID_FILES["frames"], edits)
        path = tmp_path / "frames.csv"
        path.write_bytes(data)
        try:
            got = _read_fields(path)
        except io.FileFormatError as exc:
            assert _located(exc), exc
        else:
            expected = _expected_frames(_split_lines(data))
            assert expected is not None and got == _fields(expected)


# numeric flag values: extreme, negative, zero, non-numeric and ordinary
_NUMBERS = st.sampled_from([
    "0", "-0", "-1", "-5", "1", "7", "40", "0.5", "1.5", "1e-300", "5e-324",
    "2.2250738585072014e-308", "1e308", "-1e308", "1e400", "-1e400",
    "9" * 40, "1" + "0" * 400, "nan", "inf", "-inf", "", " ", "abc", "0x10",
    "1_0", "1e3", "3,", ",",
]) | st.integers(-10**6, 10**6).map(str) | st.floats(-1e6, 1e6).map(repr)
_NUMBER_LISTS = st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join)
# run lengths: --trials and --packets stay small
_COUNTS = st.sampled_from(["-1", "0", "1", "3", "", "abc", "1.5", "1e3",
                           "nan", "-1e400"])


class TestStudies:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["scheme"] for r in rows} == {"manchester", "4b6b", "8b10b"}
        assert any(r["status"] == "nonpositive_budget" for r in rows)

        reference = tmp_path / "sweep_reference.csv"
        with open(reference) as fh:
            ref_rows = list(csv.DictReader(fh))
        assert len(ref_rows) == 3
        for row in ref_rows:
            assert float(row["computed_limit_bps"]) > 0
            assert float(row["reported_limit_bps"]) > 0

    def test_der_study(self, tmp_path):
        out = tmp_path / "der.csv"
        assert run_cli("der", "--config", "table5_v2", "--trials", 300,
                       "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["packet_rate"]) == 20.0
        assert float(rows[0]["fps_floor"]) == 5.0
        assert float(rows[0]["der_empirical"]) == 0.0

    def test_der_simulates_the_configs_own_grid(self, tmp_path, monkeypatch):
        # three rows per chip: the study must slice frames on the config's
        # grid, so payloads decode and every miss at the 5 fps floor is seen
        estimates = []

        def recorded(*args):
            estimates.append(monte_carlo_der(*args))
            return estimates[-1]

        monkeypatch.setattr(cli, "monte_carlo_der", recorded)
        config = dataclasses.replace(PRESETS["table5_v2"], rows_per_chip=3,
                                     camera_rows=300, trials=300)
        path = tmp_path / "grid3.json"
        path.write_text(config.to_json())
        out = tmp_path / "der.csv"
        assert run_cli("der", "--config", path, "--out", out) == 0
        assert [e.transmitted for e in estimates] == [300]
        assert estimates[0].missed_true > 0
        assert estimates[0].undetected == 0
        with open(out) as fh:
            assert float(list(csv.DictReader(fh))[0]["der_empirical"]) == 0.0

    def test_der_links_are_summed(self, tmp_path):
        # 2 600 packets below the floor run as two links, 2 500 packets at
        # the config's seed s and 100 at s + 101, each drawing its payloads
        # one seed higher; the row sums them under one Wilson interval
        config = dataclasses.replace(PRESETS["table5_v2"], mean_fps=4.5,
                                     delta_fps=1.0, trials=2600)
        path = tmp_path / "under.json"
        path.write_text(config.to_json())
        out = tmp_path / "der.csv"
        assert run_cli("der", "--config", path, "--out", out) == 0

        s = config.seed
        links = [monte_carlo_der(dataclasses.replace(config, seed=seed,
                                                     trials=trials), seed + 1)
                 for seed, trials in ((s, 2500), (s + 101, 100))]
        transmitted = sum(e.transmitted for e in links)
        undetected = sum(e.undetected for e in links)
        assert undetected > 0
        want = tmp_path / "want.csv"
        with open(want, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fps_floor", "packet_rate", "der_formula",
                             "der_empirical", "ci_low", "ci_high"])
            writer.writerow([3.5, 20.0, float(links[0].der_formula),
                             undetected / transmitted,
                             *wilson_interval(undetected, transmitted)])
        assert out.read_bytes() == want.read_bytes()

    def test_der_requires_v2(self, tmp_path, capsys):
        out = tmp_path / "der.csv"
        assert run_cli("der", "--config", "table5_v1", "--trials", 10,
                       "--out", out) == 2

    def test_der_nonzero_below_floor(self, tmp_path):
        config = load_config("table5_v2")
        config.mean_fps, config.delta_fps = 4.0, 1.0
        config.trials = 400
        path = tmp_path / "under.json"
        path.write_text(config.to_json())
        out = tmp_path / "der.csv"
        assert run_cli("der", "--config", path, "--out", out) == 0
        with open(out) as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["der_empirical"]) > 0
        assert float(row["der_formula"]) > 0

    def test_fusion_study(self, tmp_path):
        out = tmp_path / "fusion.csv"
        assert run_cli("fusion", "--out", out, "--ratios", "0.5,1.0",
                       "--payload-bits", "40", "--packets", 10) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 ratios x fusion on/off
        assert set(rows[0]) == {"distance_ratio", "ds_length", "fusion",
                                "recovered_fraction"}

    def test_fusion_footprint_below_one_sf_rejected(self, tmp_path, capsys):
        # footprints of 0, 0 and 4 rows, which no 12-row start frame fits
        # in: every packet would be lost, so the study stops before any file
        out = tmp_path / "fusion.csv"
        assert run_cli("fusion", "--ratios", "1e300,1e6,50", "--packets", 5,
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert ("distance: the LED footprint spans 0 rows, fewer than the 12 "
                "rows of one start frame") in err
        assert not out.exists()

    def test_fusion_defaults_are_the_study_config(self, tmp_path, monkeypatch):
        studies = []
        monkeypatch.setattr(cli, "fusion_gain_experiment",
                            lambda study: studies.append(study) or [])
        assert run_cli("fusion", "--out", tmp_path / "fusion.csv") == 0
        assert studies == [FusionStudyConfig(payload_bits_grid=(175,))]

    @pytest.mark.parametrize("argv, flag", [
        (["fusion", "--ratios", "1,abc"], "--ratios"),
        (["fusion", "--payload-bits", "40,x"], "--payload-bits"),
        (["sweep", "--frequencies", "100,zz"], "--frequencies"),
        # non-finite values, which the ceiling arithmetic cannot take
        (["sweep", "--frequencies", "inf"], "--frequencies"),
        (["sweep", "--frequencies", "100,1e400"], "--frequencies"),
        (["sweep", "--frequencies", "nan"], "--frequencies"),
        (["sweep", "--fps-min", "inf"], "--fps-min"),
        (["sweep", "--fps-min", "1e400"], "--fps-min"),
        (["sweep", "--fps-min", "nan"], "--fps-min"),
        # non-finite ratios, as ExperimentConfig.validate() rejects them
        (["fusion", "--ratios", "inf"], "--ratios"),
        (["fusion", "--ratios", "0.5,nan"], "--ratios"),
        (["fusion", "--ratios", "1e400"], "--ratios"),
        # counts and seeds out of range, which the study cannot draw
        (["fusion", "--payload-bits", "-8"], "--payload-bits"),
        (["fusion", "--payload-bits", "40,0"], "--payload-bits"),
        (["fusion", "--packets", "0"], "--packets"),
        (["fusion", "--seed", "-1"], "--seed"),
    ])
    def test_malformed_list_flag_named(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "study.csv"
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv, "--out", out)
        assert exit_.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fps_min", ["1e308", "0", "-5"])
    def test_sweep_floor_rejected_before_any_file(self, tmp_path, capsys,
                                                  fps_min):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--fps-min", fps_min, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "fps_min" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "sweep_reference.csv").exists()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(st.just("sweep"), st.just("--frequencies"), _NUMBER_LISTS),
        st.tuples(st.just("sweep"), st.just("--fps-min"), _NUMBERS),
        st.tuples(st.just("der"), st.just("--seed"), _NUMBERS),
        st.tuples(st.just("der"), st.just("--trials"), _COUNTS),
        st.tuples(st.just("fusion"), st.just("--ratios"), _NUMBER_LISTS),
        st.tuples(st.just("fusion"), st.just("--payload-bits"), _NUMBER_LISTS),
        st.tuples(st.just("fusion"), st.just("--packets"), _COUNTS),
        st.tuples(st.just("fusion"), st.just("--seed"), _NUMBERS)))
    # a footprint beyond float range, and a sub-packet too long to draw
    @example(("fusion", "--ratios", "5e-324"))
    @example(("fusion", "--payload-bits", "1" + "0" * 400))
    def test_numeric_flags_exit_cleanly(self, flag):
        # one flag at a time at any value; the others stay small so that a
        # run takes well under a second
        command, name, value = flag
        small = {"sweep": [], "der": ["--config", "table5_v2", "--trials", "3"],
                 "fusion": ["--packets", "2", "--ratios", "1.0",
                            "--payload-bits", "40"]}[command]
        err = StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "study.csv"
            argv = [command, *small, f"{name}={value}", "--out", str(out)]
            with contextlib.redirect_stdout(StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exit_:  # argparse rejected the value
                    code = exit_.code
            written = sorted(path.name for path in Path(tmp).iterdir())
        errors = [line for line in err.getvalue().splitlines()
                  if "error:" in line]
        assert code in (0, 1, 2), (argv, code)
        if code:
            # one error line, or one config error line per problem
            assert errors and (len(errors) == 1 or all(
                line.startswith("config error: ") for line in errors)), argv
            assert written == [], (argv, written)
        else:
            assert errors == [] and "study.csv" in written, argv

    def test_failed_simulate_leaves_no_partial_file(self, tmp_path,
                                                    small_config, monkeypatch,
                                                    capsys):
        stream, out = tmp_path / "stream.chips", tmp_path / "frames.csv"
        assert run_cli("encode", "--config", small_config, "--out", stream) == 0
        sample_frames = cli.sample_frames

        def failing(*args, **kwargs):  # the first block is written
            yield next(iter(sample_frames(*args, **kwargs)))
            raise ValueError("sampler failed after one block")

        def simulate(sampler):
            monkeypatch.setattr(cli, "sample_frames", sampler)
            return run_cli("simulate", "--config", small_config,
                           "--stream", stream, "--out", out)

        files = sorted(tmp_path.iterdir())
        assert simulate(failing) == 1
        assert "sampler failed" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == files  # no CSV, no temporary
        # a new output has the mode open(path, "w") gives, and a rewrite
        # keeps an existing output's mode
        assert simulate(sample_frames) == 0
        opened = tmp_path / "opened"
        opened.write_text("")
        assert out.stat().st_mode == opened.stat().st_mode
        out.chmod(0o640)
        assert simulate(sample_frames) == 0
        assert out.stat().st_mode & 0o777 == 0o640
        # a failed rewrite leaves the existing output as it was
        written, files = out.read_bytes(), sorted(tmp_path.iterdir())
        assert simulate(failing) == 1
        assert out.read_bytes() == written
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("command, fails", [
        ("encode", "chips_to_ascii"), ("decode", "hex_rows")])
    def test_failed_encode_or_decode_leaves_no_partial_file(
            self, tmp_path, small_config, monkeypatch, command, fails):
        # each fails inside its writer, after the file is opened
        stream, frames = tmp_path / "stream.chips", tmp_path / "frames.csv"
        assert run_cli("encode", "--config", small_config, "--out", stream) == 0
        assert run_cli("simulate", "--config", small_config, "--stream",
                       stream, "--out", frames) == 0
        files = sorted(tmp_path.iterdir())

        def failing(*args):
            raise ValueError(f"{fails} failed")

        monkeypatch.setattr(io, fails, failing)
        out = tmp_path / "out"
        given = {"encode": ["--out", out],
                 "decode": ["--frames", frames, "--payload-out", out]}
        assert run_cli(command, "--config", small_config,
                       *given[command]) == 1
        assert sorted(tmp_path.iterdir()) == files

    def test_missing_directory_names_the_output(self, tmp_path, small_config,
                                                monkeypatch, capsys):
        # the error names the output as given, not its temporary file
        monkeypatch.chdir(tmp_path)
        files = sorted(tmp_path.iterdir())
        assert run_cli("encode", "--config", small_config,
                       "--out", "nodir/x.chips") == 1
        err = capsys.readouterr().err
        assert "'nodir/x.chips'" in err and ".tmp" not in err
        assert sorted(tmp_path.iterdir()) == files

    def test_only_regular_files_are_replaced(self, tmp_path, small_config,
                                             capsys):
        # a link's target is rewritten and the link kept; what is not a
        # regular file (a directory here, a device alike) is refused
        target, link = tmp_path / "target.chips", tmp_path / "link.chips"
        target.write_text("old")
        link.symlink_to(target)
        assert run_cli("encode", "--config", small_config, "--out", link) == 0
        assert link.is_symlink() and io.read_chipstream(target).chips.size
        folder = tmp_path / "folder"
        folder.mkdir()
        assert run_cli("encode", "--config", small_config,
                       "--out", folder) == 1
        assert "not a regular file" in capsys.readouterr().err
        assert list(folder.iterdir()) == []

    def test_presets_listing(self, capsys):
        assert run_cli("presets") == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out


class TestConfigRoundtrip:
    def test_json_roundtrip(self):
        config = PRESETS["table5_v2"]
        again = ExperimentConfig.from_json(config.to_json())
        assert again == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="bogus_field"):
            ExperimentConfig.from_json('{"bogus_field": 1}')

    def test_presets_all_valid(self):
        for name, preset in PRESETS.items():
            assert preset.validate() == [], name

    @pytest.mark.parametrize("name", PRESETS)
    def test_single_field_edits_named_or_built(self, name):
        # validate() never raises; a rejected edit is named first, and an
        # accepted one leaves a config whose pipeline objects all build
        hints = typing.get_type_hints(ExperimentConfig)
        numeric = [field for field, hint in hints.items()
                   if {int, float} & (set(typing.get_args(hint)) or {hint})]
        for field in numeric:
            for value in (0, -1, math.nan, math.inf, -math.inf):
                config = dataclasses.replace(PRESETS[name], **{field: value})
                problems = config.validate()
                if problems:
                    prefix = problems[0].split(": ")[0]
                    assert field in prefix.split("/"), (field, value, problems)
                else:
                    for build in (config.plan, config.camera,
                                  config.geometry, config.decoder):
                        build()

    def test_footprint_of_one_start_frame_needed(self):
        # table8_manchester_1k's SF spans 6 chips of 2 rows: a footprint of
        # 11 rows is rejected, one of 12 passes
        preset = PRESETS["table8_manchester_1k"]
        subpacket_rows = preset.ds_chips * preset.rows_per_chip
        for rows, problems in (
                (11, ["distance: the LED footprint spans 11 rows, fewer than "
                      "the 12 rows of one start frame"]), (12, [])):
            config = dataclasses.replace(preset, reference_distance=1.0,
                                         distance=subpacket_rows / rows)
            assert config.validate() == problems

    # table5_v2 has no pad: two 50-chip sub-packets of 2 rows a chip.  A
    # Manchester v2 slot of 50 chips (1 000 Hz, 20 packets/s) holds one
    # 26-chip sub-packet of 6-bit payloads and 24 chips of pad
    @pytest.mark.parametrize("config, rows, window", [
        (PRESETS["table5_v2"], 199, "0.025 s of two 50-chip sub-packets and "
         "the 0-chip slot pad"),
        (PRESETS["table5_v2"], 200, None),
        *[(ExperimentConfig(version="v2", packet_rate=20.0, payload_bits=6,
                            mean_fps=10.3, delta_fps=0.6), rows,
           "0.076 s of two 26-chip sub-packets and the 24-chip slot pad"
           if rows < 152 else None) for rows in (104, 106, 151, 152)]])
    def test_v2_capture_window_counts_the_pad(self, config, rows, window):
        config = dataclasses.replace(config, camera_rows=rows)
        assert config.validate() == ([] if window is None else [
            f"camera_rows: rolling exposure time "
            f"{config.camera().capture_time_s:g} s is below the {window}; a "
            f"frame could then miss every sub-packet boundary and break gap "
            f"counting"])

    def test_required_repetitions_satisfied_by_presets(self):
        for name, preset in PRESETS.items():
            if preset.version == "v1":
                assert preset.plan().repetitions >= preset.required_repetitions(), name
