"""Command-line driver: files, determinism, validation, and studies."""

import csv
import dataclasses
import json
import math
import re
import struct
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from occsim import cli, io
from occsim.analysis import FusionStudyConfig, monte_carlo_der
from occsim.cli import main
from occsim.configs import PRESETS, ExperimentConfig, load_config
from occsim.experiment import random_payloads, run_link
from occsim.camera import FrameSample
from occsim.rll import ChipStream


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
        sf = np.flatnonzero(_sf_match(stream.chips, RllScheme.MANCHESTER))
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
        samples = io.read_frames_csv(frames)
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

    def test_comments_blank_lines_and_wrap(self, tmp_path):
        chips = np.tile(np.array([0, 1, 1], dtype=np.int8), 60)
        path = tmp_path / "stream.chips"
        io.write_chipstream_ascii(path, ChipStream(chips, 1000.0))
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


class TestReadFramesCsv:
    @pytest.mark.parametrize("raw, message", [
        (b"frame_index,start_time_s,row,luma\n0,0.0,0,0.\xff5\n",
         "line 2: could not convert"),
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
    ], ids=["non_utf8_field", "runaway_quote", "inf_luma", "nan_start",
            "minus_inf_start", "duplicate_row", "row_gap"])
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
        samples = io.read_frames_csv(path, covered_rows=2)
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
        samples = [FrameSample(k, 0.1 * k, np.random.default_rng(k).random(7),
                               7) for k in range(3)]
        path = tmp_path / "frames.csv"
        io.write_frames_csv(path, samples)
        got = io.read_frames_csv(path)
        assert [(s.index, s.start_time_s, s.row_luma.tobytes())
                for s in got] == [(s.index, s.start_time_s, s.row_luma.tobytes())
                                  for s in samples]


def _csv_writer_frames(path, samples):
    """The frame CSV as the csv module writes it: the writer's reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(io.FRAME_CSV_HEADER)
        for sample in samples:
            for row, luma in enumerate(sample.row_luma):
                writer.writerow([sample.index, repr(float(sample.start_time_s)),
                                 row, repr(float(luma))])


_AWKWARD = [-0.0, 5e-324, 1e-17, 0.1 + 0.2, float("nan"), float("inf"),
            -float("inf"), 1.0, 0.0, 1 / 3]


class TestWriteFramesCsv:
    @pytest.mark.parametrize("samples", [
        [],
        [FrameSample(0, 0.0, np.array(_AWKWARD), len(_AWKWARD))],
        [FrameSample(k, start, np.roll(_AWKWARD, k), 4)
         for k, start in enumerate([0.0, 0.1 + 0.2, 1e-17, 5e-324, 12.5])],
        [FrameSample(3, np.float64(0.7), np.empty(0), 0),
         FrameSample(np.int64(4), 0.75, np.float32([0.1, 0.9]), 2)],
    ], ids=["no_frames", "one_frame", "five_frames", "numpy_scalars"])
    def test_matches_csv_writer(self, tmp_path, samples):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        io.write_frames_csv(got, samples)
        _csv_writer_frames(want, samples)
        assert got.read_bytes() == want.read_bytes()


def _valid_files() -> dict[str, bytes]:
    """Small well-formed files of each kind the readers accept."""
    stream = ChipStream(np.tile(np.array([0, 1, 1], dtype=np.int8), 30),
                        1000.0)
    samples = [FrameSample(k, 0.05 * k, np.linspace(0.0, 1.0, 6), 6)
               for k in range(2)]
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
            for s in io.read_frames_csv(path)]


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
    ])
    def test_malformed_list_flag_named(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "study.csv"
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv, "--out", out)
        assert exit_.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

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

    def test_required_repetitions_satisfied_by_presets(self):
        for name, preset in PRESETS.items():
            if preset.version == "v1":
                assert preset.plan().repetitions >= preset.required_repetitions(), name
