"""File formats: chip streams (ASCII and packed binary), frame CSVs, manifests.

ASCII chip streams carry a key=value header followed by 0/1 lines; the
packed format stores the same header fields in a fixed binary layout with
the chips bit-packed MSB-first.  Frame CSVs are one row per sensor row
with a mandatory header, dot-decimal floats.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np

from .camera import FrameSample
from .rll import ChipStream, ascii_to_chips, chips_to_ascii

PACKED_MAGIC = b"OCHP"
PACKED_VERSION = 1
_ASCII_WRAP = 80


class FileFormatError(ValueError):
    pass


def _clock_hz(value, where: str) -> float:
    try:
        clock_hz = float(value)
    except ValueError:
        clock_hz = float("nan")
    if not 0 < clock_hz < math.inf:
        raise FileFormatError(
            f"{where}: clock_hz must be a positive number, got {value!r}")
    return clock_hz


def write_chipstream_ascii(path, stream: ChipStream) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"clock_hz={stream.clock_hz!r}\n")
        fh.write(f"chips={len(stream.chips)}\n")
        text = chips_to_ascii(stream.chips)
        for i in range(0, len(text), _ASCII_WRAP):
            fh.write(text[i:i + _ASCII_WRAP] + "\n")


def write_chipstream_packed(path, stream: ChipStream) -> None:
    packed = np.packbits(stream.chips.astype(np.uint8))
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC)
        fh.write(struct.pack("<IdQ", PACKED_VERSION, stream.clock_hz,
                             len(stream.chips)))
        fh.write(packed.tobytes())


def read_chipstream(path) -> ChipStream:
    """Read either chip-stream format, detected from the leading bytes."""
    raw = Path(path).read_bytes()
    if raw.startswith(PACKED_MAGIC):
        header = struct.Struct("<IdQ")
        if len(raw) < len(PACKED_MAGIC) + header.size:
            raise FileFormatError("packed chip stream header truncated")
        version, clock_hz, count = header.unpack_from(raw, len(PACKED_MAGIC))
        if version != PACKED_VERSION:
            raise FileFormatError(f"unsupported packed version {version}")
        clock_hz = _clock_hz(clock_hz, "packed header")
        payload = np.frombuffer(raw, dtype=np.uint8,
                                offset=len(PACKED_MAGIC) + header.size)
        chips = np.unpackbits(payload)[:count].astype(np.int8)
        if len(chips) != count:
            raise FileFormatError("packed chip stream truncated")
        return ChipStream(chips, clock_hz)

    clock_hz = None
    count = None
    lines: list[np.ndarray] = []
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"line {lineno}: not UTF-8 text") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            if key == "clock_hz":
                clock_hz = _clock_hz(value, f"line {lineno}")
            elif key == "chips":
                try:
                    count = int(value)
                except ValueError:
                    raise FileFormatError(
                        f"line {lineno}: chips must be an integer, "
                        f"got {value!r}") from None
            else:
                raise FileFormatError(f"line {lineno}: unknown header {key!r}")
        else:
            try:
                lines.append(ascii_to_chips(line))
            except ValueError:
                raise FileFormatError(
                    f"line {lineno}: expected 0/1 chips") from None
    if clock_hz is None or count is None:
        raise FileFormatError("missing clock_hz/chips header")
    chips = np.concatenate([np.empty(0, dtype=np.int8), *lines])
    if len(chips) != count:
        raise FileFormatError(
            f"chip count mismatch: header says {count}, file has {len(chips)}"
        )
    return ChipStream(chips, clock_hz)


FRAME_CSV_HEADER = ["frame_index", "start_time_s", "row", "luma"]


def write_frames_csv(path, samples: list[FrameSample]) -> None:
    """One CSV line per sensor row, floats as their repr, CRLF line ends
    (what the csv module's default dialect writes for these fields)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FRAME_CSV_HEADER) + "\r\n")
        for sample in samples:
            head = f"{sample.index},{float(sample.start_time_s)!r},"
            luma = np.asarray(sample.row_luma, dtype=np.float64).tolist()
            fh.write("".join([f"{head}{row},{value!r}\r\n"
                              for row, value in enumerate(luma)]))


def read_frames_csv(path, covered_rows: int | None = None) -> list[FrameSample]:
    """Rebuild frame samples, by frame index, from CSV; coverage defaults
    to the full sensor.

    After the header, each line is one row: integer ``frame_index`` and
    ``row``, finite ``start_time_s`` and ``luma``.  A frame's rows must be
    exactly ``0..n-1``, in any order, and frames may interleave; a frame's
    start time is that of its first line, the later lines' start times
    are only checked to be finite.

    A well-formed file is parsed in one numpy pass (:func:`_parse_frames`).
    Anything that pass does not accept gets the per-line pass
    (:func:`_parse_frame_lines`), which raises a :class:`FileFormatError`
    naming the line or frame at fault.  The per-line pass also accepts
    input the numpy pass does not (quoted fields, ``1_0``, indexes beyond
    int64), and is the only reader of it.
    """
    frames = _parse_frames(path)
    if frames is None:
        frames = _parse_frame_lines(path)
    samples = []
    for index, start, luma in frames:
        cov = len(luma) if covered_rows is None else min(covered_rows, len(luma))
        samples.append(FrameSample(index, start, luma, cov))
    return samples


_FRAME_CSV_DTYPE = np.dtype([("index", np.int64), ("start", np.float64),
                             ("row", np.int64), ("luma", np.float64)])
# numpy's parser reads the ASCII separators \x1c-\x1f as blanks, which
# int() and float() reject, and misreads some non-ASCII characters as
# digits; a file made only of these bytes parses the same both ways
_PLAIN_BYTES = bytes(range(0x20, 0x7f)) + b"\t\n\r"


def _parse_frames(path) -> list[tuple[int, float, np.ndarray]] | None:
    """(index, start time, luma) per frame, by index, from one
    ``np.loadtxt`` pass streamed from the file; None for a file it does
    not accept as well-formed."""
    with open(path, "rb") as raw:
        for chunk in iter(functools.partial(raw.read, 1 << 20), b""):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
    with open(path, "r", encoding="ascii") as fh:
        try:
            if fh.readline().removesuffix("\n") != ",".join(FRAME_CSV_HEADER):
                return None
            # any warning is a rejection too: numpy before 2.0 reads "1.0"
            # as an integer with only a DeprecationWarning, and an empty
            # body is a UserWarning
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=_FRAME_CSV_DTYPE, delimiter=",",
                                   comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    start, luma = table["start"], table["luma"]
    if not (np.isfinite(start).all() and np.isfinite(luma).all()):
        return None
    # by index, then row
    order = np.lexsort((table["row"], table["index"]))
    index = table["index"][order]
    cuts = np.flatnonzero(index[1:] != index[:-1]) + 1
    first = np.concatenate([[0], cuts])
    sizes = np.diff(np.append(first, len(order)))
    # rows 0..n-1 per frame: no gap, no duplicate
    if not np.array_equal(table["row"][order],
                          np.arange(len(order)) - np.repeat(first, sizes)):
        return None
    first_line = np.minimum.reduceat(order, first)
    return list(zip(index[first].tolist(), start[first_line].tolist(),
                    np.split(luma[order], cuts)))


def _parse_frame_lines(path) -> list[tuple[int, float, np.ndarray]]:
    """:func:`_parse_frames`, one csv line at a time: the diagnostic pass,
    which names the line or frame a file is rejected for."""
    by_frame: dict[int, dict] = {}
    # bytes that are not UTF-8 become lone surrogates, which no number
    # parses, so they are reported on their line like any bad field
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FileFormatError("line 1: empty file, expected header")
            if header != FRAME_CSV_HEADER:
                raise FileFormatError(
                    f"line 1: expected header {','.join(FRAME_CSV_HEADER)}"
                )
            for lineno, fields in enumerate(reader, start=2):
                if not fields:
                    continue
                if len(fields) != 4:
                    raise FileFormatError(f"line {lineno}: expected 4 columns")
                try:
                    index = int(fields[0])
                    start = float(fields[1])
                    row = int(fields[2])
                    luma = float(fields[3])
                except ValueError as exc:
                    raise FileFormatError(f"line {lineno}: {exc}") from None
                for column, value in ((1, start), (3, luma)):
                    if not math.isfinite(value):
                        raise FileFormatError(
                            f"line {lineno}: {FRAME_CSV_HEADER[column]} must "
                            f"be finite, got {fields[column]!r}")
                entry = by_frame.setdefault(index, {"start": start, "rows": {}})
                if row in entry["rows"]:
                    raise FileFormatError(f"line {lineno}: duplicate row {row}")
                entry["rows"][row] = luma
        except csv.Error as exc:
            # e.g. a stray quote that runs a field past the csv field limit
            raise FileFormatError(f"line {reader.line_num}: {exc}") from None

    frames = []
    for index in sorted(by_frame):
        entry = by_frame[index]
        rows = entry["rows"]
        if sorted(rows) != list(range(len(rows))):
            raise FileFormatError(f"frame {index}: non-contiguous row numbers")
        luma = np.array([rows[r] for r in range(len(rows))], dtype=np.float64)
        frames.append((index, entry["start"], luma))
    return frames


def write_manifest(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_payload_bits(path, payloads: list[np.ndarray]) -> None:
    """Recovered payloads as one hex string per line."""
    from .decoder import bits_to_hex

    with open(path, "w", encoding="utf-8") as fh:
        for payload in payloads:
            fh.write(bits_to_hex(payload) + "\n")


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Raw bytes bit-packed MSB-first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).astype(np.int8)


def split_payloads(bits: np.ndarray, payload_bits: int) -> list[np.ndarray]:
    """Cut a bit vector into whole payloads; the tail remainder is dropped."""
    count = len(bits) // payload_bits
    if count == 0:
        raise ValueError(
            f"payload source holds {len(bits)} bits, fewer than one "
            f"{payload_bits}-bit payload"
        )
    return [bits[i * payload_bits:(i + 1) * payload_bits] for i in range(count)]
