"""File formats: chip streams (ASCII and packed binary), frame CSVs, manifests.

ASCII chip streams carry a key=value header followed by 0/1 lines; the
packed format stores the same header fields in a fixed binary layout with
the chips bit-packed MSB-first.  A frame CSV is a mandatory header, then
one line per sensor row, in the one grammar :func:`read_frames_csv` states.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np

from .camera import FrameBlock
from .decoder import hex_rows
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
    lines: list[tuple[int, str]] = []
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
            try:
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
                    raise FileFormatError(
                        f"line {lineno}: unknown header {key!r}")
            except FileFormatError:
                _chip_lines(lines)  # a faulty chip line above is named first
                raise
        else:
            lines.append((lineno, line))
    chips = _chip_lines(lines)
    if clock_hz is None or count is None:
        raise FileFormatError("missing clock_hz/chips header")
    if len(chips) != count:
        raise FileFormatError(
            f"chip count mismatch: header says {count}, file has {len(chips)}"
        )
    return ChipStream(chips, clock_hz)


def _chip_lines(lines: list[tuple[int, str]]) -> np.ndarray:
    """The chips of (line number, text) body lines, read in one pass; the
    lines are read one by one only to name the first at fault."""
    try:
        return ascii_to_chips("".join(text for _, text in lines))
    except ValueError:
        for lineno, text in lines:
            try:
                ascii_to_chips(text)
            except ValueError:
                raise FileFormatError(
                    f"line {lineno}: expected 0/1 chips") from None
        raise


FRAME_CSV_HEADER = ["frame_index", "start_time_s", "row", "luma"]


def write_frames_csv(path, blocks) -> None:
    """One CSV line per sensor row, a block at a time, floats as their
    repr, CRLF line ends (what the csv module's default dialect writes for
    these fields).

    Each distinct luma value of a block is formatted once, keyed by its
    bit pattern (so ``-0.0`` stays apart from ``0.0``), and the block's
    text is one join over its frame heads, row tokens and value texts.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FRAME_CSV_HEADER) + "\r\n")
        for block in blocks:
            luma = np.ascontiguousarray(block.luma, dtype=np.float64)
            frames, rows = luma.shape
            bits, which = np.unique(luma.view(np.int64).ravel(),
                                    return_inverse=True)
            values = np.array([f"{v!r}\r\n"
                               for v in bits.view(np.float64).tolist()],
                              dtype=object)
            heads = np.array([f"{index},{start!r}," for index, start in zip(
                np.asarray(block.index).tolist(),
                np.asarray(block.start_time_s, dtype=np.float64).tolist())],
                dtype=object)
            line = np.empty((frames, rows, 3), dtype=object)
            line[..., 0] = heads[:, None]
            line[..., 1] = np.array([f"{row}," for row in range(rows)],
                                    dtype=object)
            line[..., 2] = values[which.reshape(frames, rows)]
            fh.write("".join(line.ravel().tolist()))


def read_frames_csv(path, covered_rows: int | None = None) -> list[FrameBlock]:
    """Rebuild frames, by frame index, from CSV, as one block per run of
    frames with one row count; coverage defaults to the full sensor.

    The grammar: the header line exactly, then one row per non-empty
    line as ``np.loadtxt`` reads it with delimiter ``,`` and no comments
    (int64 ``frame_index`` and ``row``, float64 ``start_time_s`` and
    ``luma``, spaces and tabs around a field, no quoting); printable
    ASCII, tab, CR and LF only; finite floats.  A frame's rows are
    exactly ``0..n-1``, in any order, and frames may interleave; its
    start time is its first line's.  No rows read as no frames.

    :func:`_parse_frames` is the only reader; a file it rejects goes to
    :func:`_diagnose`, only to name the first line or frame at fault.
    """
    frames = _parse_frames(path)
    if frames is None:
        raise _diagnose(path)
    index, start, sizes, luma = frames
    blocks = []
    first = np.flatnonzero(np.diff(sizes, prepend=-1))  # a run's first frame
    offsets = (np.cumsum(sizes) - sizes).tolist()  # a frame's first luma
    for lo, hi in zip(first.tolist(), [*first[1:].tolist(), len(sizes)]):
        rows = int(sizes[lo])
        cov = rows if covered_rows is None else min(covered_rows, rows)
        begin = (rows - cov) // 2
        run = luma[offsets[lo]:offsets[lo] + (hi - lo) * rows]
        blocks.append(FrameBlock(index[lo:hi], start[lo:hi],
                                 run.reshape(hi - lo, rows),
                                 slice(begin, begin + cov)))
    return blocks


_FRAME_CSV_DTYPE = np.dtype([("index", np.int64), ("start", np.float64),
                             ("row", np.int64), ("luma", np.float64)])
# numpy's parser reads the ASCII separators \x1c-\x1f and some other
# bytes as blanks and misreads some non-ASCII characters as digits
_PLAIN_BYTES = bytes(range(0x20, 0x7f)) + b"\t\n\r"


def _load_rows(lines, dtype=_FRAME_CSV_DTYPE) -> np.ndarray:
    """The body grammar: one ``np.loadtxt`` over an open text file or a
    list of lines, raising ValueError or Warning for what it rejects."""
    # any warning is a rejection too: numpy before 2.0 reads "1.0" as an
    # integer with only a DeprecationWarning, and an empty body is a
    # UserWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          ndmin=1)


def _parse_frames(path) -> tuple[np.ndarray, ...] | None:
    """Each frame's index and start time and row count, by index, and
    every luma by frame, then row, from one :func:`_load_rows` pass
    streamed from the file; None for a file it does not accept."""
    with open(path, "rb") as raw:
        for chunk in iter(functools.partial(raw.read, 1 << 20), b""):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
    with open(path, "r", encoding="ascii") as fh:
        if fh.readline().removesuffix("\n") != ",".join(FRAME_CSV_HEADER):
            return None
        body = fh.tell()
        try:
            table = _load_rows(fh)
        except (ValueError, Warning):
            # only empty lines: a header-only file, as a zero-length
            # simulation writes it
            fh.seek(body)
            if any(line != "\n" for line in fh):
                return None
            table = np.empty(0, dtype=_FRAME_CSV_DTYPE)
    start, luma = table["start"], table["luma"]
    if not (np.isfinite(start).all() and np.isfinite(luma).all()):
        return None
    # by index, then row
    order = np.lexsort((table["row"], table["index"]))
    index = table["index"][order]
    new = np.ones(len(index), dtype=bool)
    new[1:] = index[1:] != index[:-1]
    first = np.flatnonzero(new)  # each frame's first row
    sizes = np.diff(np.append(first, len(order)))
    # rows 0..n-1 per frame: no gap, no duplicate
    if not np.array_equal(table["row"][order],
                          np.arange(len(order)) - np.repeat(first, sizes)):
        return None
    first_line = np.minimum.reduceat(order, first)
    return index[first], start[first_line], sizes, luma[order]


def _diagnose(path) -> FileFormatError:
    """Why :func:`_parse_frames` rejects the file: the first line at
    fault, else the first frame whose rows are not ``0..n-1``.  The body
    is read by the same grammar in chunks of lines, and the first chunk
    that fails is halved down to its first faulty line; the lines before
    that one are checked for duplicate rows by column."""
    tables, numbers = [], [np.empty(0, int)]
    fault, end = None, 1  # the last line read
    # one character per byte, so a byte numpy misreads is still seen
    with open(path, "r", encoding="latin-1") as fh:
        if fh.readline().removesuffix("\n") != ",".join(FRAME_CSV_HEADER):
            return FileFormatError(
                f"line 1: expected header {','.join(FRAME_CSV_HEADER)}")
        while not fault and (lines := [*itertools.islice(fh, 1 << 14)]):
            number = np.arange(end + 1, end + 1 + len(lines))
            end += len(lines)
            if "\n" in lines:  # empty lines hold no row
                number = number[keep := [line != "\n" for line in lines]]
                lines = [*itertools.compress(lines, keep)]
            lo, mid, hi = 0, len(lines), len(lines)
            while lo < mid:  # lines[:lo] are read, lines[lo:hi] hold a fault
                try:
                    table = _load_rows(lines[lo:mid])
                    if "".join(lines[lo:mid]).encode("latin-1").translate(
                            None, _PLAIN_BYTES) or not np.isfinite(
                            [table["start"], table["luma"]]).all():
                        raise ValueError("a byte or float out of the grammar")
                    tables.append(table)
                    lo = mid
                except (ValueError, Warning):
                    hi = mid
                mid = (lo + hi) // 2
            numbers.append(number[:lo])
            if lo < len(lines):
                line = lines[lo].removesuffix("\n")
                fault = f"line {number[lo]}: {_fault(line)}"
    table = np.concatenate([np.empty(0, _FRAME_CSV_DTYPE), *tables])
    order = np.lexsort((table["row"], table["index"]))  # stable: by line
    index, row = table["index"][order], table["row"][order]
    again = order[1:][(index[1:] == index[:-1]) & (row[1:] == row[:-1])]
    if len(again):  # before any faulty line: the first to repeat a row
        k = again.min()
        fault = (f"line {np.concatenate(numbers)[k]}: "
                 f"duplicate row {table['row'][k]}")
    frames, first, count = np.unique(index, return_index=True,
                                     return_counts=True)
    gaps = frames[(row[first] != 0) | (row[first + count - 1] != count - 1)]
    if not fault and len(gaps):
        fault = f"frame {gaps[0]}: non-contiguous row numbers"
    # no fault only if the file changed between the two readings
    return FileFormatError(
        fault or "rejected, though no line or frame is at fault")


def _fault(line: str) -> str:
    """What the grammar rejects in one body line that it rejects: its
    field count, else its first field that does not read alone, else the
    line as numpy reads it, else a byte out of the grammar, else a float
    that is not finite."""
    fields = line.split(",")
    if len(fields) != len(FRAME_CSV_HEADER):
        return f"expected {len(FRAME_CSV_HEADER)} fields, got {len(fields)}"
    for column, (name, text) in enumerate(zip(FRAME_CSV_HEADER, fields)):
        try:
            _load_rows([text], _FRAME_CSV_DTYPE[column])
        except (ValueError, Warning):
            return f"{name}: could not convert {text.strip()!r}"
    try:
        (_, start, _, _), = _load_rows([line]).tolist()
    except (ValueError, Warning) as exc:
        return str(exc)
    bad = line.encode("latin-1").translate(None, _PLAIN_BYTES)
    column = 3 if math.isfinite(start) else 1
    return (f"byte {bad[:1]!r} is not printable ASCII" if bad else
            f"{FRAME_CSV_HEADER[column]} must be finite, got "
            f"{fields[column].strip()!r}")


def write_manifest(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_payload_bits(path, payload: np.ndarray) -> None:
    """Recovered payloads, one row each, as one hex string per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{text}\n" for text in hex_rows(payload)))


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
