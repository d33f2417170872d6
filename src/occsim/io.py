"""File formats: chip streams (ASCII and packed binary), frame CSVs, manifests.

ASCII chip streams carry a key=value header followed by 0/1 lines; the
packed format stores the same header fields in a fixed binary layout with
the chips bit-packed MSB-first.  A frame CSV is a mandatory header, then
one line per sensor row, in the one grammar :func:`read_frames_csv` states.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np

from .camera import FrameBlock, covered_slice
from .decoder import hex_rows
from .rll import ChipStream, ascii_to_chips, chips_to_ascii

PACKED_MAGIC = b"OCHP"
PACKED_VERSION = 1
_PACKED_HEADER = struct.Struct("<IdQ")  # version, clock_hz, chip count
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


@contextlib.contextmanager
def replacing(path):
    """``path`` (a link's target) opened for UTF-8 text, no newline
    translation (bytes go to its ``buffer``), at a temporary name beside it
    with the mode ``open(path, "w")`` gives: renamed to ``path`` when the
    block ends, removed if it raises.  Only a regular file is replaced."""
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():  # a device is never replaced
        raise OSError(f"{target}: not a regular file")
    temporary = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named as open(path, "w") names it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):  # a rewrite's mode
            shutil.copymode(target, temporary)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def write_csv(path, header: list[str], rows) -> None:
    """A header line, then a line per row, as the csv module writes them."""
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_chipstream_ascii(path, stream: ChipStream) -> None:
    with replacing(path) as fh:
        fh.write(f"clock_hz={stream.clock_hz!r}\n")
        fh.write(f"chips={stream.count}\n")
        text = chips_to_ascii(stream.chips)
        for i in range(0, len(text), _ASCII_WRAP):
            fh.write(text[i:i + _ASCII_WRAP] + "\n")


def write_chipstream_packed(path, stream: ChipStream) -> None:
    """The header, then the stream's packed bytes as they are."""
    with replacing(path) as fh:
        fh.buffer.write(PACKED_MAGIC + _PACKED_HEADER.pack(
            PACKED_VERSION, stream.clock_hz, stream.count))
        fh.buffer.write(stream.packed.tobytes())


def read_chipstream(path) -> ChipStream:
    """Read either chip-stream format, detected from the leading bytes."""
    raw = Path(path).read_bytes()
    if raw.startswith(PACKED_MAGIC):
        if len(raw) < len(PACKED_MAGIC) + _PACKED_HEADER.size:
            raise FileFormatError("packed chip stream header truncated")
        version, clock_hz, count = _PACKED_HEADER.unpack_from(
            raw, len(PACKED_MAGIC))
        if version != PACKED_VERSION:
            raise FileFormatError(f"unsupported packed version {version}")
        clock_hz = _clock_hz(clock_hz, "packed header")
        payload = np.frombuffer(raw, dtype=np.uint8,
                                offset=len(PACKED_MAGIC) + _PACKED_HEADER.size)
        size = -(-count // 8)
        if len(payload) < size:
            raise FileFormatError("packed chip stream truncated")
        # the chips' bytes; trailing bytes and padding bits are ignored
        packed = payload[:size].copy()
        if count % 8:
            packed[-1] &= (0xFF << (8 - count % 8)) & 0xFF
        return ChipStream(packed, count, clock_hz)

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
    return ChipStream.from_chips(chips, clock_hz)


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
    with replacing(path) as fh:
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

    The file is read once, in chunks of lines up to the first that
    fails, which is halved down to its first faulty line.  Each run of
    equal start texts in a chunk is converted once (:func:`_load_runs`)
    until a chunk's start text changes on more than half its rows, as it
    does in a line-shuffled file; later chunks convert every start field.
    Each column is joined from its chunks' arrays once, at the end.  Rows
    already in (frame, row) order are not sorted: each block is a view.
    """
    header = ",".join(FRAME_CSV_HEADER)
    parts = {name: [np.empty(0, dtype)]  # the rows before any fault
             for name, (dtype, _) in _FRAME_CSV_DTYPE.fields.items()}
    blank, fault, end = [], None, 0  # empty lines' numbers; the last line read
    per_line = False  # set once a chunk's start text changes on most rows
    with open(path, "rb") as fh:
        for lines, clean in _line_chunks(fh):
            if not end and lines[:1] != [header]:
                raise FileFormatError(f"line 1: expected header {header}")
            lo, mid, hi = int(not end), clean, min(clean + 1, len(lines))
            while lo < mid:  # lines[:lo] are read, lines[lo:hi] hold a fault
                try:  # empty lines hold no row
                    if not any(lines[lo:mid]):
                        rows = np.empty(0, dtype=_FRAME_CSV_DTYPE)
                    elif per_line:
                        rows = _load_rows(lines[lo:mid])
                    else:
                        rows, runs = _load_runs(lines[lo:mid])
                        per_line = 2 * runs > len(rows["row"])
                    if not all(np.isfinite(rows[name]).all()
                               for name in ("start", "luma")):
                        raise ValueError("a float that is not finite")
                except (ValueError, Warning):
                    hi = mid
                else:
                    for name, part in parts.items():  # one plain array each
                        part.append(np.ascontiguousarray(rows[name]))
                    del rows  # a chunk's parsed text is dropped as it is read
                    if len(parts["row"][-1]) < mid - lo:
                        blank += [end + 1 + k for k in range(lo, mid)
                                  if not lines[k]]
                    lo = mid
                mid = (lo + hi) // 2
            if lo < len(lines):
                fault = f"line {end + 1 + lo}: {_fault(lines[lo])}"
                break
            end += len(lines)
    # each column is joined once, and its chunks' arrays dropped
    index, row = (np.concatenate(parts.pop(name)) for name in ("index", "row"))
    order = None  # the line order of the rows by frame, then row
    if not ((index[1:] > index[:-1])
            | (index[1:] == index[:-1]) & (row[1:] >= row[:-1])).all():
        order = np.lexsort((row, index))  # stable: by line
        index = index[order]  # one gather at a time
        row = row[order]
    new = np.ones(len(index), dtype=bool)
    new[1:] = index[1:] != index[:-1]
    first = np.flatnonzero(new)  # each frame's first row
    sizes = np.diff(np.append(first, len(index)))
    again = np.flatnonzero(~new[1:] & (row[1:] == row[:-1])) + 1
    if len(again):  # before any faulty line: the first to repeat a row
        at = again if order is None else order[again]
        k = int(at.argmin())
        line = int(at[k]) + 2
        for number in blank:  # ascending: each at or above the row moves it
            line += number <= line
        fault = f"line {line}: duplicate row {row[again[k]]}"
    gaps = (row[first] != 0) | (row[first + sizes - 1] != sizes - 1)
    if fault or gaps.any():
        raise FileFormatError(fault or f"frame {index[first][gaps][0]}: "
                              "non-contiguous row numbers")
    del row  # before luma is joined
    start = np.concatenate(parts.pop("start"))[
        first if order is None else np.minimum.reduceat(order, first)]
    index, luma = index[first], np.concatenate(parts.pop("luma"))
    if order is not None:
        luma = luma[order]
    blocks = []
    runs = np.flatnonzero(np.diff(sizes, prepend=-1))  # a run's first frame
    for lo, hi in zip(runs.tolist(), [*runs[1:].tolist(), len(sizes)]):
        rows = int(sizes[lo])
        cov = rows if covered_rows is None else min(covered_rows, rows)
        run = luma[first[lo]:first[lo] + (hi - lo) * rows]
        blocks.append(FrameBlock(index[lo:hi], start[lo:hi],
                                 run.reshape(hi - lo, rows),
                                 covered_slice(rows, cov)))
    return blocks


_FRAME_CSV_DTYPE = np.dtype([("index", np.int64), ("start", np.float64),
                             ("row", np.int64), ("luma", np.float64)])
_START_TEXT_DTYPE = np.dtype([("index", np.int64), ("start", "S32"),
                              ("row", np.int64), ("luma", np.float64)])
# numpy's parser reads the ASCII separators \x1c-\x1f and some other
# bytes as blanks and misreads some non-ASCII characters as digits
_PLAIN_BYTES = bytes(range(0x20, 0x7f)) + b"\t\n\r"
_CHUNK_BYTES = 1 << 18  # the most a chunk of lines reads from the file


def _line_chunks(fh):
    """A binary file's lines, by :func:`_split_lines`, in ``_CHUNK_BYTES``
    chunks cut after a line end, not inside a CRLF; the last may be empty."""
    rest = b""
    while data := fh.read(_CHUNK_BYTES):
        data = rest + data
        cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, -1) + 1
        if cut:
            yield _split_lines(data[:cut])
        rest = data[cut:]
    yield _split_lines(rest)


def _split_lines(chunk: bytes) -> tuple[list[str], int]:
    """A chunk's lines without their ends, and how many of the first
    hold only plain bytes.  A chunk with other bytes is read as latin-1
    and split at CR and LF only (``str.splitlines`` also splits at
    ``\\x85`` and ``\\x1c``-``\\x1e``)."""
    if not chunk.translate(None, _PLAIN_BYTES):
        lines = chunk.decode("ascii").splitlines()
        return lines, len(lines)
    lines = chunk.splitlines()
    return [line.decode("latin-1") for line in lines], next(
        k for k, line in enumerate(lines) if line.translate(None, _PLAIN_BYTES))


def _load_rows(lines, dtype=_FRAME_CSV_DTYPE) -> np.ndarray:
    """The body grammar: one ``np.loadtxt`` over a list of lines, raising
    ValueError or Warning for what it rejects."""
    # any warning is a rejection too: numpy before 2.0 reads "1.0" as an
    # integer with only a DeprecationWarning, and an empty body is a
    # UserWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          ndmin=1)


def _load_runs(lines) -> tuple[np.ndarray | dict, int]:
    """:func:`_load_rows` of lines, or its columns by name, with each run
    of equal ``start_time_s`` texts converted once; and the number of runs.

    The start field is read as 32 bytes of text, a run is found by
    comparing adjacent rows' bytes as ``uint64`` words, and each run's
    first text goes through :func:`_load_rows` on its own, the grammar's
    float64 field converter.  Where a start field may not fit (any of
    its last 8 bytes set), or fewer values than texts come back (an
    empty field is an empty line, which ``loadtxt`` skips), the lines
    are read by :func:`_load_rows` alone.
    """
    text = _load_rows(lines, _START_TEXT_DTYPE)
    # a row is 7 words; the start field's 32 bytes, words 1 to 4, one by one
    words = text.view(np.uint64).reshape(len(text), 7).T[1:5]
    new = np.ones(len(text), dtype=bool)
    new[1:] = np.logical_or.reduce([word[1:] != word[:-1] for word in words])
    first = np.flatnonzero(new)
    if words[3].any():  # a start field that may not fit
        return _load_rows(lines), len(first)
    values = _load_rows([token.decode() for token in
                         text["start"][first].tolist()], np.float64)
    if len(values) < len(first):  # an empty field
        return _load_rows(lines), len(first)
    start = np.repeat(values, np.diff(first, append=len(text)))
    return {"index": text["index"], "start": start, "row": text["row"],
            "luma": text["luma"]}, len(first)


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
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_payload_bits(path, payload: np.ndarray) -> None:
    """Recovered payloads, one row each, as one hex string per line."""
    with replacing(path) as fh:
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
