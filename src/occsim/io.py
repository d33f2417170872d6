"""File formats: chip streams (ASCII and packed binary), frame CSVs, manifests.

ASCII chip streams carry a key=value header followed by 0/1 lines; the
packed format stores the same header fields in a fixed binary layout with
the chips bit-packed MSB-first.  A frame CSV is a mandatory header, then
one line per sensor row, in the one grammar :func:`read_frames_csv` states.
"""

from __future__ import annotations

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
    samples = []
    for index, start, luma in frames:
        cov = len(luma) if covered_rows is None else min(covered_rows, len(luma))
        samples.append(FrameSample(index, start, luma, cov))
    return samples


_FRAME_CSV_DTYPE = np.dtype([("index", np.int64), ("start", np.float64),
                             ("row", np.int64), ("luma", np.float64)])
# numpy's parser reads the ASCII separators \x1c-\x1f and some other
# bytes as blanks and misreads some non-ASCII characters as digits
_PLAIN_BYTES = bytes(range(0x20, 0x7f)) + b"\t\n\r"


def _load_rows(lines) -> np.ndarray:
    """The body grammar: one ``np.loadtxt`` over an open text file or a
    list of lines, raising ValueError or Warning for what it rejects."""
    # any warning is a rejection too: numpy before 2.0 reads "1.0" as an
    # integer with only a DeprecationWarning, and an empty body is a
    # UserWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype=_FRAME_CSV_DTYPE, delimiter=",",
                          comments=None, ndmin=1)


def _parse_frames(path) -> list[tuple[int, float, np.ndarray]] | None:
    """(index, start time, luma) per frame, by index, from one
    :func:`_load_rows` pass streamed from the file; None for a file it
    does not accept."""
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
            return [] if all(line == "\n" for line in fh) else None
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


def _diagnose(path) -> FileFormatError:
    """Why :func:`_parse_frames` rejects the file: the first line at
    fault, each line checked on its own by the same grammar, else the
    first frame whose rows are not ``0..n-1``."""
    rows: dict[int, set[int]] = {}
    # one character per byte, so a byte numpy misreads is still seen
    with open(path, "r", encoding="latin-1") as fh:
        if fh.readline().removesuffix("\n") != ",".join(FRAME_CSV_HEADER):
            return FileFormatError(
                f"line 1: expected header {','.join(FRAME_CSV_HEADER)}")
        for lineno, line in enumerate(fh, start=2):
            line = line.removesuffix("\n")
            if not line:
                continue
            try:
                (index, start, row, luma), = _load_rows([line]).tolist()
            except (ValueError, Warning) as exc:
                return FileFormatError(f"line {lineno}: {exc}")
            bad = line.encode("latin-1").translate(None, _PLAIN_BYTES)
            if bad:
                return FileFormatError(
                    f"line {lineno}: byte {bad[:1]!r} is not printable ASCII")
            for column, value in ((1, start), (3, luma)):
                if not math.isfinite(value):
                    text = line.split(",")[column].strip()
                    return FileFormatError(
                        f"line {lineno}: {FRAME_CSV_HEADER[column]} must "
                        f"be finite, got {text!r}")
            if row in rows.setdefault(index, set()):
                return FileFormatError(f"line {lineno}: duplicate row {row}")
            rows[index].add(row)
    gaps = [index for index, seen in rows.items()
            if min(seen) != 0 or max(seen) != len(seen) - 1]
    if gaps:
        return FileFormatError(f"frame {min(gaps)}: non-contiguous row numbers")
    # reached only if the file changed between the two readings
    return FileFormatError("rejected, though no line or frame is at fault")


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
