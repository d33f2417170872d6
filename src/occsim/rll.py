"""Run-length limited line codes for on-off keyed LED transmission.

Three codes are supported: Manchester (1 data bit -> 2 chips), 4B6B
(4 -> 6) and 8B10B (8 -> 10, with running-disparity tracking).  A "chip"
is one binary LED state at the optical clock rate.  Each code carries a
fixed start-frame (SF) chip pattern whose internal run of identical chips
is longer than any run the code can produce, so an exact pattern match
never fires inside coded data.

The 4B6B and 8B10B codebooks are loaded from plain-text files in
``occsim/data`` so the mappings can be audited line by line.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np


class RllScheme(Enum):
    MANCHESTER = "manchester"
    FOUR_B_SIX_B = "4b6b"
    EIGHT_B_TEN_B = "8b10b"


_PREAMBLE = {
    RllScheme.MANCHESTER: "011100",
    RllScheme.FOUR_B_SIX_B: "0011111000",
    RllScheme.EIGHT_B_TEN_B: "0000111111111100000",
}

_BLOCK_BITS = {
    RllScheme.MANCHESTER: 1,
    RllScheme.FOUR_B_SIX_B: 4,
    RllScheme.EIGHT_B_TEN_B: 8,
}

_CODEWORD_CHIPS = {
    RllScheme.MANCHESTER: 2,
    RllScheme.FOUR_B_SIX_B: 6,
    RllScheme.EIGHT_B_TEN_B: 10,
}

# Manchester convention used everywhere, including asynchronous bits.
MANCHESTER_PAIRS = {1: (1, 0), 0: (0, 1)}


def _load_codebook(name: str, columns: int):
    table = []
    text = importlib.resources.files("occsim.data").joinpath(name).read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != columns:
            raise ValueError(f"{name}: malformed line {line!r}")
        table.append(fields)
    return table


def _bits(text: str):
    return tuple(int(c) for c in text)


_RAW_4B6B = _load_codebook("codebook_4b6b.txt", 2)
ENCODE_4B6B = {int(v, 2): _bits(w) for v, w in _RAW_4B6B}
DECODE_4B6B = {w: v for v, w in ENCODE_4B6B.items()}

_RAW_8B10B = _load_codebook("codebook_8b10b.txt", 3)
# keyed by (byte, running disparity in {-1, +1})
ENCODE_8B10B = {}
DECODE_8B10B = {}
for _value, _neg, _pos in _RAW_8B10B:
    _byte = int(_value, 2)
    for _rd, _word in ((-1, _bits(_neg)), (+1, _bits(_pos))):
        ENCODE_8B10B[(_byte, _rd)] = _word
        _prev = DECODE_8B10B.setdefault(_word, _byte)
        if _prev != _byte:
            raise ValueError(f"8B10B codebook collision on {_word}")

if len(ENCODE_4B6B) != 16 or len(ENCODE_8B10B) != 512:
    raise ValueError("incomplete line-code codebook data")
# codeword chips indexed by value (4B6B) or by (byte, disparity is +1)
_WORDS_4B6B = np.array([ENCODE_4B6B[v] for v in range(16)], dtype=np.int8)
_WORDS_8B10B = np.array([[ENCODE_8B10B[(b, rd)] for rd in (-1, +1)]
                         for b in range(256)], dtype=np.int8)
_UNBALANCED_8B10B = _WORDS_8B10B[:, 0].sum(axis=1) != 5
# the matrix encoder tracks 8B10B disparity per byte, not per codeword: a
# byte's two codewords must both flip it, or both keep it
if (_UNBALANCED_8B10B != (_WORDS_8B10B[:, 1].sum(axis=1) != 5)).any():
    raise ValueError("8B10B codebook: a byte's codewords differ in balance")


@dataclass(frozen=True)
class ChipStream:
    """A timed binary LED waveform: chip values at a fixed optical clock."""

    chips: np.ndarray
    clock_hz: float

    def __post_init__(self):
        chips = np.asarray(self.chips, dtype=np.int8)
        if chips.ndim != 1:
            raise ValueError("chips must be one-dimensional")
        if not _is_binary(chips):
            raise ValueError("chips must be 0/1 valued")
        if not 0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be positive and finite")
        object.__setattr__(self, "chips", chips)

    @property
    def duration_s(self) -> float:
        return len(self.chips) / self.clock_hz


def efficiency(scheme: RllScheme) -> Fraction:
    """Data-rate efficiency of the code (payload bits per chip)."""
    return Fraction(_BLOCK_BITS[scheme], _CODEWORD_CHIPS[scheme])


@functools.cache
def preamble(scheme: RllScheme) -> np.ndarray:
    """Start-frame chip pattern marking each sub-packet boundary (read-only)."""
    chips = np.array(_bits(_PREAMBLE[scheme]), dtype=np.int8)
    chips.flags.writeable = False
    return chips


def codeword_chips(scheme: RllScheme) -> int:
    return _CODEWORD_CHIPS[scheme]


def payload_chip_count(payload_bits: int, scheme: RllScheme) -> int:
    """Chips occupied by an RLL-coded payload of the given bit length."""
    block = _BLOCK_BITS[scheme]
    if payload_bits % block:
        raise ValueError(
            f"{scheme.value} payload length must be a multiple of {block} bits"
        )
    return payload_bits // block * _CODEWORD_CHIPS[scheme]


def _is_binary(values: np.ndarray) -> bool:
    """Whether an int8 array holds only 0 and 1 (negatives view as > 1)."""
    return not values.size or values.view(np.uint8).max() <= 1


def _pack_bits_msb(bits: np.ndarray, width: int) -> np.ndarray:
    """Values of consecutive ``width``-bit words along the last axis."""
    weights = 1 << np.arange(width - 1, -1, -1)
    words = bits.shape[-1] // width
    return bits.reshape(bits.shape[:-1] + (words, width)) @ weights


def encode_rll(bits, scheme: RllScheme) -> np.ndarray:
    """Encode payload bits along the last axis into line-coded chips.

    Every row of a packets x bits matrix is encoded as a stream of its
    own, with one codeword-table lookup for the whole matrix.  8B10B
    starts each row at running disparity -1; the disparity carried across
    codewords keeps any encoded stream balanced within +/-2 chips.
    """
    bits = np.asarray(bits, dtype=np.int8)
    if not _is_binary(bits):
        raise ValueError("payload bits must be 0/1 valued")
    block = _BLOCK_BITS[scheme]
    if bits.shape[-1] % block:
        raise ValueError(
            f"{scheme.value} requires a payload length divisible by {block}, "
            f"got {bits.shape[-1]}"
        )

    if scheme is RllScheme.MANCHESTER:
        out = np.empty(bits.shape[:-1] + (2 * bits.shape[-1],), dtype=np.int8)
        out[..., 0::2] = bits
        out[..., 1::2] = 1 - bits
        return out

    values = _pack_bits_msb(bits, block)
    if scheme is RllScheme.FOUR_B_SIX_B:
        words = _WORDS_4B6B[values]
    else:
        # the disparity before word k is -1 flipped once per unbalanced
        # word before it; a byte's two codewords share their balance
        unbalanced = _UNBALANCED_8B10B[values]
        flips = np.cumsum(unbalanced, axis=-1) - unbalanced
        words = _WORDS_8B10B[values, flips % 2]
    return words.reshape(bits.shape[:-1] + (words.shape[-2] * words.shape[-1],))


@functools.cache
def _codeword_table(scheme: RllScheme) -> np.ndarray:
    """Codeword value, or -1 if invalid, indexed by its chips packed MSB first."""
    if scheme is RllScheme.MANCHESTER:
        book = {pair: bit for bit, pair in MANCHESTER_PAIRS.items()}
    else:
        book = DECODE_4B6B if scheme is RllScheme.FOUR_B_SIX_B else DECODE_8B10B
    width = _CODEWORD_CHIPS[scheme]
    table = np.full(1 << width, -1, dtype=np.int16)
    table[_pack_bits_msb(np.array(list(book)), width)[:, 0]] = list(book.values())
    table.flags.writeable = False
    return table


def codeword_values(chips, scheme: RllScheme) -> np.ndarray:
    """Value of the codeword starting at each chip position along the last
    axis, -1 where the chips there form none: one table lookup for a whole
    chip array."""
    chips = np.asarray(chips, dtype=np.int8)
    if not _is_binary(chips):
        raise ValueError("chips must be 0/1 valued")
    width = _CODEWORD_CHIPS[scheme]
    n = max(chips.shape[-1] - width + 1, 0)
    # a codeword's chips fit in 16 bits
    words = np.zeros(chips.shape[:-1] + (n,), dtype=np.int16)
    for k in range(width):
        words <<= 1
        words |= chips[..., k:k + n]
    return _codeword_table(scheme).take(words)


@functools.cache
def _bits_table(scheme: RllScheme) -> np.ndarray:
    """Bits of codeword value v at v + 1, of -1 (all ones) at 0, as words."""
    width = _BLOCK_BITS[scheme]
    bits = np.arange(-1, 1 << width)[:, None] >> np.arange(width - 1, -1, -1)
    words = (bits & 1).astype(np.int8).view(f"u{width}")[:, 0]
    words.flags.writeable = False
    return words


def codeword_bits(values, scheme: RllScheme) -> np.ndarray:
    """MSB-first data bits of codeword values, or -1, along the last axis."""
    rows = np.add(values, 1, dtype=np.intp)  # value v's bits are row v + 1
    return _bits_table(scheme).take(rows).view(np.int8)


def chips_to_ascii(chips) -> str:
    """Chips as a string of '0'/'1' characters."""
    chips = np.asarray(chips, dtype=np.int8).ravel()
    if not _is_binary(chips):
        raise ValueError("chips must be 0/1 valued")
    return (chips.view(np.uint8) + ord("0")).tobytes().decode("ascii")


def ascii_to_chips(text: str) -> np.ndarray:
    """Chips from '0'/'1' text; whitespace is ignored."""
    raw = np.frombuffer("".join(text.split()).encode(), dtype=np.uint8)
    chips = raw - ord("0")  # every byte but '0' and '1' lands above 1
    if not _is_binary(chips):
        raise ValueError("chip text must contain only 0/1")
    return chips.astype(np.int8)
