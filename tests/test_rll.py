"""Line-code constants, roundtrips, balance, and preamble uniqueness."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occsim.rll import (
    DECODE_8B10B,
    ENCODE_4B6B,
    ENCODE_8B10B,
    MANCHESTER_PAIRS,
    ChipStream,
    RllScheme,
    ascii_to_chips,
    chips_to_ascii,
    codeword_bits,
    codeword_chips,
    codeword_values,
    efficiency,
    encode_rll,
    preamble,
)

ALL_SCHEMES = list(RllScheme)

# The property the SF uniqueness tests check: the longest run of identical
# chips that codewords can produce, across codeword boundaries too (Ab
# adjacency adds one where a test says so).  Each preamble holds a strictly
# longer run (3 / 5 / 10), which makes an exact preamble match unambiguous.
MAX_DATA_RUN = {
    RllScheme.MANCHESTER: 2,
    RllScheme.FOUR_B_SIX_B: 4,
    RllScheme.EIGHT_B_TEN_B: 5,
}

# frozen copy of the published VLC 4B6B table the codec must reproduce
VLC_4B6B_TABLE = {
    0x0: "001110", 0x1: "001101", 0x2: "010011", 0x3: "010110",
    0x4: "010101", 0x5: "100011", 0x6: "100110", 0x7: "100101",
    0x8: "011001", 0x9: "011010", 0xA: "011100", 0xB: "110001",
    0xC: "110010", 0xD: "101001", 0xE: "101010", 0xF: "101100",
}


def bits(text):
    return np.array([int(c) for c in text], dtype=np.int8)


def decode(chips, scheme):
    """Data bits of the whole codewords in chips, read back to back; every
    codeword must be valid."""
    values = codeword_values(chips, scheme)[::codeword_chips(scheme)]
    assert (values >= 0).all()
    return codeword_bits(values, scheme)


def max_run(seq) -> int:
    return max(len(list(g)) for _, g in itertools.groupby(seq))


class TestConstants:
    def test_efficiency_exact(self):
        assert efficiency(RllScheme.MANCHESTER) == Fraction(1, 2)
        assert efficiency(RllScheme.FOUR_B_SIX_B) == Fraction(4, 6)
        assert efficiency(RllScheme.EIGHT_B_TEN_B) == Fraction(8, 10)

    def test_preambles_exact(self):
        assert chips_to_ascii(preamble(RllScheme.MANCHESTER)) == "011100"
        assert chips_to_ascii(preamble(RllScheme.FOUR_B_SIX_B)) == "0011111000"
        assert chips_to_ascii(preamble(RllScheme.EIGHT_B_TEN_B)) == \
            "0000111111111100000"

    def test_preamble_is_read_only(self):
        with pytest.raises(ValueError):
            preamble(RllScheme.MANCHESTER)[0] = 1
        assert chips_to_ascii(preamble(RllScheme.MANCHESTER)) == "011100"

    def test_4b6b_codebook_matches_published_table(self):
        for value, word in VLC_4B6B_TABLE.items():
            assert ENCODE_4B6B[value] == tuple(int(c) for c in word)


def _ref_encode_rll(bits, scheme):
    """Chips of one payload, one codeword at a time, 8B10B carrying its
    running disparity from -1 across codewords."""
    if scheme is RllScheme.MANCHESTER:
        return [c for b in bits for c in MANCHESTER_PAIRS[int(b)]]
    width = 4 if scheme is RllScheme.FOUR_B_SIX_B else 8
    values = [int("".join(str(int(b)) for b in bits[k:k + width]), 2)
              for k in range(0, len(bits), width)]
    if scheme is RllScheme.FOUR_B_SIX_B:
        return [c for v in values for c in ENCODE_4B6B[v]]
    chips, rd = [], -1
    for v in values:
        word = ENCODE_8B10B[(v, rd)]
        chips.extend(word)
        if sum(word) != 5:
            rd = -rd
    return chips


class TestEncode:
    def test_manchester_convention(self):
        assert encode_rll([1, 0], RllScheme.MANCHESTER).tolist() == [1, 0, 0, 1]

    def test_4b6b_nibble_zero(self):
        out = encode_rll([0, 0, 0, 0], RllScheme.FOUR_B_SIX_B)
        assert chips_to_ascii(out) == VLC_4B6B_TABLE[0x0]

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_empty_input(self, scheme):
        assert len(encode_rll([], scheme)) == 0
        assert len(decode([], scheme)) == 0

    @pytest.mark.parametrize("bits", [[0, 2], [1, -1]])
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="0/1"):
            encode_rll(bits, RllScheme.MANCHESTER)

    def test_block_size_errors_name_scheme(self):
        with pytest.raises(ValueError, match="4"):
            encode_rll([1, 0, 1], RllScheme.FOUR_B_SIX_B)
        with pytest.raises(ValueError, match="8"):
            encode_rll([1] * 12, RllScheme.EIGHT_B_TEN_B)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_SCHEMES), st.integers(0, 4), st.integers(0, 6),
           st.integers(0, 2**32 - 1))
    def test_matrix_rows_encode_alone(self, scheme, rows, words, seed):
        # a packets x bits matrix encodes each row as its own stream, the
        # per-codeword reference's chips; 8B10B restarts at disparity -1
        block = {RllScheme.MANCHESTER: 1, RllScheme.FOUR_B_SIX_B: 4,
                 RllScheme.EIGHT_B_TEN_B: 8}[scheme]
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(rows, words * block), dtype=np.int8)
        out = encode_rll(matrix, scheme)
        assert out.dtype == np.int8
        assert out.shape == (rows, words * codeword_chips(scheme))
        for row, chips in zip(matrix, out):
            assert chips.tolist() == _ref_encode_rll(row, scheme)
            assert encode_rll(row, scheme).tolist() == chips.tolist()

    def test_output_length_matches_efficiency(self):
        for scheme, n in ((RllScheme.MANCHESTER, 7),
                          (RllScheme.FOUR_B_SIX_B, 16),
                          (RllScheme.EIGHT_B_TEN_B, 24)):
            out = encode_rll([0] * n, scheme)
            assert len(out) == n / efficiency(scheme)


class TestDecode:
    def test_manchester_roundtrip_example(self):
        assert decode([1, 0, 0, 1], RllScheme.MANCHESTER).tolist() == [1, 0]

    def test_invalid_manchester_symbol(self):
        values = codeword_values([1, 1, 0, 0], RllScheme.MANCHESTER)[::2]
        assert values[0] == -1

    def test_invalid_position_reported(self):
        chips = np.concatenate([encode_rll([1, 0], RllScheme.MANCHESTER),
                                [1, 1]])
        values = codeword_values(chips, RllScheme.MANCHESTER)[::2]
        assert values.tolist() == [1, 0, -1]

    @pytest.mark.parametrize("chips", [[1, 2], [-1, 0]])
    def test_non_binary_chips_rejected(self, chips):
        with pytest.raises(ValueError, match="0/1"):
            decode(chips, RllScheme.MANCHESTER)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_codeword_bits_of_every_value(self, scheme, dtype):
        # every value a codeword reads as, -1 (invalid: all ones) included,
        # against the shift-and-mask form, along a row and down a column;
        # int16 is what codeword_values gives
        width = int(codeword_chips(scheme) * efficiency(scheme))
        values = np.arange(-1, 1 << width)
        want = ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1
                ).astype(np.int8)
        for given_values, bits in (
                (values, want.ravel()), (values[None], want.reshape(1, -1)),
                (values[:, None], want),
                (np.zeros((0, 3)), np.zeros((0, 3 * width), np.int8))):
            got = codeword_bits(given_values.astype(dtype), scheme)
            assert got.dtype == np.int8
            assert got.shape == bits.shape
            assert got.tolist() == bits.tolist()


class TestRoundtrip:
    def test_4b6b_exhaustive(self):
        for value in range(16):
            payload = bits(format(value, "04b"))
            chips = encode_rll(payload, RllScheme.FOUR_B_SIX_B)
            assert decode(chips, RllScheme.FOUR_B_SIX_B).tolist() \
                == payload.tolist()

    def test_8b10b_exhaustive_bytes(self):
        for value in range(256):
            payload = bits(format(value, "08b"))
            chips = encode_rll(payload, RllScheme.EIGHT_B_TEN_B)
            assert decode(chips, RllScheme.EIGHT_B_TEN_B).tolist() \
                == payload.tolist()

    def test_manchester_long_random_stream(self):
        rng = np.random.default_rng(5)
        payload = rng.integers(0, 2, size=10_000).astype(np.int8)
        chips = encode_rll(payload, RllScheme.MANCHESTER)
        assert np.array_equal(decode(chips, RllScheme.MANCHESTER), payload)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=30),
           st.sampled_from(ALL_SCHEMES))
    def test_roundtrip_property(self, raw_bits, scheme):
        block = {RllScheme.MANCHESTER: 1, RllScheme.FOUR_B_SIX_B: 4,
                 RllScheme.EIGHT_B_TEN_B: 8}[scheme]
        payload = raw_bits[:len(raw_bits) - len(raw_bits) % block]
        chips = encode_rll(payload, scheme)
        assert decode(chips, scheme).tolist() == payload


class TestBalance:
    def test_manchester_and_4b6b_balanced_per_codeword(self):
        for value in range(16):
            word = encode_rll(bits(format(value, "04b")), RllScheme.FOUR_B_SIX_B)
            assert word.sum() == 3
        for bit in (0, 1):
            pair = encode_rll([bit], RllScheme.MANCHESTER)
            assert pair.sum() == 1

    def test_8b10b_codeword_pair_shares_balance(self):
        # the encoder counts disparity flips per byte: both codewords of a
        # byte must be balanced, or both unbalanced
        for byte in range(256):
            neg, pos = ENCODE_8B10B[(byte, -1)], ENCODE_8B10B[(byte, +1)]
            assert (sum(neg) == 5) == (sum(pos) == 5), byte

    def test_8b10b_running_disparity_bounded(self):
        rng = np.random.default_rng(7)
        payload = rng.integers(0, 2, size=8 * 300).astype(np.int8)
        chips = encode_rll(payload, RllScheme.EIGHT_B_TEN_B)
        balance = np.cumsum(2 * chips.astype(np.int64) - 1)
        at_boundaries = balance[9::10]
        assert np.abs(at_boundaries).max() <= 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=64))
    def test_stream_balance_property(self, raw_bits):
        payload = raw_bits[:len(raw_bits) - len(raw_bits) % 8]
        chips = encode_rll(payload, RllScheme.EIGHT_B_TEN_B)
        if len(chips):
            assert abs(int(chips.sum()) * 2 - len(chips)) <= 2


def _rd_out(word: tuple[int, ...], rd: int) -> int:
    return rd if sum(word) == 5 else -rd


def _words_from(rd: int) -> list[tuple[tuple[int, ...], int]]:
    """(codeword, rd_after) for every byte entering at running disparity rd."""
    return [(ENCODE_8B10B[(byte, rd)], _rd_out(ENCODE_8B10B[(byte, rd)], rd))
            for byte in range(256)]


class TestPreambleUniqueness:
    """No SF pattern can appear inside coded payload data plus Ab chips.

    Argument, verified exhaustively below: every SF contains a run of
    identical chips strictly longer than any run a coded stream can
    produce, runs cannot span three codewords without a constant middle
    codeword, and direct window scans over all two- and three-codeword
    concatenations (with asynchronous-bit chips in the alphabet) find no
    match.
    """

    AB_SYMBOLS = [tuple(MANCHESTER_PAIRS[0]), tuple(MANCHESTER_PAIRS[1])]

    def _scan(self, chips: str, sf: str) -> bool:
        return sf in chips

    def test_manchester_triples(self):
        sf = chips_to_ascii(preamble(RllScheme.MANCHESTER))
        symbols = self.AB_SYMBOLS  # data codewords and Ab pairs coincide
        for combo in itertools.product(symbols, repeat=3):
            text = "".join("".join(map(str, s)) for s in combo)
            assert sf not in text
            assert max_run(text) <= MAX_DATA_RUN[RllScheme.MANCHESTER]

    def test_4b6b_triples_with_ab(self):
        sf = chips_to_ascii(preamble(RllScheme.FOUR_B_SIX_B))
        symbols = list(ENCODE_4B6B.values()) + self.AB_SYMBOLS
        worst = 0
        for combo in itertools.product(symbols, repeat=3):
            text = "".join("".join(map(str, s)) for s in combo)
            assert sf not in text
            worst = max(worst, max_run(text))
        assert worst <= MAX_DATA_RUN[RllScheme.FOUR_B_SIX_B] + 1  # Ab adjacency

    def test_8b10b_pairs_disparity_consistent(self):
        sf = chips_to_ascii(preamble(RllScheme.EIGHT_B_TEN_B))
        worst = 0
        for rd0 in (-1, 1):
            for w1, rd1 in _words_from(rd0):
                t1 = "".join(map(str, w1))
                for w2, _ in _words_from(rd1):
                    text = t1 + "".join(map(str, w2))
                    if sf in text:
                        pytest.fail(f"SF inside pair {text}")
                    worst = max(worst, max_run(text))
        assert worst <= MAX_DATA_RUN[RllScheme.EIGHT_B_TEN_B]

    def test_8b10b_triple_spanning_windows_impossible(self):
        # a 19-chip window across three 10-chip words contains one full
        # middle word; every candidate middle slice of the SF has a run
        # longer than any valid codeword allows
        sf = chips_to_ascii(preamble(RllScheme.EIGHT_B_TEN_B))
        valid = set(DECODE_8B10B)
        for a in range(1, 9):
            middle = tuple(int(c) for c in sf[a:a + 10])
            assert middle not in valid

    def test_8b10b_ab_adjacency(self):
        sf = chips_to_ascii(preamble(RllScheme.EIGHT_B_TEN_B))
        words = {w for rd in (-1, 1) for w, _ in _words_from(rd)}
        worst = 0
        for word in words:
            t = "".join(map(str, word))
            for ab in self.AB_SYMBOLS:
                a = "".join(map(str, ab))
                for text in (t + a, a + t, t + a + a, a + a + t):
                    assert sf not in text
                    worst = max(worst, max_run(text))
        assert worst <= MAX_DATA_RUN[RllScheme.EIGHT_B_TEN_B] + 1

    def test_sf_internal_run_exceeds_data_runs(self):
        for scheme in ALL_SCHEMES:
            sf_run = max_run(chips_to_ascii(preamble(scheme)))
            assert sf_run > MAX_DATA_RUN[scheme]


class TestChipStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChipStream(np.array([0, 2], dtype=np.int8), 1000.0)
        with pytest.raises(ValueError):
            ChipStream(np.array([0, -1], dtype=np.int8), 1000.0)
        with pytest.raises(ValueError):
            ChipStream(np.array([0, 1], dtype=np.int8), 0.0)

    @pytest.mark.parametrize("clock_hz", [math.inf, math.nan, -math.inf])
    def test_nonfinite_clock_rejected(self, clock_hz):
        with pytest.raises(ValueError, match="clock_hz"):
            ChipStream(np.array([0, 1], dtype=np.int8), clock_hz)

    def test_duration(self):
        stream = ChipStream(np.array([1, 0, 1, 0], dtype=np.int8), 8.0)
        assert stream.duration_s == 0.5

    def test_ascii_roundtrip(self):
        chips = np.array([0, 1, 1, 0, 1], dtype=np.int8)
        assert np.array_equal(ascii_to_chips(chips_to_ascii(chips)), chips)
