"""Receiver chain: detrend, slicing, SF search, fragments, fusion, voting."""

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from occsim import decoder
from occsim.camera import CameraConfig, FrameBlock, _Workspace, sample_frames
from occsim.configs import load_config
from occsim.decoder import (
    DecoderConfig,
    GapReport,
    LinkReport,
    PartTable,
    _group_means,
    _sf_match,
    _window_sums,
    decode_samples,
    detect_missed,
    detrend,
    extract_parts,
    fuse,
    group_parts,
    missed_counts,
)
from occsim.experiment import gap_accounting, random_payloads, run_link
from occsim.framing import (
    FrameStructure,
    PacketPlan,
    ab_bit_count,
    ab_bits,
    ab_chip_count,
    build_packet_stream,
    subpacket_chip_length,
)
from occsim.rll import (
    DECODE_4B6B,
    DECODE_8B10B,
    RllScheme,
    codeword_bits,
    codeword_chips,
    codeword_values,
    encode_rll,
    payload_chip_count,
    preamble,
)

V1 = FrameStructure.V1_ONE_AB
V2 = FrameStructure.V2_TWO_AB
MAN = RllScheme.MANCHESTER
BLOCK_BITS = {MAN: 1, RllScheme.FOUR_B_SIX_B: 4, RllScheme.EIGHT_B_TEN_B: 8}


def _subpacket(payload, index, scheme, version):
    """The sub-packet of packet ``index``: its slot in an unpadded,
    one-repetition stream of ``index + 1`` copies of the payload."""
    ds = subpacket_chip_length(len(payload), scheme, version)
    plan = PacketPlan(1.0, 1.0, 1, float(ds))
    stream = build_packet_stream([payload] * (index + 1), plan, scheme, version)
    return stream.chips[-ds:]


class Part(NamedTuple):
    """One fragment as the reference receiver and grouping see it: a
    payload prefix (forward) or suffix with its Ab state."""

    frame: int
    forward: bool
    ab: tuple[int, ...]
    fragment: tuple[int, ...]  # payload bits
    complete: bool
    position: int = 0  # where its SF starts among the frame's chips


def part(forward, ab, fragment, frame=0, complete=False, position=0):
    return Part(frame, forward, ab, tuple(int(b) for b in fragment),
                complete, position)


def _parts(columns, payload_bits):
    """The Part tuples of a part table's columns (frame to bits), after
    checking each column's dtype and shape and that every bits row is zero
    outside its fragment."""
    frame, position, forward, ab, length, bits = columns
    assert [c.dtype for c in columns] == [np.int64, np.intp, np.bool_,
                                          np.int8, np.intp, np.int8]
    assert bits.shape == (len(frame), payload_bits) and len(ab) == len(frame)
    column = np.arange(payload_bits)
    inside = np.where(forward[:, None], column < length[:, None],
                      column >= payload_bits - length[:, None])
    assert not bits[~inside].any()
    return [part(fw, tuple(state), row[:k] if fw else row[payload_bits - k:],
                 f, k == payload_bits, p)
            for f, p, fw, state, k, row in zip(
                *(c.tolist() for c in columns))]


def _table(parts, payload_bits, version=V1):
    """A part table holding the parts, in order."""
    bits = np.zeros((len(parts), payload_bits), dtype=np.int8)
    for row, p in zip(bits, parts):
        lo = 0 if p.forward else payload_bits - len(p.fragment)
        row[lo:lo + len(p.fragment)] = p.fragment
    frames = [p.frame for p in parts]
    return PartTable(
        frame=np.array(frames, dtype=np.int64),
        position=np.array([p.position for p in parts], dtype=np.intp),
        forward=np.array([p.forward for p in parts], dtype=bool),
        ab=np.array([p.ab for p in parts], dtype=np.int8).reshape(
            len(parts), ab_bit_count(version)),
        length=np.array([len(p.fragment) for p in parts], dtype=np.intp),
        bits=bits, n_frames=len(set(frames)), n_frames_with_sf=len(set(frames)),
        config=DecoderConfig(MAN, version, payload_bits, rows_per_chip=1))


def _ref_detrend(row, window):
    """One row minus its centered moving average, the sums and the window
    counts each from an ``np.convolve`` of ones."""
    window = min(window, len(row))
    window -= window % 2 == 0
    if window < 3:
        return row - row.mean()
    kernel = np.ones(window)
    return row - (np.convolve(row, kernel, mode="same")
                  / np.convolve(np.ones_like(row), kernel, mode="same"))


def _with_zeros(rng, shape, zeros):
    """Normal values over six decades, a share of them exact zeros and a
    share of those -0.0: ``zeros`` is the two shares."""
    zero_share, negative_share = zeros
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    zero = rng.random(shape) < zero_share
    x[zero] = np.where(rng.random(np.count_nonzero(zero)) < negative_share,
                       -0.0, 0.0)
    return x


# no zeros, some of either sign, and all +0.0, all -0.0 or mixed: a sum
# of zeros only is -0.0 when each of them is
_ZEROS = st.sampled_from([(0.0, 0.0), (0.2, 0.5), (1.0, 0.0), (1.0, 1.0),
                          (1.0, 0.5)])


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


class TestDetrend:
    # every summation branch of numpy's pairwise add: below 8 elements, 8
    # to 128, and past 128, where it splits
    @settings(max_examples=300, deadline=None)
    @example(7, 9, (3,), (0.2, 0.5), 0)
    @example(8, 9, (3,), (0.2, 0.5), 0)
    @example(128, 9, (3,), (0.2, 0.5), 0)
    @example(129, 9, (3,), (0.2, 0.5), 0)
    @example(9, 9, (3,), (1.0, 1.0), 0)
    @given(st.integers(1, 300), st.integers(0, 60),
           st.sampled_from([(), (1,), (3,), (2, 3), (700,)]),
           _ZEROS, st.integers(0, 2**32 - 1))
    def test_window_sums_are_numpys(self, window, extra, leading, zeros,
                                    seed):
        x = _with_zeros(np.random.default_rng(seed),
                        leading + (window + extra,), zeros)
        want = sliding_window_view(x, window, axis=-1).sum(axis=-1)
        _assert_same_bits(_window_sums(x, window, _Workspace()), want)

    def test_constant_input_goes_to_zero(self):
        out = detrend(np.full(50, 0.7), 9, _Workspace())
        assert np.abs(out).max() < 1e-12

    def test_alternation_sign_preserved(self):
        rows = np.tile([1.0, 0.0], 30)
        out = detrend(rows, 9, _Workspace())
        assert (np.sign(out) == np.where(rows > 0.5, 1, -1)).all()

    def test_ramp_plus_chips_recoverable(self):
        rng = np.random.default_rng(3)
        payload = rng.integers(0, 2, size=40).astype(np.int8)
        chips = encode_rll(payload, MAN)
        rows = np.repeat(chips, 2).astype(np.float64)
        ramp = np.linspace(0.0, 0.3, len(rows))
        work = _Workspace()
        means, _ = _group_means(detrend(rows + ramp, 17, work)[None], 2, 1,
                                work)
        assert np.array_equal(means[0] > 0, chips)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 120), st.integers(1, 130),
           st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_block_rows_match_convolve_reference(self, frames, rows, window,
                                                 scale, seed):
        # each row of a block detrends exactly as it does alone, and within
        # a sum's rounding of the per-row convolve moving average
        block = scale * np.random.default_rng(seed).normal(size=(frames, rows))
        out = detrend(block, window, _Workspace())
        assert out.shape == block.shape
        for row, got in zip(block, out):
            alone = detrend(row, window, _Workspace())
            assert got.tolist() == alone.tolist()
            tolerance = window * np.finfo(float).eps * np.abs(row).max()
            np.testing.assert_allclose(got, _ref_detrend(row, window),
                                       rtol=0, atol=tolerance)

    def test_window_mean_near_zero(self):
        rng = np.random.default_rng(4)
        rows = rng.random(200)
        out = detrend(rows, 21, _Workspace())
        centered = np.convolve(out, np.ones(21) / 21, mode="valid")
        assert np.abs(centered).max() < 0.15


class TestBinarize:
    """Chip slicing: one chip per rows_per_chip rows, the sign of the
    group mean."""

    @staticmethod
    def chips(signal, rows_per_chip):
        means, _ = _group_means(np.asarray(signal, dtype=np.float64)[None],
                                rows_per_chip, 1, _Workspace())
        return (means[0] > 0).astype(np.int8).tolist()

    def test_all_positive_is_all_ones(self):
        assert self.chips(np.ones(10), 2) == [1] * 5

    def test_single_row_per_chip(self):
        sig = np.array([0.5, -0.5, 0.1, -0.1])
        assert self.chips(sig, 1) == [1, 0, 1, 0]

    def test_fractional_rows_per_chip(self):
        sig = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0])
        assert self.chips(sig, 1.5) == [1, 1, 0, 0]

    def test_last_fractional_group_ends_at_its_edge(self):
        # rows 6-7 lie past the last whole 1.5-row group of offset 0
        sig = np.zeros(8)
        sig[6:] = 9.0
        means, bounds = _group_means(sig[None], 1.5, 2, _Workspace())
        assert bounds.tolist() == [0, 5, 9]
        assert means.tolist() == [[0, 0, 0, 0, 9.0, 0, 0, 0, 4.5]]

    # a group of 8 or more rows is where numpy's pairwise order departs
    # from a left-to-right sum
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 20), st.integers(0, 39),
           st.sampled_from([0, 1, 3, 50]), _ZEROS, st.integers(0, 2**32 - 1))
    def test_integer_groups_are_reshape_sums(self, step, groups, extra,
                                             frames, zeros, seed):
        length = (2 + groups) * step + extra % step
        block = _with_zeros(np.random.default_rng(seed), (frames, length),
                            zeros)
        means, bounds = _group_means(block, step, step, _Workspace())
        counts = [(length - offset) // step for offset in range(step)]
        assert bounds.tolist() == np.cumsum([0] + counts).tolist()
        want = np.concatenate([
            block[:, offset:offset + n * step].reshape(-1, step).sum(axis=1)
            .reshape(frames, n) / step for offset, n in enumerate(counts)],
            axis=1)
        _assert_same_bits(means, want)

    def test_rejects_bad_ratio(self):
        # below one row per chip a chip group would hold no whole row
        for rows_per_chip in (0, 0.5):
            with pytest.raises(ValueError, match="rows_per_chip"):
                DecoderConfig(MAN, V1, 5, rows_per_chip=rows_per_chip)


def _decode_frame(chips, scheme, version, payload_bits, frame_index=0):
    """The block reader on one frame's chips and every SF in them."""
    chips = np.asarray(chips, dtype=np.int8)
    positions = np.flatnonzero(_sf_match(chips, scheme, _Workspace()))
    config = DecoderConfig(scheme, version, payload_bits, rows_per_chip=1)
    return _parts(decoder._read_parts(chips[None], np.array([len(chips)]),
                                      np.zeros(len(positions), dtype=np.intp),
                                      positions, config, [frame_index]),
                  payload_bits)


def _frames_to_chips(block, config):
    """Per frame (row) of a block, as the block slicer finds them: its
    chips at the chosen offset and its SF positions, or None without SF."""
    chips, lengths, sf_frame, sf_position = decoder._slice(
        block, config, _Workspace())
    cuts = np.searchsorted(sf_frame, np.arange(len(chips) + 1)).tolist()
    return [(chips[f, :lengths[f]], sf_position[lo:hi]) if hi > lo else None
            for f, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))]


def _majority_vote(samples):
    """One group through the batched vote: its bits and tie positions."""
    voted, ties = decoder._vote(np.array(samples, dtype=np.int8), [0])
    return voted[0], np.flatnonzero(ties[0])


class TestFindSf:
    def test_three_subpackets_on_grid(self):
        sub = _subpacket([1, 0, 1, 1, 0], 0, MAN, V1)
        chips = np.tile(sub, 3)
        positions = np.flatnonzero(_sf_match(chips, MAN, _Workspace()))
        assert positions.tolist() == [0, len(sub), 2 * len(sub)]

    def test_pure_payload_has_none(self):
        rng = np.random.default_rng(8)
        payload = rng.integers(0, 2, size=200).astype(np.int8)
        chips = encode_rll(payload, MAN)
        assert len(np.flatnonzero(_sf_match(chips, MAN, _Workspace()))) == 0

    def test_truncated_sf_not_reported(self):
        sub = _subpacket([1, 0, 1, 1, 0], 0, MAN, V1)
        chips = sub[:4]  # SF cut by the coverage boundary
        assert len(np.flatnonzero(_sf_match(chips, MAN, _Workspace()))) == 0


class TestDecodeFrame:
    PAYLOAD = [1, 0, 1, 1, 0]

    def _sub(self, index, version=V1, payload=None):
        return _subpacket(payload or self.PAYLOAD, index, MAN, version)

    def test_full_subpacket_gives_complete_forward(self):
        chips = np.concatenate([self._sub(0), self._sub(0)])
        parts = _decode_frame(chips, MAN, V1, 5)
        forwards = [p for p in parts if p.forward and p.complete]
        assert forwards and list(forwards[0].fragment) == self.PAYLOAD
        assert forwards[0].ab == (0,)

    def test_partial_coverage_both_sides(self):
        # window holds one SF mid-frame with truncated data on both sides
        sub = self._sub(1)
        stream = np.tile(sub, 3)
        window = stream[len(sub) - 8:len(sub) + 14]
        parts = _decode_frame(window, MAN, V1, 5)
        assert {p.forward for p in parts} == {True, False}
        for p in parts:
            assert not p.complete
            assert p.ab == (1,)

    def test_packet_transition_has_differing_ab(self):
        chips = np.concatenate([self._sub(0), self._sub(1, payload=[0, 1, 0, 0, 1])])
        parts = _decode_frame(chips, MAN, V1, 5)
        at_boundary = [p for p in parts if p.position == len(self._sub(0))]
        backward = [p for p in at_boundary if not p.forward]
        forward = [p for p in at_boundary if p.forward]
        assert backward[0].ab == (0,)
        assert forward[0].ab == (1,)

    def test_backward_fragment_is_suffix(self):
        sub = self._sub(0)
        window = np.concatenate([sub[-8:], self._sub(0)])  # tail then full
        parts = _decode_frame(window, MAN, V1, 5)
        suffix = [p for p in parts if not p.forward][0]
        assert list(suffix.fragment) == self.PAYLOAD[-len(suffix.fragment):]

    def test_v2_states_decoded(self):
        chips = np.concatenate([self._sub(2, version=V2), self._sub(2, version=V2)])
        parts = _decode_frame(chips, MAN, V2, 5)
        assert any(p.ab == (0, 1) for p in parts)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(RllScheme)),
           st.sampled_from([V1, V2]),
           st.integers(0, 11),
           st.integers(0, 2**16 - 1))
    def test_exact_chips_roundtrip_property(self, scheme, version, index, value):
        payload = [int(c) for c in format(value, "016b")]
        sub = _subpacket(payload, index, scheme, version)
        parts = _decode_frame(np.tile(sub, 2), scheme, version, 16, 0)
        completes = [p for p in parts if p.complete and p.forward]
        assert completes
        assert list(completes[0].fragment) == payload
        assert completes[0].ab == ab_bits(index, version)


def _joins(parts, payload_bits, version=V1):
    """Each group's joined payloads and overlap flag, from group_parts and
    fuse on a table of the parts, after checking both against the
    reference grouping and fusion of the parts."""
    table = _table(parts, payload_bits, version)
    group = group_parts(table)
    want = _ref_group_parts(parts)
    assert group.tolist() == [k for k, ref in enumerate(want)
                              for _ in ref.parts]
    join_group, joined, flagged = fuse(table, group)
    assert (joined.dtype, flagged.dtype) == (np.int8, np.bool_)
    assert joined.shape == (len(join_group), payload_bits)
    got = [([s.tolist() for s in joined[join_group == k]],
            bool(flagged[join_group == k].any())) for k in range(len(want))]
    ref = [([s.tolist() for s in samples], flag) for samples, flag in (
        _ref_fuse(g.parts, payload_bits) for g in want)]
    assert got == ref
    return got


class TestFusePair:
    """One same-frame prefix and suffix joined into one payload."""

    PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]

    def test_overlap_fused_exactly(self):
        prefix = part(True, (0,), self.PAYLOAD[:6])
        suffix = part(False, (0,), self.PAYLOAD[4:])
        [([fused], flagged)] = _joins([prefix, suffix], 10)
        assert fused == self.PAYLOAD
        assert not flagged

    def test_overlap_disagreement_forward_wins_and_flags(self):
        suffix_bits = self.PAYLOAD[4:]
        suffix_bits[0] ^= 1
        prefix = part(True, (0,), self.PAYLOAD[:6])
        suffix = part(False, (0,), suffix_bits)
        [([fused], flagged)] = _joins([prefix, suffix], 10)
        assert flagged
        assert fused == self.PAYLOAD


class TestFuse:
    PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]

    def test_complete_part_adds_no_join(self):
        # complete parts are samples already; fuse returns only the joins
        complete = part(True, (1,), self.PAYLOAD, complete=True)
        prefix = part(True, (1,), self.PAYLOAD[:6], frame=2)
        suffix = part(False, (1,), self.PAYLOAD[4:], frame=2)
        assert _joins([complete], 10) == [([], False)]
        assert _joins([complete, prefix, suffix], 10) \
            == [([self.PAYLOAD], False)]

    def test_prefix_suffix_fused(self):
        parts = [part(True, (1,), self.PAYLOAD[:6], frame=0),
                 part(False, (1,), self.PAYLOAD[4:], frame=1)]
        assert _joins(parts, 10) == [([self.PAYLOAD], False)]

    def test_unfusable_gives_no_sample(self):
        parts = [part(True, (1,), self.PAYLOAD[:4]),
                 part(False, (1,), self.PAYLOAD[6:])]
        assert _joins(parts, 10) == [([], False)]

    def test_intra_frame_pairs_first(self):
        # the prefix joins the same-frame suffix, whose overlap disagrees,
        # not the longer, agreeing suffix of frame 9
        same_frame = self.PAYLOAD[4:]
        same_frame[0] ^= 1
        parts = [part(True, (0,), self.PAYLOAD[:6], frame=3),
                 part(False, (0,), same_frame, frame=3),
                 part(False, (0,), self.PAYLOAD[3:], frame=9)]
        assert _joins(parts, 10) == [([self.PAYLOAD], True)]

    def test_leftover_suffixes_keep_stream_order(self):
        # no same-frame pairs: the longer prefix takes the first of two
        # equally long suffixes in stream order, frames 1 then 2
        flipped = self.PAYLOAD[:9] + [1 - self.PAYLOAD[9]]
        parts = [part(True, (1,), self.PAYLOAD[:6], frame=0),
                 part(False, (1,), self.PAYLOAD[5:], frame=1),
                 part(False, (1,), flipped[5:], frame=2),
                 part(True, (1,), self.PAYLOAD[:5], frame=5)]
        assert _joins(parts, 10) == [([self.PAYLOAD, flipped], False)]

    def test_groups_join_apart(self):
        # a group change between a prefix and a suffix keeps them apart
        parts = [part(True, (0,), self.PAYLOAD[:6]),
                 part(False, (1,), self.PAYLOAD[4:])]
        assert _joins(parts, 10) == [([], False), ([], False)]


class TestMajorityVote:
    def test_unanimous(self):
        samples = [np.array([0, 1, 1, 0])] * 7
        voted, ties = _majority_vote(samples)
        assert voted.tolist() == [0, 1, 1, 0]
        assert len(ties) == 0

    def test_minority_corruption_outvoted(self):
        good = np.array([1, 0, 1, 0, 1])
        bad = good.copy()
        bad[2] ^= 1
        voted, _ = _majority_vote([good, good, bad, good, good])
        assert voted.tolist() == good.tolist()

    def test_single_sample_is_itself(self):
        voted, ties = _majority_vote([np.array([1, 1, 0])])
        assert voted.tolist() == [1, 1, 0]
        assert len(ties) == 0

    def test_tie_takes_earliest_and_flags(self):
        a = np.array([1, 0])
        b = np.array([0, 0])
        voted, ties = _majority_vote([a, b])
        assert voted.tolist() == [1, 0]
        assert ties.tolist() == [0]


class TestDetectMissed:
    P = np.array([[int(c) for c in format(v, "06b")]
                  for v in (9, 22, 41, 50, 63)], dtype=np.int8)

    def test_adjacent_states_no_gap(self):
        assert detect_missed([(0, 0), (1, 0)], self.P[:2], [0, 4]) == []

    def test_two_steps_means_one_missed(self):
        reports = detect_missed([(1, 1), (1, 0)], self.P[:2], [2, 9])
        assert len(reports) == 1
        assert reports[0].missed_count == 1
        assert reports[0].after_packet_state == (1, 1)
        assert reports[0].frame_indices == (2, 9)

    def test_three_steps_means_two_missed(self):
        reports = detect_missed([(0, 0), (1, 1)], self.P[:2], [0, 5])
        assert reports[0].missed_count == 2

    def test_same_state_same_payload_is_resample(self):
        assert detect_missed([(0, 1), (0, 1)], self.P[[0, 0]], [0, 1]) == []

    def test_same_state_different_payload_is_cycle_skip(self):
        reports = detect_missed([(0, 1), (0, 1)], self.P[:2], [0, 6])
        assert reports[0].missed_count == 3

    @pytest.mark.parametrize("states", [[(2, 0)], [(0, 0), (1, 2)],
                                        [(0,), (1,)]])
    def test_unknown_state_rejected(self, states):
        # a first or a later state out of the cycle, or one-Ab states
        bad = next(s for s in states if len(s) != 2 or set(s) - {0, 1})
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown Ab state {bad!r}")):
            detect_missed(states, self.P[[0] * len(states)],
                          range(len(states)))

    def test_no_observations_no_gaps(self):
        assert missed_counts([], []).tolist() == []
        assert detect_missed([], [], []) == []

    def test_simulated_skip_three_scenario(self):
        # packets 2 and 6 share a state; only payload comparison reveals
        # the full-cycle skip
        reports = detect_missed([ab_bits(2, V2), ab_bits(6, V2)],
                                self.P[:2], [3, 8])
        assert [r.missed_count for r in reports] == [3]


def small_link_inputs(payload_bits=5, packets=40, cam_seed=40,
                      payload_seed=3, version=V1, fps=(27.5, 7.5),
                      clock=1000.0, rows=56, packet_rate=10.0,
                      distinct=False):
    """Payloads, plan and camera of a small Manchester link, 2 rows/chip."""
    ds = subpacket_chip_length(payload_bits, MAN, version)
    payloads = random_payloads(packets, payload_bits, payload_seed,
                               distinct=distinct)
    plan = PacketPlan.fill_slot(packet_rate, ds / clock, clock)
    camera = CameraConfig(rows=rows, row_period_s=1 / (2 * clock),
                          row_exposure_s=1 / (2 * clock), mean_fps=fps[0],
                          delta_fps=fps[1], seed=cam_seed)
    return payloads, plan, camera


def small_link(version=V1, keep=1.0, **inputs):
    payloads, plan, camera = small_link_inputs(version=version, **inputs)
    return run_link(payloads, plan, MAN, version, camera, rows_per_chip=2,
                    keep_probability=keep)


class TestEndToEnd:
    def test_zero_error_oversampling(self):
        outcome = small_link()
        sent = [p.tolist() for p in outcome.transmitted]
        got = outcome.report.payload.tolist()
        assert got == sent

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_zero_error_many_seeds(self, seed):
        outcome = small_link(packets=15, cam_seed=seed, payload_seed=seed + 1)
        sent = [p.tolist() for p in outcome.transmitted]
        got = outcome.report.payload.tolist()
        assert got == sent

    def test_grouping_matches_ground_truth(self):
        # distinct payloads let every group be traced to its packet; group
        # frame spans must then be consistent with the packet timeline
        outcome = small_link(payload_bits=15, packets=30, distinct=True,
                             clock=2000.0, rows=112)
        index_of = outcome.payload_index()
        indices = [index_of[p.tobytes()] for p in outcome.report.payload]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_detection_completeness_small(self):
        outcome = small_link(payload_bits=18, packets=400, version=V2,
                             keep=0.45, clock=4000.0, rows=200,
                             packet_rate=20.0, distinct=True, cam_seed=21)
        accounting = gap_accounting(outcome)
        assert accounting.corrupt_observations == 0
        assert all(t == r for t, r in accounting.pairs)
        assert accounting.reported_missed() > 0

    def test_voting_dominance(self):
        # corrupt a strict minority of samples at one position
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2, size=12).astype(np.int8)
        samples = [base.copy() for _ in range(9)]
        for k in range(4):
            samples[k][3] ^= 1
        voted, _ = _majority_vote(samples)
        assert voted.tolist() == base.tolist()

    def test_fusion_off_requires_complete_parts(self):
        # the same parts assembled with fusion on and off
        payloads, plan, camera = small_link_inputs()
        samples = sample_frames(build_packet_stream(payloads, plan, MAN, V1),
                                camera)
        table = extract_parts(samples, DecoderConfig(MAN, V1, 5, 2))
        with_fusion, without = (decode_samples(table, fusion=f)
                                for f in (True, False))
        assert len(without.payload) <= len(with_fusion.payload)

    @pytest.mark.parametrize("scheme,bits,clock", [
        (RllScheme.FOUR_B_SIX_B, 24, 4000.0),
        (RllScheme.EIGHT_B_TEN_B, 32, 5040.0),
    ])
    def test_zero_error_other_schemes(self, scheme, bits, clock):
        from occsim.framing import repetition_count

        ds = subpacket_chip_length(bits, scheme, V1)
        plan = PacketPlan.fill_slot(20.0, ds / clock, clock)
        assert plan.repetitions >= repetition_count(1 / 20.0, ds / clock)
        payloads = random_payloads(150, bits, 7, distinct=True)
        camera = CameraConfig(rows=4 * ds, row_period_s=1 / (2 * clock),
                              row_exposure_s=1 / (2 * clock), mean_fps=27.5,
                              delta_fps=7.5, seed=53)
        outcome = run_link(payloads, plan, scheme, V1, camera, rows_per_chip=2)
        got = outcome.report.payload.tolist()
        assert got == [p.tolist() for p in outcome.transmitted]

    def test_noise_robustness_through_voting(self):
        # oversampling redundancy plus per-position voting should ride out
        # moderate row noise without payload errors
        payloads = random_payloads(100, 15, 3, distinct=True)
        plan = PacketPlan.fill_slot(10.0, 40 / 2000, 2000.0)
        camera = CameraConfig(rows=112, row_period_s=1 / 4000,
                              row_exposure_s=1 / 4000, mean_fps=27.5,
                              delta_fps=7.5, noise_sigma=0.1, seed=42)
        outcome = run_link(payloads, plan, MAN, V1, camera, rows_per_chip=2)
        got = outcome.report.payload.tolist()
        assert got == [p.tolist() for p in outcome.transmitted]


class TestGapAccounting:
    @staticmethod
    def _outcome(version=V2):
        # 30 distinct packets, each recovered once, in order
        return small_link(payload_bits=15, packets=30, version=version,
                          distinct=True, clock=2000.0, rows=112)

    def test_every_packet_observed(self):
        accounting = gap_accounting(self._outcome())
        assert accounting.pairs == [(0, 0)] * 29
        assert accounting.corrupt_observations == 0

    def test_unsent_payload(self):
        # packet 10's payload replaced in the record of what was sent: its
        # observation maps to no packet
        outcome = self._outcome()
        sent = list(outcome.transmitted)
        sent[10] = 1 - sent[10]
        assert sent[10].tobytes() not in outcome.payload_index()
        outcome = dataclasses.replace(outcome, transmitted=sent)
        with pytest.raises(ValueError, match="not among transmitted"):
            gap_accounting(outcome)
        # dropped, its neighbours pair across it: one packet missed, and
        # the two-step state change reports it
        accounting = gap_accounting(outcome, strict=False)
        assert accounting.corrupt_observations == 1
        assert accounting.pairs == [(0, 0)] * 9 + [(1, 1)] + [(0, 0)] * 18

    def test_one_ab_outcome_rejected(self):
        with pytest.raises(ValueError, match="unknown Ab state"):
            gap_accounting(self._outcome(V1))

    def test_noisy_luma_at_the_floor(self):
        # table5_v2's frame-rate floor is exactly a quarter of its packet
        # rate, so fragments of packets four apart cannot fuse; noisy luma
        # still votes payloads that were never sent
        config = dataclasses.replace(load_config("table5_v2"),
                                     noise_sigma=0.3)
        assert config.mean_fps - config.delta_fps == config.packet_rate / 4
        payloads = random_payloads(config.trials, config.payload_bits,
                                   config.seed, distinct=True)
        outcome = run_link(payloads, config.plan(), config.rll_scheme,
                           config.frame_structure, config.camera(),
                           config.rows_per_chip, config.geometry())
        with pytest.raises(ValueError, match="not among transmitted"):
            gap_accounting(outcome)
        accounting = gap_accounting(outcome, strict=False)
        assert (accounting.corrupt_observations,
                len(outcome.report.payload)) == (16, 566)
        assert (accounting.undetected(), accounting.true_missed()) \
            == (784, 1447)


# a frame whose two chip phases see one SF each at the same slicing margin
# once it is only mean-removed, and the first (offset 0) phase's chips
_TIE_ROWS = [1, 1, 1, -1, 1, -1, -1, 1, -1, -1, -1, -1, -1, -1,
             1, 1, 1, -1, 1, -1, -1, -1, -1, -1, 1]
_TIE_CHIPS = [1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0]


def _mean_removed(rows, window, work):
    return detrend(rows, 1, work)


class TestFrameToChips:
    def test_recovers_transmitted_chips(self):
        sub = _subpacket([1, 0, 1, 1, 0], 0, MAN, V1)
        chips = np.tile(sub, 3)
        rows = np.repeat(chips, 2).astype(np.float64)
        config = DecoderConfig(scheme=MAN, version=V1, payload_bits=5,
                               rows_per_chip=2)
        sliced, = _frames_to_chips(rows[None], config)
        assert sliced is not None
        decoded, positions = sliced
        assert np.array_equal(decoded, chips)
        assert positions.tolist() == [0, len(sub), 2 * len(sub)]

    def test_no_sf_returns_none(self):
        rng = np.random.default_rng(1)
        payload = rng.integers(0, 2, size=100).astype(np.int8)
        rows = np.repeat(encode_rll(payload, MAN), 2).astype(np.float64)
        config = DecoderConfig(scheme=MAN, version=V1, payload_bits=5,
                               rows_per_chip=2)
        assert _frames_to_chips(rows[None], config) == [None]

    def test_tie_keeps_first_offset(self, monkeypatch):
        # both chip phases see one SF at the same slicing margin once the
        # frame is only mean-removed (a one-row detrend window)
        monkeypatch.setattr(decoder, "detrend", _mean_removed)
        rows = np.array(_TIE_ROWS, dtype=float)
        config = DecoderConfig(scheme=MAN, version=V1, payload_bits=5,
                               rows_per_chip=2)
        (chips, positions), = _frames_to_chips(rows[None], config)
        assert chips.tolist() == _TIE_CHIPS
        assert positions.tolist() == [6]


# --- reference receiver ------------------------------------------------------
# The per-codeword, per-offset receiver that the codeword-table decode
# replaced, kept as the oracle for the differential tests below.

class _RefInvalid(ValueError):
    """The reference decode met an invalid codeword; args[0] is its index."""


def _ref_decode_rll(chips, scheme):
    """Bits of the whole codewords in chips, up to the first invalid one."""
    chips = np.asarray(chips, dtype=np.int8)
    width = codeword_chips(scheme)
    bits = []
    for pos in range(len(chips) // width):
        word = tuple(int(c) for c in chips[pos * width:(pos + 1) * width])
        if scheme is RllScheme.MANCHESTER:
            if word == (1, 0):
                bits.append(1)
            elif word == (0, 1):
                bits.append(0)
            else:
                raise _RefInvalid(pos)
            continue
        book = DECODE_4B6B if scheme is RllScheme.FOUR_B_SIX_B else DECODE_8B10B
        value = book.get(word)
        if value is None:
            raise _RefInvalid(pos)
        n = BLOCK_BITS[scheme]
        bits.extend((value >> k) & 1 for k in range(n - 1, -1, -1))
    return np.array(bits, dtype=np.int8)


def _ref_find_sf(chips, scheme):
    chips = np.asarray(chips, dtype=np.int8)
    pattern = preamble(scheme)
    if len(chips) < len(pattern):
        return np.empty(0, dtype=np.int64)
    windows = sliding_window_view(chips, len(pattern))
    return np.flatnonzero((windows == pattern).all(axis=1))


def _ref_group_means(signal, rows_per_chip):
    n = int(len(signal) / rows_per_chip + 1e-9)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    step = int(round(rows_per_chip))
    if abs(rows_per_chip - step) < 1e-9:
        return signal[:n * step].reshape(n, step).mean(axis=1)
    edges = np.floor(np.arange(n + 1) * rows_per_chip).astype(np.int64)
    return np.add.reduceat(signal[:edges[-1]], edges[:-1]) / np.diff(edges)


def _ref_frame_to_chips(rows, config, detrend=detrend):
    rows = np.asarray(rows, dtype=np.float64)
    if len(rows) < 2 * config.rows_per_chip:
        return None
    signal = detrend(rows, config.window_rows(), _Workspace())
    candidates = []
    for offset in range(max(1, math.ceil(config.rows_per_chip))):
        means = _ref_group_means(signal[offset:], config.rows_per_chip)
        chips = (means > 0).astype(np.int8)
        margin = float(np.abs(means).mean())
        hits = len(_ref_find_sf(chips, config.scheme))
        candidates.append((margin, hits, offset, chips))
    margin, hits, _, chips = max(candidates, key=lambda c: (c[0], c[1]))
    return chips if hits else None


def _ref_decode_ab(chips, n_bits):
    bits = []
    for k in range(n_bits):
        pair = tuple(int(c) for c in chips[2 * k:2 * k + 2])
        if pair not in ((1, 0), (0, 1)):
            return None
        bits.append(pair[0])
    return tuple(bits)


def _ref_decode_frame(chips, scheme, version, payload_bits, frame_index=0):
    chips = np.asarray(chips, dtype=np.int8)
    sf_len = len(preamble(scheme))
    n_ab = ab_bit_count(version)
    ab_chips = ab_chip_count(version)
    pay_chips = payload_chip_count(payload_bits, scheme)
    cw = codeword_chips(scheme)
    ds_chips = subpacket_chip_length(payload_bits, scheme, version)

    positions = _ref_find_sf(chips, scheme)
    if len(positions) > 1:
        residues = positions % ds_chips
        keep = residues == np.bincount(residues, minlength=ds_chips).argmax()
        positions = positions[keep]

    def blocks_at(starts):
        blocks = []
        for lo in starts:
            try:
                blocks.append(_ref_decode_rll(chips[lo:lo + cw], scheme))
            except _RefInvalid:
                break
        return blocks

    parts = []
    for p in (int(q) for q in positions):
        if p >= ab_chips + cw:
            ab = _ref_decode_ab(chips[p - ab_chips:p], n_ab)
            if ab is not None:
                data_end = p - ab_chips
                blocks = blocks_at(data_end - (k + 1) * cw
                                   for k in range(min(pay_chips, data_end) // cw))
                if blocks:
                    fragment = np.concatenate(blocks[::-1])
                    complete = len(fragment) == payload_bits
                    keep = True
                    if complete and data_end - pay_chips - ab_chips >= 0:
                        lead = _ref_decode_ab(
                            chips[data_end - pay_chips - ab_chips:
                                  data_end - pay_chips], n_ab)
                        if lead is not None and lead != ab:
                            keep = False
                    if keep:
                        parts.append(part(False, ab, fragment, frame_index,
                                          complete, p))
        ab_lo = p + sf_len
        if ab_lo + ab_chips <= len(chips):
            ab = _ref_decode_ab(chips[ab_lo:ab_lo + ab_chips], n_ab)
            if ab is not None:
                data_start = ab_lo + ab_chips
                avail = min(pay_chips, len(chips) - data_start)
                blocks = blocks_at(data_start + k * cw for k in range(avail // cw))
                if blocks:
                    fragment = np.concatenate(blocks)
                    complete = len(fragment) == payload_bits
                    keep = True
                    tail_lo = data_start + pay_chips
                    if complete and tail_lo + ab_chips <= len(chips):
                        tail = _ref_decode_ab(chips[tail_lo:tail_lo + ab_chips],
                                              n_ab)
                        if tail is not None and tail != ab:
                            keep = False
                    if keep:
                        parts.append(part(True, ab, fragment, frame_index,
                                          complete, p))
    return parts


@st.composite
def _frames(draw):
    """(scheme, version, payload_bits, chips) of one frame's chip window.

    Windows cut from a packet stream, optionally with a codeword zeroed in
    a payload (an invalid codeword mid-fragment), opening and closing on an
    SF, and with chip flips; or plain random chips.
    """
    scheme = draw(st.sampled_from(list(RllScheme)))
    version = draw(st.sampled_from([V1, V2]))
    payload_bits = BLOCK_BITS[scheme] * draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["window", "sf_edges", "random"]))
    if kind == "random":
        chips = rng.integers(0, 2, size=draw(st.integers(0, 120)))
        return scheme, version, payload_bits, chips.astype(np.int8)

    n_sub = draw(st.integers(2, 5))
    first = draw(st.integers(0, 7))
    reps = draw(st.integers(1, 2))
    subs = [_subpacket(rng.integers(0, 2, size=payload_bits),
                       first + k // reps, scheme, version)
            for k in range(n_sub)]
    starts = np.cumsum([0] + [len(s) for s in subs])
    stream = np.concatenate(subs)
    if draw(st.booleans()):
        k = draw(st.integers(0, n_sub - 1))
        cw = codeword_chips(scheme)
        data = (starts[k] + len(preamble(scheme)) + ab_chip_count(version)
                + cw * draw(st.integers(0, payload_bits // BLOCK_BITS[scheme] - 1)))
        stream[data:data + cw] = 0
    if kind == "sf_edges":
        i = draw(st.integers(0, n_sub - 2))
        j = draw(st.integers(i + 1, n_sub - 1))
        chips = stream[starts[i]:starts[j] + len(preamble(scheme))].copy()
    else:
        lo = draw(st.integers(0, len(stream) - 1))
        chips = stream[lo:draw(st.integers(lo + 1, len(stream)))].copy()
    flips = rng.integers(0, len(chips), size=draw(st.integers(0, 3)))
    chips[flips] ^= 1
    return scheme, version, payload_bits, chips


def _render(chips, n_rows, rows_per_chip, phase):
    """Rows of a rolling-shutter image of the chips: chip k spans rows
    [k * rows_per_chip - phase, (k + 1) * rows_per_chip - phase)."""
    index = np.floor((np.arange(n_rows) + phase) / rows_per_chip)
    return chips[index.astype(np.int64)].astype(np.float64)


@st.composite
def _blocks(draw):
    """(DecoderConfig, frames x rows block) under one config and width.

    Each frame is cut from one packet stream (most with an SF, some
    without), random chips, or a constant level, each at its own chip
    phase, noise and ramp.
    """
    scheme = draw(st.sampled_from(list(RllScheme)))
    version = draw(st.sampled_from([V1, V2]))
    payload_bits = BLOCK_BITS[scheme] * draw(st.integers(1, 4))
    rows_per_chip = draw(st.sampled_from([1, 1.5, 2, 2.5, 3]))
    width = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subs = [_subpacket(rng.integers(0, 2, size=payload_bits), k // 2,
                       scheme, version) for k in range(8)]
    need = int(width / rows_per_chip) + 2
    stream = np.tile(np.concatenate(subs),
                     need // sum(len(s) for s in subs) + 2)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["stream", "random", "constant"]))
        if kind == "stream":
            lo = draw(st.integers(0, len(stream) - need))
            chips = stream[lo:lo + need].copy()
            chips[rng.integers(0, need, size=draw(st.integers(0, 2)))] ^= 1
        elif kind == "random":
            chips = rng.integers(0, 2, size=need)
        else:
            chips = np.full(need, draw(st.integers(0, 1)))
        row = _render(chips, width, rows_per_chip, draw(st.floats(0.0, 1.0)))
        row += draw(st.sampled_from([0.0, 0.05, 0.4])) \
            * rng.standard_normal(width)
        if draw(st.booleans()):
            row += np.linspace(0.0, 0.5, width)
        rows.append(row)
    config = DecoderConfig(scheme=scheme, version=version,
                           payload_bits=payload_bits,
                           rows_per_chip=rows_per_chip)
    return config, np.array(rows).reshape(len(rows), width)


def _check_sliced(got, rows, config, detrend=detrend):
    """A _frames_to_chips entry against the reference: the same chips, and
    SF positions that the reference search finds in those chips."""
    want = _ref_frame_to_chips(rows, config, detrend)
    if want is None:
        assert got is None
        return
    chips, positions = got
    assert chips.dtype == want.dtype and chips.tolist() == want.tolist()
    sf = _ref_find_sf(chips, config.scheme)
    assert positions.dtype == sf.dtype and positions.tolist() == sf.tolist()


class TestAgainstReference:
    """The codeword-table receiver against the per-codeword reference."""

    @settings(max_examples=400, deadline=None)
    @given(_frames(), st.integers(0, 99))
    def test_decode_frame(self, frame, frame_index):
        scheme, version, payload_bits, chips = frame
        got = _decode_frame(chips, scheme, version, payload_bits,
                            frame_index)
        want = _ref_decode_frame(chips, scheme, version, payload_bits,
                                 frame_index)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(_frames())
    def test_find_sf(self, frame):
        scheme, _, _, chips = frame
        got = np.flatnonzero(_sf_match(chips, scheme, _Workspace()))
        want = _ref_find_sf(chips, scheme)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(max_examples=300, deadline=None)
    @given(_frames(), st.sampled_from([1.5, 2, 2.5, 3]),
           st.floats(0.0, 1.0), st.sampled_from([0.0, 0.05, 0.4]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_frame_to_chips(self, frame, rows_per_chip, phase, sigma, ramp,
                            seed):
        scheme, version, payload_bits, chips = frame
        n_rows = max(0, int((len(chips) - 1) * rows_per_chip))
        index = np.floor((np.arange(n_rows) + phase) / rows_per_chip)
        rows = chips[index.astype(np.int64)].astype(np.float64)
        rng = np.random.default_rng(seed)
        rows += sigma * rng.standard_normal(n_rows)
        if ramp:
            rows += np.linspace(0.0, 0.5, n_rows)
        config = DecoderConfig(scheme=scheme, version=version,
                               payload_bits=payload_bits,
                               rows_per_chip=rows_per_chip)
        got, = _frames_to_chips(rows[None], config)
        _check_sliced(got, rows, config)

    @settings(max_examples=300, deadline=None)
    @given(_blocks())
    def test_frames_to_chips_blocks(self, case):
        config, block = case
        got = _frames_to_chips(block, config)
        assert len(got) == len(block)
        for rows, sliced in zip(block, got):
            _check_sliced(sliced, rows, config)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([-1.0, 1.0]), min_size=25,
                             max_size=25), max_size=5),
           st.integers(0, 5))
    def test_frames_to_chips_tie(self, others, at):
        # the tie frame keeps its first offset among other frames
        at = min(at, len(others))
        block = np.array(others[:at] + [_TIE_ROWS] + others[at:], dtype=float)
        config = DecoderConfig(scheme=MAN, version=V1, payload_bits=5,
                               rows_per_chip=2)
        with mock.patch.object(decoder, "detrend", _mean_removed):
            got = _frames_to_chips(block, config)
        assert got[at][0].tolist() == _TIE_CHIPS
        for rows, sliced in zip(block, got):
            _check_sliced(sliced, rows, config, _mean_removed)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(RllScheme)), st.integers(0, 12),
           st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_decode_rll(self, scheme, words, flips, ragged, seed):
        # the codeword table read one codeword apart: -1 first where the
        # reference meets its first invalid codeword, else the same bits;
        # neither reads a ragged tail chip
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=words * BLOCK_BITS[scheme])
        chips = encode_rll(bits, scheme)
        if len(chips):
            chips[rng.integers(0, len(chips), size=flips)] ^= 1
        if ragged:
            chips = np.append(chips, 1)
        values = codeword_values(chips, scheme)[::codeword_chips(scheme)]
        invalid = np.flatnonzero(values < 0).tolist()
        try:
            want = _ref_decode_rll(chips, scheme)
        except _RefInvalid as err:
            assert invalid[:1] == [err.args[0]]
        else:
            assert invalid == []
            got = codeword_bits(values, scheme)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _half_removed(rows, window, work):
    """A detrend for rows of 0/1 levels: every chip slices at margin 0.5."""
    return np.asarray(rows, dtype=np.float64) - 0.5


@st.composite
def _reader_blocks(draw):
    """(DecoderConfig, frame indices, frames x rows block) of 0/1 rows that
    slice, with :func:`_half_removed` as the detrend, into chosen chips
    whose features are known.  At two rows per chip a frame drawn at row
    phase 1 shows one chip fewer than one at phase 0, so a block's chosen
    chip runs differ in length.

    Each frame's chips are a window of a packet stream whose sub-packets
    may hold an invalid codeword mid-payload or an Ab copy flipped to
    another valid state; a window opening on an SF, closing with one or
    closing one chip short of a codeword's end; two sub-packets on grids
    1 to ds - 1 chips apart (a residue tie); or coded data with no SF.  A
    few chips may be flipped.
    """
    scheme = draw(st.sampled_from(list(RllScheme)))
    version = draw(st.sampled_from([V1, V2]))
    payload_bits = BLOCK_BITS[scheme] * draw(st.integers(1, 4))
    rows_per_chip = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sf_len, cw = len(preamble(scheme)), codeword_chips(scheme)
    ab_chips = ab_chip_count(version)
    ds = subpacket_chip_length(payload_bits, scheme, version)
    subs = [_subpacket(rng.integers(0, 2, size=payload_bits), k // 2,
                       scheme, version) for k in range(12)]
    for sub in subs:
        fault = draw(st.sampled_from(["none", "codeword", "ab"]))
        if fault == "codeword":
            lo = sf_len + ab_chips + cw * draw(
                st.integers(0, payload_bits // BLOCK_BITS[scheme] - 1))
            sub[lo:lo + cw] = 0
        elif fault == "ab":
            lo = draw(st.sampled_from([sf_len, ds - ab_chips]))
            sub[lo:lo + 2] ^= 1
    stream = np.concatenate(subs)
    n = draw(st.integers(sf_len, 3 * ds + 8))  # chips shown at phase 0
    coded = encode_rll(rng.integers(0, 2, size=BLOCK_BITS[scheme]
                                    * (n // cw + 1)), scheme)
    block = []
    for _ in range(draw(st.integers(1, 6))):
        phase = draw(st.integers(0, rows_per_chip - 1))
        m = n - phase  # chips the frame shows
        kind = draw(st.sampled_from(
            ["window", "sf_first", "sf_last", "mid_codeword", "grids",
             "no_sf"]))
        if kind == "window":
            lo = draw(st.integers(0, len(stream) - m))
            chips = stream[lo:lo + m]
        elif kind == "sf_first":
            lo = ds * draw(st.integers(0, 7))
            chips = stream[lo:lo + m]
        elif kind == "sf_last":
            end = ds * draw(st.integers(4, 11)) + sf_len
            chips = stream[end - m:end]
        elif kind == "mid_codeword":  # the last codeword lacks one chip
            end = (ds * draw(st.integers(4, 10)) + sf_len + ab_chips
                   + cw * draw(st.integers(0, payload_bits
                                           // BLOCK_BITS[scheme] - 1))
                   + cw - 1)
            chips = stream[end - m:end]
        elif kind == "grids":
            lo, gap = ds * draw(st.integers(0, 10)), draw(st.integers(1, ds - 1))
            chips = np.concatenate([stream[lo:lo + ds], coded[:gap],
                                    stream[lo + ds:lo + 2 * ds],
                                    coded[gap:]])[:m]
        else:
            chips = coded[:m]
        chips = chips.copy()
        chips[rng.integers(0, m, size=draw(st.integers(0, 2)))] ^= 1
        if phase:
            # rows 1.. show the chips; row 0 and the last row belong to
            # chips the frame does not show whole
            chips = np.concatenate([chips[:1], chips, chips[-1:]])
        rows = np.repeat(chips, rows_per_chip)[phase:phase + n * rows_per_chip]
        block.append(rows.astype(np.float64))
    indices = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=len(block),
                                      max_size=len(block)))).tolist()
    config = DecoderConfig(scheme=scheme, version=version,
                           payload_bits=payload_bits,
                           rows_per_chip=rows_per_chip)
    return config, indices, np.array(block)


def _ref_majority_vote(samples):
    """Per-position majority of one group, ties to its first sample."""
    stack = np.stack([np.asarray(s, dtype=np.int8) for s in samples])
    ones = stack.sum(axis=0)
    voted = (2 * ones > len(samples)).astype(np.int8)
    ties = np.flatnonzero(2 * ones == len(samples))
    voted[ties] = stack[0][ties]
    return voted, ties


class TestBlockReaderAgainstReference:
    """The block reader (slicing, then every SF of the block at once)
    against the reference slicer and reader run frame by frame."""

    @settings(max_examples=300, deadline=None)
    @given(_reader_blocks(), st.integers(0, 2**32 - 1))
    def test_block_parts(self, case, seed):
        config, indices, block = case
        with mock.patch.object(decoder, "detrend", _half_removed):
            chips, lengths, sf_frame, sf_position = decoder._slice(
                block, config, _Workspace())
        # a frame is read up to its own run's end, whatever pads the rest
        pad = np.arange(chips.shape[1]) >= lengths[:, None]
        chips[pad] = np.random.default_rng(seed).integers(0, 2, pad.sum())
        got = _parts(decoder._read_parts(chips, lengths, sf_frame,
                                         sf_position, config, indices),
                     config.payload_bits)
        want = []
        for rows, index in zip(block, indices):
            ref_chips = _ref_frame_to_chips(rows, config, _half_removed)
            if ref_chips is not None:
                want += _ref_decode_frame(ref_chips, config.scheme,
                                          config.version,
                                          config.payload_bits, index)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda bits: st.lists(
               st.lists(st.lists(st.integers(0, 1), min_size=bits,
                                 max_size=bits), min_size=1, max_size=6),
               min_size=1, max_size=8)),
           st.integers(0, 300))
    def test_batched_vote(self, groups, copies):
        # even groups tie; a group of more than 127 samples must not
        # wrap its count
        if copies:
            groups = groups + [[groups[0][0]] * copies]
        stack = np.array([s for g in groups for s in g], dtype=np.int8)
        starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
        voted, ties = decoder._vote(stack, starts)
        assert len(voted) == len(ties) == len(groups)
        for group, row, tied in zip(groups, voted, ties):
            want, want_ties = _ref_majority_vote(group)
            assert row.dtype == want.dtype and row.tolist() == want.tolist()
            assert np.flatnonzero(tied).tolist() == want_ties.tolist()


# --- reference grouping and fusion ------------------------------------------
# Grouping by a group object and joins through a public pair function that
# checked coverage itself, over one object per part, as they were before
# the part table became columns; kept as the oracle for the differential
# tests below.

@dataclass
class _RefGroup:
    ab_state: tuple[int, ...]
    parts: list = field(default_factory=list)
    known: tuple | None = None  # reference bits from the first complete part

    def conflicts(self, part) -> bool:
        if self.known is None:
            return False
        frag = part.fragment
        if part.forward:
            ref = self.known[:len(frag)]
        else:
            ref = self.known[len(self.known) - len(frag):]
        return not np.array_equal(ref, frag)

    def absorb(self, part):
        self.parts.append(part)
        if self.known is None and part.complete:
            self.known = part.fragment


def _ref_group_parts(parts):
    groups = []
    current = None
    for part in parts:
        if current is None or part.ab != current.ab_state \
                or current.conflicts(part):
            current = _RefGroup(part.ab)
            groups.append(current)
        current.absorb(part)
    return groups


def _ref_fuse_pair(prefix, suffix, payload_bits):
    fwd, bwd = prefix.fragment, suffix.fragment
    if len(fwd) + len(bwd) < payload_bits:
        raise ValueError("prefix and suffix cannot cover the payload")
    payload = np.empty(payload_bits, dtype=np.int8)
    payload[:len(fwd)] = fwd
    payload[payload_bits - len(bwd):] = bwd
    lo, hi = payload_bits - len(bwd), len(fwd)
    flagged = False
    if hi > lo:
        overlap_fwd = fwd[lo:hi]
        overlap_bwd = bwd[:hi - lo]
        if not np.array_equal(overlap_fwd, overlap_bwd):
            flagged = True
            payload[lo:hi] = overlap_fwd
    return payload, flagged


def _ref_fuse(parts, payload_bits):
    samples = []
    prefixes = [p for p in parts if not p.complete and p.forward]
    suffixes = [p for p in parts if not p.complete and not p.forward]
    flagged = False
    used_s = set()
    rest_p = []
    for pre in prefixes:
        match = None
        for j, suf in enumerate(suffixes):
            if j not in used_s and suf.frame == pre.frame \
                    and len(pre.fragment) + len(suf.fragment) >= payload_bits:
                match = j
                break
        if match is None:
            rest_p.append(pre)
        else:
            used_s.add(match)
            payload, flag = _ref_fuse_pair(pre, suffixes[match], payload_bits)
            samples.append(payload)
            flagged |= flag
    rest_s = [s for j, s in enumerate(suffixes) if j not in used_s]
    rest_p.sort(key=lambda p: len(p.fragment), reverse=True)
    rest_s.sort(key=lambda p: len(p.fragment), reverse=True)
    for pre, suf in zip(rest_p, rest_s):
        if len(pre.fragment) + len(suf.fragment) >= payload_bits:
            payload, flag = _ref_fuse_pair(pre, suf, payload_bits)
            samples.append(payload)
            flagged |= flag
    return samples, flagged


def _ref_assemble(parts, payload_bits, version, fusion):
    """(recovered groups, unrecovered count, gaps) of the reference:
    each group's complete fragments and, with fusion, its joins, voted by
    the reference vote; every scalar a Python one."""
    groups, unrecovered = [], 0
    for ref in _ref_group_parts(parts):
        samples = [p.fragment for p in ref.parts if p.complete]
        flagged = False
        if fusion:
            joined, flagged = _ref_fuse(ref.parts, payload_bits)
            samples += joined
        if not samples:
            unrecovered += 1
            continue
        payload, ties = _ref_majority_vote(samples)
        frames = [p.frame for p in ref.parts]
        groups.append((ref.ab_state, payload, min(frames), max(frames),
                       len(samples), tuple(ties.tolist()), flagged))
    gaps = []
    if version is V2:
        gaps = _ref_detect_missed([(g[0], g[1], g[2]) for g in groups])
    return groups, unrecovered, gaps


def _ref_missed_packets(prev_state, prev_payload, state, payload):
    """Packets missed between two two-Ab observations, pair by pair: the
    state distance around the four-state cycle, and a payload compare
    telling a resample from a skipped full cycle."""
    index = {ab_bits(k, V2): k for k in range(4)}
    step = (index[tuple(state)] - index[tuple(prev_state)]) % 4
    if step == 0:
        return 0 if np.array_equal(payload, prev_payload) else 3
    return step - 1


def _ref_detect_missed(observations):
    """Gap reports of consecutive (state, payload, frame) observations,
    one :func:`_ref_missed_packets` per pair."""
    reports = []
    for (s1, p1, f1), (s2, p2, f2) in zip(observations, observations[1:]):
        missed = _ref_missed_packets(s1, p1, s2, p2)
        if missed:
            reports.append(GapReport(tuple(s1), missed, (f1, f2)))
    return reports


def _typed(value):
    """The value with the type of every scalar in it, through tuples,
    lists and arrays (an array's dtype stands for its elements' type)."""
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype, value.tolist()
    if isinstance(value, (tuple, list)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


@st.composite
def _part_lists(draw, version=V1):
    """(payload_bits, parts): complete fragments, prefixes and suffixes of
    a few payloads, some with a flipped bit, under Ab states from a small
    set of the structure's and in a few frames, so that runs split on
    conflicts, joins overlap, agreeing or not, and votes tie."""
    payload_bits = draw(st.integers(1, 8))
    payloads = draw(st.lists(st.lists(st.integers(0, 1), min_size=payload_bits,
                                      max_size=payload_bits),
                             min_size=1, max_size=3))
    states = ([(0,), (1,)] if version is V1
              else [ab_bits(k, V2) for k in range(draw(st.integers(1, 4)))])
    parts = []
    for _ in range(draw(st.integers(0, 24))):
        bits = draw(st.sampled_from(payloads))
        n = draw(st.integers(1, payload_bits))
        forward = draw(st.booleans())
        fragment = bits[:n] if forward else bits[payload_bits - n:]
        if draw(st.integers(0, 4)) == 0:
            fragment[draw(st.integers(0, n - 1))] ^= 1
        parts.append(part(forward, draw(st.sampled_from(states)), fragment,
                          frame=draw(st.integers(0, 3)),
                          complete=n == payload_bits))
    return payload_bits, parts


def _many_parts(seed, payload_bits, version):
    """Hundreds of parts in same-Ab runs, in nondecreasing frames with
    several parts to a frame: mostly fragments of each run's own payload,
    some of another payload of a pool of three (a conflict), some with a
    flipped bit, half lengths drawn mostly from a few values (so that
    equally long halves meet), and now and then a burst of complete parts
    that each conflict with the one before."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2, size=(3, payload_bits)).tolist()
    states = ([(0,), (1,)] if version is V1
              else [ab_bits(k, V2) for k in range(4)])
    common = [payload_bits // 2, payload_bits - payload_bits // 2,
              payload_bits - 1, 1]
    parts, frame = [], 0
    for _ in range(rng.integers(10, 30)):
        state, own = states[rng.integers(len(states))], rng.integers(3)
        if rng.random() < 0.3:
            for k in range(int(rng.integers(2, 5))):
                frame += int(rng.random() < 0.5)
                parts.append(part(True, state, pool[(own + k) % 3], frame,
                                  complete=True))
        for _ in range(rng.integers(1, 40)):
            frame += int(rng.random() < 0.3)
            bits = list(pool[own if rng.random() < 0.8 else rng.integers(3)])
            n = payload_bits
            if rng.random() < 0.75:
                n = int(rng.choice(common) if rng.random() < 0.6
                        else rng.integers(1, payload_bits))
            if rng.random() < 0.1:
                bits[rng.integers(payload_bits)] ^= 1
            forward = n == payload_bits or rng.random() < 0.5
            parts.append(part(forward, state, bits[:n] if forward
                              else bits[payload_bits - n:], frame,
                              complete=n == payload_bits))
    return parts


def _assert_assembles_as_reference(parts, payload_bits, version, fusion):
    """decode_samples on a table of the parts gives the reference's
    groups, counters and gaps: the group columns with the report's shapes
    and dtypes, the rest with the reference's scalar types."""
    table = _table(parts, payload_bits, version)
    report = decode_samples(table, fusion=fusion)
    groups, unrecovered, gaps = _ref_assemble(parts, payload_bits,
                                              version, fusion)
    n = len(groups)
    assert report.ab.shape == (n, ab_bit_count(version))
    assert report.payload.shape == report.ties.shape == (n, payload_bits)
    assert report.first_frame.shape == report.last_frame.shape \
        == report.n_samples.shape == report.overlap.shape == (n,)
    assert (report.ab.dtype, report.ties.dtype, report.overlap.dtype) \
        == (np.int8, bool, bool)
    # each group's row, read back as the reference's tuple
    ties = [tuple(np.flatnonzero(t).tolist()) for t in report.ties]
    assert _typed(list(zip(
        map(tuple, report.ab.tolist()), report.payload,
        report.first_frame.tolist(), report.last_frame.tolist(),
        report.n_samples.tolist(), ties,
        report.overlap.tolist()))) == _typed(groups)
    assert (report.n_parts, report.n_complete_parts,
            report.n_unrecovered_groups) \
        == (len(parts), sum(p.complete for p in parts), unrecovered)
    assert _typed([(g.after_packet_state, g.missed_count,
                    g.frame_indices) for g in report.gaps]) \
        == _typed([(g.after_packet_state, g.missed_count,
                    g.frame_indices) for g in gaps])
    assert all(type(v) is int for v in (
        report.n_parts, report.n_complete_parts,
        report.n_unrecovered_groups))


class TestGroupingAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(_part_lists())
    def test_group_parts_and_fuse(self, case):
        # _joins compares the groups and each group's joins and flag
        payload_bits, parts = case
        _joins(parts, payload_bits)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([V1, V2]).flatmap(
               lambda v: st.tuples(st.just(v), _part_lists(v))),
           st.booleans())
    def test_decode_samples(self, case, fusion):
        # the whole assembly of a table: grouping, fusion, the vote and
        # gap detection, against the references
        version, (payload_bits, parts) = case
        _assert_assembles_as_reference(parts, payload_bits, version, fusion)

    @settings(max_examples=40, deadline=None)
    @example(seed=0, payload_bits=8, version=V1)
    @example(seed=1, payload_bits=24, version=V2)
    @example(seed=2, payload_bits=5, version=V2)
    @given(seed=st.integers(0, 2**32 - 1), payload_bits=st.integers(4, 24),
           version=st.sampled_from([V1, V2]))
    def test_many_parts(self, seed, payload_bits, version):
        # hundreds of parts: back-to-back conflicts in one run, crowded
        # (group, frame) buckets and equally long halves
        parts = _many_parts(seed, payload_bits, version)
        _joins(parts, payload_bits, version)
        for fusion in (False, True):
            _assert_assembles_as_reference(parts, payload_bits, version,
                                           fusion)


_POISON = st.sampled_from([np.nan, np.inf, -np.inf, -0.5, -1e300, 7.0])


@st.composite
def _sample_lists(draw):
    """(DecoderConfig, samples): frames of one sensor height whose covered
    row counts mix 0, fewer than two chips' rows, runs of one count and
    alternating counts, with rows cut from a packet stream and some luma
    replaced by NaN, inf or out-of-range values."""
    scheme = draw(st.sampled_from(list(RllScheme)))
    version = draw(st.sampled_from([V1, V2]))
    payload_bits = BLOCK_BITS[scheme] * draw(st.integers(1, 3))
    rows_per_chip = draw(st.sampled_from([1, 1.5, 2, 3]))
    height = draw(st.integers(1, 200))
    counts = [0, int(2 * rows_per_chip) - 1,
              draw(st.integers(0, height)), draw(st.integers(0, height))]
    pattern = draw(st.sampled_from(["runs", "alternating", "any"]))
    n_frames = draw(st.integers(0, 12))
    if pattern == "runs":
        covered = sorted(draw(st.lists(st.sampled_from(counts),
                                       min_size=n_frames, max_size=n_frames)))
    elif pattern == "alternating":
        covered = [counts[2 + k % 2] for k in range(n_frames)]
    else:
        covered = draw(st.lists(st.sampled_from(counts), min_size=n_frames,
                                max_size=n_frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subs = [_subpacket(rng.integers(0, 2, size=payload_bits), k // 3,
                       scheme, version) for k in range(12)]
    stream = np.concatenate(subs)
    need = int(height / rows_per_chip) + 2
    stream = np.tile(stream, need // len(stream) + 2)
    frames = []
    for index, cov in enumerate(covered):
        lo = draw(st.integers(0, len(stream) - need))
        luma = _render(stream[lo:lo + need], height, rows_per_chip,
                       draw(st.floats(0.0, 1.0)))
        for row, value in draw(st.lists(st.tuples(st.integers(0, height - 1),
                                                  _POISON), max_size=3)):
            luma[row] = value
        frames.append((index, luma, min(cov, height)))
    config = DecoderConfig(scheme, version, payload_bits, rows_per_chip)
    return config, _as_blocks(frames)


def _as_blocks(frames):
    """One block per run of (index, luma, covered rows) frames with one
    covered-row count, the footprint centred."""
    blocks = []
    for cov, run in itertools.groupby(frames, key=lambda frame: frame[2]):
        index, luma, _ = zip(*run)
        begin = (len(luma[0]) - cov) // 2
        blocks.append(FrameBlock(np.array(index), np.array(index) / 30.0,
                                 np.stack(luma), slice(begin, begin + cov)))
    return blocks


def _decode(samples, config, fusion):
    return decode_samples(extract_parts(samples, config), fusion=fusion)


def _outputs(report):
    return report.to_text(), [p.tobytes() for p in report.payload]


class TestDecodeSamplesFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_sample_lists(), st.booleans())
    def test_degrades_to_a_report(self, case, fusion):
        config, samples = case
        with np.errstate(invalid="ignore", over="ignore"):
            report = _decode(samples, config, fusion)
            # one frame per block slices every frame as the block does
            with mock.patch.object(decoder, "_BLOCK_ELEMENTS", 1):
                single = _decode(samples, config, fusion)
        assert isinstance(report, LinkReport)
        assert report.n_frames == sum(len(block) for block in samples)
        assert report.to_text() == single.to_text()

    @settings(max_examples=150, deadline=None)
    @given(_sample_lists(), st.sampled_from([decoder._BLOCK_ELEMENTS, 1]))
    def test_one_table_assembles_both_arms(self, case, block_elements):
        # one extraction assembled per arm reports what a fresh
        # extract-and-decode of each arm does
        config, samples = case
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(decoder, "_BLOCK_ELEMENTS", block_elements):
            table = extract_parts(samples, config)
            for fusion in (True, False):
                assert _outputs(decode_samples(table, fusion=fusion)) \
                    == _outputs(_decode(samples, config, fusion))

    @settings(max_examples=150, deadline=None)
    @given(_sample_lists(), st.sampled_from([decoder._BLOCK_ELEMENTS, 1]))
    def test_one_call_is_a_fresh_call_per_block(self, case, block_elements):
        # one call's workspace and batched reads serve blocks whose covered
        # widths shrink, grow and drop to 0 rows between runs: its table is
        # that of one fresh call per block, concatenated
        config, samples = case
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(decoder, "_BLOCK_ELEMENTS", block_elements):
            whole = extract_parts(samples, config)
            alone = [extract_parts(blocks, config)
                     for blocks in [[]] + [[block] for block in samples]]
        for field in ("frame", "position", "forward", "ab", "length", "bits"):
            got = getattr(whole, field)
            want = np.concatenate([getattr(table, field) for table in alone])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), field
        assert (whole.n_frames, whole.n_frames_with_sf) == (
            sum(t.n_frames for t in alone),
            sum(t.n_frames_with_sf for t in alone))


def _ref_bits_to_hex(bits):
    """The per-bit string join that the one-pass encoder replaced."""
    bits = np.asarray(bits, dtype=np.int8)
    if bits.size == 0:
        return ""
    value = int("".join(str(int(b)) for b in bits), 2)
    return format(value, f"0{math.ceil(len(bits) / 4)}x")


class TestBitsToHex:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=300))
    @example([])
    @example([1, 0, 1])
    @example([0] * 7)
    def test_against_reference(self, bits):
        assert decoder.bits_to_hex(bits) == _ref_bits_to_hex(bits)
        assert decoder.bits_to_hex(np.array(bits, dtype=np.int8)) \
            == _ref_bits_to_hex(bits)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2,
                                                min_side=0, max_side=41),
                      elements=st.integers(0, 1)))
    @example(np.zeros((0, 7), dtype=np.int8))
    @example(np.zeros((3, 0), dtype=np.int8))
    @example(np.ones((2, 5), dtype=np.int8))
    def test_rows_against_reference(self, matrix):
        assert decoder.hex_rows(matrix) == [_ref_bits_to_hex(row)
                                            for row in matrix]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=40), st.integers(0, 40),
           st.sampled_from([-1, 2, 7, 100]))
    def test_non_binary_raises(self, bits, at, value):
        # the string join raised too, except that it read a leading -1 as
        # a minus sign
        bits.insert(min(at, len(bits)), value)
        with pytest.raises(ValueError):
            decoder.bits_to_hex(bits)
        with pytest.raises(ValueError):
            decoder.hex_rows(np.array([bits, bits], dtype=np.int8))
