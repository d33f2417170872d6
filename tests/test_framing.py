"""Sub-packet construction, asynchronous bits, and packet stream timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occsim.framing import (
    FrameStructure,
    PacketPlan,
    PlanInfeasible,
    ab_state_v1,
    ab_state_v2,
    build_packet_stream,
    build_subpacket,
    repetition_count,
    subpacket_chip_length,
)
from occsim.rll import RllScheme, chips_to_ascii, preamble
from occsim.decoder import _sf_match

V1 = FrameStructure.V1_ONE_AB
V2 = FrameStructure.V2_TWO_AB


class TestAbStates:
    def test_v1_parity(self):
        assert ab_state_v1(3) == 1
        assert ab_state_v1(0) == 0

    @given(st.integers(0, 10_000))
    def test_v1_alternation(self, i):
        assert ab_state_v1(i) != ab_state_v1(i + 1)

    def test_v2_first_cycle(self):
        assert [ab_state_v2(i) for i in range(4)] == \
            [(0, 0), (1, 0), (0, 1), (1, 1)]

    @given(st.integers(0, 10_000))
    def test_v2_period_four(self, i):
        assert ab_state_v2(i) == ab_state_v2(i + 4)
        assert ab_state_v2(i) != ab_state_v2(i + 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ab_state_v1(-1)

    def test_v2_state_distance_identifies_gap(self):
        # the cyclic state distance pins down k - j for gaps of up to
        # three packets; a gap of four reproduces the state
        cycle = [ab_state_v2(i) for i in range(4)]
        for j in range(8):
            for k in range(j + 1, j + 5):
                distance = (cycle.index(ab_state_v2(k))
                            - cycle.index(ab_state_v2(j))) % 4
                assert distance == (k - j) % 4


class TestRepetitionCount:
    def test_exact_division(self):
        assert repetition_count(0.050, 0.0125) == 4

    def test_ceiling(self):
        assert repetition_count(0.050, 0.012) == 5

    def test_boundary_equal(self):
        assert repetition_count(0.020, 0.020) == 1

    @given(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0))
    def test_covers_interval(self, t_cam, ds):
        n = repetition_count(t_cam, ds)
        assert n >= 1
        assert n * ds >= t_cam - 1e-6 * t_cam


class TestBuildSubpacket:
    def test_empty_payload_v1_layout(self):
        chips = build_subpacket([], 1, RllScheme.MANCHESTER, V1)
        assert chips_to_ascii(chips) == "011100" + "10" + "" + "10"

    def test_leading_and_trailing_ab_identical(self):
        chips = build_subpacket([1, 0, 1, 0], 2, RllScheme.MANCHESTER, V2)
        sf = len(preamble(RllScheme.MANCHESTER))
        assert np.array_equal(chips[sf:sf + 4], chips[-4:])

    def test_v2_adds_two_chips_each_end(self):
        payload = [1, 0, 1, 0]
        for scheme in (RllScheme.MANCHESTER, RllScheme.FOUR_B_SIX_B):
            p = payload * (2 if scheme is RllScheme.FOUR_B_SIX_B else 1)
            v1 = build_subpacket(p, 0, scheme, V1)
            v2 = build_subpacket(p, 0, scheme, V2)
            assert len(v2) == len(v1) + 4

    def test_ab_period_two_under_v1(self):
        payload = [0, 1, 1, 0]
        a = build_subpacket(payload, 3, RllScheme.MANCHESTER, V1)
        b = build_subpacket(payload, 5, RllScheme.MANCHESTER, V1)
        assert np.array_equal(a, b)


class TestPacketPlan:
    def test_infeasible_repetitions(self):
        with pytest.raises(PlanInfeasible):
            PacketPlan(10.0, 0.020, 6, 1000.0)

    def test_fill_slot(self):
        plan = PacketPlan.fill_slot(10.0, 0.020, 1000.0)
        assert plan.repetitions == 5
        assert plan.pad_chips == 0

    def test_fill_slot_with_pad(self):
        plan = PacketPlan.fill_slot(10.0, 0.030, 1000.0)
        assert plan.repetitions == 3
        assert plan.pad_chips == 10

    def test_ds_must_be_whole_chips(self):
        with pytest.raises(ValueError):
            PacketPlan(10.0, 0.0205001, 4, 1000.0).ds_chips


class TestBuildPacketStream:
    def _plan(self, payload_bits, reps=None, rate=10.0, clock=1000.0):
        ds = subpacket_chip_length(payload_bits, RllScheme.MANCHESTER, V1) / clock
        if reps is None:
            return PacketPlan.fill_slot(rate, ds, clock)
        return PacketPlan(rate, ds, reps, clock)

    def test_sf_count_equals_repetitions(self):
        plan = self._plan(5, reps=3)
        stream = build_packet_stream([[1, 0, 1, 0, 1]], plan,
                                     RllScheme.MANCHESTER, V1)
        sf = np.flatnonzero(_sf_match(stream.chips, RllScheme.MANCHESTER))
        assert len(sf) == 3

    def test_ab_differs_between_packets(self):
        plan = self._plan(5, reps=1)
        stream = build_packet_stream([[0] * 5, [0] * 5], plan,
                                     RllScheme.MANCHESTER, V1)
        sf = len(preamble(RllScheme.MANCHESTER))
        slot = plan.slot_chips
        first_ab = stream.chips[sf:sf + 2]
        second_ab = stream.chips[slot + sf:slot + sf + 2]
        assert not np.array_equal(first_ab, second_ab)

    def test_slot_duration_exact(self):
        plan = self._plan(5)
        payloads = [[1, 0, 1, 0, 1]] * 7
        stream = build_packet_stream(payloads, plan, RllScheme.MANCHESTER, V1)
        assert stream.duration_s == pytest.approx(7 / plan.packet_rate)

    def test_deterministic(self):
        plan = self._plan(5)
        payloads = [[1, 0, 1, 0, 1], [0, 0, 1, 1, 0]]
        a = build_packet_stream(payloads, plan, RllScheme.MANCHESTER, V1)
        b = build_packet_stream(payloads, plan, RllScheme.MANCHESTER, V1)
        assert np.array_equal(a.chips, b.chips)

    def test_mixed_payload_lengths_rejected(self):
        plan = self._plan(5)
        with pytest.raises(ValueError):
            build_packet_stream([[1] * 5, [1] * 4], plan,
                                RllScheme.MANCHESTER, V1)

    def test_every_subpacket_identical_within_packet(self):
        plan = self._plan(5, reps=4)
        stream = build_packet_stream([[1, 1, 0, 0, 1]], plan,
                                     RllScheme.MANCHESTER, V1)
        ds = plan.ds_chips
        subs = [stream.chips[k * ds:(k + 1) * ds] for k in range(4)]
        for sub in subs[1:]:
            assert np.array_equal(sub, subs[0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 31))
    def test_sf_positions_on_grid(self, reps, value):
        payload = [int(c) for c in format(value, "05b")]
        plan = self._plan(5, reps=reps)
        stream = build_packet_stream([payload], plan, RllScheme.MANCHESTER, V1)
        positions = np.flatnonzero(_sf_match(stream.chips,
                                             RllScheme.MANCHESTER))
        assert positions.tolist() == [k * plan.ds_chips for k in range(reps)]
