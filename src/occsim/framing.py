"""Transmit-side framing: sub-packets, repetition, and asynchronous bits.

A sub-packet is SF || Ab chips || RLL(payload) || Ab chips, measured from
one SF start to the next.  A packet repeats the same sub-packet back to
back inside its slot of 1/packet_rate seconds; the slot remainder that
cannot hold a whole sub-packet is filled with LED-off chips so the packet
grid stays exact.  A stream is built as a packets x slot-chips matrix:
every packet's sub-packet comes out of one line-code pass and one tile.

Asynchronous bits carry the transmit clock state.  Structure V1 uses one
bit alternating with the packet index; V2 adds a second bit toggling at
half that rate, giving a four-state cycle so a receiver can count up to
three consecutively missed packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rll import (
    ChipStream,
    RllScheme,
    encode_rll,
    payload_chip_count,
    preamble,
)


class FrameStructure(Enum):
    V1_ONE_AB = "v1"
    V2_TWO_AB = "v2"


def ab_bit_count(version: FrameStructure) -> int:
    return 1 if version is FrameStructure.V1_ONE_AB else 2


def ab_chip_count(version: FrameStructure) -> int:
    # each asynchronous bit is sent as its Manchester pair
    return 2 * ab_bit_count(version)


def ab_bits(packet_index: int, version: FrameStructure) -> tuple[int, ...]:
    """Clock-state bits of a packet: Ab1 alternates per packet (1 for odd
    indices); V2 adds Ab2, alternating at half the rate."""
    if packet_index < 0:
        raise ValueError("packet index must be non-negative")
    return (packet_index % 2, (packet_index // 2) % 2)[:ab_bit_count(version)]


def repetition_count(t_cam_max_s: float, ds_length_s: float) -> int:
    """Smallest integer repetition count covering the longest frame interval."""
    if t_cam_max_s <= 0 or ds_length_s <= 0:
        raise ValueError("durations must be positive")
    # tolerate float noise so exact ratios stay exact
    return max(1, math.ceil(t_cam_max_s / ds_length_s - 1e-9))


def subpacket_chip_length(payload_bits: int, scheme: RllScheme,
                          version: FrameStructure) -> int:
    return (len(preamble(scheme))
            + 2 * ab_chip_count(version)
            + payload_chip_count(payload_bits, scheme))


@dataclass(frozen=True)
class PacketPlan:
    """Timing of one packet: slot rate, sub-packet duration, repetitions."""

    packet_rate: float
    ds_length_s: float
    repetitions: int
    optical_clock_hz: float

    def __post_init__(self):
        if not self.packet_rate > 0:
            raise ValueError("packet_rate: must be positive")
        if not self.optical_clock_hz > 0:
            raise ValueError("optical_clock_hz: must be positive")
        if not self.ds_length_s > 0:
            raise ValueError("ds_length_s: must be positive")
        if not self.repetitions >= 1:
            raise ValueError("repetitions: must be at least 1")
        if self.repetitions * self.ds_chips > self.slot_chips:
            raise ValueError(
                f"repetitions/packet_rate: {self.repetitions} sub-packets of "
                f"{self.ds_chips} chips exceed the {self.slot_chips}-chip "
                f"packet slot"
            )

    @property
    def ds_chips(self) -> int:
        chips = self.ds_length_s * self.optical_clock_hz
        rounded = round(chips)
        if abs(chips - rounded) > 1e-6:
            raise ValueError("ds_length_s: must be a whole number of chips")
        return rounded

    @property
    def slot_chips(self) -> int:
        return math.floor(self.optical_clock_hz / self.packet_rate + 1e-9)

    @property
    def pad_chips(self) -> int:
        return self.slot_chips - self.repetitions * self.ds_chips

    @classmethod
    def fill_slot(cls, packet_rate: float, ds_length_s: float,
                  optical_clock_hz: float) -> "PacketPlan":
        """Plan with as many whole sub-packet repetitions as the slot holds."""
        one = cls(packet_rate, ds_length_s, 1, optical_clock_hz)
        return cls(packet_rate, ds_length_s, one.slot_chips // one.ds_chips,
                   optical_clock_hz)


def build_packet_stream(payloads, plan: PacketPlan, scheme: RllScheme,
                        version: FrameStructure) -> ChipStream:
    """Chip stream for a payload sequence on the plan's exact packet grid.

    All packets are built at once: one line-code pass over the packets x
    bits payload matrix, Ab chips looked up by packet index mod 4 (the
    two-bit cycle, whose first bit is the one-bit state), and one tile of
    the packets x sub-packet matrix into each packet's zero-padded slot.
    """
    try:
        bits = np.asarray(payloads, dtype=np.int8)
    except ValueError as err:  # ragged rows
        raise ValueError("all payloads must have the same bit length") from err
    if not len(bits):
        return ChipStream(np.empty(0, dtype=np.int8), plan.optical_clock_hz)
    if bits.ndim != 2:
        raise ValueError("payloads must be a sequence of bit vectors")
    ds_chips = subpacket_chip_length(bits.shape[1], scheme, version)
    if ds_chips != plan.ds_chips:
        raise ValueError(
            f"plan expects {plan.ds_chips}-chip sub-packets, payloads "
            f"produce {ds_chips}"
        )

    packets = len(bits)
    ab_cycle = encode_rll([ab_bits(k, version) for k in range(4)],
                          RllScheme.MANCHESTER)
    ab = ab_cycle[np.arange(packets) % 4]
    sf = np.broadcast_to(preamble(scheme), (packets, len(preamble(scheme))))
    sub = np.concatenate([sf, ab, encode_rll(bits, scheme), ab], axis=1)
    slots = np.zeros((packets, plan.slot_chips), dtype=np.int8)
    slots[:, :plan.repetitions * ds_chips] = np.tile(sub, plan.repetitions)
    return ChipStream(slots.ravel(), plan.optical_clock_hz)
