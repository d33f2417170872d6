"""End-to-end link runs: payloads -> chips -> frames -> decoded report.

This is the shared harness behind the Monte-Carlo studies, the CLI batch
commands, and the test suite.  Everything is deterministic given the
configured seeds.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .camera import CameraConfig, FrameBlock, GeometryConfig, sample_frames
from .decoder import (
    DecoderConfig,
    LinkReport,
    decode_samples,
    extract_parts,
    missed_counts,
)
from .framing import FrameStructure, PacketPlan, build_packet_stream
from .rll import RllScheme


def random_payloads(count: int, payload_bits: int, seed: int,
                    distinct: bool = False) -> list[np.ndarray]:
    """Random payload bit vectors; optionally pairwise distinct."""
    if count < 1:
        raise ValueError("need at least one payload")
    if distinct and payload_bits < 63 and count > 1 << payload_bits:
        raise ValueError(
            f"cannot draw {count} distinct payloads from {payload_bits} bits"
        )
    rng = np.random.default_rng(seed)
    payloads: list[np.ndarray] = []
    seen: set[bytes] = set()
    while len(payloads) < count:
        batch = rng.integers(0, 2, size=(count - len(payloads), payload_bits),
                             dtype=np.int8)
        for bits in batch:
            if distinct:
                key = bits.tobytes()
                if key in seen:
                    continue
                seen.add(key)
            payloads.append(bits)
    return payloads


# the two-Ab cycle counts at most three missed packets between two
# observations, so frame drops are capped at three in a row
_MAX_CONSECUTIVE_DROPS = 3


def drop_frames(blocks: Iterable[FrameBlock], keep_probability: float,
                seed: int) -> Iterator[FrameBlock]:
    """Randomly drop frames, never more than three in a row: each block's
    kept frames, as the blocks are read.  A frame takes one draw, unless
    the three frames before it were dropped: it is kept without one."""
    if keep_probability >= 1.0:
        yield from blocks
        return
    rng = np.random.default_rng(seed)
    run = 0
    for block in blocks:
        keep = np.zeros(len(block), dtype=bool)
        for k in range(len(block)):
            if run >= _MAX_CONSECUTIVE_DROPS or rng.random() < keep_probability:
                keep[k] = True
                run = 0
            else:
                run += 1
        yield FrameBlock(block.index[keep], block.start_time_s[keep],
                         block.luma[keep], block.covered)


@dataclass
class LinkOutcome:
    transmitted: np.ndarray  # packets x bits, int8
    report: LinkReport
    n_frames_sampled: int

    def payload_index(self) -> dict[bytes, int]:
        """Packet index by payload, keyed by the int8 payload row's bytes."""
        return {p.tobytes(): i for i, p in enumerate(self.transmitted)}


def run_link(payloads, plan: PacketPlan, scheme: RllScheme,
             version: FrameStructure, camera: CameraConfig,
             rows_per_chip: float, geometry: GeometryConfig | None = None,
             keep_probability: float = 1.0) -> LinkOutcome:
    """Transmit the payload sequence and decode the simulated frames."""
    stream = build_packet_stream(payloads, plan, scheme, version)
    # after the stream, whose build names a ragged payload list
    transmitted = np.asarray(payloads, dtype=np.int8)
    frames = sample_frames(stream, camera, geometry)
    config = DecoderConfig(scheme=scheme, version=version,
                           payload_bits=transmitted.shape[1],
                           rows_per_chip=rows_per_chip)
    table = extract_parts(
        drop_frames(frames, keep_probability, camera.seed + 7919), config)
    return LinkOutcome(transmitted, decode_samples(table, fusion=True),
                       n_frames_sampled=len(frames))


@dataclass
class GapAccounting:
    """(true_missed, reported_missed) per consecutive observation pair."""

    pairs: list[tuple[int, int]]
    corrupt_observations: int

    def true_missed(self) -> int:
        return sum(t for t, _ in self.pairs)

    def reported_missed(self) -> int:
        return sum(r for _, r in self.pairs)

    def undetected(self) -> int:
        return sum(max(0, t - r) for t, r in self.pairs)


def gap_accounting(outcome: LinkOutcome, strict: bool = True) -> GapAccounting:
    """Compare detected gaps against the transmitted packet timeline.

    Requires pairwise-distinct payloads so each observation maps back to
    its transmitted packet index.  Observations whose payload matches no
    transmitted packet raise under ``strict``; otherwise they are dropped
    from the pairing and counted.  Without noise they occur only when the
    frame-rate floor drops below a quarter of the packet rate, where
    same-state fragments of packets four apart can fuse.  Noisy luma
    (``noise_sigma > 0``) makes them at the floor too: ``table5_v2`` with
    ``noise_sigma=0.3`` gives 16 of 566 observations at its preset seed.
    """
    report, index_of_payload = outcome.report, outcome.payload_index()
    indices = np.array([index_of_payload.get(p.tobytes(), -1)
                        for p in report.payload], dtype=np.int64)
    known = indices >= 0
    if strict and not known.all():
        raise ValueError("observation payload not among transmitted packets")

    step = np.diff(indices[known])
    truth = np.where(step == 0, 0, step - 1)
    reported = missed_counts(report.ab[known], report.payload[known])
    return GapAccounting(list(zip(truth.tolist(), reported.tolist())),
                         int(np.count_nonzero(~known)))
