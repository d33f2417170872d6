"""End-to-end link runs: payloads -> chips -> frames -> decoded report.

This is the shared harness behind the Monte-Carlo studies, the CLI batch
commands, and the test suite.  Everything is deterministic given the
configured seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraConfig, FrameSample, GeometryConfig, sample_frames
from .decoder import DecoderConfig, LinkReport, decode_samples, missed_packets
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


def drop_frames(samples: list[FrameSample], keep_probability: float,
                max_consecutive_drops: int, seed: int) -> list[FrameSample]:
    """Randomly drop frames, never more than max_consecutive_drops in a row."""
    if keep_probability >= 1.0:
        return list(samples)
    rng = np.random.default_rng(seed)
    kept = []
    run = 0
    for sample in samples:
        if run >= max_consecutive_drops or rng.random() < keep_probability:
            kept.append(sample)
            run = 0
        else:
            run += 1
    return kept


@dataclass
class LinkOutcome:
    transmitted: list[np.ndarray]
    report: LinkReport
    n_frames_sampled: int
    n_frames_decoded: int

    def payload_index(self) -> dict[bytes, int]:
        """Packet index by payload, keyed by the int8 payload's bytes."""
        return {p.tobytes(): i for i, p in enumerate(self.transmitted)}


def run_link(payloads, plan: PacketPlan, scheme: RllScheme,
             version: FrameStructure, camera: CameraConfig,
             rows_per_chip: float, geometry: GeometryConfig | None = None,
             keep_probability: float = 1.0,
             max_consecutive_drops: int = 3) -> LinkOutcome:
    """Transmit the payload sequence and decode the simulated frames."""
    stream = build_packet_stream(payloads, plan, scheme, version)
    samples = sample_frames(stream, camera, geometry)
    kept = drop_frames(samples, keep_probability, max_consecutive_drops,
                       camera.seed + 7919)
    config = DecoderConfig(scheme=scheme, version=version,
                           payload_bits=len(payloads[0]),
                           rows_per_chip=rows_per_chip)
    report = decode_samples(kept, config)
    return LinkOutcome(
        transmitted=[np.asarray(p, dtype=np.int8) for p in payloads],
        report=report,
        n_frames_sampled=len(samples),
        n_frames_decoded=len(kept),
    )


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
    transmitted packet (possible only when the frame-rate floor drops
    below a quarter of the packet rate, where same-state fragments of
    packets four apart can fuse) raise under ``strict``; otherwise they
    are dropped from the pairing and counted.
    """
    index_of_payload = outcome.payload_index()
    observations = []
    corrupt = 0
    for group in outcome.report.groups:
        key = group.payload.tobytes()
        if key not in index_of_payload:
            if strict:
                raise ValueError(
                    "observation payload not among transmitted packets")
            corrupt += 1
            continue
        observations.append((index_of_payload[key], group.ab_state, group.payload))

    pairs = []
    for (i1, s1, p1), (i2, s2, p2) in zip(observations, observations[1:]):
        truth = i2 - i1 - 1 if i2 != i1 else 0
        pairs.append((truth, missed_packets(s1, p1, s2, p2)))
    return GapAccounting(pairs, corrupt)
