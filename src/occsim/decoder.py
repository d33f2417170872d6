"""Receiver chain: row luminance -> chips -> payload fragments -> payloads.

Frames are sliced a frames x rows block at a time: each frame's covered
rows are de-trended with a centered moving average and sliced into chips,
one chip per ``rows_per_chip`` rows, at the row offset that slices
sharpest and still shows a start-frame (SF) match; all offsets of all
the block's frames are sliced and searched in one pass, the only SF
search, which hands each frame's SF positions to the fragment reader.
Per frame, one codeword-table lookup gives the codeword value at every
chip position, Ab bits included, and each SF yields fragments that are
strided slices of those values up to the first invalid codeword.  A
forward fragment is a payload prefix of the sub-packet starting at the
SF; a backward one is a payload suffix of the sub-packet ending there.

Fragments are grouped by asynchronous-bit state along the stream; a
group's complete fragments and, with fusion, its prefix + suffix joins
are its samples, majority voted.  Under the two-bit structure, consecutive
group states also reveal how many packets were skipped (up to three).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .camera import _BLOCK_ELEMENTS, FrameSample
from .framing import (
    FrameStructure,
    ab_chip_count,
    ab_state_v2,
    subpacket_chip_length,
)
from .rll import (
    RllScheme,
    codeword_bits,
    codeword_chips,
    codeword_values,
    payload_chip_count,
    preamble,
)


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class UnfusablePair(ValueError):
    """Prefix and suffix coverage together fall short of one payload."""


@dataclass(frozen=True)
class DecodedPart:
    """A payload prefix (forward) or suffix (backward) with its Ab state."""

    frame_index: int
    direction: Direction
    ab_state: tuple[int, ...]
    fragment: np.ndarray
    complete: bool
    position: int = 0  # SF chip position inside the frame, for ordering


@dataclass(frozen=True)
class GapReport:
    after_packet_state: tuple[int, ...]
    missed_count: int
    frame_indices: tuple[int, int]


@dataclass
class RecoveredGroup:
    ab_state: tuple[int, ...]
    payload: np.ndarray
    first_frame: int
    last_frame: int
    n_parts: int
    n_samples: int
    tie_positions: tuple[int, ...] = ()
    overlap_flagged: bool = False


@dataclass
class LinkReport:
    """Per-experiment decode statistics and recovered payloads."""

    n_frames: int
    n_frames_with_sf: int
    n_parts: int
    n_complete_parts: int
    groups: list[RecoveredGroup]
    n_unrecovered_groups: int
    gaps: list[GapReport]

    def payloads(self) -> list[np.ndarray]:
        return [g.payload for g in self.groups]

    def to_text(self) -> str:
        lines = [
            f"frames: {self.n_frames} ({self.n_frames_with_sf} with SF)",
            f"parts: {self.n_parts} ({self.n_complete_parts} complete)",
            f"recovered payloads: {len(self.groups)} "
            f"(unrecovered groups: {self.n_unrecovered_groups})",
            f"detected gaps: {len(self.gaps)} "
            f"({sum(g.missed_count for g in self.gaps)} payloads missed)",
        ]
        for i, g in enumerate(self.groups):
            flags = ""
            if g.tie_positions:
                flags += " tie"
            if g.overlap_flagged:
                flags += " overlap"
            lines.append(
                f"  {i:5d} ab={g.ab_state} {bits_to_hex(g.payload)} "
                f"frames {g.first_frame}..{g.last_frame} "
                f"samples={g.n_samples}{flags}"
            )
        for gap in self.gaps:
            lines.append(
                f"  gap: {gap.missed_count} missed after state "
                f"{gap.after_packet_state}, between frames "
                f"{gap.frame_indices[0]} and {gap.frame_indices[1]}"
            )
        return "\n".join(lines)


def bits_to_hex(bits) -> str:
    bits = np.asarray(bits, dtype=np.int8)
    if bits.size == 0:
        return ""
    value = int("".join(str(int(b)) for b in bits), 2)
    return format(value, f"0{math.ceil(len(bits) / 4)}x")


@dataclass(frozen=True)
class DecoderConfig:
    scheme: RllScheme
    version: FrameStructure
    payload_bits: int
    rows_per_chip: float
    fusion: bool = True

    def __post_init__(self):
        if self.rows_per_chip < 1:
            raise ValueError("rows_per_chip must be at least 1")

    def window_rows(self) -> int:
        # must exceed the longest identical-chip run (the SF's) in rows
        window = round(self.rows_per_chip * (len(preamble(self.scheme)) + 2))
        return window + 1 if window % 2 == 0 else window


def detrend(row_luma, window: int) -> np.ndarray:
    """Subtract a centered moving average (odd window).

    Near the ends the window is truncated to the available rows and
    normalized by the actual count; replicating edge rows instead would
    bias the baseline exactly where fragments start and end.
    """
    signal = np.asarray(row_luma, dtype=np.float64)
    window = min(window, len(signal))
    if window % 2 == 0:
        window -= 1
    if window < 3:
        return signal - signal.mean() if signal.size else signal
    kernel = np.ones(window)
    sums = np.convolve(signal, kernel, mode="same")
    counts = np.convolve(np.ones_like(signal), kernel, mode="same")
    return signal - sums / counts


def _group_means(block: np.ndarray, rows_per_chip: float, offsets: int = 1
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Chip-group means of ``block[:, offset:]`` for every offset below
    ``offsets``, side by side along the last axis, and the bounds of each
    offset's run in them.

    Each group sums in the order a one-frame, one-offset slice did (a
    reshape when the grid is integer, reduceat when fractional), so the
    means match it bit for bit.
    """
    frames, length = block.shape
    counts = [int((length - offset) / rows_per_chip + 1e-9)
              for offset in range(offsets)]
    bounds = np.concatenate([[0], np.cumsum(counts)])
    step = int(round(rows_per_chip))
    if abs(rows_per_chip - step) < 1e-9:
        rows = np.concatenate([block[:, offset:offset + n * step]
                               for offset, n in enumerate(counts)], axis=1)
        return (rows.reshape(-1, step).sum(axis=1) / step
                ).reshape(frames, -1), bounds
    edges = [offset + np.floor(np.arange(n + 1) * rows_per_chip).astype(np.int64)
             for offset, n in enumerate(counts)]
    starts = np.concatenate([e[:-1] for e in edges])
    ends = np.concatenate([e[1:] for e in edges])
    # reduceat over every frame's [start, end) pairs in the flattened,
    # zero-padded block: its even outputs are the group sums
    padded = np.zeros((frames, length + 1))
    padded[:, :length] = block
    pairs = (np.arange(frames)[:, None] * (length + 1)
             + np.stack([starts, ends], axis=1).ravel())
    sums = np.add.reduceat(padded.ravel(), pairs.ravel())[::2]
    return (sums.reshape(frames, -1)
            / np.concatenate([np.diff(e) for e in edges])), bounds


def _sf_match(chips: np.ndarray, scheme: RllScheme) -> np.ndarray:
    """Where an exact start-frame pattern starts, along the last axis (one
    slice-AND pass)."""
    pattern = preamble(scheme)
    n = max(chips.shape[-1] - len(pattern) + 1, 0)
    match = chips[..., :n] == pattern[0]
    for k in range(1, len(pattern)):
        match &= chips[..., k:k + n] == pattern[k]
    return match


def frames_to_chips(block, config: DecoderConfig
                    ) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Detrend and slice each frame (row) of a frames x rows block of
    covered rows into chips, and find their start frames.

    The chip phase relative to the row grid is unknown, so every row
    offset within one chip is tried.  Among offsets that detect an SF,
    the one with the sharpest slicing (largest mean absolute group mean)
    wins: the best-aligned offset mixes adjacent chips least, while a
    misaligned decode can alias whole spurious SF grids.  A frame's entry
    is that offset's chips and the positions in them where a whole SF
    starts, or None when no offset produces an SF.
    """
    block = np.asarray(block, dtype=np.float64)
    frames, length = block.shape
    if length < 2 * config.rows_per_chip:
        return [None] * frames
    window = config.window_rows()
    signal = np.empty_like(block)
    for f in range(frames):
        signal[f] = detrend(block[f], window)
    means, bounds = _group_means(signal, config.rows_per_chip,
                                 max(1, math.ceil(config.rows_per_chip)))
    chips = (means > 0).astype(np.int8)
    # one SF search along every offset's chips of every frame; a hit counts
    # for an offset only when the whole pattern lies inside that offset's run
    match = _sf_match(chips, config.scheme)
    sf_len = len(preamble(config.scheme))
    # the best-aligned offset slices sharpest and sees the true chips; an
    # SF appearing only at a worse-margin offset is a phase-mixing alias.
    # The largest (margin, hits) wins and the first offset wins a tie.
    runs = list(zip(bounds[:-1], bounds[1:]))
    margins = [np.abs(means[:, lo:hi]).sum(axis=1) / (hi - lo)
               for lo, hi in runs]
    spans = [(lo, max(lo, hi - sf_len + 1)) for lo, hi in runs]
    hits = [np.count_nonzero(match[:, lo:end], axis=1) for lo, end in spans]
    best = np.zeros(frames, dtype=np.int64)
    best_margin, best_hits = margins[0], hits[0]
    for offset in range(1, len(runs)):
        better = (margins[offset] > best_margin) | (
            (margins[offset] == best_margin) & (hits[offset] > best_hits))
        best[better] = offset
        best_margin = np.where(better, margins[offset], best_margin)
        best_hits = np.where(better, hits[offset], best_hits)
    return [(chips[f, bounds[o]:bounds[o + 1]],
             np.flatnonzero(match[f, slice(*spans[o])])) if h else None
            for f, (o, h) in enumerate(zip(best.tolist(), best_hits.tolist()))]


def decode_frame(chips, positions, config: DecoderConfig,
                 frame_index: int = 0) -> list[DecodedPart]:
    """Forward and backward fragments from the SFs at ``positions`` (as
    :func:`frames_to_chips` finds them) in one frame's chips.

    Only the SFs on the frame's dominant sub-packet grid are read.  A
    fragment is read away from its SF up to the first invalid codeword.
    A complete fragment is dropped when the sub-packet's other Ab copy
    disagrees with the one next to the SF: it would poison grouping.
    """
    scheme, payload_bits = config.scheme, config.payload_bits
    chips = np.asarray(chips, dtype=np.int8)
    sf_len = len(preamble(scheme))
    ab_chips = ab_chip_count(config.version)
    pay_chips = payload_chip_count(payload_bits, scheme)
    cw = codeword_chips(scheme)
    ds_chips = subpacket_chip_length(payload_bits, scheme, config.version)

    if len(positions) > 1:
        # keep only the dominant sub-packet grid; stray matches are artifacts
        residues = positions % ds_chips
        keep = residues == np.bincount(residues, minlength=ds_chips).argmax()
        positions = positions[keep]

    words = codeword_values(chips, scheme)
    manchester = (words if scheme is RllScheme.MANCHESTER
                  else codeword_values(chips, RllScheme.MANCHESTER))

    def ab_at(lo: int) -> tuple[int, ...] | None:
        """The Manchester-coded Ab bits at chips[lo:lo + ab_chips]."""
        if lo < 0 or lo + ab_chips > len(chips):
            return None
        bits = manchester[lo:lo + ab_chips:2]
        return None if (bits < 0).any() else tuple(int(b) for b in bits)

    parts = []
    for p in (int(q) for q in positions):
        end = p - ab_chips  # payload end of the sub-packet ending at this SF
        n_back = min(pay_chips, end) // cw
        start = p + sf_len + ab_chips  # payload start of the one starting here
        n_fwd = min(pay_chips, len(chips) - start) // cw
        # (direction, Ab position, first codeword, codewords, other Ab copy)
        for direction, ab_lo, lo, n, other_lo in (
                (Direction.BACKWARD, end, end - n_back * cw, n_back,
                 end - pay_chips - ab_chips),
                (Direction.FORWARD, p + sf_len, start, n_fwd,
                 start + pay_chips)):
            ab = ab_at(ab_lo)
            if ab is None or n < 1:
                continue
            values = words[lo:lo + n * cw:cw]
            invalid = np.flatnonzero(values < 0)
            if invalid.size:
                values = (values[invalid[-1] + 1:]
                          if direction is Direction.BACKWARD
                          else values[:invalid[0]])
            fragment = codeword_bits(values, scheme)
            complete = len(fragment) == payload_bits
            if fragment.size and not (complete
                                      and ab_at(other_lo) not in (None, ab)):
                parts.append(DecodedPart(frame_index, direction, ab, fragment,
                                         complete, p))
    return parts


def fuse_pair(prefix: DecodedPart, suffix: DecodedPart,
              payload_bits: int) -> tuple[np.ndarray, bool]:
    """Overlay a payload prefix and suffix; returns (payload, overlap_flag).

    Where the fragments overlap they must agree; on disagreement the
    forward (earlier-row) fragment wins and the result is flagged.
    """
    fwd, bwd = prefix.fragment, suffix.fragment
    if len(fwd) + len(bwd) < payload_bits:
        raise UnfusablePair(
            f"prefix ({len(fwd)} bits) + suffix ({len(bwd)} bits) "
            f"cannot cover a {payload_bits}-bit payload"
        )
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


def fuse(parts: list[DecodedPart], payload_bits: int
         ) -> tuple[list[np.ndarray], bool]:
    """Payload samples joined from one group's incomplete prefixes and
    suffixes, same-frame pairs first; empty when no pair covers a payload.
    """
    samples = []
    prefixes = [p for p in parts
                if not p.complete and p.direction is Direction.FORWARD]
    suffixes = [p for p in parts
                if not p.complete and p.direction is Direction.BACKWARD]
    flagged = False

    # intra-frame fusion first: both halves seen within one image
    used_s: set[int] = set()
    rest_p = []
    for pre in prefixes:
        match = None
        for j, suf in enumerate(suffixes):
            if j not in used_s and suf.frame_index == pre.frame_index \
                    and len(pre.fragment) + len(suf.fragment) >= payload_bits:
                match = j
                break
        if match is None:
            rest_p.append(pre)
        else:
            used_s.add(match)
            payload, flag = fuse_pair(pre, suffixes[match], payload_bits)
            samples.append(payload)
            flagged |= flag

    # inter-frame fusion: longest remaining halves joined pairwise
    rest_s = [s for j, s in enumerate(suffixes) if j not in used_s]
    rest_p.sort(key=lambda p: len(p.fragment), reverse=True)
    rest_s.sort(key=lambda p: len(p.fragment), reverse=True)
    for pre, suf in zip(rest_p, rest_s):
        if len(pre.fragment) + len(suf.fragment) >= payload_bits:
            payload, flag = fuse_pair(pre, suf, payload_bits)
            samples.append(payload)
            flagged |= flag
    return samples, flagged


def majority_vote(samples: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-position majority; ties take the earliest sample and are flagged."""
    if not samples:
        raise ValueError("majority_vote needs at least one sample")
    stack = np.stack([np.asarray(s, dtype=np.int8) for s in samples])
    ones = stack.sum(axis=0)
    n = len(samples)
    voted = (2 * ones > n).astype(np.int8)
    ties = np.flatnonzero(2 * ones == n)
    if len(ties):
        voted[ties] = stack[0][ties]
    return voted, ties


_V2_STATE_INDEX = {ab_state_v2(i): i for i in range(4)}


def missed_packets(prev_state, prev_payload, state, payload) -> int:
    """Packets missed between two consecutive two-Ab observations.

    The state distance around the four-state cycle gives the gap;
    identical states with identical payloads are a resample of the same
    packet, identical states with different payloads mean a full cycle
    (three packets) was skipped.
    """
    try:
        step = (_V2_STATE_INDEX[tuple(state)]
                - _V2_STATE_INDEX[tuple(prev_state)]) % 4
    except KeyError as exc:
        raise ValueError(f"unknown Ab state {exc.args[0]!r}") from None
    if step == 0:
        return 0 if np.array_equal(payload, prev_payload) else 3
    return step - 1


def detect_missed(observations) -> list[GapReport]:
    """Missed-packet reports from consecutive two-Ab observations.

    observations: iterable of (ab_state, payload[, frame_index]) in stream
    order; each consecutive pair is counted by :func:`missed_packets`.
    """
    reports = []
    prev = None
    for obs in observations:
        state, payload = tuple(obs[0]), np.asarray(obs[1])
        frame = obs[2] if len(obs) > 2 else -1
        if prev is None and state not in _V2_STATE_INDEX:
            raise ValueError(f"unknown Ab state {state!r}")
        if prev is not None:
            p_state, p_payload, p_frame = prev
            missed = missed_packets(p_state, p_payload, state, payload)
            if missed:
                reports.append(GapReport(p_state, missed, (p_frame, frame)))
        prev = (state, payload, frame)
    return reports


@dataclass
class _Group:
    ab_state: tuple[int, ...]
    parts: list[DecodedPart] = field(default_factory=list)
    known: np.ndarray | None = None  # reference bits from the first complete part

    def conflicts(self, part: DecodedPart) -> bool:
        if self.known is None:
            return False
        frag = part.fragment
        if part.direction is Direction.FORWARD:
            ref = self.known[:len(frag)]
        else:
            ref = self.known[len(self.known) - len(frag):]
        return not np.array_equal(ref, frag)

    def absorb(self, part: DecodedPart):
        self.parts.append(part)
        if self.known is None and part.complete:
            self.known = part.fragment


def group_parts(parts: list[DecodedPart]) -> list[_Group]:
    """Contiguous same-state runs, split when payload evidence conflicts.

    The split on conflicting complete payloads keeps packets four indices
    apart (same two-bit state) from being merged, which is what lets the
    gap detector see a skipped full cycle.
    """
    groups: list[_Group] = []
    current: _Group | None = None
    for part in parts:
        if current is None or part.ab_state != current.ab_state \
                or current.conflicts(part):
            current = _Group(part.ab_state)
            groups.append(current)
        current.absorb(part)
    return groups


def decode_samples(samples: list[FrameSample],
                   config: DecoderConfig) -> LinkReport:
    """Full decode of a frame sequence into a link report."""
    parts: list[DecodedPart] = []
    frames_with_sf = 0
    # runs of consecutive samples with one covered-row count are sliced as
    # frames x rows blocks, in order
    slices = [sample.covered_slice() for sample in samples]
    start = 0
    for width, run in itertools.groupby(len(rows) for rows in slices):
        end = start + sum(1 for _ in run)
        step = max(1, _BLOCK_ELEMENTS // max(width, 1))
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            block = np.stack(slices[lo:hi])
            for sample, sliced in zip(samples[lo:hi],
                                      frames_to_chips(block, config)):
                if sliced is None:
                    continue
                frames_with_sf += 1
                parts.extend(decode_frame(*sliced, config, sample.index))
        start = end

    groups = group_parts(parts)
    recovered: list[RecoveredGroup] = []
    unrecovered = 0
    for group in groups:
        group_samples = [p.fragment for p in group.parts if p.complete]
        flagged = False
        if config.fusion:
            joined, flagged = fuse(group.parts, config.payload_bits)
            group_samples += joined
        if not group_samples:
            unrecovered += 1
            continue
        voted, ties = majority_vote(group_samples)
        frames = [p.frame_index for p in group.parts]
        recovered.append(RecoveredGroup(
            ab_state=group.ab_state,
            payload=voted,
            first_frame=min(frames),
            last_frame=max(frames),
            n_parts=len(group.parts),
            n_samples=len(group_samples),
            tie_positions=tuple(int(t) for t in ties),
            overlap_flagged=flagged,
        ))

    gaps: list[GapReport] = []
    if config.version is FrameStructure.V2_TWO_AB:
        observations = [(g.ab_state, g.payload, g.first_frame)
                        for g in recovered]
        gaps = detect_missed(observations)

    return LinkReport(
        n_frames=len(samples),
        n_frames_with_sf=frames_with_sf,
        n_parts=len(parts),
        n_complete_parts=sum(p.complete for p in parts),
        groups=recovered,
        n_unrecovered_groups=unrecovered,
        gaps=gaps,
    )
