"""Receiver chain: row luminance -> chips -> payload fragments -> payloads.

Frames are sliced and read a frames x rows block at a time.  The block's
covered rows are de-trended in one pass, a centered moving average along
each frame, and sliced into chips, one chip per ``rows_per_chip`` rows,
at the row offset that slices sharpest and still shows a start-frame (SF)
match; all offsets of all the block's frames are sliced and searched in
one pass, the only SF search.  The slicer hands the fragment reader each
frame's chips at its chosen offset as one padded frames x chips array,
and the SF table: each SF's frame and position.  The reader keeps each
frame's dominant sub-packet grid and reads every SF of the block at once: one
codeword-table lookup gives the codeword value at every chip position of
every frame, a Manchester one the Ab bits, and each SF's windows are
gathered into one SF x payload-codewords matrix, cut at the first invalid
codeword counted away from the SF.  A forward fragment is a payload
prefix of the sub-packet starting at the SF; a backward one is a payload
suffix of the sub-packet ending there.  Each fragment is its window's
payload row, zeroed outside the fragment, and that row is the one form a
fragment takes from the reader to the vote.

A decode is two calls.  :func:`extract_parts` slices and reads frame
blocks, as they come, into a :class:`PartTable`, one column per part
field and one parts x payload-bits matrix; :func:`decode_samples`
assembles a table into a report, with or without fusion, so one table
serves both arms of a fusion comparison.  Assembly is a few whole-table
array passes.  Grouping finds the same-Ab runs with one diff of the Ab
column and splits them, round by round, at each group's first part
whose fragment conflicts with the group's first complete row; a round
compares all its parts at once, as packed bits.  Fusion sorts the
incomplete halves into (group, frame) buckets: a bucket of one prefix
and one suffix pairs them outright, and only a bucket with more halves
of one direction takes a loop.  The halves left pair by their rank in
the group, from one more sort, and every pair is joined by one
``np.where``.  A group's complete rows and joins are its samples, and
every group's samples are majority voted in one pass.  The report holds
the recovered groups as columns, one row per group in stream order, as
the vote gives them.  Under the two-bit structure, consecutive group
states also reveal how many packets were skipped (up to three): a diff of
the state index around the four-state cycle, with a payload-equality
column for a skipped full cycle.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .camera import _BLOCK_ELEMENTS, FrameBlock, _Workspace
from .framing import FrameStructure, ab_chip_count, subpacket_chip_length
from .rll import (
    RllScheme,
    _is_binary,
    codeword_bits,
    codeword_chips,
    codeword_values,
    payload_chip_count,
    preamble,
)


@dataclass(frozen=True)
class GapReport:
    after_packet_state: tuple[int, ...]
    missed_count: int
    frame_indices: tuple[int, int]


@dataclass
class LinkReport:
    """Per-experiment decode statistics and the recovered groups, one row
    per group in stream order."""

    n_frames: int
    n_frames_with_sf: int
    n_parts: int
    n_complete_parts: int
    ab: np.ndarray  # groups x Ab bits, int8
    payload: np.ndarray  # groups x payload bits, int8: the voted payloads
    first_frame: np.ndarray
    last_frame: np.ndarray
    n_samples: np.ndarray  # rows voted: complete parts and joins
    ties: np.ndarray  # groups x payload bits, bool: where the vote tied
    overlap: np.ndarray  # bool: a join's halves disagreed where they overlap
    n_unrecovered_groups: int
    gaps: list[GapReport]

    def payloads(self) -> list[np.ndarray]:
        return list(self.payload)

    def to_text(self) -> str:
        lines = [
            f"frames: {self.n_frames} ({self.n_frames_with_sf} with SF)",
            f"parts: {self.n_parts} ({self.n_complete_parts} complete)",
            f"recovered payloads: {len(self.payload)} "
            f"(unrecovered groups: {self.n_unrecovered_groups})",
            f"detected gaps: {len(self.gaps)} "
            f"({sum(g.missed_count for g in self.gaps)} payloads missed)",
        ]
        columns = (self.ab.tolist(), hex_rows(self.payload),
                   self.first_frame.tolist(),
                   self.last_frame.tolist(), self.n_samples.tolist(),
                   self.ties.any(axis=1).tolist(), self.overlap.tolist())
        for i, (ab, payload_hex, first, last, samples, tie, overlap) in \
                enumerate(zip(*columns)):
            flags = " tie" * tie + " overlap" * overlap
            lines.append(
                f"  {i:5d} ab={tuple(ab)} {payload_hex} "
                f"frames {first}..{last} samples={samples}{flags}"
            )
        for gap in self.gaps:
            lines.append(
                f"  gap: {gap.missed_count} missed after state "
                f"{gap.after_packet_state}, between frames "
                f"{gap.frame_indices[0]} and {gap.frame_indices[1]}"
            )
        return "\n".join(lines)


def hex_rows(bits: np.ndarray) -> list[str]:
    """Each row of a bit matrix, MSB first, as hex digits, one per 4 bits
    (rounded up: the row is padded with zeros on the left); any value but
    0 and 1 raises ValueError."""
    bits = np.asarray(bits, dtype=np.int8)
    if not _is_binary(bits):
        raise ValueError("bits must be 0/1 valued")
    rows, width = bits.shape
    pad = -width % 8
    padded = np.zeros((rows, width + pad), dtype=np.uint8)
    padded[:, pad:] = bits
    text = np.packbits(padded, axis=1).tobytes().hex()
    # a row's bytes give 2 digits each, the first a padding 0 if pad >= 4
    step, skip = (width + pad) // 4, pad // 4
    return [text[i * step + skip:(i + 1) * step] for i in range(rows)]


def bits_to_hex(bits) -> str:
    """A bit vector as :func:`hex_rows` writes a one-row matrix."""
    return hex_rows(np.asarray(bits, dtype=np.int8).reshape(1, -1))[0]


@dataclass(frozen=True)
class DecoderConfig:
    scheme: RllScheme
    version: FrameStructure
    payload_bits: int
    rows_per_chip: float

    def __post_init__(self):
        if not self.rows_per_chip >= 1:
            raise ValueError("rows_per_chip: must be at least 1")

    def window_rows(self) -> int:
        # must exceed the longest identical-chip run (the SF's) in rows
        window = round(self.rows_per_chip * (len(preamble(self.scheme)) + 2))
        return window + 1 if window % 2 == 0 else window


@dataclass(frozen=True)
class PartTable:
    """Every fragment read from a frame sequence, one row per part in
    stream order, with the frame counts and the config of the read;
    :func:`decode_samples` assembles it into a report with or without
    fusion.

    A part is a payload prefix (``forward``) or suffix of ``length`` bits,
    complete when that is the payload's length.  ``bits`` holds it at its
    place in the payload, zeros elsewhere, so a complete part's row is its
    payload.
    """

    frame: np.ndarray  # frame index
    position: np.ndarray  # where its SF starts among the frame's chips
    forward: np.ndarray  # bool
    ab: np.ndarray  # parts x Ab bits, int8
    length: np.ndarray
    bits: np.ndarray  # parts x payload_bits, int8
    n_frames: int
    n_frames_with_sf: int
    config: DecoderConfig


def _window_sums(x: np.ndarray, w: int, work: _Workspace,
                 name: str = "sums") -> np.ndarray:
    """Every ``w``-long window sum along the last axis (at least ``w``
    long), bit for bit as numpy's ``add.reduce`` sums a contiguous run of
    ``w`` (pairwise, from its ``+0.0`` identity), in a few whole-array
    shifted-slice adds.

    numpy adds fewer than 8 elements left to right.  Up to 128 it keeps
    8 accumulators ``r[j] = x[j] + x[j+8] + ...`` over the first
    ``w - w % 8`` elements, adds them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest one by one;
    past 128 it splits at ``w // 2`` rounded down to a multiple of 8.
    Window i's accumulators are ``y[i:i+8]`` of one array
    ``y[k] = x[k] + x[k+8] + ...`` that serves every window.  The arrays
    are ``work``'s, under ``name`` and names made from it.
    """
    lead, n = x.shape[:-1], x.shape[-1] - w + 1
    sums = work(name, lead + (n,))
    if w < 8:
        np.add(x[..., :n], 0.0, out=sums)
        for j in range(1, w):
            sums += x[..., j:j + n]
        return sums
    if w > 128:
        h = w // 2 - w // 2 % 8
        return np.add(_window_sums(x[..., :n + h - 1], h, work, name + "<"),
                      _window_sums(x[..., h:], w - h, work, name + ">"),
                      out=sums)
    m = w - w % 8
    # from +0.0, as numpy's identity: no sum comes out -0.0
    y = np.add(x[..., :n + 7], 0.0, out=work(name + "y", lead + (n + 7,)))
    for j in range(8, m, 8):
        y += x[..., j:j + n + 7]
    pairs = np.add(y[..., :-1], y[..., 1:],
                   out=work(name + "2", lead + (n + 6,)))
    quads = np.add(pairs[..., :-2], pairs[..., 2:], out=y[..., :n + 4])
    np.add(quads[..., :n], quads[..., 4:4 + n], out=sums)
    for j in range(m, w):
        sums += x[..., j:j + n]
    return sums


def detrend(row_luma, window: int, work: _Workspace) -> np.ndarray:
    """Subtract a centered moving average (odd window) along the last axis.

    Near the ends the window is truncated to the available rows and
    normalized by the actual count; replicating edge rows instead would
    bias the baseline exactly where fragments start and end.  A frames x
    rows block is detrended in one pass, each row exactly as on its own:
    the window sums are :func:`_window_sums`, numpy's pairwise order for
    one window summed alone.  The result and temporaries are ``work``'s.
    """
    signal = np.asarray(row_luma, dtype=np.float64)
    n = signal.shape[-1]
    window = min(window, n)
    if window % 2 == 0:
        window -= 1
    if window < 3:
        # C order, so a row's mean reduces as a contiguous run, as alone
        signal = np.ascontiguousarray(signal)
        return signal - signal.mean(axis=-1, keepdims=True) if n else signal
    half = window // 2
    padded = work("padded", signal.shape[:-1] + (n + 2 * half,))
    padded[..., :half] = padded[..., half + n:] = 0.0
    padded[..., half:half + n] = signal
    sums = _window_sums(padded, window, work)
    i = np.arange(n)
    sums /= np.minimum(i + half, n - 1) - np.maximum(i - half, 0) + 1
    return np.subtract(padded[..., half:half + n], sums,
                       out=work("detrended", sums.shape))


def _group_means(block: np.ndarray, rows_per_chip: float, offsets: int,
                 work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Chip-group means of ``block[:, offset:]`` for every offset below
    ``offsets``, side by side along the last axis, and the bounds of each
    offset's run in them.

    Each group sums in the order a one-frame, one-offset slice did, so
    the means match it bit for bit.  On an integer grid that slice was
    ``reshape(-1, step).sum(axis=1)``, which sums each contiguous group
    pairwise, the order of a detrend window: every offset's groups are
    among the ``step``-long windows of :func:`_window_sums`.  On a
    fractional grid it was ``np.add.reduceat``, which adds left to right.
    """
    frames, length = block.shape
    counts = [int((length - offset) / rows_per_chip + 1e-9)
              for offset in range(offsets)]
    bounds = np.array([0, *itertools.accumulate(counts)])
    step = int(round(rows_per_chip))
    if abs(rows_per_chip - step) < 1e-9:
        # an offset's group g is the window starting at offset + g * step
        sums = _window_sums(block, step, work)
        means = work("means", (frames, bounds[-1]))
        for offset, n in enumerate(counts):
            np.divide(sums[:, offset:offset + n * step:step], step,
                      out=means[:, bounds[offset]:bounds[offset + 1]])
        return means, bounds
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


def _sf_match(chips: np.ndarray, scheme: RllScheme,
              work: _Workspace) -> np.ndarray:
    """Where an exact start-frame pattern starts, along the last axis (one
    slice-AND pass), in ``work``'s array."""
    pattern = preamble(scheme)
    n = max(chips.shape[-1] - len(pattern) + 1, 0)
    match = work("match", chips.shape[:-1] + (n,), bool)
    np.equal(chips[..., :n], pattern[0], out=match)
    for k in range(1, len(pattern)):
        # of 0/1 chips: a match holds where a 1 is due and set, or a 0 not
        (np.logical_and if pattern[k] else np.greater)(
            match, chips[..., k:k + n], out=match)
    return match


def _slice(block, config: DecoderConfig, work: _Workspace
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Detrend and slice each frame (row) of a frames x rows block of
    covered rows into chips, and find their start frames.

    The chip phase relative to the row grid is unknown, so every row
    offset within one chip is tried.  Among offsets that detect an SF,
    the one with the sharpest slicing (largest mean absolute group mean)
    wins: the best-aligned offset mixes adjacent chips least, while a
    misaligned decode can alias whole spurious SF grids.

    Returns each frame's chips at its chosen offset as one frames x chips
    ``int8`` array, each frame's chip count (the runs of different offsets
    differ by at most one chip; a shorter run is padded), and the SF
    table: the frame and the chip position of every whole SF at the
    chosen offsets, by frame, then position.  A frame with no SF at any
    offset has no entry in the table.  The temporaries are ``work``'s.
    """
    block = np.asarray(block, dtype=np.float64)
    frames, length = block.shape
    if length < 2 * config.rows_per_chip:
        none = np.empty(0, dtype=np.intp)
        return (np.empty((frames, 0), dtype=np.int8),
                np.zeros(frames, dtype=np.intp), none, none)
    means, bounds = _group_means(detrend(block, config.window_rows(), work),
                                 config.rows_per_chip,
                                 max(1, math.ceil(config.rows_per_chip)), work)
    chips = np.greater(means, 0, out=work("chips", means.shape, bool)).view(
        np.int8)
    # one SF search along every offset's chips of every frame; a hit counts
    # for an offset only when the whole pattern lies inside that offset's run
    match = _sf_match(chips, config.scheme, work)
    sf_frame, column = np.divmod(np.flatnonzero(match), max(match.shape[1], 1))
    sf_len, runs = len(preamble(config.scheme)), bounds[1:] - bounds[:-1]
    run = np.searchsorted(bounds, column, side="right") - 1
    sf_position = column - bounds[run]
    inside = sf_position < runs[run] - sf_len + 1
    hits = np.bincount((sf_frame * len(runs) + run)[inside],
                       minlength=frames * len(runs)).reshape(frames, -1)
    # the best-aligned offset slices sharpest and sees the true chips; an
    # SF appearing only at a worse-margin offset is a phase-mixing alias.
    # The largest (margin, hits) wins and the first offset wins a tie.
    np.abs(means, out=means)
    margins = np.stack([means[:, lo:hi].sum(axis=1) / (hi - lo)
                        for lo, hi in zip(bounds[:-1], bounds[1:])], 1)
    top = margins == margins.max(axis=1, keepdims=True)
    best = np.where(top, hits, -1).argmax(axis=1)
    lengths = runs[best]
    chosen = np.zeros((frames, lengths.max()), dtype=np.int8)
    for offset, (lo, n) in enumerate(zip(bounds.tolist(), runs.tolist())):
        rows, n = best == offset, min(n, chosen.shape[1])
        chosen[rows, :n] = chips[rows, lo:lo + n]
    inside &= run == best[sf_frame]
    return chosen, lengths, sf_frame[inside], sf_position[inside]


def _read_parts(chips: np.ndarray, lengths: np.ndarray, sf_frame: np.ndarray,
                sf_position: np.ndarray, config: DecoderConfig,
                frame_indices) -> tuple[np.ndarray, ...]:
    """The part table's columns (:class:`PartTable`, frame to bits) of
    every SF's forward and backward fragment of a block, read in one array
    pass, in order of frame, SF position and direction (backward first).

    ``chips`` is frames x chips (row f valid up to ``lengths[f]``), the SF
    table gives each SF's row and chip position, and ``frame_indices``
    the frame index of each row.  Per frame, only the SFs on its dominant
    sub-packet grid are read (the lowest residue wins a tie).  A fragment
    is read away from its SF up to the first invalid codeword.  A
    complete fragment is dropped when the sub-packet's other Ab copy
    disagrees with the one next to the SF: it would poison grouping.
    """
    scheme, payload_bits = config.scheme, config.payload_bits
    sf_len = len(preamble(scheme))
    ab_chips = ab_chip_count(config.version)
    pay_chips = payload_chip_count(payload_bits, scheme)
    cw = codeword_chips(scheme)
    n_words = pay_chips // cw
    ds_chips = subpacket_chip_length(payload_bits, scheme, config.version)

    # keep only each frame's dominant sub-packet grid; stray matches are
    # artifacts
    residues = sf_position % ds_chips
    counts = np.bincount(sf_frame * ds_chips + residues,
                         minlength=len(chips) * ds_chips)
    dominant = counts.reshape(len(chips), ds_chips).argmax(axis=1)
    on_grid = residues == dominant[sf_frame]
    frame, position = sf_frame[on_grid], sf_position[on_grid]
    length = lengths[frame]

    words = codeword_values(chips, scheme)

    # per SF (rows) and direction (columns: backward, forward)
    end = position - ab_chips  # payload end of the sub-packet ending here
    start = position + sf_len + ab_chips  # payload start of the one starting
    n = np.stack([np.minimum(pay_chips, end),  # codewords in the window
                  np.minimum(pay_chips, length - start)], axis=1) // cw

    # the Ab copy next to the SF, then the sub-packet's other copy, each
    # valid when in range and made of Manchester symbols: a chip, its bit,
    # then its complement
    ab_lo = np.stack([end, position + sf_len,
                      end - pay_chips - ab_chips, start + pay_chips], axis=1)
    at = np.clip(ab_lo[..., None] + np.arange(0, ab_chips, 2), 0,
                 chips.shape[1] - 2)
    rows = frame[:, None, None]
    bit = chips[rows, at]
    ab = np.where(bit != chips[rows, at + 1], bit, -1)
    ab_ok = ((ab_lo >= 0) & (ab_lo + ab_chips <= length[:, None])
             & (ab >= 0).all(axis=-1))

    # every window's codewords in payload order: a backward window holds
    # the last n, a forward window the first n
    word_lo = np.stack([end - pay_chips, start], axis=1)
    at = np.clip(word_lo[..., None] + cw * np.arange(n_words), 0,
                 words.shape[1] - 1)
    values = words[frame[:, None, None], at]
    # counted away from the SF, a fragment ends at its first invalid
    # codeword or at the window's end: one argmax over both directions
    stop = np.ones(values.shape[:-1] + (n_words + 1,), dtype=bool)
    stop[:, 0, :-1] = values[:, 0, ::-1] < 0
    stop[:, 1, :-1] = values[:, 1] < 0
    stop[..., :-1] |= np.arange(n_words) >= n[..., None]
    kept = stop.argmax(axis=-1)
    complete = kept == n_words
    disagree = ab_ok[:, 2:] & (ab[:, 2:] != ab[:, :2]).any(axis=-1)
    read = ab_ok[:, :2] & (kept > 0) & ~(complete & disagree)

    s, d = np.divmod(np.flatnonzero(read), 2)
    cut = kept[s, d] * (payload_bits // n_words)
    forward = d == 1
    # each fragment at its place in the payload, zeros elsewhere
    column = np.arange(payload_bits)
    inside = np.where(forward[:, None], column < cut[:, None],
                      column >= payload_bits - cut[:, None])
    return (np.asarray(frame_indices, dtype=np.int64)[frame[s]], position[s],
            forward, ab[s, d].astype(np.int8), cut,
            codeword_bits(values[s, d], scheme) * inside)


def _vote(stack: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Per-position majority of each group of rows of ``stack`` (groups
    start at ``starts``, in order), and where each group tied; a tie takes
    the group's first row."""
    # counted wider than int8 whatever numpy's default for reduceat
    ones = np.add.reduceat(stack, starts, axis=0, dtype=np.intp)
    n = np.diff(np.append(starts, len(stack)))[:, None]
    voted = (2 * ones > n).astype(np.int8)
    ties = 2 * ones == n
    voted[ties] = stack[starts][ties]
    return voted, ties


def missed_counts(states, payloads) -> np.ndarray:
    """Packets missed between each two consecutive two-Ab observations,
    given their states (one ``(Ab1, Ab2)`` row each) and their payloads
    (one row each) in stream order.

    The state distance around the four-state cycle, one ``np.diff`` of the
    state index ``Ab1 + 2 Ab2`` mod 4, gives the gap; identical states with
    identical payloads are a resample of the same packet, identical states
    with different payloads mean a full cycle (three packets) was skipped.
    """
    states = np.asarray(states)
    if not len(states):  # no observations, no gaps
        return np.zeros(0, dtype=np.intp)
    known = np.zeros(len(states), dtype=bool)
    if states.shape[1:] == (2,):  # two Ab bits, each 0 or 1
        known = np.isin(states, (0, 1)).all(axis=1)
    if not known.all():
        state = tuple(np.ravel(states[np.argmin(known)]).tolist())
        raise ValueError(f"unknown Ab state {state!r}")
    step = np.diff(states[:, 0] + 2 * states[:, 1]) % 4
    payloads = np.asarray(payloads)
    same = (payloads[1:] == payloads[:-1]).all(axis=-1)
    return np.where(step == 0, np.where(same, 0, 3), step - 1)


def detect_missed(states, payloads, frames) -> list[GapReport]:
    """Missed-packet reports from consecutive two-Ab observations, given
    their state, payload and frame index columns in stream order; each
    consecutive pair is counted by :func:`missed_counts`."""
    missed = missed_counts(states, payloads)
    at = np.flatnonzero(missed)
    after, counts = np.asarray(states)[at].tolist(), missed[at].tolist()
    frames = np.asarray(frames).tolist()
    return [GapReport(tuple(state), count, (frames[i], frames[i + 1]))
            for state, count, i in zip(after, counts, at.tolist())]


def group_parts(table: PartTable) -> np.ndarray:
    """Each part's group: contiguous same-state runs, split at each part
    whose fragment differs from the same bits of its group's first
    complete row, so packets four indices apart (same two-bit state) are
    not merged.  Each round compares the parts of the groups split last
    with their known rows, packed, under packed fragment masks."""
    n, count = table.config.payload_bits, len(table.length)
    packed = np.packbits(table.bits, axis=1)
    col, cut = np.arange(n), np.arange(n + 1)[:, None]
    masks = np.packbits([col >= n - cut, col < cut], axis=-1)  # [fw][length]
    complete = np.append(np.flatnonzero(table.length == n), count)
    split = np.flatnonzero(np.diff(table.ab, axis=0, prepend=-1).any(axis=1))
    start = np.zeros(count, dtype=bool)
    while len(split):
        fresh = np.zeros(count, dtype=bool)
        fresh[split] = start[split] = True
        first = np.flatnonzero(start)[np.cumsum(start) - 1]  # group start
        known = complete[np.searchsorted(complete, first)]
        at = np.flatnonzero((known < np.arange(count)) & fresh[first])
        diff = packed[at] ^ packed[known[at]]
        diff &= masks[table.forward[at].astype(np.intp), table.length[at]]
        hit = at[diff.any(axis=1)]
        split = hit[np.flatnonzero(np.diff(first[hit], prepend=-1))]
    return np.cumsum(start, dtype=np.intp) - 1


def fuse(table: PartTable, group: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Payloads joined from each group's incomplete prefixes and suffixes
    that together cover the payload: first same-frame pairs, each prefix
    in stream order with its frame's first unused suffix that completes
    it, then the rest by rank, longest first, ties in stream order.
    Returns, in that order, each join's group, its payload (the forward
    fragment wins the overlap) and whether its halves disagree there."""
    n = table.config.payload_bits
    half = np.flatnonzero(table.length < n)
    half = half[np.lexsort((table.frame[half], group[half]))]  # by bucket
    g, fw, ln = group[half], table.forward[half], table.length[half]
    lo = np.flatnonzero(np.diff(g, prepend=-1)
                        | np.diff(table.frame[half], prepend=-1))
    size = np.diff(lo, append=len(half))
    prefixes = np.add.reduceat(fw, lo, dtype=np.intp)
    one = lo[(prefixes == 1) & (size == 2)]  # one prefix, one suffix
    pairs = [np.stack([one + ~fw[one], one + fw[one]])[
        :, ln[one] + ln[one + 1] >= n]]
    fwl, lnl = fw.tolist(), ln.tolist()
    many = (prefixes > 0) & (prefixes < size) & (size > 2)
    for a, b in zip(lo[many].tolist(), (lo + size)[many].tolist()):
        left = [j for j in range(a, b) if not fwl[j]]
        for i in filter(fwl.__getitem__, range(a, b)):
            j = next((j for j in left if lnl[i] + lnl[j] >= n), None)
            if j is not None:
                left.remove(j)
                pairs.append([[i], [j]])
    sp, ss = np.concatenate(pairs, axis=1)
    rest = np.flatnonzero(np.bincount(np.concatenate([sp, ss]),
                                      minlength=len(half)) == 0)  # unpaired
    rest = rest[np.lexsort((half[rest], -ln[rest], fw[rest], g[rest]))]
    block = 2 * g[rest] + fw[rest]  # a group's suffixes, then its prefixes
    first = np.searchsorted(block, block)
    rp = np.flatnonzero(fw[rest])
    rs = np.minimum(np.searchsorted(block, block[rp] - 1) + rp - first[rp],
                    first[rp])  # the suffix of the same rank, if any
    keep = (rs < first[rp]) & (ln[rest[rp]] + ln[rest[rs]] >= n)
    rp, rs = rp[keep], rs[keep]
    pre, suf = np.concatenate([sp, rest[rp]]), np.concatenate([ss, rest[rs]])
    # same-frame pairs by prefix stream index, then the rest by rank
    order = np.lexsort((np.concatenate([half[sp], len(group) + rp]), g[pre]))
    pre, suf = half[pre[order]], half[suf[order]]
    column = np.arange(n)
    prefix = column < table.length[pre, None]
    overlap = prefix & (column >= n - table.length[suf, None])
    halves = table.bits[pre], table.bits[suf]
    return (group[pre], np.where(prefix, *halves),
            (overlap & (halves[0] != halves[1])).any(axis=1))


def _read_runs(runs, config: DecoderConfig) -> tuple[np.ndarray, ...]:
    """:func:`_read_parts` of sliced runs, each (chips, lengths, SF table,
    frame indices), at once: their chips stacked, each padded to the
    widest."""
    chips, lengths, sf_frame, sf_position, indices = zip(*runs)
    first = np.cumsum([0, *map(len, chips)])  # each run's first row
    stacked = np.zeros((first[-1], max(c.shape[1] for c in chips)), np.int8)
    for run, row in zip(chips, first.tolist()):
        stacked[row:row + len(run), :run.shape[1]] = run
    return _read_parts(stacked, np.concatenate(lengths),
                       np.concatenate([f + s for f, s in zip(first, sf_frame)]),
                       np.concatenate(sf_position), config,
                       np.concatenate(indices))


def extract_parts(blocks: Iterable[FrameBlock],
                  config: DecoderConfig) -> PartTable:
    """Slice and read frame blocks, in order, into their part table; each
    block is read as it comes, its covered rows in frames x rows runs of
    at most ``_BLOCK_ELEMENTS`` values."""
    # a block of no frames gives each column its dtype and row shape
    work, runs = _Workspace(), []  # this call's own; runs sliced, not read
    reads = [_read_parts(*_slice(np.empty((0, 0)), config, work), config, [])]
    frames = frames_with_sf = 0
    for block in blocks:
        covered = block.luma[:, block.covered]
        step = max(1, _BLOCK_ELEMENTS // max(covered.shape[1], 1))
        for lo in range(0, len(covered), step):
            runs.append((*_slice(covered[lo:lo + step], config, work),
                         block.index[lo:lo + step]))
            frames_with_sf += np.count_nonzero(np.bincount(runs[-1][2]))
            if sum(run[0].size for run in runs) >= _BLOCK_ELEMENTS:
                reads.append(_read_runs(runs, config))
                runs = []
        frames += len(covered)
    if runs:
        reads.append(_read_runs(runs, config))
    return PartTable(*map(np.concatenate, zip(*reads)), frames,
                     int(frames_with_sf), config)


def decode_samples(table: PartTable, *, fusion: bool) -> LinkReport:
    """Group, fuse (when ``fusion``) and vote a part table into a link
    report, under the payload length and frame structure of its read."""
    config = table.config
    group = group_parts(table)
    first = np.flatnonzero(np.diff(group, prepend=-1))  # a group's first part
    complete = table.length == config.payload_bits
    sample_group, rows = group[complete], table.bits[complete]
    flagged = np.zeros(len(first), dtype=bool)
    if fusion:
        join_group, joined, overlap = fuse(table, group)
        sample_group = np.concatenate([sample_group, join_group])
        rows = np.concatenate([rows, joined])
        flagged[join_group[overlap]] = True

    # every recovered group's samples, stably in group order (complete
    # rows, then joins), voted at once
    order = np.argsort(sample_group, kind="stable")
    sample_group, rows = sample_group[order], rows[order]
    starts = np.flatnonzero(np.diff(sample_group, prepend=-1))
    ids = sample_group[starts]
    voted, ties = _vote(rows, starts)
    ab = table.ab[first[ids]]
    first_frame = np.minimum.reduceat(table.frame, first)[ids]
    gaps: list[GapReport] = []
    if config.version is FrameStructure.V2_TWO_AB:
        gaps = detect_missed(ab, voted, first_frame)

    return LinkReport(
        n_frames=table.n_frames,
        n_frames_with_sf=table.n_frames_with_sf,
        n_parts=len(group),
        n_complete_parts=int(np.count_nonzero(complete)),
        ab=ab,
        payload=voted,
        first_frame=first_frame,
        last_frame=np.maximum.reduceat(table.frame, first)[ids],
        n_samples=np.diff(np.append(starts, len(rows))),
        ties=ties,
        overlap=flagged[ids],
        n_unrecovered_groups=len(first) - len(ids),
        gaps=gaps,
    )
