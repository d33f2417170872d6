"""Closed-form link-rate and detection-error analysis, with simulation checks.

All closed forms are evaluated in exact rational arithmetic (Fraction) so
arithmetic identities in the tests hold without float tolerance.  The
Monte-Carlo routines run the full encode -> channel -> decode pipeline and
report empirical rates beside the formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .camera import sample_frames
from .configs import ExperimentConfig
from .decoder import decode_samples, extract_parts
from .experiment import (
    GapAccounting,
    gap_accounting,
    random_payloads,
    run_link,
)
from .framing import FrameStructure, ab_chip_count, build_packet_stream
from .rll import RllScheme, efficiency, preamble


class NonPositiveBudget(ValueError):
    """Overhead consumes the whole per-image symbol budget."""


def symbols_per_image(optical_clock_hz: float) -> int:
    """Recordable LED states per image: smallest integer above 0.0311 * f."""
    if optical_clock_hz <= 0:
        raise ValueError("optical clock must be positive")
    return math.floor(round(0.0311 * optical_clock_hz, 9)) + 1


def scheme_overhead(scheme: RllScheme,
                    version: FrameStructure = FrameStructure.V1_ONE_AB) -> int:
    """Overhead chips counted once per image: SF plus one Ab chip group."""
    return len(preamble(scheme)) + ab_chip_count(version)


def bit_rate_limit(eta, symbols_per_frame, overhead, fps_min) -> Fraction:
    """Error-free bit-rate ceiling from the frame-rate floor, one
    sub-packet per frame; ValueError for a floor that is not positive or
    whose ceiling is above the largest float."""
    if not 0 < fps_min < math.inf:
        raise ValueError(f"fps_min: must be positive, got {fps_min!r}")
    eta = Fraction(eta)
    budget = Fraction(symbols_per_frame) - Fraction(overhead)
    if budget <= 0:
        raise NonPositiveBudget(
            f"overhead {overhead} exhausts the per-frame budget of "
            f"{symbols_per_frame} symbols"
        )
    rate = eta * budget * Fraction(fps_min)
    if rate > sys.float_info.max:
        raise ValueError(f"fps_min: {fps_min!r} gives a ceiling above the "
                         f"largest float")
    return rate


def throughput_packet(eta, payload_symbols, overhead, packet_rate) -> Fraction:
    """Net bit rate by packet rate; sub-packet repetitions do not appear."""
    eta = Fraction(eta)
    budget = Fraction(payload_symbols) - Fraction(overhead)
    if budget <= 0:
        raise NonPositiveBudget(
            f"overhead {overhead} exhausts the {payload_symbols}-symbol payload"
        )
    return eta * budget * Fraction(packet_rate)


def skip_probability(packet_length_s, excess_interval_s) -> Fraction:
    """Probability a packet is skipped by one overlong sampling interval.

    Closed form excess/(24*T) for excess below the packet length; beyond
    that regime the linear form is extended and capped at 1.
    """
    t = Fraction(packet_length_s)
    delta = Fraction(excess_interval_s)
    if t <= 0:
        raise ValueError("packet length must be positive")
    if delta <= 0:
        return Fraction(0)
    return min(Fraction(1), delta / (24 * t))


def der(packet_rate, frame_rate_mean, frame_rate_floor=None) -> Fraction:
    """Detection error rate for missed payloads.

    Zero when the instantaneous frame rate is guaranteed to stay at or
    above a quarter of the packet rate (pass the guaranteed floor to claim
    this); otherwise (R_packet - mean) / (24 * R_packet^2), floored at 0.
    """
    rp = Fraction(packet_rate)
    mean = Fraction(frame_rate_mean)
    if rp <= 0 or mean <= 0:
        raise ValueError("rates must be positive")
    if frame_rate_floor is not None and Fraction(frame_rate_floor) >= rp / 4:
        return Fraction(0)
    return max(Fraction(0), (rp - mean) / (24 * rp * rp))


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson score 95 % interval of a binomial proportion."""
    z = 1.96  # the normal quantile of a two-sided 95 % interval
    if total <= 0:
        raise ValueError("total must be positive")
    p = successes / total
    denom = 1 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / total
                                   + z * z / (4 * total * total))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class DerEstimate:
    packet_rate: float
    fps_floor: float
    transmitted: int
    missed_true: int
    missed_reported: int
    undetected: int
    corrupt_observations: int
    der_formula: Fraction
    der_empirical: float
    ci_low: float
    ci_high: float


# packets per simulated link of a detection-error study
_DER_CHUNK = 2500


def monte_carlo_der(config: ExperimentConfig, seed: int) -> DerEstimate:
    """Empirical detection error rate over the config's simulated links.

    The config supplies the packet count (``trials``), the plan, the
    camera, the line code, the row grid, the footprint and the payload
    width.  The packets run as links of at most 2 500 each: link i is the
    config with ``seed=config.seed + 101 i`` (its camera) and its share of
    the trials, and draws its payloads at ``seed + 101 i``, pairwise
    distinct so every observation maps to its packet, making the
    undetected-miss count exact.  The links' gap counts are summed under
    one Wilson interval.  The config must use the two-Ab (v2) structure.
    """
    if config.frame_structure is not FrameStructure.V2_TWO_AB:
        raise ValueError("detection-error studies require a v2 (two-Ab) config")
    accounting = GapAccounting([], 0)
    for index, start in enumerate(range(0, config.trials, _DER_CHUNK)):
        link = replace(config, seed=config.seed + 101 * index,
                       trials=min(_DER_CHUNK, config.trials - start))
        payloads = random_payloads(link.trials, link.payload_bits,
                                   seed + 101 * index, distinct=True)
        outcome = run_link(payloads, link.plan(), link.rll_scheme,
                           link.frame_structure, link.camera(),
                           link.rows_per_chip, link.geometry())
        part = gap_accounting(outcome, strict=False)
        accounting.pairs += part.pairs
        accounting.corrupt_observations += part.corrupt_observations

    undetected = accounting.undetected()
    ci_low, ci_high = wilson_interval(undetected, config.trials)
    floor = config.mean_fps - config.delta_fps
    return DerEstimate(
        packet_rate=config.packet_rate,
        fps_floor=floor,
        transmitted=config.trials,
        missed_true=accounting.true_missed(),
        missed_reported=accounting.reported_missed(),
        undetected=undetected,
        corrupt_observations=accounting.corrupt_observations,
        der_formula=der(config.packet_rate, config.mean_fps, floor),
        der_empirical=undetected / config.trials,
        ci_low=ci_low,
        ci_high=ci_high,
    )


DEFAULT_SWEEP_GRID = (100, 200, 400, 700, 1000, 1500, 2000,
                      3000, 4000, 5000, 6000, 7000, 8000)


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    f_hz: float
    symbols_per_image: int
    overhead: int
    eta: Fraction
    bitrate_bps: Fraction | None
    status: str  # "ok" or "nonpositive_budget"


def sweep_frequency(f_list=DEFAULT_SWEEP_GRID, fps_min: float = 20.0
                    ) -> list[SweepRow]:
    """One-Ab bit-rate ceiling per (scheme, optical clock) over the usable band."""
    rows = []
    for scheme in RllScheme:
        for f in f_list:
            symbols = symbols_per_image(f)
            overhead = scheme_overhead(scheme)
            try:
                rate = bit_rate_limit(efficiency(scheme), symbols, overhead,
                                      fps_min)
                status = "ok"
            except NonPositiveBudget:
                rate = None
                status = "nonpositive_budget"
            rows.append(SweepRow(scheme.value, f, symbols, overhead,
                                 efficiency(scheme), rate, status))
    return rows


@dataclass(frozen=True)
class FusionStudyConfig:
    """One grid of fusion-vs-distance link simulations.

    The defaults keep one sub-packet well inside the sensor so the
    near-distance cells recover without fusion; studies probing the far
    regime use larger sub-packets and a slower packet rate.
    """

    scheme: RllScheme = RllScheme.MANCHESTER
    version: FrameStructure = FrameStructure.V1_ONE_AB
    payload_bits_grid: tuple[int, ...] = (40,)
    distance_ratios: tuple[float, ...] = (0.5, 1.0, 1.5, 1.8, 2.0, 2.5)
    packet_rate: float = 0.5
    optical_clock_hz: float = 3000.0
    rows_per_chip: int = 2
    camera_rows: int = 300
    mean_fps: float = 15.0
    delta_fps: float = 2.0
    packets: int = 40
    seed: int = 11


@dataclass(frozen=True)
class FusionStudyRow:
    distance_ratio: float
    ds_length_s: float
    fusion: bool
    recovered_fraction: float


def fusion_gain_experiment(config: FusionStudyConfig) -> list[FusionStudyRow]:
    """Recovery fraction over (sub-packet length x distance x fusion).

    Each cell is an ``ExperimentConfig`` at ``distance_ratio`` against a
    reference distance of 1.0: the footprint model pins the optics once
    across the whole grid, so the reference distance of each sub-packet
    length scales as 1/ds_length and absolute distances are comparable
    between grid cells.  Each cell's frames are sampled and their parts
    extracted once; the one part table is assembled twice, with fusion on
    and with fusion off.
    """
    rows: list[FusionStudyRow] = []
    for ds_index, payload_bits in enumerate(config.payload_bits_grid):
        for ratio_index, ratio in enumerate(config.distance_ratios):
            seed = config.seed + 1000 * ds_index + 10 * ratio_index
            cell = ExperimentConfig(
                scheme=config.scheme.value, version=config.version.value,
                optical_clock_hz=config.optical_clock_hz,
                packet_rate=config.packet_rate, payload_bits=payload_bits,
                rows_per_chip=config.rows_per_chip,
                camera_rows=config.camera_rows, mean_fps=config.mean_fps,
                delta_fps=config.delta_fps, distance=ratio,
                reference_distance=1.0, seed=seed + 1, trials=config.packets)
            payloads = random_payloads(cell.trials, cell.payload_bits, seed,
                                       distinct=True)
            sent = {p.tobytes() for p in payloads}
            stream = build_packet_stream(payloads, cell.plan(),
                                         cell.rll_scheme, cell.frame_structure)
            table = extract_parts(
                sample_frames(stream, cell.camera(), cell.geometry()),
                cell.decoder())
            for fusion in (True, False):
                report = decode_samples(table, fusion=fusion)
                got = {p.tobytes() for p in report.payload}
                rows.append(FusionStudyRow(
                    distance_ratio=ratio,
                    ds_length_s=cell.ds_length_s,
                    fusion=fusion,
                    recovered_fraction=len(sent & got) / len(sent),
                ))
            del table  # held only while its cell is decoded
    return rows
