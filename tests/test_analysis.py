"""Closed-form link formulas, their exactness, and simulation cross-checks."""

import re
from fractions import Fraction

import pytest

from occsim.analysis import (
    DEFAULT_SWEEP_GRID,
    FusionStudyConfig,
    FusionStudyRow,
    NonPositiveBudget,
    bit_rate_limit,
    der,
    fusion_gain_experiment,
    monte_carlo_der,
    scheme_overhead,
    sweep_frequency,
    symbols_per_image,
    throughput_packet,
    wilson_interval,
)
from dataclasses import replace

from occsim.camera import sample_frames
from occsim.configs import PRESETS, ExperimentConfig
from occsim.decoder import decode_samples, extract_parts
from occsim.experiment import random_payloads
from occsim.framing import (
    FrameStructure,
    PacketPlan,
    build_packet_stream,
    subpacket_chip_length,
)
from occsim.rll import RllScheme, efficiency

V1 = FrameStructure.V1_ONE_AB
V2 = FrameStructure.V2_TWO_AB


class TestSymbolsPerImage:
    @pytest.mark.parametrize("f,expected", [(1000, 32), (2000, 63), (8000, 249)])
    def test_reference_points(self, f, expected):
        assert symbols_per_image(f) == expected

    def test_strictly_above(self):
        # an exact product still rounds up to the next integer
        f = 10_000  # 0.0311 * f = 311 exactly
        assert symbols_per_image(f) == 312

    def test_positive_clock_required(self):
        with pytest.raises(ValueError):
            symbols_per_image(0)


class TestOverhead:
    def test_v1_overheads(self):
        assert scheme_overhead(RllScheme.MANCHESTER, V1) == 8
        assert scheme_overhead(RllScheme.FOUR_B_SIX_B, V1) == 12
        assert scheme_overhead(RllScheme.EIGHT_B_TEN_B, V1) == 21

    def test_v2_adds_two_chips(self):
        for scheme in RllScheme:
            assert scheme_overhead(scheme, V2) == scheme_overhead(scheme, V1) + 2


class TestBitRateLimit:
    def test_reference_value_exact(self):
        rate = bit_rate_limit(Fraction(1, 2), 63, 8, 20)
        assert rate == 550

    def test_degenerate_no_overhead(self):
        assert bit_rate_limit(1, 63, 0, 20) == 63 * 20

    def test_doubling_clock_roughly_doubles(self):
        lo = bit_rate_limit(Fraction(1, 2), symbols_per_image(2000), 8, 20)
        hi = bit_rate_limit(Fraction(1, 2), symbols_per_image(4000), 8, 20)
        assert abs(hi / lo - 2) < 0.15

    def test_nonpositive_budget(self):
        with pytest.raises(NonPositiveBudget):
            bit_rate_limit(Fraction(1, 2), 8, 8, 20)

    @pytest.mark.parametrize("fps_min, symbols",
                             [(0, 63), (-5, 63), (-5, 8), (1e308, 63)])
    def test_floor_rejected_by_value(self, fps_min, symbols):
        # a plain ValueError that names the floor, not the row status
        # NonPositiveBudget, even where the budget is spent (8 symbols)
        with pytest.raises(ValueError, match=re.escape(repr(fps_min))) as exc:
            bit_rate_limit(Fraction(1, 2), symbols, 8, fps_min)
        assert type(exc.value) is ValueError

    def test_matches_packet_form_at_floor(self):
        # frame-rate-floor form with one sub-packet per frame equals the
        # packet-rate form at a packet rate of 20/s
        for symbols in (40, 63, 125):
            assert bit_rate_limit(Fraction(1, 2), symbols, 8, 20) == \
                throughput_packet(Fraction(1, 2), symbols, 8, 20)


class TestThroughputPacket:
    def test_reference_value_exact(self):
        assert throughput_packet(Fraction(1, 2), 63, 8, 10) == 275

    def test_linear_in_packet_rate(self):
        assert throughput_packet(Fraction(1, 2), 63, 8, 20) == 2 * 275

    def test_repetitions_do_not_appear(self):
        # the same payload budget with any repetition plan yields the same
        # net throughput: repeated sub-packets carry no new payload
        clock = 1000.0
        ds = subpacket_chip_length(5, RllScheme.MANCHESTER, V1) / clock
        rates = set()
        for reps in range(1, 6):
            plan = PacketPlan(10.0, ds, reps, clock)
            rates.add(throughput_packet(efficiency(RllScheme.MANCHESTER),
                                        plan.ds_chips, 8, plan.packet_rate))
        assert len(rates) == 1


class TestThroughputWithDetection:
    """The two-bit structure's throughput: the packet form at the boosted
    packet rate, with the v2 overhead."""

    def test_v2_overhead_lowers_equal_rate_throughput(self):
        v1 = throughput_packet(Fraction(1, 2), 63,
                               scheme_overhead(RllScheme.MANCHESTER, V1), 10)
        v2 = throughput_packet(
            Fraction(1, 2), 63, scheme_overhead(RllScheme.MANCHESTER, V2), 10)
        assert v2 < v1

    def test_quadruple_rate_gain_for_large_payloads(self):
        for symbols in (16, 32, 63, 125):
            v1 = bit_rate_limit(Fraction(1, 2), symbols, 8, 20)
            v2 = throughput_packet(Fraction(1, 2), symbols, 10, 80)
            assert v2 > v1


class TestDer:
    def test_guaranteed_branch(self):
        assert der(20, 10, frame_rate_floor=5) == 0

    def test_reference_value_exact(self):
        assert der(20, 10) == Fraction(10, 9600)

    def test_continuous_at_zero(self):
        assert der(20, 20) == 0
        assert der(20, Fraction(199, 10)) == Fraction(1, 96000)

    def test_never_negative(self):
        assert der(20, 25) == 0


def _mc_config(mean_fps, delta_fps, seed, trials):
    # the table5_v2 link: 18-bit Manchester v2 payloads at 20 packets/s
    return replace(PRESETS["table5_v2"], mean_fps=mean_fps,
                   delta_fps=delta_fps, seed=seed, trials=trials)


class TestMonteCarloDer:
    def test_guaranteed_floor_zero_undetected(self):
        est = monte_carlo_der(_mc_config(12.0, 7.0, 3, 10_000), seed=5)
        assert est.fps_floor == 5.0
        assert est.undetected == 0
        assert est.der_empirical == 0.0
        assert est.der_formula == 0
        assert est.corrupt_observations == 0

    def test_below_floor_reports_losses(self):
        est = monte_carlo_der(_mc_config(4.0, 1.0, 3, 1500), seed=5)
        assert est.undetected > 0
        assert est.der_empirical > 0
        assert est.der_formula == der(20, 4)
        assert est.ci_low <= est.der_empirical <= est.ci_high

    def test_empty_experiment_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_der(_mc_config(12.0, 7.0, 3, 0), seed=1)

    def test_requires_v2(self):
        with pytest.raises(ValueError, match="v2"):
            monte_carlo_der(replace(PRESETS["table5_v1"], trials=10), seed=1)

    def test_simulates_the_configs_own_grid(self):
        # three rows per chip: the link must be sliced on its own grid, so
        # frames decode and the misses of the 5 fps floor are all reported
        config = replace(PRESETS["table5_v2"], rows_per_chip=3,
                         camera_rows=300, trials=300)
        assert config.validate() == []
        est = monte_carlo_der(config, config.seed + 1)
        assert est.missed_true > 0
        assert est.undetected == 0
        assert est.missed_reported == est.missed_true


def _ref_fusion_rows(config: FusionStudyConfig) -> list[FusionStudyRow]:
    """The fusion study with each arm extracting its own parts from the
    cell's frames."""
    rows = []
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
            payloads = random_payloads(cell.trials, payload_bits, seed,
                                       distinct=True)
            samples = sample_frames(
                build_packet_stream(payloads, cell.plan(), cell.rll_scheme,
                                    cell.frame_structure),
                cell.camera(), cell.geometry())
            sent = {p.tobytes() for p in payloads}
            for fusion in (True, False):
                report = decode_samples(extract_parts(samples, cell.decoder()),
                                        fusion=fusion)
                got = {p.tobytes() for p in report.payload}
                rows.append(FusionStudyRow(ratio, cell.ds_length_s, fusion,
                                           len(sent & got) / len(sent)))
    return rows


class TestFusionStudy:
    def test_near_distance_identical_with_and_without(self):
        rows = fusion_gain_experiment(FusionStudyConfig(
            distance_ratios=(0.5,), packets=10, seed=2))
        by_mode = {r.fusion: r.recovered_fraction for r in rows}
        assert by_mode[True] == by_mode[False] == 1.0

    def test_rows_match_an_extraction_per_arm(self):
        config = FusionStudyConfig(payload_bits_grid=(40, 80),
                                   distance_ratios=(1.0, 2.5), packets=8,
                                   packet_rate=0.25, seed=5)
        rows = fusion_gain_experiment(config)
        assert rows == _ref_fusion_rows(config)
        # the grid reaches a cell that only fusion recovers in part
        assert any(a.recovered_fraction != b.recovered_fraction
                   for a, b in zip(rows[::2], rows[1::2]))


class TestSweep:
    def test_shape_matches_expectations(self):
        rows = sweep_frequency()
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row.scheme, []).append(row)

        # monotone non-decreasing in clock for every scheme
        for scheme_rows in by_scheme.values():
            rates = [r.bitrate_bps for r in scheme_rows if r.bitrate_bps is not None]
            assert all(b >= a for a, b in zip(rates, rates[1:]))

        # 8B10B dominates at 4 kHz and above
        for f in (4000, 5000, 6000, 7000, 8000):
            at_f = {r.scheme: r.bitrate_bps for r in rows if r.f_hz == f}
            assert at_f["8b10b"] > at_f["4b6b"] > at_f["manchester"]

        # at the lowest clock where both are feasible, 4B6B wins
        feasible = sorted(
            f for f in DEFAULT_SWEEP_GRID
            if all(r.bitrate_bps is not None for r in rows
                   if r.f_hz == f and r.scheme in ("4b6b", "8b10b")))
        f0 = feasible[0]
        at_f0 = {r.scheme: r.bitrate_bps for r in rows if r.f_hz == f0}
        assert at_f0["4b6b"] >= at_f0["8b10b"]

    def test_budget_exhaustion_flagged(self):
        rows = sweep_frequency(f_list=(100,))
        assert all(r.status == "nonpositive_budget" for r in rows)
        assert all(r.bitrate_bps is None for r in rows)


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 50)
        assert lo < 7 / 50 < hi
