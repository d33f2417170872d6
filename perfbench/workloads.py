"""The benchmark's workloads, their inputs and their output checks.

Each workload is built from a seed, runs one pass through occsim's public
entry points (``experiment.run_link``, ``analysis.fusion_gain_experiment``
and ``cli.main``), and summarizes each cell's output into a digest and the
simulated statistics.  Inputs the benchmark generates itself are made
outside the pass, so a pass times only the program.

Seeds: ``DEFAULT_SEED`` reproduces the presets' own seeds and the far-field
fusion study behind ``results/fusion_deep.csv``; seed ``s`` shifts every
cell's seed by ``s``.  Digests are pinned in ``golden.json`` for the default
seed only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as _stdio
import json
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from occsim import analysis, cli, configs, decoder, experiment, framing

DEFAULT_SEED = 0
GOLDEN = Path(__file__).with_name("golden.json")

# acceptance criterion 4's far-field cell: 245-chip sub-packets that the
# 1.8x-distance footprint cuts short, so only inter-frame fusion recovers
FUSION_FAR = dict(payload_bits_grid=(175,), distance_ratios=(1.8,),
                  packet_rate=0.2, optical_clock_hz=8640.0, camera_rows=490,
                  mean_fps=27.5, delta_fps=7.5, packets=100)
FUSION_FAR_SEED = 11


@dataclass
class CellResult:
    """One cell's output digest and simulated statistics for one pass."""

    name: str
    digest: str
    frames: int
    packets: int
    recovered: int
    false_payloads: int
    undetected_misses: int = 0
    headline: bool = True  # counted in the workload's end-to-end metrics


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report: decoder.LinkReport, extra=None) -> str:
    """Recovered payload hex list, gap list and counters of a LinkReport."""
    return _digest({
        "payloads": [decoder.bits_to_hex(p) for p in report.payloads()],
        "gaps": [[list(g.after_packet_state), g.missed_count,
                  list(g.frame_indices)] for g in report.gaps],
        "counters": [report.n_frames, report.n_frames_with_sf, report.n_parts,
                     report.n_complete_parts, report.n_unrecovered_groups],
        "extra": extra,
    })


def _key(bits) -> tuple[int, ...]:
    return tuple(int(b) for b in bits)


def recovery_counts(sent, got) -> tuple[int, int]:
    """(transmitted packets recovered exactly, recovered payloads never sent).

    A payload value sent k times counts as recovered at most k times.
    """
    sent_count = Counter(_key(p) for p in sent)
    got_count = Counter(_key(p) for p in got)
    recovered = sum((sent_count & got_count).values())
    false = sum(n for k, n in got_count.items() if k not in sent_count)
    return recovered, false


def _payloads(cell: configs.ExperimentConfig) -> list[np.ndarray]:
    # drawn distinct whenever the payload space allows, as `occsim encode`
    # does for wide payloads, so recovered payloads map back to packets
    distinct = cell.trials <= 1 << cell.payload_bits
    return experiment.random_payloads(cell.trials, cell.payload_bits,
                                      cell.seed, distinct=distinct)


def _seeded(cell: configs.ExperimentConfig, seed: int
            ) -> configs.ExperimentConfig:
    cell.seed += seed
    problems = cell.validate()
    if problems:
        raise ValueError(f"{cell.name}: {'; '.join(problems)}")
    return cell


def preset_cells(seed: int) -> list[configs.ExperimentConfig]:
    """The five bundled presets plus two bench-defined cells, validated."""
    cells = [configs.load_config(name) for name in configs.PRESETS]
    by_name = {c.name: c for c in cells}
    # no preset exercises 8B10B; this variant passes validate() and loses
    # nothing at zero noise
    cells.append(dataclasses.replace(
        by_name["table5_v1"], name="table5_v1_8b10b", scheme="8b10b",
        payload_bits=24, packet_rate=10.0))
    # the invalid-codeword path: ~1000 InvalidCodeword per pass
    cells.append(dataclasses.replace(
        by_name["table8_manchester_2k"], name="table8_manchester_2k_noisy",
        noise_sigma=0.3))
    return [_seeded(cell, seed) for cell in cells]


def pipeline_cell(seed: int) -> configs.ExperimentConfig:
    return _seeded(configs.load_config(FilePipeline.PRESET), seed)


def fusion_config(seed: int) -> analysis.FusionStudyConfig:
    return analysis.FusionStudyConfig(**FUSION_FAR, seed=FUSION_FAR_SEED + seed)


class Workload:
    """One pass of a workload, its summary and its checks."""

    name: str
    frames_csv_bytes = 0

    def warm_up(self):
        """Untimed: fills caches and finishes lazy set-up before timing."""
        self.run_pass()

    def run_pass(self):
        raise NotImplementedError

    def summarize(self, outputs) -> list[CellResult]:
        raise NotImplementedError

    def check(self, results: list[CellResult]) -> list[str]:
        return []

    def close(self):
        pass


class Presets(Workload):
    """run_link over every preset cell; gap accounting on table5_v2."""

    name = "presets"

    def __init__(self, root: Path, seed: int):
        self.cells = preset_cells(seed)
        self.inputs = [(cell, _payloads(cell), cell.plan(), cell.camera(),
                        cell.geometry()) for cell in self.cells]

    def run_pass(self):
        outputs = []
        for cell, payloads, plan, camera, geometry in self.inputs:
            outcome = experiment.run_link(
                payloads, plan, cell.rll_scheme, cell.frame_structure, camera,
                cell.rows_per_chip, geometry)
            accounting = (experiment.gap_accounting(outcome, strict=False)
                          if cell.version == "v2" else None)
            outputs.append((outcome, accounting))
        return outputs

    def summarize(self, outputs) -> list[CellResult]:
        results = []
        for (cell, payloads, *_), (outcome, accounting) in zip(self.inputs,
                                                                outputs):
            recovered, false = recovery_counts(payloads,
                                               outcome.report.payloads())
            extra = None
            undetected = 0
            if accounting is not None:
                extra = [accounting.pairs, accounting.corrupt_observations]
                undetected = accounting.undetected()
            results.append(CellResult(
                cell.name, report_digest(outcome.report, extra),
                outcome.n_frames_sampled, len(payloads), recovered, false,
                undetected))
        return results

    def check(self, results: list[CellResult]) -> list[str]:
        problems = []
        for r in results:
            if r.name == "table5_v2" and r.undetected_misses:
                # the frame-rate floor is a quarter of the packet rate, where
                # the two-Ab structure must report every missed packet
                problems.append(f"{r.name}: {r.undetected_misses} undetected "
                                "missed packets")
        return problems


class _ReportTap:
    """Keeps the LinkReports that fusion_gain_experiment decodes."""

    def __init__(self):
        self.reports = []

    def __enter__(self):
        self.original = analysis.decode_samples

        def tap(*args, **kwargs):
            report = self.original(*args, **kwargs)
            self.reports.append(report)
            return report

        analysis.decode_samples = tap
        return self

    def __exit__(self, *exc):
        analysis.decode_samples = self.original
        return False


class FusionFar(Workload):
    """fusion_gain_experiment on the far-field cell, fusion on and off.

    The warm-up runs the whole 100-packet study (~14 s), which the checks
    compare with criterion 4, the pinned digests and the checked-in CSV.
    A timed pass runs the same study on PASS_PACKETS packets of its own:
    the same code on the same frame geometry, short enough that a run
    times many passes.
    """

    name = "fusion_far"
    PASS_PACKETS = 5

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.config = fusion_config(seed)
        self.pass_config = dataclasses.replace(self.config,
                                               packets=self.PASS_PACKETS)

    def warm_up(self):
        with _ReportTap() as tap:
            self.study_rows = analysis.fusion_gain_experiment(self.config)
        self.study = self._cells("fusion_far", self.config, self.study_rows,
                                 tap.reports, headline=False)

    def run_pass(self):
        with _ReportTap() as tap:
            rows = analysis.fusion_gain_experiment(self.pass_config)
        return rows, tap.reports

    @staticmethod
    def _cells(prefix, config, rows, reports, headline) -> list[CellResult]:
        sent = experiment.random_payloads(
            config.packets, config.payload_bits_grid[0], config.seed,
            distinct=True)
        results = []
        for row, report in zip(rows, reports):
            recovered, false = recovery_counts(sent, report.payloads())
            arm = "fused" if row.fusion else "unfused"
            results.append(CellResult(
                f"{prefix}_{arm}",
                report_digest(report, [row.distance_ratio, row.ds_length_s,
                                       row.fusion, row.recovered_fraction]),
                report.n_frames, config.packets, recovered, false,
                headline=headline and row.fusion))
        return results

    def summarize(self, outputs) -> list[CellResult]:
        rows, reports = outputs
        return self.study + self._cells("fusion_far_pass", self.pass_config,
                                        rows, reports, headline=True)

    def check(self, results: list[CellResult]) -> list[str]:
        fraction = {row.fusion: row.recovered_fraction
                    for row in self.study_rows}
        if len(self.study_rows) != 2 or set(fraction) != {True, False}:
            return [f"expected a fused and an unfused row, got "
                    f"{self.study_rows}"]
        problems = []
        # acceptance criterion 4: fusion recovers what single frames cannot
        if fraction[True] < 0.99 or fraction[False] > 0.10:
            problems.append(f"fusion gain {fraction[True]} vs "
                            f"{fraction[False]} outside criterion 4")
        if self.seed == DEFAULT_SEED:
            # the checked-in study CSV must be reproduced row for row
            path = self.root / "results" / "fusion_deep.csv"
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
            rows = [f"{r.distance_ratio},{r.ds_length_s},{int(r.fusion)},"
                    f"{r.recovered_fraction}" for r in self.study_rows]
            if rows != lines:
                problems.append(f"fusion rows {rows} differ from "
                                f"{path.name} {lines}")
        return problems


class FilePipeline(Workload):
    """`occsim encode` -> `simulate` -> `decode` for table5_v2 on disk."""

    name = "file_pipeline"
    PRESET = "table5_v2"

    def __init__(self, root: Path, seed: int):
        cell = pipeline_cell(seed)
        self.seed = cell.seed
        scratch = root / ".bench_build"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="occsim-pipeline-",
                                         dir=scratch))
        self.stream = self.dir / "stream.chips"
        self.frames = self.dir / "frames.csv"
        self.report = self.dir / "report.txt"
        self.payload_out = self.dir / "recovered.hex"
        # the file pipeline must decode exactly what the in-memory run does
        payloads = _payloads(cell)
        outcome = experiment.run_link(payloads, cell.plan(), cell.rll_scheme,
                                      cell.frame_structure, cell.camera(),
                                      cell.rows_per_chip, cell.geometry())
        self.expected_text = outcome.report.to_text() + "\n"
        self.expected_hex = "".join(decoder.bits_to_hex(p) + "\n"
                                    for p in outcome.report.payloads())
        accounting = experiment.gap_accounting(outcome, strict=False)
        recovered, false = recovery_counts(payloads, outcome.report.payloads())
        self.reference = dict(frames=outcome.n_frames_sampled,
                              packets=len(payloads), recovered=recovered,
                              false_payloads=false,
                              undetected_misses=accounting.undetected())

    def run_pass(self):
        common = ["--config", self.PRESET, "--seed", str(self.seed)]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return [
                cli.main(["encode", *common, "--out", str(self.stream)]),
                cli.main(["simulate", *common, "--stream", str(self.stream),
                          "--out", str(self.frames)]),
                cli.main(["decode", *common, "--frames", str(self.frames),
                          "--out", str(self.report),
                          "--payload-out", str(self.payload_out)]),
            ]

    @property
    def frames_csv_bytes(self) -> int:
        return self.frames.stat().st_size

    def summarize(self, outputs) -> list[CellResult]:
        text = self.report.read_text(encoding="utf-8")
        hex_text = self.payload_out.read_text(encoding="utf-8")
        self.last = (outputs, text, hex_text)
        return [CellResult(self.PRESET, _digest([outputs, text, hex_text]),
                           **self.reference)]

    def check(self, results: list[CellResult]) -> list[str]:
        codes, text, hex_text = self.last
        problems = []
        if codes != [0, 0, 0]:
            problems.append(f"cli exit codes {codes}")
        if text != self.expected_text:
            problems.append("decoded report differs from the in-memory run")
        if hex_text != self.expected_hex:
            problems.append("payload dump differs from the in-memory run")
        return problems

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Presets, FusionFar, FilePipeline)}


def load_configs(workload: str, seed: int):
    """The work a fresh process does before a first pass: configs, validated."""
    if workload == "fusion_far":
        config = fusion_config(seed)
        return [framing.PacketPlan.fill_slot(
            config.packet_rate,
            framing.subpacket_chip_length(bits, config.scheme, config.version)
            / config.optical_clock_hz, config.optical_clock_hz)
            for bits in config.payload_bits_grid]
    if workload == "file_pipeline":
        return [pipeline_cell(seed)]
    return preset_cells(seed)


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))
