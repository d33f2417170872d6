#!/usr/bin/env python3
"""Print one output digest per seed, to compare two trees' outputs.

For each seed, every preset cell of the benchmark runs through
``experiment.run_link`` (with gap accounting on the two-Ab cells, as the
benchmark does) and the far-field fusion study runs in full; each
``LinkReport`` is summarized by the benchmark's ``report_digest``.  The
frame CSVs of the file pipeline's cell and of the noisy Manchester cell
are written to a temporary directory and hashed too, as is the CSV of
``occsim der`` on ``table5_v2`` below its detection floor (4.5 +- 1.0 fps,
2 600 packets: two links) at the seed; the seed's line is one hash over
all of them.  Nothing under ``perfbench/`` is changed.
Run this script from each tree's root, the same copy of it in both, and
diff the outputs:

    python3 scripts/digest_sweep.py --seeds 0-20
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from occsim import (  # noqa: E402
    analysis,
    camera,
    cli,
    configs,
    experiment,
    framing,
    io,
)
from workloads import (  # noqa: E402
    _payloads,
    fusion_config,
    pipeline_cell,
    preset_cells,
    report_digest,
)


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def preset_digests(seed: int) -> list[str]:
    digests = []
    for cell in preset_cells(seed):
        outcome = experiment.run_link(
            _payloads(cell), cell.plan(), cell.rll_scheme,
            cell.frame_structure, cell.camera(), cell.rows_per_chip,
            cell.geometry())
        extra = None
        if cell.version == "v2":
            accounting = experiment.gap_accounting(outcome, strict=False)
            extra = [accounting.pairs, accounting.corrupt_observations]
        digests.append(report_digest(outcome.report, extra))
    return digests


def fusion_digests(seed: int) -> list[str]:
    """Digests of every report the fusion study decodes, with its row."""
    reports = []
    decode = analysis.decode_samples

    def keep(*args, **kwargs):
        reports.append(decode(*args, **kwargs))
        return reports[-1]

    with mock.patch.object(analysis, "decode_samples", keep):
        rows = analysis.fusion_gain_experiment(fusion_config(seed))
    return [report_digest(report, [row.distance_ratio, row.ds_length_s,
                                   row.fusion, row.recovered_fraction])
            for row, report in zip(rows, reports)]


def frames_csv_digests(seed: int) -> list[str]:
    """sha256 of the frame CSVs of the file pipeline's cell and of the
    noisy Manchester cell, sampled and written as `occsim simulate` does."""
    noisy, = [cell for cell in preset_cells(seed)
              if cell.name == "table8_manchester_2k_noisy"]
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.csv"
        for cell in (pipeline_cell(seed), noisy):
            stream = framing.build_packet_stream(
                _payloads(cell), cell.plan(), cell.rll_scheme,
                cell.frame_structure)
            io.write_frames_csv(path, camera.sample_frames(
                stream, cell.camera(), cell.geometry()))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    return digests


def der_digest(seed: int) -> str:
    """sha256 of the CSV `occsim der` writes for ``table5_v2`` at 4.5 +- 1.0
    fps, 2 600 packets and the seed; its printed line is discarded."""
    config = dataclasses.replace(configs.PRESETS["table5_v2"], mean_fps=4.5,
                                 delta_fps=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "der.csv"
        path.write_text(config.to_json())
        with contextlib.redirect_stdout(None):
            code = cli.main(["der", "--config", str(path), "--seed", str(seed),
                             "--trials", "2600", "--out", str(out)])
        if code:
            raise SystemExit(f"occsim der exited {code} at seed {seed}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive seed range, e.g. 0-20")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        digests = (preset_digests(seed) + fusion_digests(seed)
                   + frames_csv_digests(seed) + [der_digest(seed)])
        combined = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        print(f"seed {seed} {combined[:16]}", flush=True)


if __name__ == "__main__":
    main()
