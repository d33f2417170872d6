#!/usr/bin/env python3
"""Print one output digest per seed, to compare two trees' outputs.

For each seed, every preset cell of the benchmark runs through
``experiment.run_link`` (with gap accounting on the two-Ab cells, as the
benchmark does) and the far-field fusion study runs in full; each
``LinkReport`` is summarized by the benchmark's ``report_digest``, and the
seed's line is one hash over all of them.  Nothing under ``perfbench/`` is
changed.  Run from a tree's root and diff the outputs of two trees:

    python3 scripts/digest_sweep.py --seeds 0-20
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from occsim import analysis, experiment  # noqa: E402
from workloads import (  # noqa: E402
    _payloads,
    fusion_config,
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive seed range, e.g. 0-20")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        digests = preset_digests(seed) + fusion_digests(seed)
        combined = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        print(f"seed {seed} {combined[:16]}", flush=True)


if __name__ == "__main__":
    main()
