#!/usr/bin/env python3
"""Fusion gain vs distance: the default grid plus the far-field deep dive.

fusion_grid.csv covers distance ratios 0.5-2.5 with a sub-packet that fits
the sensor; fusion_deep.csv probes 1.8x the reference distance with a long
sub-packet, where only prefix+suffix fusion can recover payloads.
"""

from pathlib import Path

from occsim.analysis import FusionStudyConfig, fusion_gain_experiment
from occsim.cli import write_fusion_csv

RESULTS = Path(__file__).resolve().parent.parent / "results"

DEEP = FusionStudyConfig(
    payload_bits_grid=(175,),
    distance_ratios=(1.8,),
    packet_rate=0.2,
    optical_clock_hz=8640.0,
    camera_rows=490,
    mean_fps=27.5,
    delta_fps=7.5,
    packets=100,
    seed=11,
)


def write_rows(path, rows):
    write_fusion_csv(path, rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    RESULTS.mkdir(exist_ok=True)
    write_rows(RESULTS / "fusion_grid.csv",
               fusion_gain_experiment(FusionStudyConfig()))
    write_rows(RESULTS / "fusion_deep.csv", fusion_gain_experiment(DEEP))
