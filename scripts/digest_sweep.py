#!/usr/bin/env python3
"""Print one output digest per seed, to compare two trees' outputs.

For each seed, every preset cell of the benchmark and the four path
cells of ``tests/test_golden.py`` (a fractional v2 grid, a short
exposure, 8B10B under v2 and noisy 8.5-row chips) run through
``experiment.run_link`` (with gap accounting on the two-Ab cells, as the
benchmark does), their seeds shifted by the seed, as does acceptance
criterion 5's frame-dropping run
(10 000 packets, ``keep_probability=0.45``, gap accounting), whose
blocks are of uneven length; the far-field fusion study runs in full;
each ``LinkReport`` is summarized by the benchmark's ``report_digest``.
The frame CSVs of the file pipeline's cell and of the noisy Manchester
cell are written to a temporary directory and hashed too, and the first
is read back with ``io.read_frames_csv`` and decoded, as ``occsim
decode`` does, into full-sensor blocks of another shape.  The blocks
read back from the noisy cell's CSV and from a line-shuffled copy of
the pipeline cell's (lines permuted by the seed) are hashed: their
frame indices, start times and luma bytes.  Then one of the pipeline
CSV's lines near a chunk boundary of the reader (a multiple of
``io._CHUNK_BYTES``) is cut to three fields, and the ``FileFormatError``
message is hashed.  So is the CSV of ``occsim der`` on ``table5_v2``
below its detection floor (4.5 +- 1.0 fps, 2 600 packets: two links) at
the seed.  The seed's line is one hash over all of them.  Nothing under ``perfbench/`` is changed.
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from occsim import (  # noqa: E402
    analysis,
    camera,
    cli,
    configs,
    decoder,
    experiment,
    framing,
    io,
    rll,
)
from workloads import (  # noqa: E402
    _payloads,
    _seeded,
    fusion_config,
    pipeline_cell,
    preset_cells,
    report_digest,
)


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


# the path cells of tests/test_golden.py, each its base preset with fields
# changed; kept here as well so that this script runs unchanged in a tree
# without them
PATH_CELLS = (
    ("table5_v2", dict(rows_per_chip=2.5, camera_rows=250, trials=60)),
    ("table8_manchester_2k", dict(row_exposure_factor=0.4, trials=60)),
    ("table5_v2", dict(scheme="8b10b", payload_bits=24,
                       optical_clock_hz=4560.0, camera_rows=240, trials=60)),
    ("table8_manchester_2k", dict(
        optical_clock_hz=1000.0, rows_per_chip=8.5, camera_rows=425,
        mean_fps=10.0, delta_fps=2.0, packet_rate=5.0, noise_sigma=0.3,
        trials=40)),
)


def path_cells(seed: int) -> list[configs.ExperimentConfig]:
    return [_seeded(dataclasses.replace(configs.load_config(base), **fields),
                    seed) for base, fields in PATH_CELLS]


def preset_digests(seed: int) -> list[str]:
    digests = []
    for cell in preset_cells(seed) + path_cells(seed):
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


def dropping_digest(seed: int) -> str:
    """Digest of acceptance criterion 5's run (frames kept with probability
    0.45, never three dropped in a row) with its gap accounting, its
    payload and camera seeds shifted by the seed."""
    payloads = experiment.random_payloads(10_000, 18, seed=9 + seed,
                                          distinct=True)
    plan = framing.PacketPlan.fill_slot(20.0, 50 / 4000, 4000.0)
    cam = camera.CameraConfig(rows=200, row_period_s=1 / 8000,
                              row_exposure_s=1 / 8000, mean_fps=27.5,
                              delta_fps=7.5, seed=21 + seed)
    outcome = experiment.run_link(
        payloads, plan, rll.RllScheme.MANCHESTER,
        framing.FrameStructure.V2_TWO_AB, cam, rows_per_chip=2,
        keep_probability=0.45)
    accounting = experiment.gap_accounting(outcome, strict=False)
    return report_digest(outcome.report, [accounting.pairs,
                                          accounting.corrupt_observations])


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
    noisy Manchester cell, sampled and written as `occsim simulate` does,
    the digest of the first read back and decoded as `occsim decode`
    does, and the digests of the blocks read back from a line-shuffled
    copy of the first and from the second."""
    pipeline = pipeline_cell(seed)
    noisy, = [cell for cell in preset_cells(seed)
              if cell.name == "table8_manchester_2k_noisy"]
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.csv"
        for cell in (pipeline, noisy):
            stream = framing.build_packet_stream(
                _payloads(cell), cell.plan(), cell.rll_scheme,
                cell.frame_structure)
            io.write_frames_csv(path, camera.sample_frames(
                stream, cell.camera(), cell.geometry()))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            if cell is noisy:
                digests.append(blocks_digest(path))
            if cell is pipeline:
                geometry = cell.geometry()
                blocks = io.read_frames_csv(
                    path, covered_rows=None if geometry is None else
                    camera.covered_rows(geometry, max_rows=cell.camera_rows))
                digests.append(report_digest(decoder.decode_samples(
                    decoder.extract_parts(blocks, cell.decoder()),
                    fusion=True)))
                shuffled = Path(tmp) / "shuffled.csv"
                shuffled.write_bytes(shuffled_lines(path.read_bytes(), seed))
                digests.append(blocks_digest(shuffled))
                digests.append(cut_line_digest(path, seed))
    return digests


def shuffled_lines(raw: bytes, seed: int) -> bytes:
    """A CRLF frame CSV with its body lines permuted by the seed."""
    header, *body = raw.split(b"\r\n")[:-1]
    order = np.random.default_rng(seed).permutation(len(body))
    return b"\r\n".join([header, *(body[k] for k in order), b""])


def blocks_digest(path: Path) -> str:
    """sha256 over the frame indices, start times and luma bytes of the
    blocks ``io.read_frames_csv`` reads from ``path``."""
    digest = hashlib.sha256()
    for block in io.read_frames_csv(path):
        for array in (block.index, block.start_time_s, block.luma):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def cut_line_digest(path: Path, seed: int) -> str:
    """sha256 of the ``FileFormatError`` message for the CRLF frame CSV at
    ``path`` with one line cut to its first three fields: the line that
    holds byte k * ``io._CHUNK_BYTES`` (k from the seed), where the reader
    cuts a chunk, or one of the two lines on either side of it."""
    # a tree whose reader does not name its chunk size is cut at the same
    # bytes, so that both trees' messages name the same line
    chunk = getattr(io, "_CHUNK_BYTES", 1 << 18)
    raw = path.read_bytes()
    lines = raw.split(b"\n")  # each keeps its CR
    boundary = (1 + seed % (len(raw) // chunk)) * chunk
    number = raw.count(b"\n", 0, boundary) + seed % 5 - 2
    lines[number] = b",".join(lines[number].split(b",")[:3]) + b"\r"
    path.write_bytes(b"\n".join(lines))
    try:
        io.read_frames_csv(path)
    except io.FileFormatError as exc:
        return hashlib.sha256(str(exc).encode()).hexdigest()
    raise SystemExit(f"a frame CSV with a cut line was accepted at seed {seed}")


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
        digests = (preset_digests(seed) + [dropping_digest(seed)]
                   + fusion_digests(seed) + frames_csv_digests(seed)
                   + [der_digest(seed)])
        combined = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        print(f"seed {seed} {combined[:16]}", flush=True)


if __name__ == "__main__":
    main()
