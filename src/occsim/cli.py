"""Batch experiment driver.

Subcommands: encode a payload file to a chip stream, simulate the camera
over a stream, decode frame CSVs, and emit the sweep / detection-error /
fusion studies as CSV.  Every command is deterministic given its config
and seed, echoes the resolved config into a manifest, and exits nonzero
on validation or decode failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import analysis, io
from .analysis import (
    DEFAULT_SWEEP_GRID,
    bit_rate_limit,
    fusion_gain_experiment,
    FusionStudyConfig,
    monte_carlo_der,
    scheme_overhead,
    symbols_per_image,
)
from .camera import covered_rows, sample_frames
from .configs import PRESETS, ExperimentConfig, load_config
from .decoder import decode_samples, extract_parts
from .experiment import random_payloads
from .framing import build_packet_stream
from .rll import efficiency


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_validated(args) -> ExperimentConfig | None:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if getattr(args, "trials", None) is not None:
        config.trials = args.trials
    problems = config.validate()
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return None
    return config


def _write_manifest(out, config: ExperimentConfig, **extra) -> None:
    """The resolved config and ``extra`` in a manifest beside ``out``."""
    io.write_manifest(f"{out}.manifest.json",
                      {"config": dataclasses.asdict(config), **extra})


def cmd_encode(args) -> int:
    config = _load_validated(args)
    if config is None:
        return 2
    payload_file = args.payload_file or config.payload_file
    if payload_file:
        data = Path(payload_file).read_bytes()
        if not data:
            return _fail(f"payload file {payload_file} is empty")
        payloads = io.split_payloads(io.bytes_to_bits(data), config.payload_bits)
    else:
        count = config.trials
        distinct = config.payload_bits >= 16 and count <= 1 << config.payload_bits
        payloads = random_payloads(count, config.payload_bits, config.seed,
                                   distinct=distinct)

    plan = config.plan()
    stream = build_packet_stream(payloads, plan, config.rll_scheme,
                                 config.frame_structure)
    out = Path(args.out)
    if args.format == "packed":
        io.write_chipstream_packed(out, stream)
    else:
        io.write_chipstream_ascii(out, stream)
    _write_manifest(out, config, payload_count=len(payloads),
                    ds_chips=plan.ds_chips, repetitions=plan.repetitions,
                    pad_chips=plan.pad_chips, chip_count=stream.count,
                    duration_s=stream.duration_s)
    print(f"wrote {stream.count} chips "
          f"({len(payloads)} packets x {plan.repetitions} sub-packets) to {out}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_validated(args)
    if config is None:
        return 2
    stream = io.read_chipstream(args.stream)
    duration = args.duration if args.duration is not None else stream.duration_s
    frames = sample_frames(stream, config.camera(), config.geometry(),
                           duration_s=duration)
    io.write_frames_csv(args.out, frames)
    _write_manifest(args.out, config, frame_count=len(frames),
                    duration_s=duration)
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def cmd_decode(args) -> int:
    config = _load_validated(args)
    if config is None:
        return 2
    geometry = config.geometry()
    covered = None if geometry is None \
        else covered_rows(geometry, max_rows=config.camera_rows)
    blocks = io.read_frames_csv(args.frames, covered_rows=covered)
    report = decode_samples(extract_parts(blocks, config.decoder()),
                            fusion=not args.no_fusion)
    text = report.to_text()
    print(text)
    if args.out:
        with io.replacing(args.out) as fh:
            fh.write(text + "\n")
    if args.payload_out:
        io.write_payload_bits(args.payload_out, report.payload)
    return 0


def cmd_sweep(args) -> int:
    # every row of both files is computed before either is opened
    rows = [[row.scheme, row.f_hz, row.symbols_per_image, row.overhead,
             float(row.eta),
             "" if row.bitrate_bps is None else float(row.bitrate_bps),
             row.status]
            for row in analysis.sweep_frequency(f_list=args.frequencies,
                                                fps_min=args.fps_min)]
    reference = _reference_rows(args.fps_min)
    io.write_csv(args.out, ["scheme", "f_hz", "L", "OH", "eta",
                            "bitrate_bps", "status"], rows)
    ref_path = Path(args.out).with_name(Path(args.out).stem + "_reference.csv")
    io.write_csv(ref_path, ["config", "scheme", "f_hz", "computed_limit_bps",
                            "reported_limit_bps", "reported_achieved_bps"],
                 reference)
    print(f"wrote {len(rows)} sweep rows to {args.out} and "
          f"{len(reference)} reference rows to {ref_path}")
    return 0


def _reference_rows(fps_min: float) -> list[list]:
    """Computed bit-rate ceilings beside previously reported hardware numbers."""
    rows = []
    for name, preset in PRESETS.items():
        if preset.reported_limit_bps is None:
            continue
        computed = bit_rate_limit(
            efficiency(preset.rll_scheme),
            symbols_per_image(preset.optical_clock_hz),
            scheme_overhead(preset.rll_scheme, preset.frame_structure),
            fps_min,
        )
        rows.append([name, preset.scheme, preset.optical_clock_hz,
                     float(computed), preset.reported_limit_bps,
                     preset.reported_achieved_bps])
    return rows


def write_der_csv(path, estimates) -> None:
    """One detection-error study row per estimate."""
    io.write_csv(path, ["fps_floor", "packet_rate", "der_formula",
                        "der_empirical", "ci_low", "ci_high"],
                 [[est.fps_floor, est.packet_rate, float(est.der_formula),
                   est.der_empirical, est.ci_low, est.ci_high]
                  for est in estimates])


def write_fusion_csv(path, rows) -> None:
    """One fusion study row per (sub-packet length, distance, fusion) cell."""
    io.write_csv(path, ["distance_ratio", "ds_length", "fusion",
                        "recovered_fraction"],
                 [[row.distance_ratio, row.ds_length_s, int(row.fusion),
                   row.recovered_fraction] for row in rows])


def cmd_der(args) -> int:
    config = _load_validated(args)
    if config is None:
        return 2
    if config.version != "v2":
        return _fail("detection-error studies require a v2 (two-Ab) config", 2)
    est = monte_carlo_der(config, config.seed + 1)
    write_der_csv(args.out, [est])
    print(f"{est.undetected}/{est.transmitted} undetected missed payloads "
          f"(formula {float(est.der_formula):.3e}); wrote {args.out}")
    return 0


def cmd_fusion(args) -> int:
    # flags left unset keep FusionStudyConfig's defaults
    given = {"distance_ratios": args.ratios, "packets": args.packets,
             "seed": args.seed}
    study = FusionStudyConfig(
        payload_bits_grid=args.payload_bits,
        **{name: value for name, value in given.items() if value is not None})
    rows = fusion_gain_experiment(study)
    write_fusion_csv(args.out, rows)
    print(f"wrote {len(rows)} fusion study rows to {args.out}")
    return 0


def cmd_presets(args) -> int:
    for name, preset in PRESETS.items():
        print(f"{name}: {preset.scheme} {preset.version}, "
              f"{preset.optical_clock_hz:g} Hz clock, "
              f"{preset.packet_rate:g} packets/s, "
              f"{preset.payload_bits} payload bits, "
              f"{preset.mean_fps - preset.delta_fps:g}-"
              f"{preset.mean_fps + preset.delta_fps:g} fps")
    return 0


def _list_of(convert):
    """An argparse type: comma-separated values, each through ``convert``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(value) for value in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, "
                f"got {text!r}") from None
    return parse


def _finite(text: str) -> float:
    """An argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _at_least(low: int):
    """An argparse type: an integer no less than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occsim",
        description="LED to rolling-shutter camera link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials=False):
        p.add_argument("--config", required=True,
                       help="preset name or JSON config path")
        p.add_argument("--seed", type=int, default=None)
        if trials:
            p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("encode", help="payloads -> chip stream file")
    add_common(p, trials=True)
    p.add_argument("--payload-file", help="raw bytes, bit-packed MSB first")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ascii", "packed"), default="ascii")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("simulate", help="chip stream -> frames CSV")
    add_common(p)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decode", help="frames CSV -> link report")
    add_common(p)
    p.add_argument("--frames", required=True)
    p.add_argument("--out", default=None, help="report text path")
    p.add_argument("--payload-out", default=None, help="hex payload dump path")
    p.add_argument("--no-fusion", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="bit-rate ceiling vs optical clock CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--frequencies", type=_list_of(_finite),
                   default=DEFAULT_SWEEP_GRID,
                   help="comma-separated clock grid in Hz")
    p.add_argument("--fps-min", type=_finite, default=20.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("der", help="Monte-Carlo detection error study CSV")
    add_common(p, trials=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_der)

    p = sub.add_parser("fusion", help="fusion gain vs distance study CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--ratios", type=_list_of(_finite), default=None)
    p.add_argument("--payload-bits", type=_list_of(_at_least(1)),
                   default=(175,))
    p.add_argument("--packets", type=_at_least(1), default=None)
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("presets", help="list bundled experiment presets")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
