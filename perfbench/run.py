#!/usr/bin/env python3
"""occsim benchmark: one workload per run, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``presets``, ``fusion_far`` and ``file_pipeline``.  A run

1. times ``setup_s``: fresh interpreters that import occsim and load and
   validate the workload's configs (the median of several);
2. runs an untimed warm-up (a pass; for ``fusion_far`` the whole study),
   then timed passes in the same process until ``--seconds`` have been
   measured;
3. with ``--trace 1``, runs further passes with every public occsim
   function wrapped (spans.py) and reports the per-layer metrics, with the
   tracing overhead as traced minus untraced ``wall_s``;
4. checks the outputs: every pass must reproduce the first one, each
   workload's invariants must hold, and at the default seed every cell's
   digest must equal the one pinned in golden.json.

Times are reported scaled to a fixed host speed (hostspeed.py): a fixed
reference chunk is timed around each set-up probe and, from a timer, every
40 ms of a pass, and the raw time is multiplied by the nominal chunk time
over the (harmonic) mean time of those chunks.  On a shared host this cancels the
swings of the host's speed, which move the raw seconds of runs of the
same code by a third.  The raw times are per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the run
record (machine, versions, commit, seed, pass counts).  Spans of a traced
run are written to ``.bench_build/perfbench/``.  ``--write-golden`` pins
the digests of the default seed for the given workload.

Uses one core: everything runs in this process, apart from the short
set-up probes, which run one at a time, and the process pins itself and
so the probes to one CPU, the one the reference chunks then time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 11
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.load_configs(sys.argv[3], int(sys.argv[4]))")

SELF_TIMED = (
    "rll.decode_rll", "rll.decode_manchester_pair", "rll.encode_rll",
    "rll.ChipStream", "framing.build_packet_stream", "camera.sample_frames",
    "decoder.decode_samples", "decoder.frame_to_chips", "decoder.find_sf",
    "decoder.decode_frame", "decoder.group_parts", "decoder.fuse",
    "decoder.majority_vote", "decoder.detect_missed",
    "experiment.run_link", "experiment.drop_frames",
    "experiment.gap_accounting", "analysis.fusion_gain_experiment",
    "io.write_chipstream_ascii", "io.read_chipstream",
    "io.write_frames_csv", "io.read_frames_csv", "io.write_payload_bits",
    "io.write_manifest", "cli.cmd_encode", "cli.cmd_simulate",
    "cli.cmd_decode",
)
COUNTED = ("rll.decode_rll", "rll.decode_manchester_pair", "rll.encode_rll",
           "framing.build_subpacket")

HARDWARE_NOTE = ("simulated outcomes have no hardware reference in this "
                 "repository; its only hardware numbers are the reported "
                 "ceilings in results/sweep_reference.csv")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median scaled and raw wall time of fresh interpreters doing the
    workload's set-up, with a reference chunk before and after each."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.chunk()
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize a ~0.3 s measurement
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                        workload, str(seed)], cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * hostspeed.scale([before, hostspeed.chunk()]))
    return statistics.median(scaled), statistics.median(raw)


def timed_passes(workload, seconds: float, reference=None, recorder=None):
    """Raw and scaled pass times over at least `seconds` of raw time, the
    host-speed samples, the last pass's cell results, and the number of
    cells that differ from the reference (the first pass if none).

    Untraced passes are timed by a hostspeed.PassTimer.  With a recorder,
    each pass runs traced inside one root span and is scaled by reference
    chunks run before and after it, which the spans do not see.
    """
    times, scaled, samples, differing, csv_bytes = [], [], [], 0, 0
    while not times or sum(times) < seconds:
        if recorder is None:
            with hostspeed.PassTimer() as timer:
                outputs = workload.run_pass()
            times.append(timer.raw)
            scaled.append(timer.scaled)
            samples += timer.samples
        else:
            before = hostspeed.chunk()
            with recorder, recorder.span(f"pass.{workload.name}"):
                start = time.perf_counter()
                outputs = workload.run_pass()
                times.append(time.perf_counter() - start)
            scaled.append(times[-1] * hostspeed.scale([before,
                                                       hostspeed.chunk()]))
        csv_bytes = workload.frames_csv_bytes
        results = workload.summarize(outputs)
        if reference is None:
            reference = results
        differing += sum(a != b for a, b in zip(results, reference)) \
            + abs(len(results) - len(reference))
    return times, scaled, samples, reference, differing, csv_bytes


def per_layer_metrics(recorder, times, scaled, untraced_wall, csv_bytes,
                      stats):
    passes = len(times)
    frames = max(recorder.frames_sampled, 1)
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (recorder.self_s.get(name, 0.0) / passes, "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (recorder.calls.get(name, 0) / passes, "count")
    rll_calls = recorder.calls.get("rll.decode_rll", 0)
    metrics["rll.decode_rll.invalid_ratio"] = (
        recorder.errors.get("rll.decode_rll", 0) / rll_calls if rll_calls
        else 0.0, "ratio")
    metrics["camera.sample_frames.us_per_frame"] = (
        1e6 * recorder.total_s.get("camera.sample_frames", 0.0) / frames, "us")
    for name in ("decoder.frame_to_chips", "decoder.find_sf"):
        metrics[f"{name}.calls_per_frame"] = (
            recorder.calls.get(name, 0) / frames, "calls/frame")
    per_frame = sorted(1e6 * t for t in recorder.per_frame_s)
    if len(per_frame) >= 2:
        centiles = statistics.quantiles(per_frame, n=100)
        p50, p99 = centiles[49], centiles[98]
    else:
        p50 = p99 = per_frame[0] if per_frame else 0.0
    metrics["decoder.per_frame.us_p50"] = (p50, "us")
    metrics["decoder.per_frame.us_p99"] = (p99, "us")
    reports = recorder.reports
    n_frames = sum(r.n_frames for r in reports)
    n_parts = sum(r.n_parts for r in reports)
    metrics["decoder.sf_frame_ratio"] = (
        sum(r.n_frames_with_sf for r in reports) / max(n_frames, 1), "ratio")
    metrics["decoder.complete_part_ratio"] = (
        sum(r.n_complete_parts for r in reports) / max(n_parts, 1), "ratio")
    metrics["decoder.parts_per_frame"] = (n_parts / max(n_frames, 1),
                                          "parts/frame")
    metrics["decoder.unrecovered_groups"] = (
        sum(r.n_unrecovered_groups for r in reports) / passes, "count")
    metrics["io.frames_csv.bytes"] = (csv_bytes, "bytes")
    for name in ("false_payloads", "undetected_misses", "output_mismatches"):
        metrics[name] = (stats[name], "count")
    traced_wall = statistics.median(scaled)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    # the share of the traced passes spent inside occsim's own functions;
    # the rest is the benchmark's loop around them
    in_program = sum(t for name, t in recorder.self_s.items()
                     if not name.startswith("pass."))
    metrics["trace.self_coverage"] = (in_program / sum(times), "ratio")
    return metrics


def golden_mismatches(name: str, results, golden: dict) -> int:
    pinned = golden.get(name, {})
    current = {r.name: r.digest for r in results}
    return sum(pinned.get(cell) != digest for cell, digest in current.items()) \
        + len(set(pinned) - set(current))


def run_record(args, times, scaled, traced, digest_checked: bool,
               usable_cores: int) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "digest_checked": digest_checked,
        "timed_passes": len(times),
        "pass_s": times,
        "pass_scaled_s": scaled,
        "traced_passes": len(traced),
        "traced_pass_s": traced,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "hardware_reference": HARDWARE_NOTE,
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "occsim" / "__init__.py").is_file():
        print(f"error: no occsim package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != workloads.DEFAULT_SEED:
        print("error: digests are pinned for the default seed only",
              file=sys.stderr)
        return 2

    usable_cores = len(os.sched_getaffinity(0))
    # the reference chunks must time the CPU the work runs on; the set-up
    # probes inherit the pin
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as error:
        print(f"warning: running unpinned: {error}", file=sys.stderr)
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    recorder = spans.Recorder()
    traced = []
    try:
        workload.warm_up()
        times, scaled, samples, reference, differing, _ = timed_passes(
            workload, args.seconds)
        problems = workload.check(reference)
        if args.trace:
            traced, traced_scaled, _, _, traced_differing, csv_bytes = \
                timed_passes(workload, args.seconds, reference, recorder)
            differing += traced_differing
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest_checked = args.seed == workloads.DEFAULT_SEED
    if args.write_golden:
        golden = workloads.load_golden()
        golden[args.workload] = {r.name: r.digest for r in reference}
        workloads.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True)
                                    + "\n", encoding="utf-8")
    mismatches = (golden_mismatches(args.workload, reference,
                                    workloads.load_golden())
                  if digest_checked else 0)

    headline = [r for r in reference if r.headline]
    frames = sum(r.frames for r in headline)
    packets = sum(r.packets for r in headline)
    stats = {
        "recovered_fraction": sum(r.recovered for r in headline) / packets,
        "false_payloads": sum(r.false_payloads for r in headline),
        "undetected_misses": sum(r.undetected_misses for r in headline),
        "output_mismatches": mismatches,
    }
    raw_wall_s = statistics.median(times)
    wall_s = statistics.median(scaled)
    if args.trace:
        metrics = {
            "raw.setup_s": (raw_setup_s, "s"),
            "raw.wall_s": (raw_wall_s, "s"),
            "raw.frames_per_s": (frames / raw_wall_s, "1/s"),
            "raw.packets_per_s": (packets / raw_wall_s, "1/s"),
            "host.ref_chunk_ms": (1e3 * statistics.median(samples), "ms"),
            **per_layer_metrics(recorder, traced, traced_scaled, wall_s,
                                csv_bytes, stats),
        }
        OUT.mkdir(parents=True, exist_ok=True)
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "frames_per_s": (frames / wall_s, "1/s"),
            "packets_per_s": (packets / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "recovered_fraction": (stats["recovered_fraction"], "ratio"),
        }

    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{args.workload}: {len(reference)} cells, {frames} frames and "
          f"{packets} packets per pass; false_payloads "
          f"{stats['false_payloads']}, undetected_misses "
          f"{stats['undetected_misses']}, output_mismatches {mismatches}"
          + ("" if digest_checked else " (held-out seed: digests not checked)"))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"record": run_record(args, times, scaled, traced,
                                           digest_checked, usable_cores)}))
    attempted = len(reference) * (len(times) + len(traced))
    failed = differing + mismatches + len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
