"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every occsim module at every
module namespace that holds them (``decoder.decode_rll`` is the same
function object as ``rll.decode_rll``), so calls between layers are seen
without touching the package's source.  The wrapping is undone on exit.

Functions named in ``SPANS`` are layer boundaries: each call records one
span (name, start, end, parent).  Every other wrapped function is a hot
helper, called per codeword, per chip-phase offset or per packet; its
calls are aggregated into one count-and-time entry per parent span, so
the millions of ``decode_rll`` calls of the fusion study stay cheap to
record.  A call's self time is its duration minus that of the wrapped
calls it made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("rll", "framing", "camera", "decoder", "experiment", "analysis",
           "configs", "io", "cli")

SPANS = frozenset({
    "experiment.run_link", "experiment.drop_frames",
    "experiment.gap_accounting", "experiment.random_payloads",
    "framing.build_packet_stream",
    "camera.sample_frames", "camera.frame_intervals",
    "decoder.decode_samples", "decoder.frame_to_chips",
    "decoder.decode_frame", "decoder.group_parts", "decoder.fuse",
    "decoder.majority_vote", "decoder.detect_missed",
    "analysis.fusion_gain_experiment", "configs.load_config",
    "io.write_chipstream_ascii", "io.write_chipstream_packed",
    "io.read_chipstream", "io.write_frames_csv", "io.read_frames_csv",
    "io.write_payload_bits", "io.write_manifest",
    "cli.main", "cli.cmd_encode", "cli.cmd_simulate", "cli.cmd_decode",
    "rll.ChipStream",
})


class Recorder:
    """In-memory spans, per-parent aggregates and per-name totals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.aggregates: dict[tuple[int, str], list] = {}  # -> [calls, total, self]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.frames_sampled = 0
        self.per_frame_s: list[float] = []
        self.reports: list = []
        # open calls: [time in wrapped children, id of the nearest open span
        # (the call's own, if it is a span), id of the call's parent span]
        self._stack: list[list] = [[0.0, 0]]
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span the benchmark itself opens."""
        return _OpenSpan(self, name)

    def _open(self, name: str, is_span: bool) -> list:
        parent = self._stack[-1][1]
        if is_span:
            span_id = len(self.spans) + 1
            self.spans.append(None)  # reserve the id; filled in on close
            frame = [0.0, span_id, parent]
        else:
            frame = [0.0, parent, parent]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, is_span: bool, frame: list, start: float,
               end: float):
        self._stack.pop()
        duration = end - start
        own = duration - frame[0]
        self._stack[-1][0] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        if is_span:
            self.spans[frame[1] - 1] = (frame[1], frame[2], name, start, end, own)
        else:
            entry = self.aggregates.get((frame[2], name))
            if entry is None:
                self.aggregates[(frame[2], name)] = [1, duration, own]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
        if name == "decoder.frame_to_chips":
            self.per_frame_s.append(duration)
        elif name == "decoder.decode_frame" and self.per_frame_s:
            self.per_frame_s[-1] += duration

    def _wrap(self, name: str, func):
        is_span = name in SPANS
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = self._open(name, is_span)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                self._close(name, is_span, frame, start, clock())
                raise
            self._close(name, is_span, frame, start, clock())
            if name == "camera.sample_frames":
                self.frames_sampled += len(result)
            elif name == "decoder.decode_samples":
                self.reports.append(result)
            return result

        return wrapper

    # --- installing ---------------------------------------------------------

    def __enter__(self):
        package = importlib.import_module("occsim")
        modules = [importlib.import_module(f"occsim.{m}") for m in MODULES]
        originals = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in originals:
                    self._patch(namespace, attr, originals[id(obj)])
        chip_stream = importlib.import_module("occsim.rll").ChipStream
        self._patch(chip_stream, "__post_init__",
                    self._wrap("rll.ChipStream", chip_stream.__post_init__))
        return self

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # --- output -------------------------------------------------------------

    def write(self, path):
        """Spans and per-parent aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, own in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "self_s": own}) + "\n")
            for (parent, name), (calls, total, own) in self.aggregates.items():
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": calls, "total_s": total,
                                     "self_s": own}) + "\n")


class _OpenSpan:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.frame = self.recorder._open(self.name, True)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.recorder._close(self.name, True, self.frame, self.start,
                             time.perf_counter())
        return False
