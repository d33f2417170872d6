"""Experiment configuration: validation, JSON round-trip, and presets.

A config fixes the whole pipeline: line code, frame structure, optical
clock, packet rate, payload size, camera timing and footprint geometry.
Derived quantities (sub-packet duration, repetitions, camera row period)
come from properties so a config is a single source of truth.  The
presets are the JSON files in ``occsim/data/presets``.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import json
import typing
from dataclasses import dataclass

from .camera import CameraConfig, GeometryConfig
from .decoder import DecoderConfig
from .framing import (
    FrameStructure,
    PacketPlan,
    repetition_count,
    subpacket_chip_length,
)
from .rll import RllScheme

_SCHEMES = {s.value: s for s in RllScheme}
_VERSIONS = {v.value: v for v in FrameStructure}


@dataclass
class ExperimentConfig:
    name: str = "custom"
    scheme: str = "manchester"
    version: str = "v1"
    optical_clock_hz: float = 1000.0
    packet_rate: float = 10.0
    payload_bits: int = 5
    repetitions: int | None = None  # None: fill the packet slot
    rows_per_chip: float = 2
    camera_rows: int = 56
    row_exposure_factor: float = 1.0  # exposure as a fraction of the row period
    mean_fps: float = 27.5
    delta_fps: float = 7.5
    delta_process: str = "uniform"
    noise_sigma: float = 0.0
    distance: float | None = None            # None: LED fills the sensor
    reference_distance: float | None = None
    seed: int = 1
    trials: int = 500  # packets per experiment
    payload_file: str | None = None  # raw bytes, bit-packed MSB first
    reported_limit_bps: float | None = None     # hardware reference, if any
    reported_achieved_bps: float | None = None

    # --- derived quantities -------------------------------------------------

    @property
    def rll_scheme(self) -> RllScheme:
        return _SCHEMES[self.scheme]

    @property
    def frame_structure(self) -> FrameStructure:
        return _VERSIONS[self.version]

    @property
    def ds_chips(self) -> int:
        return subpacket_chip_length(self.payload_bits, self.rll_scheme,
                                     self.frame_structure)

    @property
    def ds_length_s(self) -> float:
        return self.ds_chips / self.optical_clock_hz

    @property
    def row_period_s(self) -> float:
        return 1.0 / (self.optical_clock_hz * self.rows_per_chip)

    def plan(self) -> PacketPlan:
        if self.repetitions is not None:
            return PacketPlan(self.packet_rate, self.ds_length_s,
                              self.repetitions, self.optical_clock_hz)
        return PacketPlan.fill_slot(self.packet_rate, self.ds_length_s,
                                    self.optical_clock_hz)

    def required_repetitions(self) -> int:
        """Repetition floor so the slowest frame interval misses nothing."""
        slowest = 1.0 / (self.mean_fps - self.delta_fps)
        return repetition_count(slowest, self.ds_length_s)

    def camera(self) -> CameraConfig:
        return CameraConfig(
            rows=self.camera_rows,
            row_period_s=self.row_period_s,
            row_exposure_s=self.row_period_s * self.row_exposure_factor,
            mean_fps=self.mean_fps,
            delta_fps=self.delta_fps,
            delta_process=self.delta_process,
            noise_sigma=self.noise_sigma,
            seed=self.seed,
        )

    def geometry(self) -> GeometryConfig | None:
        if self.distance is None:
            return None
        reference = self.reference_distance
        if reference is None:
            reference = self.distance  # footprint exactly one sub-packet
        return GeometryConfig(distance=self.distance,
                              reference_distance=reference,
                              subpacket_rows=self.ds_chips * self.rows_per_chip)

    def decoder(self, fusion: bool = True) -> DecoderConfig:
        return DecoderConfig(scheme=self.rll_scheme,
                             version=self.frame_structure,
                             payload_bits=self.payload_bits,
                             rows_per_chip=self.rows_per_chip,
                             fusion=fusion)

    # --- validation and serialization ---------------------------------------

    def validate(self) -> list[str]:
        """Field-named problems; empty when the config is runnable."""
        problems = []
        if self.scheme not in _SCHEMES:
            problems.append(f"scheme: unknown line code {self.scheme!r}")
        if self.version not in _VERSIONS:
            problems.append(f"version: unknown frame structure {self.version!r}")
        if self.optical_clock_hz <= 0:
            problems.append("optical_clock_hz: must be positive")
        if self.packet_rate <= 0:
            problems.append("packet_rate: must be positive")
        if self.payload_bits < 1:
            problems.append("payload_bits: must be positive")
        if self.rows_per_chip < 1:
            problems.append("rows_per_chip: must be at least 1")
        if self.camera_rows < 2:
            problems.append("camera_rows: must be at least 2")
        if not 0 < self.row_exposure_factor <= 1:
            problems.append("row_exposure_factor: must be in (0, 1]")
        if self.delta_fps < 0:
            problems.append("delta_fps: must be non-negative")
        if self.mean_fps - self.delta_fps <= 0:
            problems.append("mean_fps: mean_fps - delta_fps must be positive")
        if self.trials < 1:
            problems.append("trials: must be at least 1")
        if problems:
            return problems

        floor = self.mean_fps - self.delta_fps
        if self.version == "v1" and floor < self.packet_rate:
            problems.append(
                "mean_fps/delta_fps: the one-Ab structure supports only "
                f"oversampling; the camera's frame-rate floor ({floor:g} fps) "
                f"must be no less than packet_rate ({self.packet_rate:g}/s)"
            )
        try:
            scheme = self.rll_scheme
            version = self.frame_structure
            subpacket_chip_length(self.payload_bits, scheme, version)
        except ValueError as exc:
            problems.append(f"payload_bits: {exc}")
            return problems
        try:
            plan = self.plan()
        except ValueError as exc:
            problems.append(f"repetitions/packet_rate: {exc}")
            plan = None
        if plan is not None and self.version == "v1" \
                and plan.repetitions < self.required_repetitions():
            # fewer repetitions than the longest frame interval spans
            # leaves dead air a frame can fall into, so packets get lost
            # without the two-Ab structure there to detect it
            problems.append(
                f"repetitions: {plan.repetitions} sub-packet repetitions "
                f"cover less than the longest frame interval; at least "
                f"{self.required_repetitions()} are needed"
            )
        capture = self.camera_rows * self.row_period_s
        if self.version == "v2" and capture < 2 * self.ds_length_s - 1e-12:
            # gap counting needs every frame to land one whole sub-packet
            # regardless of phase, which takes a two-sub-packet window
            problems.append(
                f"camera_rows: rolling exposure time {capture:g} s is below "
                f"twice the sub-packet duration ({2 * self.ds_length_s:g} s); "
                f"a frame could then miss every sub-packet boundary and "
                f"break gap counting"
            )
        fastest = 1.0 / (self.mean_fps + self.delta_fps)
        if capture > fastest + 1e-12:
            problems.append(
                f"camera_rows: rolling exposure time {capture:g} s exceeds "
                f"the shortest frame interval {fastest:g} s"
            )
        return problems

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """A config from a JSON object of fields, each value of its field's
        type (an int field takes no bool or float; a float field an int)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(data) - set(_FIELD_TYPES))
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        for name, value in data.items():
            hint = _FIELD_TYPES[name]
            allowed = set(typing.get_args(hint)) or {hint}
            if float in allowed:
                allowed.add(int)
            if type(value) not in allowed:
                raise ValueError(f"{name}: expected {cls.__annotations__[name]}"
                                 f", got {json.dumps(value)}")
        return cls(**data)


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)  # evaluated once


def _load_preset(name: str) -> ExperimentConfig:
    path = importlib.resources.files("occsim.data") / "presets" / f"{name}.json"
    preset = ExperimentConfig.from_json(path.read_text())
    if preset.name != name:
        raise ValueError(f"{name}.json: preset is named {preset.name!r}")
    return preset


# the shipped data/presets/*.json files, in the order `occsim presets` lists
# them and `sweep_reference.csv` writes their rows
PRESETS: dict[str, ExperimentConfig] = {
    name: _load_preset(name) for name in (
        "table5_v1", "table5_v2", "table8_manchester_1k",
        "table8_manchester_2k", "table8_4b6b_2k")
}


def load_config(path_or_preset: str) -> ExperimentConfig:
    """A preset by name, or a JSON config file by path."""
    if path_or_preset in PRESETS:
        return dataclasses.replace(PRESETS[path_or_preset])
    with open(path_or_preset, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_json(fh.read())
