"""LED to rolling-shutter camera communication: codecs, channel, decoding."""

from .analysis import (
    DerEstimate,
    NonPositiveBudget,
    bit_rate_limit,
    der,
    fusion_gain_experiment,
    monte_carlo_der,
    scheme_overhead,
    skip_probability,
    sweep_frequency,
    symbols_per_image,
    throughput_packet,
    throughput_with_detection,
)
from .camera import (
    CameraConfig,
    FrameSample,
    GeometryConfig,
    covered_rows,
    frame_intervals,
    sample_frames,
)
from .configs import PRESETS, ExperimentConfig, load_config
from .decoder import (
    DecodedPart,
    DecoderConfig,
    Direction,
    GapReport,
    LinkReport,
    UnfusablePair,
    decode_frame,
    decode_samples,
    detect_missed,
    detrend,
    fuse,
    fuse_pair,
    majority_vote,
)
from .experiment import (
    GapAccounting,
    LinkOutcome,
    gap_accounting,
    random_payloads,
    run_link,
)
from .framing import (
    FrameStructure,
    PacketPlan,
    PlanInfeasible,
    ab_state_v1,
    ab_state_v2,
    build_packet_stream,
    build_subpacket,
    repetition_count,
    subpacket_chip_length,
)
from .rll import (
    ChipStream,
    InvalidCodeword,
    RllScheme,
    decode_rll,
    efficiency,
    encode_rll,
    preamble,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
