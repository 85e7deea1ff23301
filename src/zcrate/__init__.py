"""Rate bounds and waveform simulation for zero-crossing signaling through
bandlimited 1-bit quantized AWGN channels."""

from .params import (
    ChannelConfig,
    DerivedParams,
    ZeroCrossingSeq,
    awgn_capacity,
    derive,
    sample_input_sequence,
)
from .spectrum import PoleError, psd_bounds, psd_finite_k
from .distortion import DistortionBounds, c0_constant, c2_constant, distortion_bounds
from .bounds import (
    BoundReport,
    bound_report,
    delta_offset,
    high_snr_limit,
    k_opt,
)
from .level_crossing import AcfModel

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "DerivedParams",
    "ZeroCrossingSeq",
    "derive",
    "sample_input_sequence",
    "awgn_capacity",
    "PoleError",
    "psd_bounds",
    "psd_finite_k",
    "DistortionBounds",
    "c0_constant",
    "c2_constant",
    "distortion_bounds",
    "BoundReport",
    "bound_report",
    "delta_offset",
    "k_opt",
    "high_snr_limit",
    "AcfModel",
    "__version__",
]
