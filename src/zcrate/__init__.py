"""Rate bounds and waveform simulation for zero-crossing signaling through
bandlimited 1-bit quantized AWGN channels."""

__version__ = "0.1.0"
