"""Collision codes: decode which stations transmitted inside a collision.

Constant-weight codebooks whose superimposed, majority-demodulated BPSK
transmissions identify the transmitting station subset uniquely, plus the
channel model, decoder, exhaustive verifier, and a multicast-ACK protocol
simulation built on top.
"""

from .channel import (demodulate, majority_demod_bit, modulate, pnc_xor_map,
                      superpose, superpose_noisy, threshold_noisy)
from .codebook import (Codebook, FormatError, InvariantError, MAX_STATIONS,
                       SizeLimitError, bits_to_str, build_codebook,
                       codeword_for, parse_codebook, serialize_codebook,
                       str_to_bits)
from .decoder import (DecodeOutcome, IDENTIFIED, NEAREST_BUDGET_CHIPS,
                      NOMATCH, SILENCE, decode_exact, decode_nearest)
from .protocol import (RoundResult, SessionConfig, SessionStats, run_round,
                       run_session)
from .verifier import (AdditivityReport, UNIQUENESS_BUDGET_ROWS,
                       UniquenessReport, WitnessSweepReport, check_additivity,
                       sweep_witnesses, verify_no_zero_vector,
                       verify_uniqueness)

__version__ = "0.1.0"

__all__ = [
    "modulate", "superpose", "demodulate", "majority_demod_bit",
    "pnc_xor_map", "superpose_noisy", "threshold_noisy",
    "Codebook", "MAX_STATIONS", "build_codebook", "codeword_for",
    "serialize_codebook", "parse_codebook", "bits_to_str", "str_to_bits",
    "SizeLimitError", "FormatError", "InvariantError",
    "DecodeOutcome", "IDENTIFIED", "SILENCE", "NOMATCH",
    "NEAREST_BUDGET_CHIPS", "decode_exact", "decode_nearest",
    "UniquenessReport", "WitnessSweepReport", "AdditivityReport",
    "UNIQUENESS_BUDGET_ROWS", "sweep_witnesses", "check_additivity",
    "verify_uniqueness", "verify_no_zero_vector",
    "SessionConfig", "RoundResult", "SessionStats", "run_round",
    "run_session",
]
