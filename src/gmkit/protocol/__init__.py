"""Two-party homomorphic verification protocol."""

from .engine import (
    MaskPair,
    ProtocolDecision,
    ProtocolKeys,
    SecurityParams,
    client_round1_encrypt_query,
    client_round3_decrypt_reveal,
    draw_masks,
    run_protocol,
    server_decide,
    server_round2_blind_threshold,
    validate_mask_range,
)
from .paillier import (
    additive_decrypt,
    additive_encrypt,
    additive_keygen,
)
from .transcript import ProtocolMessage, ProtocolTranscript, decode_message

__all__ = [
    "MaskPair",
    "ProtocolDecision",
    "ProtocolKeys",
    "ProtocolMessage",
    "ProtocolTranscript",
    "SecurityParams",
    "additive_decrypt",
    "additive_encrypt",
    "additive_keygen",
    "client_round1_encrypt_query",
    "client_round3_decrypt_reveal",
    "decode_message",
    "draw_masks",
    "run_protocol",
    "server_decide",
    "server_round2_blind_threshold",
    "validate_mask_range",
]
