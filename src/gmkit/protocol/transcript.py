"""Wire format and transcript records for the two-party exchange.

Each message is encoded bit-exactly as

    header:  round u8 | sender u8 | count u32 (big-endian)
    body:    count payloads, each u32 big-endian length + big-endian bytes

Payloads are nonnegative big integers (ciphertext residues, or masked
values as least nonnegative residues modulo the additive modulus).  A
transcript is the header ``GMKT | version u8`` followed by the three
messages in order.  In version 3, message 2 holds ceil(M / K) packed
ciphertexts, K groups each, the first group in the top slot; messages 1 and
3 hold one payload per code component and per group.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import ParseError, ProtocolError

CLIENT = 0
SERVER = 1

KIND_BY_ROUND = {
    1: "encrypted-query",
    2: "blinded-affine",
    3: "masked-values",
}

_MAGIC = b"GMKT"
_VERSION = 3

EXPECTED_SENDERS = {1: CLIENT, 2: SERVER, 3: CLIENT}


@dataclass(frozen=True)
class ProtocolMessage:
    round_no: int
    sender: int
    payloads: tuple[int, ...]

    def __post_init__(self):
        if self.round_no not in KIND_BY_ROUND:
            raise ProtocolError(f"round must be 1..3, got {self.round_no}")
        if self.sender != EXPECTED_SENDERS[self.round_no]:
            raise ProtocolError(f"round {self.round_no} must be sent by party {EXPECTED_SENDERS[self.round_no]}")
        if any(p < 0 for p in self.payloads):
            raise ProtocolError("wire payloads must be nonnegative integers")

    @property
    def kind(self) -> str:
        return KIND_BY_ROUND[self.round_no]

    def encode(self) -> bytes:
        parts = [struct.pack(">BBI", self.round_no, self.sender, len(self.payloads))]
        for value in self.payloads:
            raw = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
            parts.append(struct.pack(">I", len(raw)))
            parts.append(raw)
        return b"".join(parts)


def decode_message(buf: bytes, offset: int = 0) -> tuple[ProtocolMessage, int]:
    if offset + 6 > len(buf):
        raise ParseError("truncated message header")
    round_no, sender, count = struct.unpack_from(">BBI", buf, offset)
    offset += 6
    payloads = []
    for _ in range(count):
        if offset + 4 > len(buf):
            raise ParseError("truncated payload length")
        (length,) = struct.unpack_from(">I", buf, offset)
        offset += 4
        if offset + length > len(buf):
            raise ParseError("truncated payload body")
        payloads.append(int.from_bytes(buf[offset : offset + length], "big"))
        offset += length
    try:
        return ProtocolMessage(round_no, sender, tuple(payloads)), offset
    except ProtocolError as err:
        raise ParseError(f"bad message header: {err}") from None


@dataclass(frozen=True)
class ProtocolTranscript:
    """The three messages in order."""

    messages: tuple[ProtocolMessage, ...]

    def __post_init__(self):
        rounds = tuple(m.round_no for m in self.messages)
        if rounds != tuple(KIND_BY_ROUND):
            raise ProtocolError(f"transcript must contain rounds 1..3 in order, got {rounds}")

    def message(self, round_no: int) -> ProtocolMessage:
        return self.messages[round_no - 1]

    def to_bytes(self) -> bytes:
        parts = [_MAGIC, struct.pack(">B", _VERSION)]
        parts.extend(m.encode() for m in self.messages)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "ProtocolTranscript":
        if buf[:4] != _MAGIC:
            raise ParseError("bad transcript magic")
        if len(buf) < 5:
            raise ParseError("truncated transcript header")
        version = buf[4]
        if version != _VERSION:
            raise ParseError(f"unsupported transcript version {version}")
        offset = 5
        messages = []
        for _ in KIND_BY_ROUND:
            msg, offset = decode_message(buf, offset)
            messages.append(msg)
        if offset != len(buf):
            raise ParseError(f"{len(buf) - offset} trailing bytes after transcript")
        try:
            return cls(tuple(messages))
        except ProtocolError as err:
            raise ParseError(f"bad transcript: {err}") from None

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "ProtocolTranscript":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
