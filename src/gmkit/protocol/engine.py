"""The three-message honest-but-curious group verification exchange.

Flow (client = querying user, server holds the group representations in the
clear); every ciphertext is under the client's additive key:

1. client -> server: the query code p encrypted componentwise.  All l
   components are sent, zeros included, so the support of the query stays
   hidden.
2. server -> client: for every group g, in the server's group order, the
   ciphertext of a_g * (2S - 2 p.r_g - tau) + b_g with fresh signed masks.
   For exactly-S codes 2S - 2 p.r_g is the squared distance d_g, so the
   value is a_g * (d_g - tau) + b_g.  The server computes enc(-2 a_g p.r_g)
   from message 1 (one batched inversion, then one positive exponentiation
   per group) and adds a fresh encryption of the constant term, which
   rerandomizes every ciphertext.
3. client -> server: the decrypted masked values.  Symmetric masks make the
   sign of (d_g - tau) statistically invisible to the client.

The server unmasks and accepts iff some d_g - tau is <= 0, that is, iff some
squared distance is <= tau.  What each party learns: the server learns
d_g - tau for every group, in group order; the client learns one masked
value per group and which group it belongs to.  The README section
"Security scale" lists these leaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import CodeMatrix, TernaryCode
from ..errors import DimensionError, PlaintextRangeError, ProtocolError, ProtocolIntegrityError
from .paillier import (
    AdditiveKey,
    AdditivePublicKey,
    AdditiveSecretKey,
    additive_decrypt,
    additive_encrypt,
    additive_keygen,
    invert_ciphertexts,
)
from .transcript import CLIENT, SERVER, ProtocolMessage, ProtocolTranscript

DEFAULT_ADDITIVE_BITS = 128
DEFAULT_MASK_MAGNITUDE = 2**16


@dataclass(frozen=True)
class MaskPair:
    """Affine blinding coefficients; ``a`` must be nonzero."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == 0:
            raise ProtocolError("mask coefficient a must be nonzero")


@dataclass(frozen=True)
class ProtocolDecision:
    accept: bool


@dataclass(frozen=True)
class SecurityParams:
    """Key and mask sizes.  Desk-scale defaults; larger values only cost time."""

    additive_bits: int = DEFAULT_ADDITIVE_BITS
    mask_magnitude: int = DEFAULT_MASK_MAGNITUDE

    def __post_init__(self):
        if self.additive_bits < 64:
            raise ProtocolError("additive modulus must be at least 64 bits")
        if self.mask_magnitude < 1:
            raise ProtocolError("mask magnitude must be positive")


@dataclass(frozen=True)
class ProtocolKeys:
    additive_public: AdditivePublicKey
    additive_secret: AdditiveSecretKey

    @classmethod
    def generate(cls, params: SecurityParams, rng: random.Random) -> "ProtocolKeys":
        return cls(*additive_keygen(params.additive_bits, rng))


def validate_mask_range(pk: AdditivePublicKey, sparsity: int, tau: int, magnitude: int) -> None:
    """Affine values a*(2S - 2c - tau) + b must stay inside the signed window."""
    worst = magnitude * (4 * sparsity + abs(tau)) + magnitude
    if worst > pk.signed_bound:
        raise PlaintextRangeError(
            f"mask magnitude {magnitude} can overflow the additive plaintext window ({worst} > {pk.signed_bound})"
        )


def draw_masks(count: int, magnitude: int, rng: random.Random) -> list[MaskPair]:
    """Uniform signed masks: a in +/-[1, magnitude], b in [-magnitude, magnitude]."""
    masks = []
    for _ in range(count):
        a = rng.randint(1, magnitude) * rng.choice((-1, 1))
        b = rng.randint(-magnitude, magnitude)
        masks.append(MaskPair(a, b))
    return masks


def client_round1_encrypt_query(code: TernaryCode, key: AdditiveKey, rng: random.Random) -> list[int]:
    """Encrypt every component of the query code, zeros included.

    ``key`` is the client's public key, or its secret key, which encrypts to
    the same ciphertexts faster (CRT over p^2 and q^2).
    """
    return [additive_encrypt(key, int(s), rng) for s in code.symbols]


def server_round2_blind_threshold(
    encrypted_query: Sequence[int],
    representations: CodeMatrix,
    additive_pk: AdditivePublicKey,
    tau: int,
    masks: Sequence[MaskPair],
    rng: random.Random,
) -> list[int]:
    """Per group: the additive ciphertext of a_g*(2S - 2 p.r_g - tau) + b_g.

    enc(-2 a_g p.r_g) is (prod_i c_i^(e_i))^(2|a_g|) over the support of
    r_g, where e_i = -sign(a_g) r_g(i) is +1 or -1: the sign of the scalar
    picks c_i or its inverse, so the one exponentiation per group has a
    positive exponent of at most 2 * mask magnitude.  All l inverses come
    from one modular inversion (``invert_ciphertexts``), which also rejects
    message-1 entries that are not valid ciphertexts with
    ``ProtocolIntegrityError``.  The product is multiplied by a fresh
    encryption of the constant a_g*(2S - tau) + b_g, which rerandomizes it.
    The supports and signs of all groups come from one ``np.nonzero``;
    ``CodeMatrix`` guarantees exactly S nonzeros per column.
    """
    if len(encrypted_query) != representations.code_length:
        raise DimensionError("encrypted query length does not match representations")
    if len(masks) != representations.num_groups:
        raise ProtocolError("need one mask pair per group")
    sparsity = representations.sparsity
    for mask in masks:
        if abs(mask.a) * (4 * sparsity + abs(tau)) + abs(mask.b) > additive_pk.signed_bound:
            raise PlaintextRangeError("mask pair overflows the additive plaintext window")
    n2 = additive_pk.modulus_squared
    # factors[0][i] = c_i, factors[1][i] = c_i^-1
    factors = (list(encrypted_query), invert_ciphertexts(additive_pk, encrypted_query))
    by_group = representations.codes.T
    groups, support = np.nonzero(by_group)
    support_rows = support.reshape(-1, sparsity).tolist()
    negative_rows = (by_group[groups, support] < 0).reshape(-1, sparsity).tolist()
    blinded = []
    for mask, rows, negatives in zip(masks, support_rows, negative_rows):
        # exponent sign of c_i is -sign(a) * sign(r_i): the inverse when they agree
        a_negative = mask.a < 0
        acc = 1
        for i, negative in zip(rows, negatives):
            acc = acc * factors[negative == a_negative][i] % n2
        scaled = pow(acc, 2 * abs(mask.a), n2)
        constant = additive_encrypt(additive_pk, mask.a * (2 * sparsity - tau) + mask.b, rng)
        blinded.append(scaled * constant % n2)
    return blinded


def client_round3_decrypt_reveal(blinded: Sequence[int], additive_sk: AdditiveSecretKey) -> list[int]:
    """Decrypt the blinded affine values; the client keeps nothing else."""
    return [additive_decrypt(additive_sk, ct) for ct in blinded]


def server_decide(values: Sequence[int], masks: Sequence[MaskPair], tau: int) -> ProtocolDecision:
    """Unmask each value and accept iff some (distance - tau) is <= 0.

    Unmasking must divide exactly; a remainder means the revealed values are
    inconsistent with the masks (tampering or a protocol bug).
    """
    if len(values) != len(masks):
        raise ProtocolError("need one mask pair per revealed value")
    accept = False
    for value, mask in zip(values, masks):
        numerator = value - mask.b
        quotient, remainder = divmod(numerator, mask.a)
        if remainder != 0:
            raise ProtocolIntegrityError(f"unmasking {value} with {mask} leaves remainder {remainder}")
        if quotient <= 0:
            accept = True
    return ProtocolDecision(accept)


def run_protocol(
    code: TernaryCode,
    representations: CodeMatrix,
    tau: int,
    rng: random.Random,
    params: Optional[SecurityParams] = None,
    keys: Optional[ProtocolKeys] = None,
) -> tuple[ProtocolDecision, ProtocolTranscript]:
    """Execute the three messages end to end and record the transcript.

    Deterministic given ``rng``; pass pre-generated ``keys`` to amortize key
    generation across runs.
    """
    params = params or SecurityParams()
    if code.sparsity != representations.sparsity:
        raise ProtocolError("query and representations must share the sparsity level")
    if code.length != representations.code_length:
        raise DimensionError("query code length does not match representations")
    if keys is None:
        keys = ProtocolKeys.generate(params, rng)
    validate_mask_range(keys.additive_public, code.sparsity, tau, params.mask_magnitude)

    enc_query = client_round1_encrypt_query(code, keys.additive_secret, rng)
    msg1 = ProtocolMessage(1, CLIENT, tuple(enc_query))

    masks = draw_masks(representations.num_groups, params.mask_magnitude, rng)
    blinded = server_round2_blind_threshold(enc_query, representations, keys.additive_public, tau, masks, rng)
    msg2 = ProtocolMessage(2, SERVER, tuple(blinded))

    revealed = client_round3_decrypt_reveal(blinded, keys.additive_secret)
    residues = tuple(v % keys.additive_public.modulus for v in revealed)
    msg3 = ProtocolMessage(3, CLIENT, residues)

    decision = server_decide(revealed, masks, tau)
    return decision, ProtocolTranscript((msg1, msg2, msg3))
