"""The five-round honest-but-curious group verification exchange.

Flow (client = querying user, server holds the group representations in the
clear):

1. client -> server: the query code encrypted componentwise under the
   client's additive key.  All l components are sent, zeros included, so the
   support of the query stays hidden.
2. server -> client: for every group, the additively encrypted correlation
   p.r_g (a product of ciphertext powers over the nonzero symbols of r_g),
   wrapped under the server's multiplicative key.
3. client -> server: the wrapped correlations, uniformly permuted and
   rerandomized by multiplication with fresh encryptions of 1.  The client
   keeps the permutation; it is never transmitted.
4. server -> client: the server strips the outer layer (the permutation is
   meant to hide which group is which) and blinds each value into the additive
   ciphertext of a_k * (2S - 2 c_k - tau) + b_k with fresh signed masks.
5. client -> server: the decrypted masked values.  Symmetric masks make the
   sign of (distance - tau) statistically invisible to the client.

The server unmasks and accepts iff some value is <= 0, which for exactly-S
codes is exactly "some squared distance is <= tau".  The exchange is meant
to reveal only that bit, but the server can undo the permutation and learns
every distance; the README section "Security scale" lists the known leaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core import CodeMatrix, TernaryCode
from ..errors import DimensionError, PlaintextRangeError, ProtocolError, ProtocolIntegrityError
from .elgamal import (
    MultiplicativeCiphertext,
    MultiplicativePublicKey,
    MultiplicativeSecretKey,
    mult_decrypt,
    mult_encrypt,
    mult_keygen,
    mult_rerandomize_by_one,
)
from .paillier import (
    AdditivePublicKey,
    AdditiveSecretKey,
    additive_add,
    additive_decrypt,
    additive_encrypt,
    additive_keygen,
    additive_scalar_mul,
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
    """Key and mask sizes.  Desk-scale defaults; larger values only cost time.

    The multiplicative plaintext space must exceed the additive ciphertext
    space for a one-limb embedding; smaller multiplicative keys fall back to
    a deterministic multi-limb schedule recorded in the transcript.
    """

    additive_bits: int = DEFAULT_ADDITIVE_BITS
    mult_bits: Optional[int] = None
    mask_magnitude: int = DEFAULT_MASK_MAGNITUDE

    def __post_init__(self):
        if self.additive_bits < 64:
            raise ProtocolError("additive modulus must be at least 64 bits")
        if self.mask_magnitude < 1:
            raise ProtocolError("mask magnitude must be positive")

    @property
    def resolved_mult_bits(self) -> int:
        return self.mult_bits if self.mult_bits is not None else 2 * self.additive_bits + 16


@dataclass(frozen=True)
class ProtocolKeys:
    additive_public: AdditivePublicKey
    additive_secret: AdditiveSecretKey
    mult_public: MultiplicativePublicKey
    mult_secret: MultiplicativeSecretKey

    @classmethod
    def generate(cls, params: SecurityParams, rng: random.Random) -> "ProtocolKeys":
        add_pk, add_sk = additive_keygen(params.additive_bits, rng)
        mul_pk, mul_sk = mult_keygen(params.resolved_mult_bits, rng)
        return cls(add_pk, add_sk, mul_pk, mul_sk)


def limb_schedule(additive_pk: AdditivePublicKey, mult_pk: MultiplicativePublicKey) -> tuple[int, int]:
    """(limb count, bits per limb) for embedding additive ciphertexts.

    Limb values v are encoded as v + 1 so they are valid nonzero
    multiplicative plaintexts; bits are chosen so v + 1 < p always holds.
    """
    limb_bits = mult_pk.modulus.bit_length() - 1
    total_bits = additive_pk.modulus_squared.bit_length()
    limbs = max(1, -(-total_bits // limb_bits))
    return limbs, limb_bits


def _to_limbs(value: int, limbs: int, limb_bits: int) -> list[int]:
    mask = (1 << limb_bits) - 1
    return [(value >> (limb_bits * i)) & mask for i in range(limbs)]


def _from_limbs(parts: Sequence[int], limb_bits: int) -> int:
    value = 0
    for i, part in enumerate(parts):
        value |= part << (limb_bits * i)
    return value


def _require_exact_code(code: TernaryCode) -> None:
    # TernaryCode already enforces exact sparsity; this guards foreign input
    if int((code.symbols != 0).sum()) != code.sparsity:
        raise ProtocolError("protocol requires exactly-S codes")


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


def client_round1_encrypt_query(code: TernaryCode, pk: AdditivePublicKey, rng: random.Random) -> list[int]:
    """Encrypt every component of the query code, zeros included."""
    _require_exact_code(code)
    return [additive_encrypt(pk, int(s), rng) for s in code.symbols]


def server_round2_encrypted_correlations(
    encrypted_query: Sequence[int],
    representations: CodeMatrix,
    additive_pk: AdditivePublicKey,
    mult_pk: MultiplicativePublicKey,
    rng: random.Random,
) -> list[list[MultiplicativeCiphertext]]:
    """Per group: the additively encrypted correlation, wrapped multiplicatively.

    enc(p . r_g) is the product over nonzero symbols of enc(p_i)^{r_g(i)};
    the resulting residue is split into the limb schedule and each limb is
    encrypted under the server's multiplicative key.
    """
    if len(encrypted_query) != representations.code_length:
        raise DimensionError("encrypted query length does not match representations")
    limbs, limb_bits = limb_schedule(additive_pk, mult_pk)
    wrapped = []
    for g in range(representations.num_groups):
        rep = representations.column(g)
        _require_exact_code(rep)
        acc = None
        for i in rep.support():
            factor = encrypted_query[i]
            if rep.symbols[i] < 0:
                factor = pow(factor, -1, additive_pk.modulus_squared)
            acc = factor if acc is None else additive_add(additive_pk, acc, factor)
        group_limbs = [
            mult_encrypt(mult_pk, part + 1, rng) for part in _to_limbs(acc, limbs, limb_bits)
        ]
        wrapped.append(group_limbs)
    return wrapped


def client_round3_mask_permute(
    wrapped: Sequence[Sequence[MultiplicativeCiphertext]],
    mult_pk: MultiplicativePublicKey,
    rng: random.Random,
) -> tuple[list[list[MultiplicativeCiphertext]], tuple[int, ...]]:
    """Uniformly permute the groups and rerandomize every ciphertext.

    Returns the permuted rerandomized list and the permutation
    (output position k came from input position permutation[k]); the
    permutation stays with the client and is never sent.
    """
    order = list(range(len(wrapped)))
    rng.shuffle(order)
    permuted = [
        [mult_rerandomize_by_one(mult_pk, ct, rng) for ct in wrapped[src]] for src in order
    ]
    return permuted, tuple(order)


def server_round4_blind_threshold(
    permuted: Sequence[Sequence[MultiplicativeCiphertext]],
    mult_sk: MultiplicativeSecretKey,
    additive_pk: AdditivePublicKey,
    tau: int,
    sparsity: int,
    masks: Sequence[MaskPair],
    rng: random.Random,
) -> list[int]:
    """Strip the outer layer and blind each correlation into an affine value.

    Output k decrypts (under the client's key) to a_k*(2S - 2 c_k - tau) + b_k
    where c_k is the k-th permuted correlation.
    """
    if len(masks) != len(permuted):
        raise ProtocolError("need one mask pair per value")
    for mask in masks:
        if abs(mask.a) * (4 * sparsity + abs(tau)) + abs(mask.b) > additive_pk.signed_bound:
            raise PlaintextRangeError("mask pair overflows the additive plaintext window")
    _, limb_bits = limb_schedule(additive_pk, mult_sk.public)
    blinded = []
    for group_limbs, mask in zip(permuted, masks):
        parts = [mult_decrypt(mult_sk, ct) - 1 for ct in group_limbs]
        enc_corr = _from_limbs(parts, limb_bits)
        scaled = additive_scalar_mul(additive_pk, enc_corr, -2 * mask.a)
        constant = additive_encrypt(additive_pk, mask.a * (2 * sparsity - tau) + mask.b, rng)
        blinded.append(additive_add(additive_pk, scaled, constant))
    return blinded


def client_round5_decrypt_reveal(blinded: Sequence[int], additive_sk: AdditiveSecretKey) -> list[int]:
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
    """Execute the five rounds end to end and record the transcript.

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
    num_groups = representations.num_groups
    limbs, _ = limb_schedule(keys.additive_public, keys.mult_public)

    enc_query = client_round1_encrypt_query(code, keys.additive_public, rng)
    msg1 = ProtocolMessage(1, CLIENT, tuple(enc_query))

    wrapped = server_round2_encrypted_correlations(
        enc_query, representations, keys.additive_public, keys.mult_public, rng
    )
    msg2 = ProtocolMessage(2, SERVER, _flatten_wrapped(wrapped))

    permuted, _permutation = client_round3_mask_permute(wrapped, keys.mult_public, rng)
    msg3 = ProtocolMessage(3, CLIENT, _flatten_wrapped(permuted))

    masks = draw_masks(num_groups, params.mask_magnitude, rng)
    blinded = server_round4_blind_threshold(
        permuted, keys.mult_secret, keys.additive_public, tau, code.sparsity, masks, rng
    )
    msg4 = ProtocolMessage(4, SERVER, tuple(blinded))

    revealed = client_round5_decrypt_reveal(blinded, keys.additive_secret)
    residues = tuple(v % keys.additive_public.modulus for v in revealed)
    msg5 = ProtocolMessage(5, CLIENT, residues)

    decision = server_decide(revealed, masks, tau)
    transcript = ProtocolTranscript((msg1, msg2, msg3, msg4, msg5), limbs)
    return decision, transcript


def _flatten_wrapped(wrapped: Sequence[Sequence[MultiplicativeCiphertext]]) -> tuple[int, ...]:
    flat: list[int] = []
    for group_limbs in wrapped:
        for ct in group_limbs:
            flat.append(ct.c1)
            flat.append(ct.c2)
    return tuple(flat)
