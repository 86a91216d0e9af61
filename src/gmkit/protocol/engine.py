"""The three-message honest-but-curious group verification exchange.

Flow (client = querying user, server holds the group representations in the
clear); every ciphertext is under the client's additive key:

1. client -> server: the query code p, a one-column :class:`CodeMatrix`,
   encrypted componentwise.  All l components are sent, zeros included, so
   the support of the query stays hidden.
2. server -> client: for every group g, in the server's group order, the
   masked value a_g * (2S - 2 p.r_g - tau) + b_g with fresh signed masks,
   K groups to a ciphertext.  For exactly-S codes 2S - 2 p.r_g is the
   squared distance d_g, so the value is a_g * (d_g - tau) + b_g.  The
   server computes enc(-2 a_g p.r_g) from message 1 (one batched inversion,
   then one positive exponentiation per group), folds K of them into one
   ciphertext as w-bit slots, and adds one fresh encryption of their packed
   constant terms, which rerandomizes the ciphertext.  The slot width w
   follows from public values (``validate_mask_range``), and
   K = floor((|n| - 2) / w), so message 2 holds ceil(M / K) ciphertexts
   (Bianchi, Piva and Barni's composite signal representation, IEEE TIFS
   2010).
3. client -> server: the decrypted masked values, one per group, split out
   of the slots.  Symmetric masks make the sign of (d_g - tau)
   statistically invisible to the client.

The server unmasks and accepts iff some d_g - tau is <= 0, that is, iff some
squared distance is <= tau.  What each party learns: the server learns
d_g - tau for every group, in group order, and so R^T p, which gives it
the whole query code when R has rank l (M >= l); the client learns one
masked value per group and which group it belongs to.  Packing changes
neither view.  The README section "Security scale" lists these leaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import CodeMatrix, as_int
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
MASK_MAGNITUDE = 2**16  # the bound on |a| and |b| of every mask pair run_protocol draws


@dataclass(frozen=True)
class MaskPair:
    """Affine blinding coefficients, held as Python ints; ``a`` must be nonzero."""

    a: int
    b: int

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, ProtocolError))
        if self.a == 0:
            raise ProtocolError("mask coefficient a must be nonzero")


@dataclass(frozen=True)
class ProtocolDecision:
    accept: bool


@dataclass(frozen=True)
class SecurityParams:
    """The key size, held as a Python int.  A desk-scale default; larger keys only cost time."""

    additive_bits: int = DEFAULT_ADDITIVE_BITS

    def __post_init__(self):
        object.__setattr__(self, "additive_bits", as_int(self.additive_bits, "additive_bits", ProtocolError))
        if self.additive_bits < 64:
            raise ProtocolError("additive modulus must be at least 64 bits")


def _check_kind(value, kinds: type | tuple[type, ...], name: str) -> None:
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, kinds):
        expected = " or ".join(f"{kind.__module__}.{kind.__qualname__}" for kind in kinds)
        raise ProtocolError(f"{name} must be a {expected}, got {type(value).__name__}")


@dataclass(frozen=True)
class ProtocolKeys:
    additive_secret: AdditiveSecretKey

    @property
    def additive_public(self) -> AdditivePublicKey:
        return self.additive_secret.public

    @classmethod
    def generate(cls, params: SecurityParams, rng: random.Random) -> "ProtocolKeys":
        """A fresh key pair of ``params.additive_bits`` bits, drawn from ``rng``.

        The primes have the form 2 k p' + 1 (``additive_keygen``), and the
        secret key builds its randomizer tables here, once, so every later
        keyholder encryption is table lookups and multiplications.
        """
        _check_kind(params, SecurityParams, "params")
        _check_kind(rng, random.Random, "rng")
        return cls(additive_keygen(params.additive_bits, rng)[1])


def validate_mask_range(pk: AdditivePublicKey, sparsity: int, tau: int, magnitude: int) -> int:
    """The slot width w of message 2 for masks up to ``magnitude``.

    Every masked value a*(2S - 2c - tau) + b with |a|, |b| <= magnitude and
    |c| <= S is at most worst = magnitude*(4S + |tau|) + magnitude in
    magnitude.  w = bitlen(worst) + 1 makes 2^(w-1) > worst, so the value
    offset by 2^(w-1) lies in (0, 2^w) and no slot carries into the next.
    Raises ``PlaintextRangeError`` when not even one w-bit slot fits.
    """
    _check_kind(pk, AdditivePublicKey, "pk")
    magnitude = as_int(magnitude, "magnitude", ProtocolError)
    sparsity = as_int(sparsity, "sparsity", ProtocolError)
    tau = as_int(tau, "tau", ProtocolError)
    worst = magnitude * (4 * sparsity + abs(tau)) + magnitude
    width = worst.bit_length() + 1
    try:
        _slots_per_ciphertext(pk, width)
    except PlaintextRangeError as err:
        raise PlaintextRangeError(f"mask magnitude {magnitude} can overflow the additive plaintext: {err}") from None
    return width


def _slots_per_ciphertext(pk: AdditivePublicKey, slot_width: int) -> int:
    """K = floor((|n| - 2) / w): K slots of w bits stay below 2^(|n| - 2) < n/2."""
    usable = pk.modulus.bit_length() - 2
    if not 2 <= slot_width <= usable:
        raise PlaintextRangeError(f"{slot_width}-bit slots do not fit a plaintext of {usable} usable bits")
    return usable // slot_width


def draw_masks(count: int, magnitude: int, rng: random.Random) -> list[MaskPair]:
    """Uniform signed masks: a in +/-[1, magnitude], b in [-magnitude, magnitude]."""
    count = as_int(count, "count", ProtocolError)
    magnitude = as_int(magnitude, "magnitude", ProtocolError)
    _check_kind(rng, random.Random, "rng")
    if magnitude < 1:
        raise ProtocolError("mask magnitude must be positive")
    masks = []
    for _ in range(count):
        a = rng.randint(1, magnitude) * rng.choice((-1, 1))
        b = rng.randint(-magnitude, magnitude)
        masks.append(MaskPair(a, b))
    return masks


def client_round1_encrypt_query(code: CodeMatrix, key: AdditiveKey, rng: random.Random) -> list[int]:
    """Encrypt every component of the one-column query code, zeros included.

    ``key`` is the client's public key, or its secret key, which draws each
    randomizer as its two CRT halves mod p^2 and q^2 from fixed-base tables:
    same ciphertext distribution, with no exponentiation (``paillier``
    module docstring).
    """
    _check_kind(code, CodeMatrix, "code")
    _check_kind(key, (AdditivePublicKey, AdditiveSecretKey), "key")
    _check_kind(rng, random.Random, "rng")
    return [additive_encrypt(key, int(s), rng) for s in code.symbols]


def server_round2_blind_threshold(
    encrypted_query: Sequence[int],
    representations: CodeMatrix,
    additive_pk: AdditivePublicKey,
    tau: int,
    masks: Sequence[MaskPair],
    slot_width: int,
    rng: random.Random,
) -> list[int]:
    """Message 2: each group's a_g*(2S - 2 p.r_g - tau) + b_g, K groups per ciphertext.

    enc(-2 a_g p.r_g) is (prod_i c_i^(e_i))^(2|a_g|) over the support of
    r_g, where e_i = -sign(a_g) r_g(i) is +1 or -1: the sign of the scalar
    picks c_i or its inverse, so the one exponentiation per group has a
    positive exponent of at most 2 * mask magnitude.  All l inverses come
    from one modular inversion (``invert_ciphertexts``), which also rejects
    message-1 entries that are not valid ciphertexts with
    ``ProtocolIntegrityError``.  The supports and signs of all groups come
    from one ``np.nonzero``; ``CodeMatrix`` guarantees exactly S nonzeros
    per column.

    Groups are packed in order, K = floor((|n| - 2) / w) to a ciphertext
    (fewer in the last), the first of each ciphertext in its top slot, by
    Horner steps acc <- acc^(2^w) * enc(-2 a_g p.r_g).  The packed
    ciphertext is multiplied by one fresh encryption of the packed
    constants sum_slot 2^(w*slot) (a_g(2S - tau) + b_g + 2^(w-1)), which
    rerandomizes it and offsets every slot into (0, 2^w).  A mask pair
    whose value can reach 2^(w-1) in magnitude raises
    ``PlaintextRangeError``.
    """
    tau = as_int(tau, "tau", ProtocolError)
    slot_width = as_int(slot_width, "slot_width", ProtocolError)
    _check_kind(representations, CodeMatrix, "representations")
    _check_kind(additive_pk, AdditivePublicKey, "additive_pk")
    _check_kind(rng, random.Random, "rng")
    if len(encrypted_query) != representations.code_length:
        raise DimensionError("encrypted query length does not match representations")
    if len(masks) != representations.num_groups:
        raise ProtocolError("need one mask pair per group")
    slots = _slots_per_ciphertext(additive_pk, slot_width)
    sparsity = representations.sparsity
    offset = 1 << (slot_width - 1)
    for mask in masks:
        if abs(mask.a) * (4 * sparsity + abs(tau)) + abs(mask.b) >= offset:
            raise PlaintextRangeError(f"mask pair {mask} overflows a {slot_width}-bit slot")
    n2 = additive_pk.modulus_squared
    shift = 1 << slot_width
    # factors[0][i] = c_i, factors[1][i] = c_i^-1
    factors = (list(encrypted_query), invert_ciphertexts(additive_pk, encrypted_query))
    by_group = representations.codes.T
    groups, support = np.nonzero(by_group)
    support_rows = support.reshape(-1, sparsity).tolist()
    negative_rows = (by_group[groups, support] < 0).reshape(-1, sparsity).tolist()
    blinded = []
    for first in range(0, len(masks), slots):
        acc, constants = 1, 0
        chunk = slice(first, first + slots)
        for mask, rows, negatives in zip(masks[chunk], support_rows[chunk], negative_rows[chunk]):
            # exponent sign of c_i is -sign(a) * sign(r_i): the inverse when they agree
            a_negative = mask.a < 0
            product = 1
            for i, negative in zip(rows, negatives):
                product = product * factors[negative == a_negative][i] % n2
            acc = pow(acc, shift, n2) * pow(product, 2 * abs(mask.a), n2) % n2
            constants = (constants << slot_width) + mask.a * (2 * sparsity - tau) + mask.b + offset
        blinded.append(acc * additive_encrypt(additive_pk, constants, rng) % n2)
    return blinded


def client_round3_decrypt_reveal(
    blinded: Sequence[int], additive_sk: AdditiveSecretKey, num_groups: int, slot_width: int
) -> list[int]:
    """Decrypt message 2 and split its slots: the M masked values in group order.

    The client keeps nothing else.  Message 2 must hold ceil(M / K)
    ciphertexts, and each must decrypt into [0, 2^(count*w)) for its count
    of slots; anything else raises ``ProtocolIntegrityError``.
    """
    num_groups = as_int(num_groups, "num_groups", ProtocolError)
    slot_width = as_int(slot_width, "slot_width", ProtocolError)
    _check_kind(additive_sk, AdditiveSecretKey, "additive_sk")
    slots = _slots_per_ciphertext(additive_sk.public, slot_width)
    expected = -(-num_groups // slots)
    if len(blinded) != expected:
        raise ProtocolIntegrityError(
            f"message 2 has {len(blinded)} ciphertexts for {num_groups} groups, expected {expected}"
        )
    offset, slot_mask = 1 << (slot_width - 1), (1 << slot_width) - 1
    values = []
    for k, ciphertext in enumerate(blinded):
        count = min(slots, num_groups - k * slots)
        packed = additive_decrypt(additive_sk, ciphertext)
        if not 0 <= packed < 1 << (count * slot_width):
            raise ProtocolIntegrityError(
                f"ciphertext {k} of message 2 decrypts outside its {count} slots of {slot_width} bits"
            )
        values.extend((packed >> (slot * slot_width) & slot_mask) - offset for slot in reversed(range(count)))
    return values


def server_decide(values: Sequence[int], masks: Sequence[MaskPair]) -> ProtocolDecision:
    """Unmask each value and accept iff some (distance - tau) is <= 0.

    Unmasking must divide exactly; a remainder means the revealed values are
    inconsistent with the masks (tampering or a protocol bug).  The values
    already have tau subtracted, so the decision does not take it.
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
    code: CodeMatrix,
    representations: CodeMatrix,
    tau: int,
    rng: random.Random,
    keys: Optional[ProtocolKeys] = None,
) -> tuple[ProtocolDecision, ProtocolTranscript]:
    """Execute the three messages end to end and record the transcript.

    ``code`` is the query, a one-column code matrix; another width raises
    DimensionError before round 1.  Deterministic given ``rng``, a
    ``random.Random``; pass pre-generated ``keys`` to amortize key
    generation across runs.  Without ``keys``, they are drawn first from
    ``rng`` by ``ProtocolKeys.generate(SecurityParams(), rng)``.  Every mask
    pair is bounded by ``MASK_MAGNITUDE``.  ``tau`` must be an integer (a
    numpy integer too); anything else, and an argument of the wrong kind,
    raises ProtocolError before round 1.
    """
    tau = as_int(tau, "tau", ProtocolError)
    _check_kind(code, CodeMatrix, "code")
    _check_kind(representations, CodeMatrix, "representations")
    _check_kind(rng, random.Random, "rng")
    if keys is not None:
        _check_kind(keys, ProtocolKeys, "keys")
    if code.num_groups != 1:
        raise DimensionError(f"the query must be one code, got {code.num_groups} columns")
    if code.sparsity != representations.sparsity:
        raise ProtocolError("query and representations must share the sparsity level")
    if code.code_length != representations.code_length:
        raise DimensionError("query code length does not match representations")
    if keys is None:
        keys = ProtocolKeys.generate(SecurityParams(), rng)
    slot_width = validate_mask_range(keys.additive_public, code.sparsity, tau, MASK_MAGNITUDE)

    enc_query = client_round1_encrypt_query(code, keys.additive_secret, rng)
    msg1 = ProtocolMessage(1, CLIENT, tuple(enc_query))

    num_groups = representations.num_groups
    masks = draw_masks(num_groups, MASK_MAGNITUDE, rng)
    blinded = server_round2_blind_threshold(
        enc_query, representations, keys.additive_public, tau, masks, slot_width, rng
    )
    msg2 = ProtocolMessage(2, SERVER, tuple(blinded))

    revealed = client_round3_decrypt_reveal(blinded, keys.additive_secret, num_groups, slot_width)
    residues = tuple(v % keys.additive_public.modulus for v in revealed)
    msg3 = ProtocolMessage(3, CLIENT, residues)

    decision = server_decide(revealed, masks)
    return decision, ProtocolTranscript((msg1, msg2, msg3))
