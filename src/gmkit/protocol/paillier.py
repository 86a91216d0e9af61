"""Additively homomorphic cryptosystem (Paillier, with g = 1 + n).

Ciphertexts are residues modulo n^2 represented as plain ints.  Plaintexts
are signed integers encoded as x mod n and decoded back into the window
(-n/2, n/2], so homomorphic sums and scalar products of moderately sized
values decrypt to exact signed results.

Homomorphic contract, on ciphertexts modulo n^2:

    decrypt(enc(a) * enc(b))            == a + b   (mod n, signed decode)
    decrypt(enc(a) ** k)                == k * a   (mod n, signed decode)

Valid ciphertexts are the residues c in [1, n^2) coprime to n.  Decryption
and ``invert_ciphertexts`` reject anything else with
``ProtocolIntegrityError``: 0, n, a multiple of p or q, a negative value or
one past n^2 would otherwise decrypt to garbage or fail inside ``pow``.

The secret key holds the primes and derives its CRT constants once, when
it is built.  Decryption is then two half-size exponentiations
c^(p-1) mod p^2 and c^(q-1) mod q^2 and a few multiplications (Paillier,
EUROCRYPT 1999, section 7).  The keyholder also encrypts with its primes,
drawing r^n mod n^2 as its CRT halves mod p^2 and q^2.  With gcd(q, p - 1)
= 1, which the key checks, r^n mod p^2 = (r^q mod p)^p mod p^2 is uniform
on H_p = {u^p mod p^2 : u in Z_p*} when r is uniform, and u -> u^p mod p^2
is an isomorphism from Z_p* onto H_p, the subgroup of order p - 1 (u^p = u
mod p makes it injective).  So if g is a primitive root mod p,
h_p = g^p mod p^2 generates H_p, and h_p^u for u uniform in [1, p) is
uniform on H_p (u = p - 1 gives h_p^0 = 1): exactly the distribution of
the public-key path, though not its bytes (likewise mod q^2).  The key finds the smallest primitive root,
which needs the prime factors of p - 1: ``additive_keygen`` draws primes
p = 2 k p' + 1 with p' prime and k < 2^10, and a key built by hand must
have p - 1 = (primes below 2^10) * (1 or one probable prime).  Each power
h_p^u then comes from a fixed-base window table (Brickell, Gordon,
McCurley and Wilson, EUROCRYPT 1992): ceil(|p| / w) multiplications mod
p^2 and no exponentiation, about a seventh of the time of u^p mod p^2, so
that one keyholder encryption takes a sixth of its former time at 128 and
1024 bits (CPython 3.11, 2-vCPU x86-64 host).  The tables hold 2^w powers
per w-bit digit of p and of q: about 0.2 MB at 128 bits and 5.6 MB at 1024.

Key sizes are configurable and default to desk scale; this module
demonstrates protocol structure, it is not hardened for production use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence, Union

from ..errors import PlaintextRangeError, ProtocolError, ProtocolIntegrityError
from .primes import generate_structured_prime, is_probable_prime, split_small_factors

WINDOW_BITS = 8  # fixed-base table width w: one row of 2^w powers per w-bit digit of the exponent


@dataclass(frozen=True)
class AdditivePublicKey:
    modulus: int  # n = p*q

    @property
    def modulus_squared(self) -> int:
        return self.modulus * self.modulus

    @property
    def signed_bound(self) -> int:
        """Largest magnitude decodable without wrap: |x| <= (n-1)//2."""
        return (self.modulus - 1) // 2


@dataclass(frozen=True)
class AdditiveSecretKey:
    """The primes of ``public``, plus CRT constants and randomizer tables derived from them once."""

    public: AdditivePublicKey
    prime_p: int
    prime_q: int
    p_squared: int = field(init=False, compare=False, repr=False)
    q_squared: int = field(init=False, compare=False, repr=False)
    mu_p: int = field(init=False, compare=False, repr=False)  # ((p-1) q)^-1 mod p
    mu_q: int = field(init=False, compare=False, repr=False)  # ((q-1) p)^-1 mod q
    q_inv_p: int = field(init=False, compare=False, repr=False)  # q^-1 mod p
    q_squared_inv: int = field(init=False, compare=False, repr=False)  # q^-2 mod p^2
    h_p: int = field(init=False, compare=False, repr=False)  # g_p^p mod p^2, g_p the smallest primitive root mod p
    h_q: int = field(init=False, compare=False, repr=False)  # g_q^q mod q^2
    h_p_table: tuple = field(init=False, compare=False, repr=False)  # _window_table(h_p, |p|, p^2)
    h_q_table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p, q = self.prime_p, self.prime_q
        if p == q or p * q != self.public.modulus or not (is_probable_prime(p) and is_probable_prime(q)):
            raise ProtocolError("secret key needs two distinct primes whose product is the public modulus")
        if math.gcd(p * q, (p - 1) * (q - 1)) != 1:
            raise ProtocolError("secret key needs gcd(pq, (p-1)(q-1)) = 1")
        h_p = pow(_primitive_root(p), p, p * p)
        h_q = pow(_primitive_root(q), q, q * q)
        constants = {
            "p_squared": p * p,
            "q_squared": q * q,
            # with g = 1 + n, L(g^(p-1) mod p^2) = (p-1) q mod p
            "mu_p": pow((p - 1) * q % p, -1, p),
            "mu_q": pow((q - 1) * p % q, -1, q),
            "q_inv_p": pow(q, -1, p),
            "q_squared_inv": pow(q * q, -1, p * p),
            "h_p": h_p,
            "h_q": h_q,
            "h_p_table": _window_table(h_p, p.bit_length(), p * p),
            "h_q_table": _window_table(h_q, q.bit_length(), q * q),
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)


def _primitive_root(p: int) -> int:
    """The smallest primitive root mod the prime p, whose p - 1 must pass the small-factor rule."""
    factors, cofactor = split_small_factors(p - 1)
    if cofactor != 1:
        if not is_probable_prime(cofactor):
            raise ProtocolError(
                "secret key needs p - 1 and q - 1 to be a product of primes below 2^10 and at most one larger prime"
            )
        factors.append(cofactor)
    g = 2
    while any(pow(g, (p - 1) // f, p) == 1 for f in factors):
        g += 1
    return g


def _window_table(base: int, exponent_bits: int, modulus: int) -> tuple[tuple[int, ...], ...]:
    """rows[j][d] = base^(d * 2^(w j)) mod modulus for every w-bit digit d, one row per digit."""
    rows = []
    for _ in range(-(-exponent_bits // WINDOW_BITS)):
        row = [1]
        for _ in range((1 << WINDOW_BITS) - 1):
            row.append(row[-1] * base % modulus)
        rows.append(tuple(row))
        base = row[-1] * base % modulus
    return tuple(rows)


def _fixed_base_pow(rows: tuple[tuple[int, ...], ...], exponent: int, modulus: int) -> int:
    """base^exponent mod modulus from ``_window_table(base, ...)``: one multiplication per digit."""
    digit_mask = (1 << WINDOW_BITS) - 1
    power = 1
    for row in rows:
        power = power * row[exponent & digit_mask] % modulus
        exponent >>= WINDOW_BITS
    return power


AdditiveKey = Union[AdditivePublicKey, AdditiveSecretKey]


def additive_keygen(bits: int, rng: random.Random) -> tuple[AdditivePublicKey, AdditiveSecretKey]:
    """Generate an additive keypair with an approximately ``bits``-bit modulus.

    Each prime is p = 2 k p' + 1 with its top bit set, p' prime and k < 2^10,
    so the secret key can factor p - 1 and build its randomizer tables
    (module docstring).  The modulus keeps its size: |p| + |q| = ``bits``.
    """
    if bits < 64:
        raise ProtocolError(f"additive modulus must be at least 64 bits, got {bits}")
    while True:
        p = generate_structured_prime(bits // 2, rng)
        q = generate_structured_prime(bits - bits // 2, rng)
        if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            public = AdditivePublicKey(p * q)
            return public, AdditiveSecretKey(public, p, q)


def _encode(pk: AdditivePublicKey, value: int) -> int:
    if abs(value) > pk.signed_bound:
        raise PlaintextRangeError(f"plaintext {value} outside the signed window +/-{pk.signed_bound}")
    return value % pk.modulus


def _decode(pk: AdditivePublicKey, residue: int) -> int:
    return residue - pk.modulus if residue > pk.modulus // 2 else residue


def additive_encrypt(key: AdditiveKey, value: int, rng: random.Random) -> int:
    """Encrypt a signed integer: c = (1 + m*n) * r^n mod n^2 with fresh r.

    ``key`` is the public key, or the secret key of a keyholder encrypting
    under its own key, who draws r^n by its CRT halves h_p^u_p and h_q^u_q
    from the key's tables (module docstring).  Both give ciphertexts of one
    distribution, not the same bytes.
    """
    pk = key.public if isinstance(key, AdditiveSecretKey) else key
    m = _encode(pk, value)
    n, n2 = pk.modulus, pk.modulus_squared
    if isinstance(key, AdditiveSecretKey):
        rp = _fixed_base_pow(key.h_p_table, rng.randrange(1, key.prime_p), key.p_squared)
        rq = _fixed_base_pow(key.h_q_table, rng.randrange(1, key.prime_q), key.q_squared)
        r_n = rq + (rp - rq) * key.q_squared_inv % key.p_squared * key.q_squared
    else:
        while True:
            r = rng.randrange(1, n)
            if math.gcd(r, n) == 1:
                break
        r_n = pow(r, n, n2)
    return (1 + m * n) * r_n % n2


def _require_ciphertext(pk: AdditivePublicKey, ciphertext: int) -> None:
    if not 0 < ciphertext < pk.modulus_squared:
        raise ProtocolIntegrityError("ciphertext outside [1, n^2)")


def additive_decrypt(sk: AdditiveSecretKey, ciphertext: int) -> int:
    """Decrypt to a signed integer in (-n/2, n/2], by CRT over p^2 and q^2."""
    p, q = sk.prime_p, sk.prime_q
    _require_ciphertext(sk.public, ciphertext)
    if ciphertext % p == 0 or ciphertext % q == 0:
        raise ProtocolIntegrityError("ciphertext not coprime to n")
    mp = (pow(ciphertext, p - 1, sk.p_squared) - 1) // p * sk.mu_p % p
    mq = (pow(ciphertext, q - 1, sk.q_squared) - 1) // q * sk.mu_q % q
    return _decode(sk.public, mq + (mp - mq) * sk.q_inv_p % p * q)


def invert_ciphertexts(pk: AdditivePublicKey, ciphertexts: Sequence[int]) -> list[int]:
    """Every ciphertext's inverse mod n^2, from one modular inversion.

    Montgomery's simultaneous inversion: invert the product of all inputs,
    then peel the individual inverses off the prefix products, 3(k-1)
    multiplications for k inputs.  The inputs must be valid ciphertexts;
    one gcd on their product checks that all are coprime to n.
    """
    if not ciphertexts:
        return []
    n2 = pk.modulus_squared
    for c in ciphertexts:
        _require_ciphertext(pk, c)
    prefix = [ciphertexts[0]]
    for c in ciphertexts[1:]:
        prefix.append(prefix[-1] * c % n2)
    if math.gcd(prefix[-1], pk.modulus) != 1:
        raise ProtocolIntegrityError("ciphertext not coprime to n")
    inverse = pow(prefix[-1], -1, n2)
    inverses = [0] * len(ciphertexts)
    for i in range(len(ciphertexts) - 1, 0, -1):
        inverses[i] = inverse * prefix[i - 1] % n2
        inverse = inverse * ciphertexts[i] % n2
    inverses[0] = inverse
    return inverses
