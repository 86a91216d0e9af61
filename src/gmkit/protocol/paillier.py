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
drawing r^n mod n^2 as its CRT halves u_p^p mod p^2 and u_q^q mod q^2 with
u_p, u_q uniform in Z_p*, Z_q*.  This is exact: r^n mod p^2 =
(r^q mod p)^p mod p^2, and u -> u^q permutes Z_p* as the key checks
gcd(q, p - 1) = 1 (likewise mod q).  Ciphertexts keep the public-key path's
distribution but not its bytes, at about 0.55 of its time at 128 bits and
a third at 256 and 1024 bits (CPython 3.11, 2-vCPU x86-64 host).

Key sizes are configurable and default to desk scale; this module
demonstrates protocol structure, it is not hardened for production use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence, Union

from ..errors import PlaintextRangeError, ProtocolError, ProtocolIntegrityError
from .primes import generate_prime


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
    """The primes of ``public``, plus CRT constants derived from them once."""

    public: AdditivePublicKey
    prime_p: int
    prime_q: int
    p_squared: int = field(init=False, compare=False, repr=False)
    q_squared: int = field(init=False, compare=False, repr=False)
    h_p: int = field(init=False, compare=False, repr=False)  # ((p-1) q)^-1 mod p
    h_q: int = field(init=False, compare=False, repr=False)  # ((q-1) p)^-1 mod q
    q_inv_p: int = field(init=False, compare=False, repr=False)  # q^-1 mod p
    q_squared_inv: int = field(init=False, compare=False, repr=False)  # q^-2 mod p^2

    def __post_init__(self):
        p, q = self.prime_p, self.prime_q
        if p == q or p * q != self.public.modulus:
            raise ProtocolError("secret key needs two distinct primes whose product is the public modulus")
        if math.gcd(p * q, (p - 1) * (q - 1)) != 1:
            raise ProtocolError("secret key needs gcd(pq, (p-1)(q-1)) = 1")
        constants = {
            "p_squared": p * p,
            "q_squared": q * q,
            # with g = 1 + n, L(g^(p-1) mod p^2) = (p-1) q mod p
            "h_p": pow((p - 1) * q % p, -1, p),
            "h_q": pow((q - 1) * p % q, -1, q),
            "q_inv_p": pow(q, -1, p),
            "q_squared_inv": pow(q * q, -1, p * p),
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)


AdditiveKey = Union[AdditivePublicKey, AdditiveSecretKey]


def additive_keygen(bits: int, rng: random.Random) -> tuple[AdditivePublicKey, AdditiveSecretKey]:
    """Generate an additive keypair with an approximately ``bits``-bit modulus."""
    if bits < 64:
        raise ProtocolError(f"additive modulus must be at least 64 bits, got {bits}")
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
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
    under its own key, who draws r^n by its CRT halves (module docstring).
    Both give ciphertexts of one distribution, not the same bytes.
    """
    pk = key.public if isinstance(key, AdditiveSecretKey) else key
    m = _encode(pk, value)
    n, n2 = pk.modulus, pk.modulus_squared
    if isinstance(key, AdditiveSecretKey):
        rp = pow(rng.randrange(1, key.prime_p), key.prime_p, key.p_squared)
        rq = pow(rng.randrange(1, key.prime_q), key.prime_q, key.q_squared)
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
    mp = (pow(ciphertext, p - 1, sk.p_squared) - 1) // p * sk.h_p % p
    mq = (pow(ciphertext, q - 1, sk.q_squared) - 1) // q * sk.h_q % q
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
