"""Deterministic prime generation for the desk-scale cryptosystems.

All randomness comes from a caller-supplied ``random.Random`` so key
generation is reproducible.  Miller-Rabin runs a fixed witness schedule:
exact for 64-bit candidates and ample for the larger non-adversarial moduli
generated here.

Key primes have the form p = 2 k p' + 1 with p' prime and k < 2^10, so
p - 1 factors by trial division below 2^10 and one primality test of what is
left, and a primitive root mod p can be found and checked.
"""

from __future__ import annotations

import random

# the 25 primes below 100: trial divisors, then Miller-Rabin witnesses; the
# first 13 alone decide primality exactly below 3.3e24 (~2^81)
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

SMALL_FACTOR_BITS = 10  # p - 1 = (primes below 2^10) * (1 or one probable prime)
_TRIAL_DIVISORS = [f for f in range(2, 1 << SMALL_FACTOR_BITS) if all(f % d for d in range(2, int(f**0.5) + 1))]


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Random prime with the top bit set."""
    if bits < 8:
        raise ValueError("prime size below 8 bits is not supported")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def split_small_factors(m: int) -> tuple[list[int], int]:
    """The distinct primes below 2^10 that divide m > 0, and m with all of them divided out."""
    factors = []
    for f in _TRIAL_DIVISORS:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
    return factors, m


def generate_structured_prime(bits: int, rng: random.Random) -> int:
    """Random prime p = 2 k p' + 1 with the top bit set, p' prime and k < 2^10.

    p' has bits - 10 bits, which leaves between 2^8 and 2^9 values of k
    that keep p at ``bits`` bits.  k is drawn from them until 2 k p' + 1 is
    prime; after as many draws as there are values, p' is drawn afresh.
    """
    while True:
        cofactor = generate_prime(bits - SMALL_FACTOR_BITS, rng)
        # 2^(bits-1) <= 2 k p' + 1 < 2^bits
        low = -(-(1 << (bits - 2)) // cofactor)
        high = ((1 << (bits - 1)) - 1) // cofactor
        for _ in range(high - low + 1):
            candidate = 2 * rng.randint(low, high) * cofactor + 1
            if is_probable_prime(candidate):
                return candidate
