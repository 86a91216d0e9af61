"""Deterministic prime generation for the desk-scale cryptosystems.

All randomness comes from a caller-supplied ``random.Random`` so key
generation is reproducible.  Miller-Rabin runs a fixed witness schedule:
exact for 64-bit candidates and ample for the larger non-adversarial moduli
generated here.
"""

from __future__ import annotations

import random

# the 25 primes below 100: trial divisors, then Miller-Rabin witnesses; the
# first 13 alone decide primality exactly below 3.3e24 (~2^81)
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


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

