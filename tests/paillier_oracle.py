"""Paillier's homomorphic identities on ciphertexts (Paillier, EUROCRYPT
1999), the oracles the protocol tests check decryption and round 2 against."""

from gmkit.protocol.paillier import AdditivePublicKey


def additive_add(pk: AdditivePublicKey, c1: int, c2: int) -> int:
    """Ciphertext of the sum of the two underlying plaintexts."""
    return c1 * c2 % pk.modulus_squared


def additive_scalar_mul(pk: AdditivePublicKey, ciphertext: int, k: int) -> int:
    """Ciphertext of k times the underlying plaintext (k any signed int)."""
    n2 = pk.modulus_squared
    k_red = k % pk.modulus
    if k_red > pk.modulus // 2:
        k_red -= pk.modulus  # negative exponent keeps the magnitude small
    return pow(ciphertext, k_red, n2)
