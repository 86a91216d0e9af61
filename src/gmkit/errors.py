"""Exception hierarchy.

Every library error derives from :class:`GmkitError` and carries a short
``category`` slug used by the command line driver for its
``ERROR:<category>:`` prefix.
"""


class GmkitError(Exception):
    category = "internal"


class InvalidInputError(GmkitError):
    """Non-finite or otherwise malformed numeric input."""

    category = "input"


class InvalidSparsityError(GmkitError):
    """Sparsity level incompatible with the code length."""

    category = "sparsity"


class DimensionError(GmkitError):
    """Operands with incompatible shapes."""

    category = "dimension"


class ConfigError(GmkitError):
    """Invalid configuration or sizing."""

    category = "config"


class ParseError(GmkitError):
    """Malformed matrix / model / config file."""

    category = "io"


class ProtocolError(GmkitError):
    category = "protocol"


class PlaintextRangeError(ProtocolError):
    """Plaintext or mask outside the signed decodable window."""


class ProtocolIntegrityError(ProtocolError):
    """A protocol value is malformed or inconsistent.

    Raised for a ciphertext outside [1, n^2) or not coprime to n, for a
    message 2 with the wrong number of ciphertexts or a packed plaintext
    outside its slots, and for revealed values that do not unmask exactly
    with the server's masks.
    """
