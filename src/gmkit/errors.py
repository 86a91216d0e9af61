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


class DegenerateProcrustesError(GmkitError):
    """Projection update hit a rank-deficient cross matrix.

    ``rank`` is the achieved numerical rank; the caller may re-randomize the
    code matrix and retry.
    """

    category = "procrustes"

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class ParseError(GmkitError):
    """Malformed matrix / model / config file."""

    category = "io"


class ProtocolError(GmkitError):
    category = "protocol"


class PlaintextRangeError(ProtocolError):
    """Plaintext or mask outside the signed decodable window."""


class ProtocolIntegrityError(ProtocolError):
    """A protocol value is malformed or inconsistent.

    Raised for a ciphertext outside [1, n^2) or not coprime to n, and for
    revealed values that do not unmask exactly with the server's masks.
    """
