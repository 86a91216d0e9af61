"""Synthetic signature generation, dataset splits and the dataset bundle.

The generator stands in for real biometric feature pipelines: every identity
gets a mean drawn uniformly on the unit sphere and every sample is the unit
normalization of mean + Gaussian noise.  One sample per enrolled identity is
enrolled; the remaining samples become genuine queries; impostor identities
are generated separately and never enrolled.  The enrolled and the impostor
identities are each one random draw, normalized in place, and a
:class:`Dataset` holds its queries as matrices, one query per row.

A dataset bundle is a directory of three binary ``.npy`` matrices, one
signature per row: ``enrolled``, ``genuine`` (identity column first) and
``impostors``, written by :func:`save_dataset` and read by
:func:`load_dataset`.
"""

from __future__ import annotations

import os
import tokenize
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SignatureMatrix, _check_query_labels, _check_query_vectors, _held, _hold_plain_numbers
from .errors import ConfigError, InvalidInputError, ParseError

_BUNDLE = ("enrolled", "genuine", "impostors")  # file names, without .npy


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic signature family, held as plain Python
    ints and floats (see :class:`gmkit.core.ModelConfig`)."""

    num_identities: int
    samples_per_identity: int
    dim: int
    noise_sigma: float
    impostor_fraction: float
    seed: int = 0

    def __post_init__(self):
        _hold_plain_numbers(self)
        if self.num_identities < 1 or self.dim < 1:
            raise ConfigError("num_identities and dim must be positive")
        if self.samples_per_identity < 2:
            raise ConfigError("samples_per_identity must be at least 2 (one enrolled + one genuine query)")
        if not (self.noise_sigma >= 0 and np.isfinite(self.noise_sigma)):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 < self.impostor_fraction < 1:
            raise ConfigError("impostor_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_impostor_identities(self) -> int:
        return max(1, round(self.num_identities * self.impostor_fraction))


@dataclass(frozen=True)
class Dataset:
    """Enrolled signatures plus held-out genuine and impostor queries.

    ``genuine`` holds one genuine query per row (Q x d) and ``genuine_ids``
    the enrolled column index of each one's identity; ``impostors`` holds
    one impostor query per row.  Impostor identities are disjoint from
    enrolled ones by construction.  Construction checks each matrix once
    and holds it read-only: a read-only view of a matrix that gmkit already
    holds is kept as it is, any other is copied once (see
    :func:`gmkit.core._held`).
    """

    enrolled: SignatureMatrix
    genuine: np.ndarray
    genuine_ids: np.ndarray
    impostors: np.ndarray

    def __post_init__(self):
        d = self.enrolled.dim
        genuine = _check_query_vectors(self.genuine, d, "genuine query", ConfigError)
        ids = _check_query_labels(self.genuine_ids, len(genuine), "genuine query identities", ConfigError)
        bad = np.flatnonzero((ids < 0) | (ids >= self.enrolled.num_signatures))
        if bad.size:
            raise ConfigError(f"genuine query identity {ids[bad[0]]} out of range")
        impostors = _check_query_vectors(self.impostors, d, "impostor query", ConfigError)
        object.__setattr__(self, "genuine", genuine)
        object.__setattr__(self, "genuine_ids", ids)
        object.__setattr__(self, "impostors", impostors)

    @cached_property
    def genuine_queries(self) -> tuple[tuple[np.ndarray, int], ...]:
        """(vector, identity) pairs: read-only row views of ``genuine``, for
        callers that take single queries."""
        return tuple(zip(self.genuine, self.genuine_ids.tolist()))


def _normalize(vectors: np.ndarray) -> None:
    """Scale every vector along the last axis to unit norm, in place, bit for
    bit as v / ||v||: each squared norm is the matmul of the vector with
    itself, the dot kernel ``np.linalg.norm`` uses."""
    norms = np.sqrt(np.matmul(vectors[..., None, :], vectors[..., :, None]))[..., 0]
    if not np.all(norms):
        raise InvalidInputError("cannot normalize a zero vector")
    vectors /= norms


def _draw_part(rng: np.random.Generator, identities: int, spec: SyntheticSpec) -> np.ndarray:
    """Unit samples (identities x samples x dim) of fresh identities, each the
    normalization of its identity's unit mean + sigma * noise, computed in
    the memory of one draw.  Per identity, the draw holds the mean and then
    each sample's noise: the order of one draw per vector."""
    block = rng.standard_normal((identities, 1 + spec.samples_per_identity, spec.dim))
    means, samples = block[:, :1], block[:, 1:]
    _normalize(means)
    samples *= spec.noise_sigma
    samples += means
    _normalize(samples)
    return samples


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a full dataset; bit-deterministic under ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    samples = _draw_part(rng, spec.num_identities, spec)
    # read-only copies, which SignatureMatrix (C-ordered d x N) and the
    # Dataset (one vector per row) keep as they are
    enrolled = SignatureMatrix(_held(samples[:, 0].T, np.float64, "C"))
    genuine = _held(samples[:, 1:], np.float64).reshape(-1, spec.dim)
    del samples  # frees the draw before the impostors are drawn
    impostors = _held(_draw_part(rng, spec.num_impostor_identities, spec), np.float64).reshape(-1, spec.dim)
    genuine_ids = np.repeat(np.arange(spec.num_identities), spec.samples_per_identity - 1)
    return Dataset(enrolled, genuine, genuine_ids, impostors)


def save_dataset(directory: str, dataset: Dataset) -> None:
    """Write the dataset bundle: ``enrolled.npy`` with one enrolled
    signature per row, ``genuine.npy`` with the identity (as float64) and
    then the coordinates of one genuine query per row, and ``impostors.npy``
    with one impostor query per row, each a C-order float64 matrix.
    Nothing else is written.
    """
    os.makedirs(directory, exist_ok=True)
    genuine = np.column_stack((dataset.genuine_ids.astype(np.float64), dataset.genuine))
    for name, matrix in zip(_BUNDLE, (dataset.enrolled.data.T, genuine, dataset.impostors)):
        np.save(os.path.join(directory, name + ".npy"), np.ascontiguousarray(matrix))


def _load_npy(path: str) -> np.ndarray:
    """The matrix in a ``.npy`` file, read without unpickling.  A file that
    cannot be read, or is not a nonempty 2-D float64 matrix, is a ParseError."""
    try:
        with open(path, "rb") as fh:
            matrix = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, tokenize.TokenError) as err:  # numpy tokenizes the header
        raise ParseError(f"{path}: {err}") from None
    if matrix.dtype != np.float64 or matrix.ndim != 2 or not matrix.size:
        raise ParseError(f"{path}: holds a {matrix.dtype} array of shape {matrix.shape}, not a float64 matrix")
    return matrix


def load_dataset(directory: str) -> Dataset:
    """Read the dataset bundle :func:`save_dataset` writes: the three
    ``.npy`` files, of which a missing one is an OSError naming it.

    A non-finite coordinate, and an identity that is not an enrolled column
    index, are a ParseError naming the file and its 1-based matrix row.
    Nothing in the directory is written.
    """

    def read(name: str, first: int = 0) -> np.ndarray:
        """The matrix of one bundle file; a non-finite entry in a column from
        ``first`` on is a ParseError naming its row and column."""
        path = os.path.join(directory, name + ".npy")
        m = _load_npy(path)
        finite = np.isfinite(m[:, first:])
        if not finite.all():
            k, j = (int(i) for i in np.argwhere(~finite)[0])
            value = float(m[k, first + j])
            raise ParseError(f"{path}: row {k + 1}, column {first + j + 1}: {value!r} is not finite")
        return m

    enrolled = SignatureMatrix(read("enrolled").T)
    # the identity column is checked below, with its own message
    genuine_raw = read("genuine", first=1)
    ids = genuine_raw[:, 0]
    # checked before the int64 cast, which would wrap an identity such as 1e300
    n = enrolled.num_signatures
    bad = np.flatnonzero(~np.isfinite(ids) | (ids < 0) | (ids >= n) | (ids != np.trunc(ids)))
    if bad.size:
        k = int(bad[0])
        path = os.path.join(directory, "genuine.npy")
        raise ParseError(f"{path}: row {k + 1}: identity {float(ids[k])!r} is not an integer in [0, {n})")
    impostors = read("impostors")
    return Dataset(enrolled, genuine_raw[:, 1:], ids.astype(np.int64), impostors)
