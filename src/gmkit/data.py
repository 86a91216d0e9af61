"""Synthetic signature generation, dataset splits and matrix file IO.

The generator stands in for real biometric feature pipelines: every identity
gets a mean drawn uniformly on the unit sphere and every sample is the unit
normalization of mean + Gaussian noise.  One sample per enrolled identity is
enrolled; the remaining samples become genuine queries; impostor identities
are generated separately and never enrolled.  The enrolled and the impostor
identities are each one random draw, normalized in place, and a
:class:`Dataset` holds its queries as matrices, one query per row.

Matrices are stored as plain CSV, one signature per row, full round-trip
precision, with an optional leading header line ``# d=<d> n=<n>``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .core import SignatureMatrix, _check_query_labels, _check_query_vectors, _frozen
from .errors import ConfigError, InvalidInputError, ParseError

ENROLLED_FILE = "enrolled.csv"
GENUINE_FILE = "genuine.csv"
IMPOSTORS_FILE = "impostors.csv"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic signature family."""

    num_identities: int
    samples_per_identity: int
    dim: int
    noise_sigma: float
    impostor_fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 1 or self.dim < 1:
            raise ConfigError("num_identities and dim must be positive")
        if self.samples_per_identity < 2:
            raise ConfigError("samples_per_identity must be at least 2 (one enrolled + one genuine query)")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        if not 0 < self.impostor_fraction < 1:
            raise ConfigError("impostor_fraction must lie in (0, 1)")

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
    and keeps it read-only (see :func:`gmkit.core._check_query_vectors`).
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
    enrolled = SignatureMatrix(np.ascontiguousarray(samples[:, 0].T))
    # read-only copies, one vector per row, which the Dataset keeps as they are
    genuine = _frozen(samples[:, 1:]).reshape(-1, spec.dim)
    del samples  # frees the draw before the impostors are drawn
    impostors = _frozen(_draw_part(rng, spec.num_impostor_identities, spec)).reshape(-1, spec.dim)
    genuine_ids = np.repeat(np.arange(spec.num_identities), spec.samples_per_identity - 1)
    return Dataset(enrolled, genuine, genuine_ids, impostors)


def _csv_lines(matrix: np.ndarray) -> Iterator[str]:
    """One newline-ended CSV line per row, shortest round-trip floats, made
    as the file is written."""
    return (",".join(map(repr, row)) + "\n" for row in matrix.tolist())


def save_matrix(path: str, matrix: np.ndarray, header: bool = True) -> None:
    """Write a matrix as CSV, one row per line, shortest round-trip floats."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ParseError(f"can only save 2-D matrices, got shape {m.shape}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if header:
            fh.write(f"# d={m.shape[1]} n={m.shape[0]}\n")
        elif not len(m):
            fh.write("\n")  # an empty headerless matrix is one blank line
        fh.writelines(_csv_lines(m))


def load_matrix(path: str) -> np.ndarray:
    """Read a CSV matrix written by :func:`save_matrix`.

    Raises :class:`ParseError` naming the offending row (and column for bad
    tokens) on empty files, ragged rows or non-numeric entries.  Blank lines
    and lines starting with ``#`` are skipped; a ``#`` anywhere else is a bad
    token.
    """
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    data = [line for line in lines if line.strip() and not line.lstrip().startswith("#")]
    # np.loadtxt reads a field as float() does, except that it also strips
    # "\x1f" as whitespace (splitlines already cut at "\x1c".."\x1e") and
    # refuses "1_0"; the token scan settles those and names every fault
    if data and "\x1f" not in raw:
        try:
            return np.loadtxt(data, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    return _scan_matrix(path, lines)


def _scan_matrix(path: str, lines: list[str]) -> np.ndarray:
    """Token-by-token parse with ``float``; the error path of :func:`load_matrix`."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        values = []
        for colno, token in enumerate(line.split(","), start=1):
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(f"{path}: row {lineno}, column {colno}: bad number {token!r}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(f"{path}: row {lineno} has {len(values)} columns, expected {width}")
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _data_line(path: str, k: int) -> int:
    """File line number of the k-th (0-based) data row, as counted by :func:`load_matrix`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    data = [n for n, line in enumerate(lines, start=1) if line.strip() and not line.lstrip().startswith("#")]
    return data[k]


def save_dataset(directory: str, dataset: Dataset) -> None:
    """Write the dataset bundle (enrolled / genuine / impostors CSVs)."""
    os.makedirs(directory, exist_ok=True)
    save_matrix(os.path.join(directory, ENROLLED_FILE), dataset.enrolled.data.T)
    with open(os.path.join(directory, GENUINE_FILE), "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# identity column + d={dataset.enrolled.dim} coordinates, n={len(dataset.genuine)}\n")
        fh.writelines(f"{idx},{line}" for idx, line in zip(dataset.genuine_ids.tolist(), _csv_lines(dataset.genuine)))
    save_matrix(os.path.join(directory, IMPOSTORS_FILE), dataset.impostors)


def load_dataset(directory: str) -> Dataset:
    """Read a dataset bundle written by :func:`save_dataset`."""
    enrolled = SignatureMatrix(load_matrix(os.path.join(directory, ENROLLED_FILE)).T)
    genuine_path = os.path.join(directory, GENUINE_FILE)
    genuine_raw = load_matrix(genuine_path)
    ids = genuine_raw[:, 0]
    bad = np.flatnonzero(~np.isfinite(ids) | (ids < 0) | (ids != np.trunc(ids)))
    if bad.size:
        k = int(bad[0])
        raise ParseError(
            f"{genuine_path}: row {_data_line(genuine_path, k)}: identity {float(ids[k])!r} is not a nonnegative integer"
        )
    impostors = load_matrix(os.path.join(directory, IMPOSTORS_FILE))
    return Dataset(enrolled, genuine_raw[:, 1:], ids.astype(np.int64), impostors)
