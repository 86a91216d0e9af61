"""Synthetic signature generation, dataset splits and matrix file IO.

The generator stands in for real biometric feature pipelines: every identity
gets a mean drawn uniformly on the unit sphere and every sample is the unit
normalization of mean + Gaussian noise.  One sample per enrolled identity is
enrolled; the remaining samples become genuine queries; impostor identities
are generated separately and never enrolled.

Matrices are stored as plain CSV, one signature per row, full round-trip
precision, with an optional leading header line ``# d=<d> n=<n>``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import SignatureMatrix, _check_query_vectors
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

    ``genuine_queries`` pairs each query vector with the enrolled column
    index of its identity.  Impostor identities are disjoint from enrolled
    ones by construction.

    Construction checks the queries once and stacks them into read-only
    arrays, one query per row, with the identities as an int64 array; the
    two fields then hold row views of those stacks, so each query is kept
    once, and the evaluation query set is built from the stacks.
    """

    enrolled: SignatureMatrix
    genuine_queries: tuple[tuple[np.ndarray, int], ...]
    impostors: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.enrolled.dim
        n = self.enrolled.num_signatures
        ids = np.array([idx for _, idx in self.genuine_queries])
        if ids.size and ids.dtype.kind not in "iu":
            raise ConfigError("genuine query identities must be integers")
        bad = np.flatnonzero((ids < 0) | (ids >= n))
        if bad.size:
            raise ConfigError(f"genuine query identity {ids[bad[0]]} out of range")
        ids = ids.astype(np.int64)
        genuine = _check_query_vectors((vec for vec, _ in self.genuine_queries), d, "genuine query", ConfigError)
        impostors = _check_query_vectors(self.impostors, d, "impostor query", ConfigError)
        for stack in (ids, genuine, impostors):
            stack.setflags(write=False)
        object.__setattr__(self, "genuine_queries", tuple(zip(genuine, ids.tolist())))
        object.__setattr__(self, "impostors", tuple(impostors))
        object.__setattr__(self, "_genuine_ids", ids)
        object.__setattr__(self, "_genuine", genuine)
        object.__setattr__(self, "_impostors", impostors)


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise InvalidInputError("cannot normalize a zero vector")
    return v / norm


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a full dataset; bit-deterministic under ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    enrolled_cols = []
    genuine = []
    for i in range(spec.num_identities):
        mean = _unit(rng.standard_normal(spec.dim))
        samples = [
            _unit(mean + spec.noise_sigma * rng.standard_normal(spec.dim))
            for _ in range(spec.samples_per_identity)
        ]
        enrolled_cols.append(samples[0])
        genuine.extend((s, i) for s in samples[1:])
    impostors = []
    for _ in range(spec.num_impostor_identities):
        mean = _unit(rng.standard_normal(spec.dim))
        impostors.extend(
            _unit(mean + spec.noise_sigma * rng.standard_normal(spec.dim))
            for _ in range(spec.samples_per_identity)
        )
    return Dataset(SignatureMatrix(np.column_stack(enrolled_cols)), tuple(genuine), tuple(impostors))


def _format_row(row: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in row)


def save_matrix(path: str, matrix: np.ndarray, header: bool = True) -> None:
    """Write a matrix as CSV, one row per line, shortest round-trip floats."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ParseError(f"can only save 2-D matrices, got shape {m.shape}")
    lines = []
    if header:
        lines.append(f"# d={m.shape[1]} n={m.shape[0]}")
    lines.extend(_format_row(row) for row in m)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    genuine_rows = [
        [float(idx)] + [float(v) for v in vec] for vec, idx in dataset.genuine_queries
    ]
    d = dataset.enrolled.dim
    with open(os.path.join(directory, GENUINE_FILE), "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# identity column + d={d} coordinates, n={len(genuine_rows)}\n")
        for row in genuine_rows:
            fh.write(str(int(row[0])) + "," + _format_row(np.array(row[1:])) + "\n")
    save_matrix(
        os.path.join(directory, IMPOSTORS_FILE),
        np.vstack(dataset.impostors) if dataset.impostors else np.empty((0, d)),
    )


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
    genuine = tuple((row[1:].copy(), int(row[0])) for row in genuine_raw)
    impostors_raw = load_matrix(os.path.join(directory, IMPOSTORS_FILE))
    impostors = tuple(row.copy() for row in impostors_raw)
    return Dataset(enrolled, genuine, impostors)
