"""Synthetic signature generation, dataset splits and matrix file IO.

The generator stands in for real biometric feature pipelines: every identity
gets a mean drawn uniformly on the unit sphere and every sample is the unit
normalization of mean + Gaussian noise.  One sample per enrolled identity is
enrolled; the remaining samples become genuine queries; impostor identities
are generated separately and never enrolled.  The enrolled and the impostor
identities are each one random draw, normalized in place, and a
:class:`Dataset` holds its queries as matrices, one query per row.

A dataset bundle is a directory of three matrices, one signature per row:
``enrolled``, ``genuine`` (identity column first) and ``impostors``.
:func:`save_dataset` writes them as binary ``.npy`` files, and
:func:`load_dataset` reads either those or three CSVs, such as an outside
descriptor extractor writes.  A CSV matrix holds full round-trip precision,
with an optional leading header line ``# d=<d> n=<n>``.  This module holds
the package's one numeric-CSV reader, which also reads the numeric sections
of model files (:mod:`gmkit.modelio`): the file is read in blocks of whole
lines into ``np.loadtxt``, and whatever that refuses goes to a token scan
that names the bad token's row and column, or the ragged row.
"""

from __future__ import annotations

import itertools
import os
import tokenize
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .core import SignatureMatrix, _check_query_labels, _check_query_vectors, _held, _hold_plain_numbers
from .errors import ConfigError, InvalidInputError, ParseError

_BUNDLE = ("enrolled", "genuine", "impostors")  # file names, without .npy or .csv

_LINES_HINT = 1 << 16  # bytes of whole lines per read when parsing a file


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
    and holds it read-only: an array that no writeable array reaches is kept
    as it is, any other is copied once (see :func:`gmkit.core._held`).
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
    genuine = _held(samples[:, 1:], np.float64).reshape(-1, spec.dim)
    del samples  # frees the draw before the impostors are drawn
    impostors = _held(_draw_part(rng, spec.num_impostor_identities, spec), np.float64).reshape(-1, spec.dim)
    genuine_ids = np.repeat(np.arange(spec.num_identities), spec.samples_per_identity - 1)
    return Dataset(enrolled, genuine, genuine_ids, impostors)


def _csv_lines(matrix: np.ndarray) -> Iterator[str]:
    """One newline-ended CSV line per row, shortest round-trip floats, made
    as the file is written."""
    return (",".join(map(repr, row)) + "\n" for row in matrix.tolist())


def save_matrix(path: str, matrix: np.ndarray) -> None:
    """Write a matrix as CSV under its ``# d=<d> n=<n>`` header line, one row
    per line, shortest round-trip floats."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ParseError(f"can only save 2-D matrices, got shape {m.shape}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# d={m.shape[1]} n={m.shape[0]}\n")
        fh.writelines(_csv_lines(m))


def load_matrix(path: str) -> np.ndarray:
    """Read a CSV matrix written by :func:`save_matrix`.

    Raises :class:`ParseError` naming the offending row (and column for bad
    tokens) on empty files, ragged rows or non-numeric entries.  Blank lines
    and lines starting with ``#`` are skipped; a ``#`` anywhere else is a bad
    token.  Lines end where ``str.splitlines`` ends them.
    """
    return _parse_rows(lambda: _data_lines(path), float, f"{path}:")


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each data row: lines that are not blank and do
    not start with ``#``, cut by ``str.splitlines``.  Reads the file in
    blocks of whole lines; a byte outside ASCII is a ParseError naming its
    line."""
    n = 0
    with open(path, "rb") as fh:
        while block := b"".join(fh.readlines(_LINES_HINT)):
            try:
                lines = block.decode("ascii").splitlines()
            except UnicodeDecodeError as err:
                # the line the byte ends: the lines before it, plus the one it is on
                line = n + len((block[: err.start].decode("ascii") + "x").splitlines())
                raise ParseError(f"{path}: row {line}: byte {block[err.start]:#04x} is not ASCII") from None
            for n, line in enumerate(lines, start=n + 1):
                text = line.lstrip()
                if text and text[0] != "#":
                    yield n, line


def _parse_rows(numbered: Callable[[], Iterator[tuple[int, str]]], kind: type, prefix: str) -> np.ndarray:
    """The comma-separated rows of ``numbered()``, (line number, line)
    pairs, as a 2-D float64 (``kind`` float) or int64 (``kind`` int) matrix.

    np.loadtxt reads a field as float() and int() do, except that it strips
    ``"\\x1f"`` as whitespace and refuses some fields they accept (``"1_0"``).
    So a line holding ``"\\x1f"``, and every input np.loadtxt refuses, goes to
    a token scan, which calls ``numbered()`` again and names the first fault
    in an error text that starts with ``prefix``: a bad token by row and
    column, a ragged row, or no rows at all.
    """
    dtype = np.float64 if kind is float else np.int64

    def lines() -> Iterator[str]:
        for _, line in numbered():
            if "\x1f" in line:
                raise ValueError
            yield line

    rest = lines()
    try:
        first = next(rest, None)
        if first is not None:  # np.loadtxt warns on no lines
            return np.loadtxt(itertools.chain([first], rest), dtype=dtype, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    cast = float if kind is float else np.int64  # np.int64 is int() that refuses values past int64
    rows: list[list] = []
    for lineno, line in numbered():
        values = []
        for colno, token in enumerate(line.split(","), start=1):
            try:
                values.append(cast(token))
            except (ValueError, OverflowError):
                raise ParseError(f"{prefix} row {lineno}, column {colno}: bad number {token!r}") from None
        if rows and len(values) != len(rows[0]):
            raise ParseError(f"{prefix} row {lineno} has {len(values)} columns, expected {len(rows[0])}")
        rows.append(values)
    if not rows:
        raise ParseError(f"{prefix} no data rows")
    return np.array(rows, dtype=dtype)


def _data_line(path: str, k: int) -> int:
    """File line number of the k-th (0-based) data row, as counted by :func:`load_matrix`."""
    return next(itertools.islice(_data_lines(path), k, None))[0]


def save_dataset(directory: str, dataset: Dataset) -> None:
    """Write the dataset bundle: ``enrolled.npy`` with one enrolled
    signature per row, ``genuine.npy`` with the identity (as float64) and
    then the coordinates of one genuine query per row, and ``impostors.npy``
    with one impostor query per row, each a C-order float64 matrix.

    Nothing else is written.  To export a bundle as CSV, write each matrix
    of the loaded arrays with :func:`save_matrix`.
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
    """Read a dataset bundle: the three ``.npy`` files :func:`save_dataset`
    writes, or three CSVs of the same matrices, read with :func:`load_matrix`.

    Both give the same arrays, bit for bit, and the same checks follow: a
    non-finite coordinate, and an identity that is not an enrolled column
    index, are a ParseError naming the file and its row (the file line of a
    CSV, the 1-based matrix row of a ``.npy``).  A directory that holds
    bundle files of both formats is a ParseError naming them.  Nothing in
    the directory is written.
    """
    found = {ext: [name + ext for name in _BUNDLE if os.path.exists(os.path.join(directory, name + ext))]
             for ext in (".npy", ".csv")}
    if found[".npy"] and found[".csv"]:
        raise ParseError(
            f"{directory}: holds both .npy ({', '.join(found['.npy'])}) and CSV ({', '.join(found['.csv'])}) "
            "bundle files; a bundle is one or the other, so delete one set"
        )
    if found[".npy"]:
        ext, parse, row = ".npy", _load_npy, lambda path, k: k + 1
    else:
        ext, parse, row = ".csv", load_matrix, _data_line

    def read(name: str, first: int = 0) -> np.ndarray:
        """The matrix of one bundle file; a non-finite entry in a column from
        ``first`` on is a ParseError naming its row and column."""
        path = os.path.join(directory, name + ext)
        m = parse(path)
        finite = np.isfinite(m[:, first:])
        if not finite.all():
            k, j = (int(i) for i in np.argwhere(~finite)[0])
            value = float(m[k, first + j])
            raise ParseError(f"{path}: row {row(path, k)}, column {first + j + 1}: {value!r} is not finite")
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
        genuine_path = os.path.join(directory, "genuine" + ext)
        raise ParseError(
            f"{genuine_path}: row {row(genuine_path, k)}: identity {float(ids[k])!r} is not an integer in [0, {n})"
        )
    impostors = read("impostors")
    return Dataset(enrolled, genuine_raw[:, 1:], ids.astype(np.int64), impostors)
