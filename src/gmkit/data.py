"""Synthetic signature generation, dataset splits and matrix file IO.

The generator stands in for real biometric feature pipelines: every identity
gets a mean drawn uniformly on the unit sphere and every sample is the unit
normalization of mean + Gaussian noise.  One sample per enrolled identity is
enrolled; the remaining samples become genuine queries; impostor identities
are generated separately and never enrolled.  The enrolled and the impostor
identities are each one random draw, normalized in place, and a
:class:`Dataset` holds its queries as matrices, one query per row.

Matrices are stored as plain CSV, one signature per row, full round-trip
precision, with an optional leading header line ``# d=<d> n=<n>``.  This
module holds the package's one numeric-CSV reader, which also reads the
numeric sections of model files (:mod:`gmkit.modelio`): the file is read
in blocks of whole lines into ``np.loadtxt``, and whatever that refuses
goes to a token scan that names the bad token's row and column, or the
ragged row.  A dataset bundle (:func:`save_dataset`) also keeps a binary ``.npy`` copy of
each parsed matrix and a SHA-256 manifest of all six files.
:func:`load_dataset` takes a copy only when the manifest's digests match it
and its CSV, so a bundle is parsed once, by its writer, and each later read
costs a hash and a binary load; an edited or hand-made bundle is parsed.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .core import SignatureMatrix, _check_query_labels, _check_query_vectors, _held
from .errors import ConfigError, InvalidInputError, ParseError

ENROLLED_FILE = "enrolled.csv"
GENUINE_FILE = "genuine.csv"
IMPOSTORS_FILE = "impostors.csv"
MANIFEST_FILE = "bundle.sha256"

_CHUNK = 1 << 20  # bytes per read when hashing a file
_LINES_HINT = 1 << 16  # bytes of whole lines per read when parsing a file


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


def _copy_path(csv_path: str) -> str:
    """The binary copy kept next to a bundle CSV: the same name with ``.npy``."""
    return os.path.splitext(csv_path)[0] + ".npy"


def _file_digest(path: str) -> str:
    """Hex SHA-256 of a file, read in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_dataset(directory: str, dataset: Dataset) -> None:
    """Write the dataset bundle.

    ``enrolled.csv`` holds one enrolled signature per row, ``genuine.csv``
    the identity and then the coordinates of one genuine query per row, and
    ``impostors.csv`` one impostor query per row.  The CSVs are the
    interchange format and the source of truth.  Next to each CSV a ``.npy``
    copy holds the float64 matrix :func:`load_matrix` returns for it, and
    ``bundle.sha256`` lists the SHA-256 of all six files in ``sha256sum``
    format.  The old manifest is removed before anything is written and the
    new one replaces it in one rename, so a write cut short leaves no
    manifest that matches.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = os.path.join(directory, MANIFEST_FILE)
    try:
        os.remove(manifest)
    except FileNotFoundError:
        pass
    enrolled_path, genuine_path, impostors_path = (
        os.path.join(directory, name) for name in (ENROLLED_FILE, GENUINE_FILE, IMPOSTORS_FILE)
    )
    enrolled = dataset.enrolled.data.T
    save_matrix(enrolled_path, enrolled)
    with open(genuine_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# identity column + d={dataset.enrolled.dim} coordinates, n={len(dataset.genuine)}\n")
        fh.writelines(f"{idx},{line}" for idx, line in zip(dataset.genuine_ids.tolist(), _csv_lines(dataset.genuine)))
    save_matrix(impostors_path, dataset.impostors)
    genuine = np.column_stack((dataset.genuine_ids.astype(np.float64), dataset.genuine))
    lines = []
    for path, matrix in ((enrolled_path, enrolled), (genuine_path, genuine), (impostors_path, dataset.impostors)):
        copy = _copy_path(path)
        np.save(copy, np.ascontiguousarray(matrix))  # C order, as load_matrix returns it
        lines += (f"{_file_digest(name)}  {os.path.basename(name)}\n" for name in (path, copy))
    temp = manifest + ".tmp"
    with open(temp, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(lines)
    os.replace(temp, manifest)


_MANIFEST_LINE = re.compile(r"([0-9a-f]{64}) [ *](.+)")


def _read_manifest(path: str) -> dict[str, str]:
    """{file name: hex SHA-256} from a ``sha256sum`` listing.  A missing
    manifest lists nothing, and lines of another form are ignored."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii", "replace")
    except OSError:
        return {}
    return {m[2]: m[1] for m in map(_MANIFEST_LINE.fullmatch, text.splitlines()) if m}


def _listed(digests: dict[str, str], path: str) -> bool:
    """Whether the file exists and has the SHA-256 the manifest lists for its name."""
    listed = digests.get(os.path.basename(path))
    if listed is None:
        return False
    try:
        return _file_digest(path) == listed
    except OSError:
        return False


def _load_copy(path: str) -> np.ndarray:
    """The matrix in a ``.npy`` copy, read without unpickling.  A copy that
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
    """Read a dataset bundle written by :func:`save_dataset`.

    Each matrix comes from its ``.npy`` copy when ``bundle.sha256`` lists
    the digests of both the CSV and the copy and both files match them;
    otherwise it is parsed from the CSV with :func:`load_matrix`.  A content
    digest, not a size or a time stamp, because a CSV edited in place can
    keep both.  Both ways give the same arrays, bit for bit, and the checks
    that follow are the same: a non-finite coordinate, and an identity that
    is not an enrolled column index, are a ParseError naming the CSV and
    its row.  Nothing in the directory is written.
    """
    digests = _read_manifest(os.path.join(directory, MANIFEST_FILE))

    def read(path: str, first: int = 0) -> np.ndarray:
        """The matrix of one bundle CSV; a non-finite entry in a column from
        ``first`` on is a ParseError naming its row and column."""
        copy = _copy_path(path)
        m = _load_copy(copy) if _listed(digests, path) and _listed(digests, copy) else load_matrix(path)
        finite = np.isfinite(m[:, first:])
        if not finite.all():
            k, j = (int(i) for i in np.argwhere(~finite)[0])
            value = float(m[k, first + j])
            raise ParseError(f"{path}: row {_data_line(path, k)}, column {first + j + 1}: {value!r} is not finite")
        return m

    enrolled = SignatureMatrix(read(os.path.join(directory, ENROLLED_FILE)).T)
    genuine_path = os.path.join(directory, GENUINE_FILE)
    # the identity column is checked below, with its own message
    genuine_raw = read(genuine_path, first=1)
    ids = genuine_raw[:, 0]
    # checked before the int64 cast, which would wrap an identity such as 1e300
    n = enrolled.num_signatures
    bad = np.flatnonzero(~np.isfinite(ids) | (ids < 0) | (ids >= n) | (ids != np.trunc(ids)))
    if bad.size:
        k = int(bad[0])
        raise ParseError(
            f"{genuine_path}: row {_data_line(genuine_path, k)}: identity {float(ids[k])!r} is not an integer in [0, {n})"
        )
    impostors = read(os.path.join(directory, IMPOSTORS_FILE))
    return Dataset(enrolled, genuine_raw[:, 1:], ids.astype(np.int64), impostors)
